"""Primal-dual mixed finite elements for two-region Darcy flow.

Region 1 carries an H(div) flux / cellwise pressure pair, region 2 a
continuous nodal pressure / gradient velocity pair, coupled only through
weak interface balance terms on the axes of the four-quadrant square.
"""

from .analysis import (
    ConvergenceReport,
    ErrorReport,
    convergence_study,
    error_norms,
    rate,
    write_csv,
)
from .assembly import (
    AdmissibilityError,
    CoefficientSet,
    SaddleSystem,
    assemble_A,
    assemble_B,
    assemble_C,
    assemble_rhs,
    assemble_system,
)
from .manufactured import (
    ManufacturedCase,
    derive_interface_data,
    example1,
    example2,
    example3,
    example4,
    finite_difference_check,
)
from .mesh import (
    BipartiteMesh,
    EdgeKind,
    build_cartesian_mesh,
    validate_consistency,
    write_mesh_vtk,
)
from .quadrature import (
    QuadRule,
    integrate_on_segment,
    integrate_on_triangle,
    segment_rule,
    triangle_rule,
)
from .solver import (
    SolutionFields,
    SolverError,
    WellposednessDiagnostics,
    check_wellposedness,
    solve,
)
from .spaces import (
    DofLayout,
    build_dof_layout,
    p1_eval,
    p1_grad,
    potential_to_velocity,
    rt0_div,
    rt0_eval,
)

__version__ = "0.1.0"
