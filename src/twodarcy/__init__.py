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
)
from .mesh import (
    BipartiteMesh,
    EdgeKind,
    build_cartesian_mesh,
)
from .quadrature import (
    QuadRule,
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
    potential_to_velocity,
)

__version__ = "0.1.0"
