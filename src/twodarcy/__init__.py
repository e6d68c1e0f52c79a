"""Primal-dual mixed finite elements for two-region Darcy flow.

Region 1 carries an H(div) flux / cellwise pressure pair, region 2 a
continuous nodal pressure / gradient velocity pair, coupled only through
weak interface balance terms on the axes of the four-quadrant square.

The top level exports the pipeline, from cases and meshes to the error
study; block assemblers and quadrature rules stay in their own modules.
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
    build_cartesian_mesh,
)
from .solver import (
    SolutionFields,
    SolverError,
    check_wellposedness,
    solve,
)
from .spaces import (
    DofLayout,
    build_dof_layout,
)

__version__ = "0.1.0"
