"""Numerical toolkit for multisymplectic formulations of parametric variational problems.

Exterior algebra on increasing multi-indices, degree-1 homogeneous
Lagrangians and their areolar forms, the fiberwise Legendre transform with
its convex image hypersurface, the tautological form and its differential,
and the action integrals whose equality ties the pictures together.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateCellError,
    InversionError,
    NotInImageError,
    OrientationError,
    UnsupportedDegreeError,
    ZeroSectionError,
)
from .exterior import (
    GrassmannPoint,
    KCovector,
    KVector,
    MultiIndex,
    canonicalize_index,
    grassmann_eq,
    is_decomposable,
    multi_indices,
    pair,
    plane_from_bivector,
    random_decomposable,
    volume_form,
    wedge_product,
    wedge_vectors,
)
from .lagrangian import (
    AreolarForm,
    GraphDensity,
    HomogeneousLagrangian,
    area_lagrangian,
    areolar_form,
    constant_density,
    ellipsoid_lagrangian,
    euler_residual,
    geometric_mean_lagrangian,
    graph_area_density,
    graph_lift,
    homogeneity_residual,
    is_nondegenerate,
    minimal_surface_density,
    projected_volume_lagrangian,
)
from .legendre import (
    ConvexityCertificate,
    LegendreImagePoint,
    RankReport,
    convexity_certificate,
    hamiltonian,
    inverse_legendre,
    legendre_map,
    rank_lemma_check,
    write_image_csv,
)
from .multisymplectic import (
    FormField,
    TotalSpaceChart,
    closedness_residual,
    constant_x_form,
    nondegeneracy_check,
    omega,
    pullback_residual,
    theta,
    weighted_x_form,
)
from .surfaces import (
    ConvergenceRow,
    GraphSurface,
    ParametricGrid,
    QuadratureConfig,
    convergence_rows,
    convergence_study,
    graph_action,
    graph_function,
    lagrangian_action,
    multisymplectic_action,
    tangent_pvector,
)
