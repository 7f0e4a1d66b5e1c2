"""Numerical toolkit for multisymplectic formulations of parametric variational problems.

Exterior algebra on increasing multi-indices, degree-1 homogeneous
Lagrangians and their areolar forms, the fiberwise Legendre transform with
its convex image hypersurface, the tautological form and its differential,
and the action integrals whose equality ties the pictures together.
"""

__version__ = "0.1.0"

# the root re-exports each module's __all__, so the two lists cannot drift
from .errors import *  # noqa: F403
from .exterior import *  # noqa: F403
from .lagrangian import *  # noqa: F403
from .legendre import *  # noqa: F403
from .multisymplectic import *  # noqa: F403
from .surfaces import *  # noqa: F403
