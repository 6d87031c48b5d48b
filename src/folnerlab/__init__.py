"""folnerlab: a numerical workbench for group actions averaged over Folner sets.

The package computes exact set-theoretic invariance defects and temperedness
certificates for averaging sequences in countable groups, builds empirical
measures along orbits, evaluates Wasserstein distances between them through an
exact optimal-assignment solver, and packages finite-scale diagnostics for
mean equicontinuity, unique ergodicity and pointwise convergence.
"""

__version__ = "0.1.0"

from .errors import *
from .groups import *
from .words import *
from .systems import *
from .measures import *
from .transport import *
from .analysis import *

__all__ = [
    *errors.__all__,
    *groups.__all__,
    *words.__all__,
    *systems.__all__,
    *measures.__all__,
    *transport.__all__,
    *analysis.__all__,
]
