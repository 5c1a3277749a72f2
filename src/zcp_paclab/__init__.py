"""PAC-Bayes bound evaluation toolkit built on the ZCP divergence.

Exact f-divergences on finite distributions, adaptive quadrature for
Gaussian mixture pairs, coin-betting wealth processes, high-probability
generalization bounds with their complexity terms, and a Monte Carlo
harness that stress-tests every bound against its failure budget.
"""

from . import betting, bounds, distributions, divergences, errors, harness
from .betting import *  # noqa: F401,F403 - each module's __all__ is its public API
from .bounds import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .divergences import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *distributions.__all__,
    *divergences.__all__,
    *betting.__all__,
    *bounds.__all__,
    *harness.__all__,
]
