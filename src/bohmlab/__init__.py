"""Numerical laboratory for the de Broglie-Bohm guidance picture in one
dimension: spectral spinor propagation, trajectory transport, equilibrium
sampling, an operator layer mapping experiments to observables, a
simulated beam-splitting experiment, and an exhaustive contextuality
search, all behind a deterministic batch CLI.

Each module's __all__ is the one list of its public names; the package
re-exports them all.
"""

__version__ = "0.1.0"

from . import grids, operators, peres_mermin, propagation, sampling, stern_gerlach, trajectories
from .grids import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .peres_mermin import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .stern_gerlach import *  # noqa: F401,F403
from .trajectories import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (grids, operators, peres_mermin, propagation, sampling, stern_gerlach, trajectories)
    for name in module.__all__
]
