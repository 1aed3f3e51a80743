"""Periodicity testing for binary time series via folded block means.

Fold n observations into d block means, form the max-over-sum ratio of their
periodogram, and decide against the exact closed-form null law. Includes the
limit theory for periodic success profiles and a seeded Monte Carlo engine
for level and power tables. Each module's ``__all__`` lists its public names.
"""

from . import cli, nulldist, rng, series, simulate, spectral, theory
from .cli import *
from .nulldist import *
from .rng import *
from .series import *
from .simulate import *
from .spectral import *
from .theory import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (cli, nulldist, rng, series, simulate, spectral, theory)
    for name in module.__all__
)
