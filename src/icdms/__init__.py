"""Achievable rate regions for interference channels with degraded message sets.

Exact finite-alphabet evaluation of the discrete-memoryless regions,
closed-form evaluation and union of the Gaussian regions, Pareto-frontier
geometry, and independent Monte Carlo / brute-force oracles.

Each public name is declared once, in the ``__all__`` of the module that
defines it, and every such name can be imported from ``icdms``.
"""

from . import discrete, gaussian, geometry, oracle
from .discrete import *
from .gaussian import *
from .geometry import *
from .oracle import *

__version__ = "0.1.0"

__all__ = ["__version__", *discrete.__all__, *gaussian.__all__, *geometry.__all__, *oracle.__all__]
