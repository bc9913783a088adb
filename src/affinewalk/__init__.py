"""Affine random walks x -> T x + b (mod p) on (Z/pZ)^d.

Exact dense evolution, Fourier-analytic mixing bounds, spectral
classification of the driving matrix, and Monte Carlo / projected-walk
measurement of slow mixing.
"""

__version__ = "0.1.0"

from .errors import (
    AffineWalkError,
    BudgetError,
    NotMixedError,
    PreconditionError,
    RootConvergenceError,
)
from .modmath import CenteredVector, IntMatrix, ModVector
from .exactdist import DenseDistribution, WalkConfig

__all__ = [
    "AffineWalkError",
    "BudgetError",
    "CenteredVector",
    "DenseDistribution",
    "IntMatrix",
    "ModVector",
    "NotMixedError",
    "PreconditionError",
    "RootConvergenceError",
    "WalkConfig",
    "__version__",
]
