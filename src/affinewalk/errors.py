"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code scheme: PreconditionError and
RootConvergenceError -> 3, BudgetError (and subclasses) -> 4, config
problems -> 2. Only `classify`'s eigenvalue listing raises
RootConvergenceError; no class or search depends on a numeric root.
"""


class AffineWalkError(Exception):
    """Base class for all package errors."""


class PreconditionError(AffineWalkError):
    """A mathematical precondition is violated (singular matrix,
    inadmissible (T, p) pair, composite modulus where a prime is required)."""


class BudgetError(AffineWalkError):
    """A configured resource cap (dense states, characters, search length)
    would be exceeded."""


class NotMixedError(BudgetError):
    """Mixing-time search reached its cap before the threshold was met."""

    def __init__(self, n_cap: int, method: str, last_value: float):
        self.n_cap = n_cap
        self.method = method
        self.last_value = float(last_value)  # an exact TV comes as a Fraction
        super().__init__(
            f"not mixed by n_max={n_cap} (method={method}, value={self.last_value:.6g})"
        )


class RootConvergenceError(AffineWalkError):
    """numpy could not find the roots of a characteristic polynomial that
    `classify` lists (its eigenvalue iteration did not converge, or a
    coefficient does not fit a float). No class depends on the roots."""
