"""Ground-truth engine: exact dense evolution of the walk distribution
over all p^d states, total variation distance, and a direct character
transform used as the oracle for the product-formula module.

Dense float64 vectors in mixed-radix index order (see indexing). Mass
drift is asserted, never renormalized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, repeat
from typing import Iterator

import numpy as np

from . import indexing
from .errors import BudgetError, PreconditionError
from .modmath import IntMatrix, ModVector, is_admissible

DEFAULT_STATE_CAP = 10_000_000
MASS_TOL = 1e-12


@dataclass(frozen=True)
class WalkConfig:
    """The walk x -> T x + b (mod p), b uniform on {0, e_1, ..., e_d}."""

    T: IntMatrix
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def d(self) -> int:
        return self.T.dim

    @property
    def num_states(self) -> int:
        return self.p**self.d

    def require_admissible(self) -> None:
        if not is_admissible(self.T, self.p):
            raise PreconditionError(
                f"(T, p={self.p}) not admissible: need det(T) != 0 and "
                f"gcd(det T, p) = 1, det = {_det_str(self.T)}"
            )

    def require_int64(self, what: str) -> None:
        """BudgetError unless a row of residues times T mod p, plus one,
        stays exact in int64: d (p-1)^2 + 1 <= 2^63 - 1."""
        if self.d * (self.p - 1) ** 2 + 1 > 2**63 - 1:
            raise BudgetError(
                f"{what} needs d*(p-1)^2 + 1 <= 2^63 - 1 for exact int64 "
                f"arithmetic; d={self.d}, p={self.p} exceeds it"
            )


def _det_str(T: IntMatrix) -> str:
    from .modmath import int_det

    return str(int_det(T))


@dataclass(frozen=True, eq=False)
class DenseDistribution:
    p: int
    d: int
    masses: np.ndarray  # length p^d, float64

    def __post_init__(self):
        if self.masses.shape != (self.p**self.d,):
            raise ValueError("mass vector has wrong length")

    def mass_defect(self) -> float:
        return abs(float(self.masses.sum()) - 1.0)

    def check_mass(self) -> None:
        defect = self.mass_defect()
        if defect > MASS_TOL:
            raise AssertionError(f"mass drifted by {defect:.3e}")

    def prob(self, state) -> float:
        return float(self.masses[indexing.index_of(state, self.p)])


def delta_at_zero(p: int, d: int) -> DenseDistribution:
    masses = np.zeros(p**d)
    masses[0] = 1.0
    return DenseDistribution(p, d, masses)


def uniform(p: int, d: int) -> DenseDistribution:
    n = p**d
    return DenseDistribution(p, d, np.full(n, 1.0 / n))


@lru_cache(maxsize=16)
def _scatter_base(T: IntMatrix, p: int) -> np.ndarray:
    """Index permutation x -> T x mod p over all states."""
    d = T.dim
    coords = indexing.all_coords(p, d)
    tmod = np.array(T.mod(p).entries, dtype=np.int64)
    return indexing.encode(coords @ tmod.T % p, p)


def _shift_targets(base: np.ndarray, r: int, p: int) -> np.ndarray:
    """Indices of (state + e_r) given state indices, handling the wrap."""
    w = p**r
    digit = (base // w) % p
    return base + np.where(digit == p - 1, w - w * p, w)


def step_exact(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """One step: scatter P(x)/(d+1) forward onto T x + b for each of the
    d+1 increments b. Mass is conserved exactly up to float addition."""
    cfg.require_admissible()
    if (P.p, P.d) != (cfg.p, cfg.d):
        raise ValueError("distribution does not match config")
    p, d, n = cfg.p, cfg.d, cfg.num_states
    base = _scatter_base(cfg.T, p)
    share = P.masses / (d + 1)
    out = np.bincount(base, weights=share, minlength=n)
    for r in range(d):
        out += np.bincount(_shift_targets(base, r, p), weights=share, minlength=n)
    return DenseDistribution(p, d, out)


def dense_states(
    cfg: WalkConfig, state_cap: int = DEFAULT_STATE_CAP
) -> Iterator[DenseDistribution]:
    """P_0, P_1, P_2, ... from the point mass at zero, one step_exact per
    item, with the mass defect checked after every step. The state cap is
    checked on the call, before any item is drawn."""
    if cfg.num_states > state_cap:
        raise BudgetError(
            f"p^d = {cfg.num_states} exceeds the dense-state cap {state_cap}"
        )

    def step(P: DenseDistribution, _) -> DenseDistribution:
        P = step_exact(P, cfg)
        P.check_mass()
        return P

    return accumulate(repeat(None), step, initial=delta_at_zero(cfg.p, cfg.d))


def evolve(
    cfg: WalkConfig, n: int, state_cap: int = DEFAULT_STATE_CAP
) -> DenseDistribution:
    """n-fold step from the point mass at zero."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(dense_states(cfg, state_cap), n, None))


def tv_distance(P: DenseDistribution, Q: DenseDistribution) -> float:
    """(1/2) sum |P - Q|; equals the max event-probability gap."""
    if (P.p, P.d) != (Q.p, Q.d):
        raise ValueError("distributions live on different state spaces")
    return 0.5 * float(np.abs(P.masses - Q.masses).sum())


def tv_from_uniform(P: DenseDistribution) -> float:
    return tv_distance(P, uniform(P.p, P.d))


def dft(P: DenseDistribution) -> np.ndarray:
    """Character transform: out[c] = sum_s P(s) q^(s . c), q = e^(2 pi i/p),
    indexed like the state space. Applied axis by axis with a dense p x p
    character matrix (cost d p^(d+1); no FFT needed at desk scale)."""
    p, d = P.p, P.d
    k = np.arange(p)
    Q = np.exp(2j * np.pi / p * np.outer(k, k))
    t = P.masses.reshape((p,) * d).astype(complex)
    for axis in range(d):
        t = np.moveaxis(np.tensordot(Q, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)


def pushforward(P: DenseDistribution, v: ModVector) -> np.ndarray:
    """Distribution of v . x mod p under P (length-p vector). Any linear
    functional is a coarsening, so its TV to uniform lower-bounds the
    full TV (data-processing)."""
    if v.p != P.p or v.d != P.d:
        raise ValueError("functional does not match state space")
    coords = indexing.all_coords(P.p, P.d)
    vals = coords @ np.array(v.entries, dtype=np.int64) % P.p
    return np.bincount(vals, weights=P.masses, minlength=P.p)


def tv_vector(dist_p: np.ndarray) -> float:
    """TV between a length-p probability vector and uniform on Z/pZ."""
    n = dist_p.shape[0]
    return 0.5 * float(np.abs(dist_p - 1.0 / n).sum())


def save_distribution_csv(P: DenseDistribution, path: str, n: int, meta: str = "") -> None:
    """Header row (p, d, n) then one mass per line in index order."""
    with open(path, "w") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write("p,d,n\n")
        fh.write(f"{P.p},{P.d},{n}\n")
        for x in P.masses:
            fh.write(f"{float(x)!r}\n")


def load_distribution_csv(path: str) -> tuple[DenseDistribution, int]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if lines[0] != "p,d,n":
        raise ValueError("bad distribution file header")
    p, d, n = (int(x) for x in lines[1].split(","))
    masses = np.array([float(x) for x in lines[2:]])
    return DenseDistribution(p, d, masses), n
