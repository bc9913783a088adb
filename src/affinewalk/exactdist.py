"""Ground-truth engine: exact dense evolution of the walk distribution
over all p^d states, total variation distance, and a direct character
transform (an FFT) used as the oracle for the product-formula module.

Dense float64 vectors in mixed-radix index order (see indexing). A step
places P(x)/(d+1) on T x with one gather through a cached inverse
permutation, then adds the placed grid rolled by one along each axis,
which is the shift by e_r; no (p^d, d) coordinate table is formed. Mass
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
def _gather_index(T: IntMatrix, p: int) -> np.ndarray:
    """Index map T x -> x over all states: the inverse of x -> T x mod p,
    so a step reads its sources in index order."""
    base = indexing.linear_perm(T.mod(p).entries, p)
    inv = np.empty_like(base)
    inv[base] = np.arange(base.shape[0])
    return inv


def step_exact(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """One step: place P(x)/(d+1) on T x by one gather through the cached
    inverse permutation, then add that grid rolled by one along each
    coordinate r (x + e_r), r = 0..d-1 in order. Each state receives
    exactly d+1 terms, so mass is conserved up to float addition."""
    cfg.require_admissible()
    if (P.p, P.d) != (cfg.p, cfg.d):
        raise ValueError("distribution does not match config")
    p, d = cfg.p, cfg.d
    placed = P.masses[_gather_index(cfg.T, p)]
    placed /= d + 1
    grid = placed.reshape((p,) * d)
    out = grid.copy()
    for r in range(d):
        out += np.roll(grid, 1, axis=d - 1 - r)
    return DenseDistribution(p, d, out.reshape(-1))


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
    return tv_vector(P.masses)


def dft(P: DenseDistribution) -> np.ndarray:
    """Character transform: out[c] = sum_s P(s) q^(s . c), q = e^(2 pi i/p),
    indexed like the state space. The sign of the exponent makes this an
    unnormalised inverse DFT over the (p,)*d grid: np.fft.ifftn times
    p^d, cost O(p^d log p)."""
    p, d = P.p, P.d
    return (np.fft.ifftn(P.masses.reshape((p,) * d)) * p**d).reshape(-1)


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
    """TV between a probability vector of length n and uniform on n
    points (a length-p law on Z/pZ, or a dense distribution's masses)."""
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
