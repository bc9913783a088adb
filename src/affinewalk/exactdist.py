"""Ground-truth engine: exact dense evolution of the walk distribution
over all p^d states and its total variation distance to uniform.

Dense float64 vectors in mixed-radix index order (see indexing). A step
places P(x)/(d+1) on T x with one gather through an inverse permutation
into the new vector, then adds the placed grid shifted by one along each
axis (the shift by e_r) into that vector in place, a block of rows at a
time; no (p^d, d) coordinate table, no rolled copy and no second output
is formed. The permutation is int32 whenever every index fits
(`indexing.index_dtype`), and the gather widens it a block at a time
into the step's own block temporary, so np.take never converts the
whole table.
Mass drift is asserted, never renormalized away.

The walk starts at X_0 = 0, so X_n = sum_{k<n} T^(n-1-k) B_k and P_n
lives on at most (d+1)^n states. While it is that small, the walk holds
P_n by its support, (state indices, masses), and steps that form
(`_step_support`): the support goes through T mod p coordinate by
coordinate, each image is shifted by b = 0, e_0, ..., e_{d-1} in that
order, and np.bincount sums the terms of each state in that order. That
is the order in which step_exact adds a state's d+1 terms, and a term
the support form leaves out is an exact +0.0 there, so every mass is
bit-identical to the dense step's. The walk steps the support while
(d+1) |supp P_n| <= p^d / HEAD_RATIO; from the first step past that it
hands the dense masses to step_exact and never goes back (the support
never shrinks). The dense vector of a law held by its support is built
only when something reads `masses` (its TV to uniform does not), and
the gather table only at the first dense step, before that step builds
the dense vector of its input. So the walk's peak of 20 bytes per state
(the state, the 4-byte permutation and the new state, which takes the
shifted adds in place) starts there, with 8.6 bytes per state while the
table is built; the permutation is dropped when the walk ends. TV to
uniform adds no vector over every state: it sums the leaves of numpy's
pairwise summation tree, each formed in one reused buffer of at most
TV_LEAF entries.

The gather and the shifted adds of a dense step, and the build of the
gather table (`indexing.linear_perm` over every state), run by
contiguous ranges on the CPUs of the process's affinity mask
(`indexing.split_rows`). Each state takes the same terms in the same
order whatever the split, so every state is bit-identical to a serial
step; the support steps and the reductions (the mass check, TV to
uniform) stay serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from . import indexing
from .errors import BudgetError, PreconditionError
from .modmath import IntMatrix, int_det, is_admissible, mat_inv_mod

DEFAULT_STATE_CAP = 10_000_000
MASS_TOL = 1e-12
# The walk steps P_n by its support while (d+1) |supp P_n| <= p^d / HEAD_RATIO.
# Chosen by measurement (README, Performance): a smaller ratio keeps more
# steps on the support but raised the dense_exact benchmark's peak RSS,
# by 6% at 16 and 3% at 32 against 1.8% at 64 and 128.
HEAD_RATIO = 64
# step_exact sums each range of rows in blocks of at most 1/BLOCKS of the
# range and BLOCK_STATES states, at least one row, so its temporaries take
# at most 1 B per state in all and 512 KiB per range. Chosen by measurement
# (README, Performance): each block makes about ten numpy calls, for which
# the ranges' threads take the interpreter lock in turn, so on two ranges
# one-row blocks stepped d = 3, p = 97 in 11.1 ms and 4096-state blocks
# d = 2, p = 997 in 14.0 ms, against 6.9 and 6.0 ms with these bounds.
BLOCKS = 8
BLOCK_STATES = 1 << 16
# TV to uniform sums a vector in runs of at most TV_LEAF entries through
# one buffer of at most that size (512 KiB), never a temporary over the
# whole vector.
TV_LEAF = 1 << 16


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
                f"gcd(det T, p) = 1, det = {int_det(self.T)}"
            )

    def require_states(self, cap: int, name: str, budget: str, advice: str = "") -> None:
        """The one budget over all p^d states or characters: `cap`, passed
        as `name`, follows check_caps (ValueError below 0), and p^d past
        it raises BudgetError naming `budget`, then `advice` when given."""
        check_caps(**{name: cap})
        if self.num_states > cap:
            tail = f"; {advice}" if advice else ""
            raise BudgetError(f"p^d = {self.num_states} exceeds the {budget} {cap}{tail}")

    def require_int64(self, what: str, indices: bool = False) -> None:
        """BudgetError unless a row of residues times T mod p, plus one,
        stays exact in int64: d (p-1)^2 + 1 <= 2^63 - 1; with `indices`,
        then also every state index: p^d - 1 <= 2^63 - 1."""
        bounds = [("d*(p-1)^2 + 1", self.d * (self.p - 1) ** 2 + 1)]
        if indices:
            bounds.append(("p^d - 1", self.num_states - 1))
        for expr, value in bounds:
            if value > 2**63 - 1:
                raise BudgetError(
                    f"{what} needs {expr} <= 2^63 - 1 for exact int64 "
                    f"arithmetic; d={self.d}, p={self.p} exceeds it"
                )


class DenseDistribution:
    """A law on the p^d states, in index order.

    `masses` is the dense float64 vector. A walk holds its first states
    by their support instead: `support` is (indices, masses) of the
    states that carry mass, indices increasing, and `masses` is built
    from it on first read and kept. `max_support` bounds the number of
    states that carry mass: the exact count while the support is held,
    else p^d, or d+1 times the bound of the law that step_exact stepped."""

    def __init__(self, p: int, d: int, masses: Optional[np.ndarray] = None, *,
                 support: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 max_support: Optional[int] = None):
        if (masses is None) == (support is None):
            raise ValueError("give exactly one of the mass vector and the support")
        if masses is not None and masses.shape != (p**d,):
            raise ValueError("mass vector has wrong length")
        self.p, self.d = p, d
        self.support = support
        self._masses = masses
        if max_support is None:
            max_support = p**d if support is None else support[0].shape[0]
        self.max_support = max_support

    @property
    def masses(self) -> np.ndarray:  # length p^d, float64
        if self._masses is None:
            states, weights = self.support
            masses = np.zeros(self.p**self.d)
            masses[states] = weights
            self._masses = masses  # only once filled: no reader sees a part
        return self._masses

    def mass_defect(self) -> float:
        held = self.masses if self.support is None else self.support[1]
        return abs(float(held.sum()) - 1.0)

    def check_mass(self) -> None:
        defect = self.mass_defect()
        if defect > MASS_TOL:
            raise AssertionError(f"mass drifted by {defect:.3e}")


def delta_at_zero(p: int, d: int) -> DenseDistribution:
    return DenseDistribution(p, d, support=(np.zeros(1, dtype=np.int64), np.ones(1)))


@lru_cache(maxsize=1)
def _gather_index(T: IntMatrix, p: int) -> np.ndarray:
    """Index map T x -> x over all states, that is x -> T^{-1} x mod p
    (`indexing.linear_perm` with h = p, so nothing flips), so a step
    reads its sources in index order. int32 whenever p^d <= 2^31
    (`indexing.index_dtype`), so always under the default state cap.
    Only the latest table is kept, and dense_states drops it when its
    walk ends."""
    return indexing.linear_perm(mat_inv_mod(T, p).entries, p, p, indexing.index_dtype(p, T.dim))


def _blocks(s: slice, step: int, m: int) -> Iterator[tuple[int, int]]:
    """The flat (start, stop) of each block of `step` rows of m states in
    the rows s, from the top down; the last block may be shorter."""
    for top in range(s.stop, s.start, -step):
        yield max(s.start, top - step) * m, top * m


def step_exact(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """One step: place P(x)/(d+1) on T x by one gather through the cached
    inverse permutation, then add that grid shifted by one along each
    coordinate r (x + e_r receives x), r = 0..d-1 in order.

    The shifts are slice adds into the placed grid itself, with no rolled
    copy and no second vector: the step holds P, the 4-byte gather table
    and the new state (20 bytes per state) and never writes P. Coordinate
    0 is the last numpy axis, so its shift is one add over flat views,
    which is right wherever x_0 > 0, followed by the states x_0 = 0,
    rewritten from x_0 = p-1 of their run. Each further coordinate r adds
    along numpy axis d-1-r, where x_r steps by p^r: the interior slab
    x_r >= 1 takes x_r - 1 and the wrap-around slab x_r = 0 takes
    x_r = p-1. That is the addition order of the placed grid plus d
    rolled copies. Each state receives exactly d+1 terms, so mass is
    conserved up to float addition.

    Both phases run by the same ranges of rows of numpy axis 0
    (`indexing.split_rows`), each range in blocks of rows with a small
    temporary, `sums`, allocated here before the gather. The gather
    widens a block of the table into `sums` read as intp, the index type
    np.take would otherwise convert the whole table to on every call,
    takes that block of P and divides it. Once every state is placed, the
    shifted adds run: a row's terms are placed values in the same row
    and in the row below it (row p-1 below row 0), so each range sums its
    rows from the top down, each block into `sums` copied back over it: a
    block reads only rows that no range has rewritten yet, except the row
    below the range's first, which is copied before any range writes."""
    cfg.require_admissible()
    if (P.p, P.d) != (cfg.p, cfg.d):
        raise ValueError("distribution does not match config")
    p, d, n = cfg.p, cfg.d, cfg.num_states
    src = _gather_index(cfg.T, p)  # built before P's dense vector, and not in the ranges
    masses = P.masses
    m = n // p  # states per row of numpy axis 0
    ranges = indexing.row_ranges(p, m)
    work = {}  # per range: rows per block, a block's sums
    for s in ranges:
        step = max(1, min(-(-(s.stop - s.start) // BLOCKS), BLOCK_STATES // m))
        work[s.start] = step, np.empty(step * m)
    placed = np.empty(n)

    def place(s):
        step, sums = work[s.start]
        wide = sums.view(np.intp)
        for a, b in _blocks(s, step, m):
            index = wide[: b - a]
            index[...] = src[a:b]
            np.take(masses, index, out=placed[a:b], mode="clip")
            placed[a:b] /= d + 1

    indexing.split_rows(place, p, m)
    # the row below each range's first (p-1 below 0), before any range writes
    below_first = {s.start: placed[(s.start - 1) % p * m :][:m].copy() for s in ranges}

    def add_shifts(s):
        step, sums = work[s.start]
        for a, b in _blocks(s, step, m):
            g, t = placed[a:b], sums[: b - a]
            below = placed[a - m : a] if a > s.start * m else below_first[s.start]
            np.add(g[1:], g[:-1], out=t[1:])
            if d == 1:
                np.add(g[:1], below, out=t[:1])
            else:
                runs = g.reshape(-1, p)
                np.add(runs[:, 0], runs[:, -1], out=t.reshape(-1, p)[:, 0])
                for r in range(1, d - 1):  # x_r runs in steps of p^r within each p^(r+1)
                    w = p**r
                    gr, o = g.reshape(-1, p * w), t.reshape(-1, p * w)
                    o[:, w:] += gr[:, :-w]
                    o[:, :w] += gr[:, -w:]
                t[m:] += g[:-m]
                t[:m] += below
            g[...] = t

    indexing.split_rows(add_shifts, p, m)
    return DenseDistribution(p, d, placed, max_support=min(n, (d + 1) * P.max_support))


def _step_support(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """step_exact on a law held by its support, to the bit: the support
    goes through T mod p coordinate by coordinate, the images are
    shifted by b = 0, e_0, ..., e_{d-1} in that order, and bincount adds
    each state's terms in input order, as step_exact adds them; the
    terms it leaves out are the exact zeros step_exact adds. The
    coordinates and keys stay exact in int64 under the int64 refusals
    of dense_states, which run before any step."""
    p, d = cfg.p, cfg.d
    states, weights = P.support
    image = indexing.decode(states, p, d) @ np.array(cfg.T.mod(p).entries, dtype=np.int64).T % p
    place = p ** np.arange(d, dtype=np.int64)
    base = image @ place
    keys = [base] + [base + np.where(image[:, r] == p - 1, (1 - p) * place[r], place[r]) for r in range(d)]
    support, which = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(which, weights=np.tile(weights / (d + 1), d + 1), minlength=support.shape[0])
    return DenseDistribution(p, d, support=(support, sums))


def check_caps(**caps: int) -> None:
    """The one rule for a count: each named count of steps or blocks, and
    each budget, must be >= 0 (ValueError); a cap of 0 is a budget that
    refuses any work."""
    for name, cap in caps.items():
        if cap < 0:
            raise ValueError(f"{name} must be >= 0")


def dense_states(
    cfg: WalkConfig, state_cap: int = DEFAULT_STATE_CAP
) -> Iterator[DenseDistribution]:
    """P_0, P_1, P_2, ... from the point mass at zero, one step per item
    (a support step while P_n is small, else step_exact; see the module
    docstring), with the mass defect checked after every step.

    The walk is refused on the call, in the order check_simulate uses:
    the state cap (`WalkConfig.require_states`), an inadmissible (T, p)
    (PreconditionError) and a modulus past the int64 limits that keep a
    support step's coordinates and state indices exact (BudgetError;
    only a state cap raised past 2^63 reaches the second). P_0 is made
    on the first draw, and the gather table is dropped when the walk
    ends (exhausted, closed or garbage-collected)."""
    cfg.require_states(state_cap, "state_cap", "dense-state cap")
    cfg.require_admissible()
    cfg.require_int64("the dense walk", indices=True)
    return _dense_walk(cfg)


def _dense_walk(cfg: WalkConfig) -> Iterator[DenseDistribution]:
    P = delta_at_zero(cfg.p, cfg.d)
    try:
        while True:
            yield P
            if P.support is not None and (cfg.d + 1) * P.max_support * HEAD_RATIO <= cfg.num_states:
                P = _step_support(P, cfg)
            else:
                # a module-global lookup, so a patched step_exact is the one used
                P = step_exact(P, cfg)
            P.check_mass()
    finally:
        _gather_index.cache_clear()


def evolve(
    cfg: WalkConfig, n: int, state_cap: int = DEFAULT_STATE_CAP
) -> DenseDistribution:
    """n-fold step from the point mass at zero."""
    check_caps(n=n)
    return next(islice(dense_states(cfg, state_cap), n, None))


def tv_from_uniform(P: DenseDistribution) -> float:
    """TV of P to uniform, holding nothing over every state beyond P
    (tv_vector). A law held by its support builds no mass vector:
    |m - 1/N| is 1/N exactly off the support, so filling each leaf of the
    sum with 1/N and writing the deviations of the support states inside
    it gives tv_vector's vector, and sum, to the bit."""
    if P.support is None:
        return tv_vector(P.masses)
    states, weights = P.support
    n = P.p**P.d
    devs = np.abs(weights - 1.0 / n)

    def fill(t, a):
        t.fill(1.0 / n)
        lo, hi = np.searchsorted(states, (a, a + t.shape[0]))
        t[states[lo:hi] - a] = devs[lo:hi]

    return 0.5 * float(_pairwise_sum(fill, np.empty(min(n, TV_LEAF)), 0, n))


def tv_vector(dist_p: np.ndarray) -> float:
    """TV between a probability vector of length n and uniform on n
    points (a length-p law on Z/pZ, or a dense distribution's masses):
    half the sum of |v - 1/n|, with np.sum's pairwise-summation bits. The
    vector is summed in the leaves of that summation tree (_pairwise_sum),
    each formed in one reused buffer of at most TV_LEAF entries, so no
    temporary spans the whole vector."""
    n = dist_p.shape[0]

    def fill(t, a):
        np.subtract(dist_p[a : a + t.shape[0]], 1.0 / n, out=t)
        np.abs(t, out=t)

    return 0.5 * float(_pairwise_sum(fill, np.empty(min(n, TV_LEAF)), 0, n))


def _pairwise_sum(fill, buf: np.ndarray, start: int, k: int) -> float:
    """np.sum of the k entries from `start` of a float64 vector that
    fill(t, a) writes, entries a.. into t, never held whole. numpy sums a
    run of more than 128 entries as the sum of its first k//2 rounded
    down to a multiple of 8 plus the sum of the rest; this splits the
    same way down to runs of at most TV_LEAF entries, fills each in buf,
    sums it with np.sum and adds the sums in the tree's order: np.sum's
    bits. A module function, not a closure calling itself: that closure
    would be a reference cycle holding its arrays until the cycle
    collector ran."""
    if k <= TV_LEAF:
        t = buf[:k]
        fill(t, start)
        return t.sum()
    half = k // 2 // 8 * 8
    return _pairwise_sum(fill, buf, start, half) + _pairwise_sum(fill, buf, start + half, k - half)
