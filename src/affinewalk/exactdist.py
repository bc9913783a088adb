"""Ground-truth engine: exact dense evolution of the walk distribution
over all p^d states and its total variation distance to uniform.

The increment is uniform on {0, e_1, ..., e_d}, so P_n = c_n / (d+1)^n
with integer counts c_n. A law is held as counts and a scale in
mixed-radix index order (see indexing): int64 counts and the Python int
scale (d+1)^n while that is at most 2^63 - 1 (n <= 62, 39, 31, 27 at
d = 1..4), so every state is exact, the counts sum to the scale exactly
and TV to uniform is a Fraction; past that, float64 counts, multiplied
with the scale by 2^-RESCALE_BITS (exactly) whenever the scale passes
2^RESCALE_BITS, and a mass check within MASS_TOL. A caller's float
vector is a law of scale 1. Mass drift is asserted, never renormalized.

A step gathers each count onto T x through an inverse permutation
(int32 when every index fits, widened a block at a time) and adds the
grid shifted by each e_r into itself in place, both in one pass over
blocks of rows, and multiplies the scale by d+1: no division, no
coordinate table. The step and the gather table's build run by ranges
on the CPUs of the affinity mask (`indexing.split_rows`), each state
taking the same terms in the same order whatever the split; support
steps and sums are serial.

X_n = sum_{k<n} T^(n-1-k) B_k lives on at most (d+1)^n states, so while
(d+1) |supp P_n| <= p^d / HEAD_RATIO the walk holds P_n by its support
and steps that (`_step_support`), then hands the dense counts to
step_exact for good. The dense vector of a support-held law is built only
when read, and the gather table at the first dense step, so the walk's
peak of 20 bytes per state (state, 4-byte table, new state) starts there.

TV to uniform: with t = scale // N and r = scale mod N (N = p^d), an
integer count exceeds scale/N exactly when it exceeds t, so
TV = (N S - k r)/(N scale), S = sum max(c - t, 0), k = #{c > t}, summed
BLOCK_STATES counts at a time through one buffer; a support-held law
reads only its support (every other count is 0 <= t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional, Union

import numpy as np

from . import indexing
from .errors import BudgetError, PreconditionError
from .modmath import IntMatrix, as_int, int_det, is_admissible, mat_inv_mod

DEFAULT_STATE_CAP = 10_000_000
INT64_MAX = 2**63 - 1
# Past the int64 range: the mass check's relative tolerance, and where the
# scale is rescaled (module docstring), far below float overflow at any d.
MASS_TOL = 1e-12
RESCALE_BITS = 960
# The walk steps P_n by its support while (d+1) |supp P_n| <= p^d / HEAD_RATIO.
# Chosen by measurement (README, Performance): a smaller ratio keeps more
# steps on the support but raised the dense_exact benchmark's peak RSS,
# by 6% at 16 and 3% at 32 against 1.8% at 64 and 128.
HEAD_RATIO = 64
# step_exact gathers and sums each range of rows in blocks of at most
# 1/BLOCKS of the range and BLOCK_STATES states, at least one row, so its
# temporaries take at most 1 B per state in all and 512 KiB per range, and
# one row more per range; TV to uniform reads BLOCK_STATES counts at a
# time through one buffer. Chosen by measurement (README, Performance):
# each block makes about ten numpy calls, for which the ranges' threads
# take the interpreter lock in turn, so on two ranges one-row blocks
# stepped d = 3, p = 97 in 11.1 ms and 4096-state blocks d = 2, p = 997
# in 14.0 ms, against 6.9 and 6.0 ms with these bounds.
BLOCKS = 8
BLOCK_STATES = 1 << 16


@dataclass(frozen=True)
class WalkConfig:
    """The walk x -> T x + b (mod p), b uniform on {0, e_1, ..., e_d}."""

    T: IntMatrix
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_int(self.p))
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
            if value > INT64_MAX:
                raise BudgetError(
                    f"{what} needs {expr} <= 2^63 - 1 for exact int64 "
                    f"arithmetic; d={self.d}, p={self.p} exceeds it"
                )


class DenseDistribution:
    """A law on the p^d states, in index order: P = counts / scale.

    `counts` is the dense vector, or is built on first read (and kept)
    from `support`, (indices, counts) of the states that carry mass,
    indices increasing. `masses` is the float64 view counts / scale, built
    on each read. `max_support` bounds the number of states that carry
    mass: exact while the support is held, else p^d, or d+1 times the
    bound of the law step_exact stepped."""

    def __init__(self, p: int, d: int, counts: Optional[np.ndarray] = None, *,
                 support: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 scale: Union[int, float] = 1, max_support: Optional[int] = None):
        if (counts is None) == (support is None):
            raise ValueError("give exactly one of the count vector and the support")
        if counts is not None and counts.shape != (p**d,):
            raise ValueError("count vector has wrong length")
        self.p, self.d, self.scale = p, d, scale
        self.support = support
        self._counts = counts
        if max_support is None:
            max_support = p**d if support is None else support[0].shape[0]
        self.max_support = max_support

    @property
    def counts(self) -> np.ndarray:  # length p^d
        if self._counts is None:
            states, held = self.support
            counts = np.zeros(self.p**self.d, dtype=held.dtype)
            counts[states] = held
            self._counts = counts  # only once filled: no reader sees a part
        return self._counts

    @property
    def masses(self) -> np.ndarray:  # length p^d, float64
        return self.counts / self.scale

    def held(self) -> np.ndarray:
        """The counts as held: the support's, else the dense vector."""
        return self.counts if self.support is None else self.support[1]

    def mass_defect(self) -> float:
        return abs(float(self.held().sum()) / self.scale - 1.0)

    def check_mass(self) -> None:
        """Integer counts sum to the scale exactly, float ones within
        MASS_TOL of it."""
        total = self.held().sum().item()
        drifted = total != self.scale if isinstance(total, int) else self.mass_defect() > MASS_TOL
        if drifted:
            raise AssertionError(f"mass drifted: the counts sum to {total!r}, not {self.scale!r}")


def delta_at_zero(p: int, d: int) -> DenseDistribution:
    return DenseDistribution(p, d, support=(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)))


def _next_scale(scale: Union[int, float], dtype: np.dtype, d: int):
    """(scale, count dtype, factor) one step after counts of `dtype` at
    `scale`: int64 while (d+1) scale <= 2^63 - 1, then float64; the step
    multiplies its placed counts by the factor, 2^-RESCALE_BITS once the
    scale passes 2^RESCALE_BITS, else 1."""
    scale *= d + 1
    if dtype == np.int64 and scale <= INT64_MAX:
        return scale, np.dtype(np.int64), 1
    factor = 2.0**-RESCALE_BITS if scale > 2.0**RESCALE_BITS else 1.0
    return float(scale) * factor, np.dtype(np.float64), factor


@lru_cache(maxsize=1)
def _gather_index(T: IntMatrix, p: int) -> np.ndarray:
    """Index map T x -> x over all states, that is x -> T^{-1} x mod p
    (`indexing.linear_perm` with h = p, so nothing flips), so a step
    reads its sources in index order. int32 whenever p^d <= 2^31
    (`indexing.index_dtype`), so always under the default state cap.
    Only the latest table is kept, and dense_states drops it when its
    walk ends."""
    return indexing.linear_perm(mat_inv_mod(T, p).entries, p, p, indexing.index_dtype(p, T.dim))


def step_exact(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """One step: put each count c(x) on T x by one gather through the
    cached inverse permutation, add that grid shifted by one along each
    coordinate r (x + e_r receives x), r = 0..d-1 in order, and multiply
    the scale by d+1 (`_next_scale`): d+1 terms per state.

    The shifts are slice adds into the placed grid itself: the step holds
    P, the 4-byte gather table and the new state (20 bytes per state) and
    never writes P. Coordinate 0 is the last numpy axis, so its shift is
    one add over flat views, right wherever x_0 > 0, then the states
    x_0 = 0 from x_0 = p-1 of their run. Each further coordinate r adds
    along numpy axis d-1-r, where x_r steps by p^r: the slab x_r >= 1
    takes x_r - 1 and the slab x_r = 0 takes x_r = p-1.

    One pass by ranges of rows of numpy axis 0 (`indexing.split_rows`):
    each range walks its rows upward in blocks, gathers a block and sums
    its terms into a temporary, `sums`, copied back over it. A row's
    terms lie in it and the row below (p-1 below 0): the previous block's
    last row, saved in `below` before the copy back, or for the range's
    first block that row gathered from P. So a range reads only P and the
    table, and writes only its own rows."""
    cfg.require_admissible()
    if (P.p, P.d) != (cfg.p, cfg.d):
        raise ValueError("distribution does not match config")
    p, d, n = cfg.p, cfg.d, cfg.num_states
    src = _gather_index(cfg.T, p)  # built before P's dense vector, and not in the ranges
    counts = P.counts
    scale, dtype, factor = _next_scale(P.scale, counts.dtype, d)
    m = n // p  # states per row of numpy axis 0
    work = {}  # per range: rows per block, a block's sums, the row below a block
    for s in indexing.row_ranges(p, m):
        step = max(1, min(-(-(s.stop - s.start) // BLOCKS), BLOCK_STATES // m))
        work[s.start] = step, np.empty(step * m, dtype=dtype), np.empty(m, dtype=dtype)
    placed = np.empty(n, dtype=dtype)
    convert = counts.dtype != dtype or factor != 1

    def gather(a, b, out, sums):
        """out = P's counts at T^{-1} x for the flat x in [a, b), in the new dtype."""
        # np.take would convert a whole non-intp table on every call
        index = sums.view(np.intp)[: b - a]
        index[...] = src[a:b]
        taken = out.view(counts.dtype)
        np.take(counts, index, out=taken, mode="clip")
        if convert:
            np.multiply(taken, factor, out=sums[: b - a])
            out[...] = sums[: b - a]

    def step_rows(s):
        step, sums, below = work[s.start]
        low = (s.start - 1) % p * m
        gather(low, low + m, below, sums)
        for top in range(s.start, s.stop, step):
            a, b = top * m, min(top + step, s.stop) * m
            g, t = placed[a:b], sums[: b - a]
            gather(a, b, g, sums)
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
            below[...] = g[-m:]
            g[...] = t

    indexing.split_rows(step_rows, p, m)
    return DenseDistribution(p, d, placed, scale=scale, max_support=min(n, (d + 1) * P.max_support))


def _step_support(P: DenseDistribution, cfg: WalkConfig) -> DenseDistribution:
    """step_exact on a law held by its support: the support goes through
    T mod p coordinate by coordinate, the images are shifted by
    b = 0, e_0, ..., e_{d-1}, and np.add.reduceat sums each state's terms
    in sorted key order (exact in int64 in any order). Coordinates and
    keys stay exact under the int64 refusals of dense_states."""
    p, d = cfg.p, cfg.d
    states, counts = P.support
    scale, dtype, factor = _next_scale(P.scale, counts.dtype, d)
    image = indexing.decode(states, p, d) @ np.array(cfg.T.mod(p).entries, dtype=np.int64).T % p
    place = p ** np.arange(d, dtype=np.int64)
    base = image @ place
    keys = np.concatenate(
        [base] + [base + np.where(image[:, r] == p - 1, (1 - p) * place[r], place[r]) for r in range(d)]
    )
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(np.tile(counts.astype(dtype) * factor, d + 1)[order], starts)
    return DenseDistribution(p, d, support=(keys[starts], sums), scale=scale)


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
    (a support step while P_n is small, else step_exact), each checked.

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


def tv_from_uniform(P: DenseDistribution) -> Union[Fraction, float]:
    """TV of P to uniform: exact, a Fraction, while P's counts are
    integers, else a float. A law held by its support is read on its
    support alone and builds no dense vector (`_tv`)."""
    return _tv(P.held(), P.scale, P.p**P.d)


def tv_vector(dist_p: np.ndarray) -> float:
    """TV between a probability vector of length n and uniform on n
    points (a length-p law on Z/pZ, or a dense distribution's masses), as
    a float: `_tv` at scale 1."""
    return float(_tv(dist_p, 1, dist_p.shape[0]))


def _tv(counts: np.ndarray, scale: Union[int, float], n: int) -> Union[Fraction, float]:
    """TV to uniform on n points of counts / scale, its other n - len(counts)
    counts 0: the Fraction (n S - k r)/(n scale) for integer counts (module
    docstring), where the zeros add nothing. Float counts sum to the scale
    only up to rounding, so they take half the sum of |c - t| over all n
    counts, t = scale/n, each zero adding t, over the scale. The counts
    are read BLOCK_STATES at a time through one buffer."""
    exact = counts.dtype.kind == "i"
    t, r = divmod(scale, n) if exact else (scale / n, 0)
    total = k = 0
    buf = np.empty(min(counts.shape[0], BLOCK_STATES), dtype=counts.dtype)
    for a in range(0, counts.shape[0], BLOCK_STATES):
        part = buf[: counts.shape[0] - a]
        np.subtract(counts[a : a + part.shape[0]], t, out=part)
        if exact:
            np.maximum(part, 0, out=part)
            k += int(np.count_nonzero(part))  # a numpy int would wrap in n S - k r
        else:
            np.abs(part, out=part)
        total += part.sum().item()
    if exact:
        return Fraction(n * total - k * r, n * scale)
    return (total + (n - counts.shape[0]) * t) / (2 * scale)
