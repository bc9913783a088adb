"""Character-side analysis of the walk.

The one-step transform multiplier f(c) = (1 + sum_r q^{c_r})/(d+1)
composes along the orbit of c under the transposed matrix:
P_hat_n(c) = prod_{j<n} f((T^t)^j c). From that product come the
square-sum upper bound on total variation, single-character lower
bounds, orbit statistics (how fast a coordinate of (T^t)^l c gets
pushed out to size ~ p), and mixing-time searches.

Both bounds need only the squared moduli, which compose the same way:
|P_hat_n(c)|^2 = prod_{j<n} |f((T^t)^j c)|^2, so the one walk over all
characters (char_powers) steps that real product.

P_n is a real law, so P_hat_n(-c) is the conjugate of P_hat_n(c), and
c -> T^t c commutes with negation: G_n = |P_hat_n|^2 is even. The real
walk therefore steps only the characters whose top coordinate c_{d-1}
lies in [0, p//2] - a prefix of the index order, about half of them -
and reads G_n at any other character from its negative. Its two tables,
|f|^2 (step_factor_table) and the folded map c -> +-T^t c
(transpose_perm, which is indexing.linear_perm with h = p//2 + 1), are
built over that slab alone.

Each step of that real walk, and the build of its two tables, runs by
contiguous ranges of characters on the CPUs of the process's affinity
mask (`indexing.split_rows`). Every character takes the same operations
whatever the split, so G_n, ub and lb are bit-identical to a serial run;
the square sum and the maximum behind ub and lb stay serial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import exactdist, indexing
from .errors import NotMixedError
from .exactdist import WalkConfig, check_caps
from .modmath import ModVector, center, mat_vec_mod

# A character is indexed by a residue vector c; rho_c(b) = q^(b . c).
CharacterIndex = ModVector

DEFAULT_CHAR_CAP = 1_000_000
DEFAULT_C1 = 0.125
DEFAULT_MIX_CAP = 100_000
# `least_below` takes a midpoint after this many probes in a row that
# leave its bracket wider than half its width when they began
STALL_PROBES = 3


def default_ell_max(p: int) -> int:
    """Generous orbit-length budget, ~10 log2 p."""
    return math.ceil(10 * math.log2(p))


def _ell_budget(p: int, ell_max: Optional[int]) -> int:
    """ell_max, or the default for p when None; an orbit budget counts
    steps (`check_caps`)."""
    if ell_max is None:
        return default_ell_max(p)
    check_caps(ell_max=ell_max)
    return ell_max


def step_factor(c: CharacterIndex) -> complex:
    """One-step Fourier multiplier (1 + sum_r q^{c_r}) / (d+1)."""
    p, d = c.p, c.d
    acc = 1.0 + 0.0j
    for cr in c.entries:
        acc += cmath.exp(2j * cmath.pi * cr / p)
    return acc / (d + 1)


def step_factor_table(p: int, d: int) -> np.ndarray:
    """g = |f|^2 over the characters with top coordinate c_{d-1} in
    [0, p//2]: the p phases q^k added to a grid of ones along each
    coordinate in turn, divided by d+1, then squared in modulus.

    The phases are broadcast over the slab's grid (`indexing.slab`), as
    indexing.linear_perm broadcasts its terms, so no table over every
    character is formed, and the grid is filled by ranges of rows of
    numpy axis 0 (`indexing.split_rows`)."""
    spans, shape = indexing.slab(p, d, p // 2 + 1)
    w = np.exp(2j * np.pi / p * np.arange(p, dtype=np.int64))
    *phases, lead = (indexing.along(w[span], d, r) for r, span in enumerate(spans))
    head = np.ones((1,) + shape[1:], dtype=complex)
    for ph in phases:  # 1 + q^c_0 + ... + q^c_{d-2}
        head += ph
    # g, which outlives the build, before the temporary acc: of the orders
    # tried, this one gave the lowest peak RSS on the bound walk
    g = np.empty(shape)
    acc = np.empty(shape, dtype=complex)

    def fill(s):  # rows s of numpy axis 0: the characters with c_{d-1} in s
        # head + lead as a copy and an in-place add: a broadcast np.add over
        # the grid takes numpy's ufunc buffers for both operands, in every
        # range of the split at once, and the copy takes none
        acc[s] = head
        acc[s] += lead[s]
        acc[s] /= d + 1
        np.abs(acc[s], out=g[s])
        g[s] **= 2

    indexing.split_rows(fill, shape[0], p ** (d - 1))
    return g.reshape(-1)


def transpose_perm(cfg: WalkConfig) -> np.ndarray:
    """The folded map over the characters with top coordinate c_{d-1} in
    [0, p//2]: c goes to T^t c, or to -T^t c when that image's top
    coordinate is above p//2, so every image stays in the slab
    (`indexing.linear_perm` with h = p//2 + 1)."""
    return indexing.linear_perm(cfg.T.transpose().mod(cfg.p).entries, cfg.p, cfg.p // 2 + 1)


def _check_c1(c1: float) -> None:
    """The orbit threshold c1 p is meaningful only for c1 in (0, 1/2]: a
    centered coordinate never exceeds p/2, and c1 <= 0 counts every
    character as large at once."""
    if not (0 < c1 <= 0.5):
        raise ValueError("c1 must lie in (0, 1/2]")


def contraction_gap(d: int, c1: float = DEFAULT_C1) -> float:
    """Certified gap: if some centered coordinate of c has |c_r| >= c1 p,
    then |f(c)| <= 1 - gap.

    Pairing that coordinate's phase term with the constant 1 gives
    |1 + q^{c_r}| <= 2 cos(pi c1), hence |f| <= 1 - 2(1 - cos(pi c1))/(d+1);
    the value returned is the slightly smaller (1 - cos(2 pi c1))/(2(d+1)),
    which that bound always implies.
    """
    _check_c1(c1)
    return (1.0 - math.cos(2 * math.pi * c1)) / (2 * (d + 1))


def _check_character(c: CharacterIndex, cfg: WalkConfig) -> None:
    """A character of the walk has the walk's modulus and dimension."""
    if c.p != cfg.p or c.d != cfg.d:
        raise ValueError("character does not match config")


def _orbit(c: CharacterIndex, cfg: WalkConfig, limit: int):
    """(T^t)^l c mod p for l = 0, 1, ... until a repeat or `limit` terms.

    Returns (orbit, cycle_start, cycle_length); the cycle fields are
    None when no repeat occurred within `limit` terms.
    """
    Tt = cfg.T.transpose()
    seen: dict[tuple[int, ...], int] = {}
    orbit: list[ModVector] = []
    vec = ModVector(cfg.p, c.entries)
    while len(orbit) < limit:
        key = vec.entries
        if key in seen:
            start = seen[key]
            return orbit, start, len(orbit) - start
        seen[key] = len(orbit)
        orbit.append(vec)
        vec = mat_vec_mod(Tt, vec, cfg.p)
    return orbit, None, None


def _product(factors: Sequence[complex]) -> complex:
    acc = 1.0 + 0.0j
    for f in factors:
        acc *= f
    return acc


def fourier_n(c: CharacterIndex, n: int, cfg: WalkConfig) -> complex:
    """P_hat_n(c) = prod_{j=0}^{n-1} f((T^t)^j c mod p).

    Walks the orbit once; when n outruns the orbit's cycle, the cycle
    product is raised to its power in the log domain so moduli far below
    float underflow still come out right (as 0 only when truly 0).
    """
    check_caps(n=n)
    cfg.require_admissible()
    _check_character(c, cfg)
    orbit, cyc_start, cyc_len = _orbit(c, cfg, n)
    factors = [step_factor(v) for v in orbit]
    if len(factors) == n:
        return _product(factors)
    # repeat found before n factors were consumed
    assert cyc_start is not None and cyc_len is not None
    head = _product(factors[:cyc_start])
    cycle = factors[cyc_start:]
    reps, rem = divmod(n - cyc_start, cyc_len)
    tail = _product(cycle[:rem])
    if any(f == 0 for f in cycle):
        return 0.0 if reps >= 1 else head * tail
    log_cycle = sum(cmath.log(f) for f in cycle)
    return head * cmath.exp(reps * log_cycle) * tail


def _char_walk(table: np.ndarray, perm: np.ndarray) -> Iterator[np.ndarray]:
    """W_0 = 1, W_1, ... by the one-step recurrence
    W_{n+1}(c) = table(c) W_n(perm(c)) for a float64 table: each step
    gathers into one fresh output and multiplies it in place, by ranges
    of characters (`indexing.split_rows`)."""

    def step(W, _):
        out = np.empty_like(W)

        def part(s):
            np.take(W, perm[s], out=out[s], mode="clip")
            out[s] *= table[s]

        indexing.split_rows(part, out.shape[0])
        return out

    return accumulate(repeat(None), step, initial=np.ones(table.shape[0]))


def char_powers(cfg: WalkConfig, char_cap: int = DEFAULT_CHAR_CAP) -> Iterator[np.ndarray]:
    """G_n = |P_hat_n|^2 for n = 0, 1, ..., over the characters with top
    coordinate c_{d-1} in [0, p//2] (the first (p//2 + 1) p^(d-1)
    indices); G_n is even, so G_n(c) for any other c is G_n(-c).

    The walk is G_{n+1}(c) = |f(c)|^2 G_n(T^t c), with T^t c folded onto
    -T^t c when its top coordinate is above p//2 (step_factor_table and
    transpose_perm): a float64 walk over about half the characters with
    no modulus per step. Moduli below about 1e-154 square to below the
    normal float range and lose digits there. The character cap counts
    every character, p^d, and is checked on the call, before any item is
    drawn; admissibility is the caller's to check."""
    cfg.require_states(char_cap, "char_cap", "character cap",
                       "use char_lower_bound on sampled candidates instead")
    return _char_walk(step_factor_table(cfg.p, cfg.d), transpose_perm(cfg))


def _ub_from_powers(G: np.ndarray, p: int) -> float:
    """(1/2) sqrt(sum_{c != 0} G(c)) for G = |P_hat_n|^2 as char_powers
    gives it. Each slab c_{d-1} = k of p^(d-1) characters counts for
    itself and its negative, slab p - k: slab 0 is closed under negation
    (once, without c = 0), slabs 1 .. ceil(p/2) - 1 pair with slabs
    outside the table (twice), and the slab p/2 of an even p pairs with
    itself (once)."""
    m = G.shape[0] // (p // 2 + 1)
    e = m * ((p + 1) // 2)  # end of the slabs counted twice
    return 0.5 * math.sqrt(float(G[1:m].sum() + 2.0 * G[m:e].sum() + G[e:].sum()))


def _lb_from_powers(G: np.ndarray) -> float:
    """max_{c != 0} |P_hat_n(c)| / 2 for G = |P_hat_n|^2 as char_powers
    gives it (every nonzero character or its negative), the best
    single-character lower bound."""
    return 0.5 * math.sqrt(float(G[1:].max()))


def ub_bound(
    n: int,
    cfg: WalkConfig,
    char_cap: int = DEFAULT_CHAR_CAP,
) -> float:
    """Square-root character bound on TV: (1/2) sqrt(sum_{c!=0} |P_hat_n(c)|^2).
    All characters have degree 1, so the trace form is just squared
    moduli, read from the real walk of char_powers. That walk holds only
    the characters with c_{d-1} <= p//2 and counts each of the others
    through its negative, where |P_hat_n(-c)| = |P_hat_n(c)|. A negative
    char_cap raises ValueError."""
    check_caps(n=n, char_cap=char_cap)
    cfg.require_admissible()
    return _ub_from_powers(next(islice(char_powers(cfg, char_cap), n, None)), cfg.p)


def char_lower_bound(
    n: int, cfg: WalkConfig, candidates: Sequence[CharacterIndex]
) -> float:
    """max over candidate characters of |P_hat_n(c)| / 2, a certified
    lower bound on TV(P_n, U): for c != 0 the uniform expectation of
    rho_c vanishes, so |P_hat_n(c)| <= 2 TV."""
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate list must be nonempty")
    if any(c.is_zero() for c in cands):
        raise ValueError("candidates must be nonzero characters")
    return max(abs(fourier_n(c, n, cfg)) for c in cands) / 2.0


@dataclass(frozen=True)
class OrbitRecord:
    """Orbit of one character under T^t with centered-size statistics."""

    c: CharacterIndex
    orbit: tuple[ModVector, ...]
    cycle_start: Optional[int]
    cycle_length: Optional[int]
    first_large_ell: Optional[int]
    threshold: float  # the C1 in |coordinate| >= C1 * p
    max_centered_magnitudes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "p": self.c.p,
            "c": list(self.c.entries),
            "orbit": [list(v.entries) for v in self.orbit],
            "cycle_start": self.cycle_start,
            "cycle_length": self.cycle_length,
            "first_large_ell": self.first_large_ell,
            "threshold": self.threshold,
            "max_centered_magnitudes": list(self.max_centered_magnitudes),
        }


def orbit_analysis(
    c: CharacterIndex,
    cfg: WalkConfig,
    c1: float = DEFAULT_C1,
    ell_max: Optional[int] = None,
) -> OrbitRecord:
    """Follow (T^t)^l c mod p, recording the first l whose centered
    representative has a coordinate of size >= c1 p. Stops at a repeat
    (the orbit is then fully known) or at ell_max. first_large_ell stays
    None if the threshold is never reached on the explored orbit - a
    reportable counterexample to the chosen c1."""
    _check_character(c, cfg)
    if c.is_zero():
        raise ValueError("orbit analysis needs a nonzero character")
    _check_c1(c1)
    p = cfg.p
    ell_max = _ell_budget(p, ell_max)
    orbit, cycle_start, cycle_length = _orbit(c, cfg, ell_max + 1)
    mags = [center(v).max_abs() for v in orbit]
    first_large = next((ell for ell, m in enumerate(mags) if m >= c1 * p), None)
    return OrbitRecord(
        c=c,
        orbit=tuple(orbit),
        cycle_start=cycle_start,
        cycle_length=cycle_length,
        first_large_ell=first_large,
        threshold=c1,
        max_centered_magnitudes=tuple(mags),
    )


def first_large_sweep(
    cfg: WalkConfig,
    c1: float = DEFAULT_C1,
    cs: Optional[np.ndarray] = None,
    ell_max: Optional[int] = None,
) -> np.ndarray:
    """first_large_ell for many characters at once (-1 where the
    threshold was never reached within ell_max). `cs` is an (m, d) array
    of residue coordinates; default: every nonzero character.

    The characters are kept as d int64 columns, and a step sets column i
    to sum_j tm[j][i] col_j mod p (the row c times T mod p). Each term is
    at most (p-1)^2, so the step is exact when d (p-1)^2 + 1 <= 2^63 - 1,
    the limit simulate shares; larger moduli are refused with
    BudgetError. A character is dropped once it reaches the threshold,
    so each ell steps only the characters still below it. With cs=None,
    p^d beyond the default character cap is refused with BudgetError
    before anything is allocated."""
    _check_c1(c1)
    cfg.require_int64("first_large_sweep")
    p, d = cfg.p, cfg.d
    ell_max = _ell_budget(p, ell_max)
    if cs is None:
        cfg.require_states(DEFAULT_CHAR_CAP, "char_cap", "character cap",
                           "pass sampled characters as cs= (sample= in orbit_constant_report)")
        cs = indexing.all_coords(p, d)[1:]
    C = np.array(cs, dtype=np.int64) % p
    if C.ndim != 2 or C.shape[1] != d:
        raise ValueError(f"cs must be an (m, {d}) array of residues")
    cols = [C[:, i].copy() for i in range(d)]
    del C
    tm = cfg.T.mod(p).entries
    out = np.full(cols[0].shape[0], -1, dtype=np.int64)
    live = np.arange(out.shape[0])  # rows of out still below the threshold
    for ell in range(ell_max + 1):
        mags = np.minimum(cols[0], p - cols[0])  # centered magnitude
        for c in cols[1:]:
            np.maximum(mags, np.minimum(c, p - c), out=mags)
        hit = mags >= c1 * p
        out[live[hit]] = ell
        if hit.any():
            keep = ~hit
            live = live[keep]
            cols = [c[keep] for c in cols]
        if live.size == 0 or ell == ell_max:
            break
        new = []
        for i in range(d):
            acc = np.zeros(live.size, dtype=np.int64)
            for j in range(d):
                if tm[j][i]:
                    acc += tm[j][i] * cols[j]
            new.append(np.remainder(acc, p, out=acc))
        cols = new
    return out


def orbit_constant_report(
    cfg: WalkConfig,
    c1: float = DEFAULT_C1,
    sample: Optional[int] = None,
    seed: int = 0,
    ell_max: Optional[int] = None,
) -> dict:
    """Empirical fit of the orbit-growth constants for one matrix: with
    threshold c1 fixed, reports the worst first_large_ell over all (or
    `sample` random) nonzero characters and the implied multiple of
    log p. The theory guarantees such constants exist but never names
    them; this measures them."""
    _check_c1(c1)
    p, d = cfg.p, cfg.d
    if sample is None:
        cs = None
        n_chars = cfg.num_states - 1
    else:
        rng = np.random.default_rng(seed)
        cs = rng.integers(0, p, size=(sample, d), dtype=np.int64)
        # drop the zero character, a column at a time: one boolean
        # temporary, not a (sample, d) one reduced along its rows
        keep = cs[:, 0] != 0
        for col in cs.T[1:]:
            keep |= col != 0
        cs = cs[keep]
        n_chars = cs.shape[0]
    firsts = first_large_sweep(cfg, c1=c1, cs=cs, ell_max=ell_max)
    found = firsts[firsts >= 0]
    report = {
        "matrix": cfg.T.tag(),
        "p": p,
        "c1": c1,
        "characters": int(n_chars),
        "not_reached": int((firsts < 0).sum()),
        "max_first_large_ell": int(found.max()) if found.size else None,
        "mean_first_large_ell": float(found.mean()) if found.size else None,
    }
    if found.size:
        report["c2_fit"] = float(found.max() / math.log(p))
    return report


def check_search(eps: float, n_cap: int) -> None:
    """Every mixing-time search needs 0 < eps < 1 and a step cap >= 0."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    check_caps(n_cap=n_cap)


def check_method(method: str, allowed: Sequence[str]) -> None:
    """Every search names its method among `allowed` (ValueError)."""
    if method not in allowed:
        raise ValueError(f"unknown method {method!r} (want one of {', '.join(allowed)})")


def first_below(values: Iterable[float], eps: float, n_cap: int, method: str) -> int:
    """Least n with values[n] <= eps, drawing values lazily for
    n = 0, 1, ..., n_cap; raises NotMixedError with the value at n_cap
    when none qualifies."""
    for n, value in enumerate(values):
        if value <= eps:
            return n
        if n >= n_cap:
            raise NotMixedError(n_cap, method, value)
    raise ValueError("value sequence ended before the search cap")


def least_below(
    value_at: Callable[[int], float], eps: float, lo: int, lo_value: float, hi: int
) -> int:
    """Least k with lo < k <= hi and value_at(k) <= eps, or hi + 1 when
    value_at(hi) > eps: bisect_left's answer for a value_at that does
    not increase on lo, ..., hi. lo_value is the value at lo, known to
    lie above eps; lo is neither probed nor returned.

    The cap hi is probed first. Then the bracket (lo, top], with
    value(lo) > eps >= value(top), shrinks by regula falsi on
    f = log(value / eps) with the Illinois modification (Dowell and
    Jarratt, BIT 1971): the probe is the least integer at or past the
    zero of the line through (lo, f(lo)) and (top, f(top)), and an end
    kept by two probes in a row has its f halved. The midpoint is
    probed instead after STALL_PROBES probes in a row that leave the
    bracket wider than half its width when they began, and whenever an
    end has no finite f above or below 0: a value of 0, which has no
    log, or a lo_value that rounded to eps or below. A midpoint halves
    the bracket (to the ceiling), so every STALL_PROBES + 1 probes do,
    and the search ends, at top = lo + 1, after at most
    (STALL_PROBES + 1) * ceil(log2(hi - lo)) + 1 probes. Every k is a
    Python int, so any hi is searched that value_at can read."""
    if hi <= lo:
        return hi + 1
    top, top_value = hi, value_at(hi)
    if top_value > eps:
        return hi + 1
    log_eps = math.log(eps)

    def excess(value: float) -> float:  # log(value / eps), -inf at or below 0
        return math.log(value) - log_eps if value > 0 else -math.inf

    f_lo, f_top = excess(lo_value), excess(top_value)
    moved = None  # the end the last probe moved: "lo" or "top"
    start, stalled = top - lo, 0
    while top - lo > 1:
        if stalled < STALL_PROBES and f_lo > 0 and f_top > -math.inf:
            step = math.ceil((top - lo) * (f_lo / (f_lo - f_top)))
            k = min(max(lo + step, lo + 1), top - 1)
        else:
            k = (lo + top) // 2
        value = value_at(k)
        if value <= eps:
            if moved == "top":
                f_lo /= 2
            top, f_top, moved = k, excess(value), "top"
        else:
            if moved == "lo":
                f_top /= 2
            lo, f_lo, moved = k, excess(value), "lo"
        if 2 * (top - lo) <= start + 1:  # halved, to the ceiling
            start, stalled = top - lo, 0
        else:
            stalled += 1
    return top


def mixing_time(
    cfg: WalkConfig,
    eps: float,
    method: str = "exact",
    n_cap: int = DEFAULT_MIX_CAP,
    state_cap: int = exactdist.DEFAULT_STATE_CAP,
    char_cap: int = DEFAULT_CHAR_CAP,
) -> int:
    """Least n with TV(P_n, U) <= eps (method='exact') or with the
    character upper bound <= eps (method='ub'); raises NotMixedError at
    the cap. n=0 counts: TV(P_0, U) = 1 - 1/p^d, so eps at or above that
    (exactly) returns 0 for either method. Bad inputs (`check_search`, a
    negative state_cap or char_cap, another method) raise ValueError.

    The exact search compares eps with the exact TV (a Fraction while
    exactdist's counts are integers), read only where it may decide the
    answer: P_n charges at most s = P_n.max_support states, so
    TV(P_n, U) >= 1 - s/p^d, and at each n < n_cap where that exact floor
    exceeds eps no TV is taken (nor, on the support, a dense vector built).
    The TV at n_cap, which a NotMixedError carries, is always read."""
    check_search(eps, n_cap)
    check_caps(state_cap=state_cap, char_cap=char_cap)
    check_method(method, ("exact", "ub"))
    cfg.require_admissible()
    if Fraction(eps) >= 1 - Fraction(1, cfg.num_states):
        return 0
    if method == "exact":
        values = _exact_values(cfg, eps, n_cap, state_cap)
    else:
        values = (_ub_from_powers(G, cfg.p) for G in char_powers(cfg, char_cap))
    return first_below(values, eps, n_cap, method)


def _exact_values(cfg: WalkConfig, eps: float, n_cap: int, state_cap: int) -> Iterator:
    """TV(P_n, U) for n = 0, 1, ..., with the exact counting floor in its
    place wherever the floor alone puts TV above eps (mixing_time)."""
    for n, P in enumerate(exactdist.dense_states(cfg, state_cap)):
        floor = 1 - Fraction(P.max_support, cfg.num_states)
        if n < n_cap and floor > eps:
            yield floor
        else:
            yield exactdist.tv_from_uniform(P)


@dataclass
class BoundSeries:
    """Upper bound, character lower bound, and (when affordable) the
    exact TV, per step count."""

    n: list[int] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    tv_exact: Optional[list[float]] = None

    def to_csv(self, header_comment: str = "") -> str:
        lines = []
        if header_comment:
            lines.append(f"# {header_comment}")
        cols = "n,ub,lb" + (",tv_exact" if self.tv_exact is not None else "")
        lines.append(cols)
        for i, n in enumerate(self.n):
            row = f"{n},{float(self.ub[i])!r},{float(self.lb[i])!r}"
            if self.tv_exact is not None:
                row += f",{float(self.tv_exact[i])!r}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def bound_series(
    cfg: WalkConfig,
    n_values: Sequence[int],
    include_exact: Optional[bool] = None,
    state_cap: int = exactdist.DEFAULT_STATE_CAP,
    char_cap: int = DEFAULT_CHAR_CAP,
) -> BoundSeries:
    """ub, lb (max |P_hat_n| over all nonzero characters) and optionally
    exact TV at each requested n, in increasing n.

    One engine runs at a time: the squared-modulus walk of char_powers
    goes up to max n and keeps only the ub and lb scalars, and its
    tables are dropped before the dense walk runs and keeps only
    tv_exact. The character walk holds about half the characters and
    peaks near 16 bytes per state, the dense walk at 20. Both caps are
    checked before either walk steps; a negative one raises ValueError."""
    check_caps(state_cap=state_cap, char_cap=char_cap)
    cfg.require_admissible()
    ns = sorted(set(int(n) for n in n_values))
    if ns and ns[0] < 0:
        raise ValueError("n values must be >= 0")
    if include_exact is None:
        include_exact = cfg.num_states <= state_cap
    powers = char_powers(cfg, char_cap)
    states = exactdist.dense_states(cfg, state_cap) if include_exact else None
    bounds = [(_ub_from_powers(G, cfg.p), _lb_from_powers(G)) for G in _picked(powers, ns)]
    del powers  # frees g, perm and the last G before the dense walk
    series = BoundSeries(
        n=ns, ub=[ub for ub, _ in bounds], lb=[lb for _, lb in bounds]
    )
    if states is not None:
        series.tv_exact = [float(exactdist.tv_from_uniform(P)) for P in _picked(states, ns)]
    return series


def _picked(items: Iterator, ns: Sequence[int]) -> Iterator:
    """The items at the increasing indices ns, drawing no item past the
    last of them."""
    wanted = set(ns)
    return (x for n, x in zip(range(max(ns, default=-1) + 1), items) if n in wanted)
