"""Character-side analysis of the walk.

The one-step transform multiplier f(c) = (1 + sum_r q^{c_r})/(d+1)
composes along the orbit of c under the transposed matrix:
P_hat_n(c) = prod_{j<n} f((T^t)^j c). From that product come the
square-sum upper bound on total variation, single-character lower
bounds, orbit statistics (how fast a coordinate of (T^t)^l c gets
pushed out to size ~ p), and mixing-time searches.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import exactdist, indexing
from .errors import BudgetError, NotMixedError
from .exactdist import WalkConfig
from .modmath import ModVector, center, mat_vec_mod

# A character is indexed by a residue vector c; rho_c(b) = q^(b . c).
CharacterIndex = ModVector

DEFAULT_CHAR_CAP = 1_000_000
DEFAULT_C1 = 0.125
DEFAULT_MIX_CAP = 100_000
_REDUCE_CHUNK = 1 << 16  # fixed: the chunk order sets the float sum's bits


def default_ell_max(p: int) -> int:
    """Generous orbit-length budget, ~10 log2 p."""
    return math.ceil(10 * math.log2(p))


def default_threads() -> int:
    """AFFINEWALK_THREADS as an int >= 1 (default 1). Accepted for
    compatibility only: every reduction runs serially."""
    try:
        return max(1, int(os.environ.get("AFFINEWALK_THREADS", "1")))
    except ValueError:
        return 1


def step_factor(c: CharacterIndex) -> complex:
    """One-step Fourier multiplier (1 + sum_r q^{c_r}) / (d+1)."""
    p, d = c.p, c.d
    acc = 1.0 + 0.0j
    for cr in c.entries:
        acc += cmath.exp(2j * cmath.pi * cr / p)
    return acc / (d + 1)


def step_factor_table(p: int, d: int) -> np.ndarray:
    """f(c) for every character index at once."""
    coords = indexing.all_coords(p, d)
    acc = np.ones(coords.shape[0], dtype=complex)
    for r in range(d):
        acc += np.exp(2j * np.pi / p * coords[:, r])
    return acc / (d + 1)


def transpose_perm(cfg: WalkConfig) -> np.ndarray:
    """Index map c -> T^t c mod p over all characters."""
    coords = indexing.all_coords(cfg.p, cfg.d)
    tmod = np.array(cfg.T.mod(cfg.p).entries, dtype=np.int64)
    return indexing.encode(coords @ tmod % cfg.p, cfg.p)


def contraction_gap(d: int, c1: float = DEFAULT_C1) -> float:
    """Certified gap: if some centered coordinate of c has |c_r| >= c1 p,
    then |f(c)| <= 1 - gap.

    Pairing that coordinate's phase term with the constant 1 gives
    |1 + q^{c_r}| <= 2 cos(pi c1), hence |f| <= 1 - 2(1 - cos(pi c1))/(d+1);
    the value returned is the slightly smaller (1 - cos(2 pi c1))/(2(d+1)),
    which that bound always implies.
    """
    if not (0 < c1 <= 0.5):
        raise ValueError("c1 must lie in (0, 1/2]")
    return (1.0 - math.cos(2 * math.pi * c1)) / (2 * (d + 1))


def _orbit_factors(c: CharacterIndex, cfg: WalkConfig, need: int):
    """Step factors along the orbit of c until a repeat or `need` terms.

    Returns (factors, cycle_start, cycle_length); the cycle fields are
    None when no repeat occurred within `need` terms.
    """
    Tt = cfg.T.transpose()
    seen: dict[tuple[int, ...], int] = {}
    factors: list[complex] = []
    vec = ModVector(cfg.p, c.entries)
    while len(factors) < need:
        key = vec.entries
        if key in seen:
            start = seen[key]
            return factors, start, len(factors) - start
        seen[key] = len(factors)
        factors.append(step_factor(vec))
        vec = mat_vec_mod(Tt, vec, cfg.p)
    return factors, None, None


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
    if n < 0:
        raise ValueError("n must be >= 0")
    cfg.require_admissible()
    if c.p != cfg.p or c.d != cfg.d:
        raise ValueError("character does not match config")
    factors, cyc_start, cyc_len = _orbit_factors(c, cfg, n)
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


def char_transforms(
    cfg: WalkConfig, char_cap: int = DEFAULT_CHAR_CAP
) -> Iterator[np.ndarray]:
    """P_hat_0, P_hat_1, ... over every character, by the one-step
    recurrence P_hat_{n+1}(c) = f(c) P_hat_n(T^t c). The character cap is
    checked on the call, before any item is drawn; admissibility is the
    caller's to check."""
    if cfg.num_states > char_cap:
        raise BudgetError(
            f"p^d = {cfg.num_states} exceeds the character cap {char_cap}; "
            "use char_lower_bound on sampled candidates instead"
        )
    f = step_factor_table(cfg.p, cfg.d)
    perm = transpose_perm(cfg)
    F0 = np.ones(cfg.num_states, dtype=complex)
    return accumulate(repeat(None), lambda F, _: f * F[perm], initial=F0)


def fourier_n_all(
    n: int, cfg: WalkConfig, char_cap: int = DEFAULT_CHAR_CAP
) -> np.ndarray:
    """P_hat_n over every character at once (see char_transforms)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cfg.require_admissible()
    return next(islice(char_transforms(cfg, char_cap), n, None))


def _ub_from_transform(F: np.ndarray) -> float:
    """(1/2) sqrt(sum_{c != 0} |F(c)|^2), summed serially over fixed-size
    chunks in index order: the chunk layout is part of the result's bits,
    so it must not change (one np.sum over the whole vector rounds
    differently)."""
    mags = np.abs(F) ** 2
    mags[0] = 0.0
    total = 0.0
    for i in range(0, mags.shape[0], _REDUCE_CHUNK):
        total += float(mags[i : i + _REDUCE_CHUNK].sum())
    return 0.5 * math.sqrt(total)


def ub_bound(
    n: int,
    cfg: WalkConfig,
    char_cap: int = DEFAULT_CHAR_CAP,
    threads: Optional[int] = None,
) -> float:
    """Square-root character bound on TV: (1/2) sqrt(sum_{c!=0} |P_hat_n(c)|^2).
    All characters have degree 1, so the trace form is just squared moduli.
    `threads` is accepted and ignored: the square sum is serial, in a
    fixed chunk order."""
    return _ub_from_transform(fourier_n_all(n, cfg, char_cap=char_cap))


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.c.p,
                "c": list(self.c.entries),
                "orbit": [list(v.entries) for v in self.orbit],
                "cycle_start": self.cycle_start,
                "cycle_length": self.cycle_length,
                "first_large_ell": self.first_large_ell,
                "threshold": self.threshold,
                "max_centered_magnitudes": list(self.max_centered_magnitudes),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "OrbitRecord":
        doc = json.loads(text)
        p = doc["p"]
        return cls(
            c=ModVector(p, doc["c"]),
            orbit=tuple(ModVector(p, v) for v in doc["orbit"]),
            cycle_start=doc["cycle_start"],
            cycle_length=doc["cycle_length"],
            first_large_ell=doc["first_large_ell"],
            threshold=doc["threshold"],
            max_centered_magnitudes=tuple(doc["max_centered_magnitudes"]),
        )


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
    if c.is_zero():
        raise ValueError("orbit analysis needs a nonzero character")
    if not (0 < c1 <= 0.5):
        raise ValueError("c1 must lie in (0, 1/2]")
    p = cfg.p
    ell_max = default_ell_max(p) if ell_max is None else ell_max
    Tt = cfg.T.transpose()
    seen: dict[tuple[int, ...], int] = {}
    orbit: list[ModVector] = []
    mags: list[int] = []
    first_large = None
    cycle_start = cycle_length = None
    vec = ModVector(p, c.entries)
    for ell in range(ell_max + 1):
        key = vec.entries
        if key in seen:
            cycle_start = seen[key]
            cycle_length = len(orbit) - cycle_start
            break
        seen[key] = len(orbit)
        orbit.append(vec)
        m = center(vec).max_abs()
        mags.append(m)
        if first_large is None and m >= c1 * p:
            first_large = ell
        vec = mat_vec_mod(Tt, vec, p)
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
    of residue coordinates; default: every nonzero character."""
    p, d = cfg.p, cfg.d
    ell_max = default_ell_max(p) if ell_max is None else ell_max
    if cs is None:
        cs = indexing.all_coords(p, d)[1:]
    C = np.array(cs, dtype=np.int64) % p
    tmod = np.array(cfg.T.mod(p).entries, dtype=np.int64)
    out = np.full(C.shape[0], -1, dtype=np.int64)
    alive = np.ones(C.shape[0], dtype=bool)
    for ell in range(ell_max + 1):
        mags = np.minimum(C, p - C).max(axis=1)  # centered magnitude
        hit = alive & (mags >= c1 * p)
        out[hit] = ell
        alive &= ~hit
        if not alive.any():
            break
        C = C @ tmod % p
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
    p, d = cfg.p, cfg.d
    if sample is None:
        cs = None
        n_chars = cfg.num_states - 1
    else:
        rng = np.random.default_rng(seed)
        cs = rng.integers(0, p, size=(sample, d), dtype=np.int64)
        cs = cs[(cs != 0).any(axis=1)]
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


def mixing_time(
    cfg: WalkConfig,
    eps: float,
    method: str = "exact",
    n_cap: int = DEFAULT_MIX_CAP,
    state_cap: int = exactdist.DEFAULT_STATE_CAP,
    char_cap: int = DEFAULT_CHAR_CAP,
    threads: Optional[int] = None,
) -> int:
    """Least n with TV(P_n, U) <= eps (method='exact') or with the
    character upper bound <= eps (method='ub'); raises NotMixedError at
    the cap. n=0 counts: TV(P_0, U) = 1 - 1/p^d, so eps at or above that
    returns 0 for either method. `threads` is accepted and ignored."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    cfg.require_admissible()
    if eps >= 1.0 - 1.0 / cfg.num_states:
        return 0
    if method == "exact":
        values = map(exactdist.tv_from_uniform, exactdist.dense_states(cfg, state_cap))
    elif method == "ub":
        values = map(_ub_from_transform, char_transforms(cfg, char_cap))
    else:
        raise ValueError(f"unknown method {method!r} (want 'exact' or 'ub')")
    return first_below(values, eps, n_cap, method)


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

    @classmethod
    def from_csv(cls, text: str) -> "BoundSeries":
        rows = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        header = rows[0].split(",")
        has_exact = "tv_exact" in header
        out = cls(tv_exact=[] if has_exact else None)
        for ln in rows[1:]:
            parts = ln.split(",")
            out.n.append(int(parts[0]))
            out.ub.append(float(parts[1]))
            out.lb.append(float(parts[2]))
            if has_exact:
                out.tv_exact.append(float(parts[3]))
        return out


def bound_series(
    cfg: WalkConfig,
    n_values: Sequence[int],
    include_exact: Optional[bool] = None,
    state_cap: int = exactdist.DEFAULT_STATE_CAP,
    char_cap: int = DEFAULT_CHAR_CAP,
    threads: Optional[int] = None,
) -> BoundSeries:
    """Walk n upward once, collecting ub, lb (max |P_hat_n| over all
    nonzero characters), and optionally exact TV at each requested n.
    `threads` is accepted and ignored."""
    cfg.require_admissible()
    wanted = set(int(n) for n in n_values)
    if any(n < 0 for n in wanted):
        raise ValueError("n values must be >= 0")
    chars = char_transforms(cfg, char_cap)
    if include_exact is None:
        include_exact = cfg.num_states <= state_cap
    states = exactdist.dense_states(cfg, state_cap) if include_exact else repeat(None)
    series = BoundSeries(tv_exact=[] if include_exact else None)
    for n in range(max(wanted, default=-1) + 1):
        # one statement per draw, so the previous F is freed before the
        # dense step runs (as many arrays live at once as in a plain loop)
        F = next(chars)
        P = next(states)
        if n not in wanted:
            continue
        series.n.append(n)
        series.ub.append(_ub_from_transform(F))
        mods = np.abs(F)
        mods[0] = 0.0
        series.lb.append(0.5 * float(mods.max()))
        if P is not None:
            series.tv_exact.append(exactdist.tv_from_uniform(P))
    return series
