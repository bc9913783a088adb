"""Trajectory simulation, the slow-mixing apparatus, and the one entry
point of every mixing-time search.

`simulate` steps no walk. From X_0 = 0 the walk unrolls to
X_n = sum_{k<n} T^(n-1-k) B_k mod p, the unrolling behind the product
formula, so a final state is a sum of entries of one table of
T^j e_b mod p, one read per group of g steps packed into a uint8 code;
its docstring gives the group size rule, the tiling and why int64 is
exact.

When a root-of-unity factor of order m forces T^m to fix a direction
mod p, the walk observed through that direction is a random walk on
Z/pZ with increments supported on at most (d+1)^m residues. Its
distance from uniform is the slow-mixing witness. The law after k
m-step blocks is the k-fold convolution of the block increment law,
read from the spectrum as ifft(phi^k), phi the DFT of the increment
law with phi_0 = 1 exactly, its mass; from 100 blocks on, phi^k is
read as exp(k log phi), log phi taken once per law (`_block_law`).
`projected_walk_dist` returns the law at one k, and
`projected_mixing_time` searches k. Convolving with a probability
measure cannot move a law away from uniform (uniform is invariant under
it), so the distance is non-increasing in k, and the least mixed block
count is found by `fourier.least_below`: regula falsi on log TV, which
falls about linearly in k once the walk spreads, with a midpoint probe
when that stalls, in O(p log p) per probe and at most
4 ceil(log2 cap) + 1 probes.

`mixing_search`, which `mixtime` and `scaling_sweep` both call, sends
each of METHODS to its engine: a scan of the dense or character walk
('exact', 'ub') or this search ('projected').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import exactdist, fourier, indexing, spectral
from .errors import AffineWalkError, BudgetError, NotMixedError, PreconditionError
from .exactdist import WalkConfig
from .modmath import (
    IntMatrix,
    ModVector,
    is_prime,
    mat_pow_mod,
    mat_vec_mod,
    nullspace_mod_prime,
)

# Trajectory step streams come from the Philox counter-based generator,
# keyed (seed, chunk); a chunk is a fixed block of trajectories, so the
# stream layout never depends on thread count or batch size.
RNG_CHUNK = 4096
DEFAULT_SEED = 12345
DEFAULT_COUNT_CAP = 10_000_000  # states empirical_tv may histogram
# `simulate` reads a chunk's step stream in tiles of rows holding at most
# _TILE_ROWS_BYTES of steps, each tile reading at most _TILE_READS table rows
_TILE_ROWS_BYTES = 2**20
_TILE_READS = 2**17

# the mixing-time methods `mixing_search` accepts
METHODS = ("exact", "ub", "projected")
# `_block_law` reads phi^k as exp(k log phi) from this many blocks on,
# the exponent from which numpy's complex power calls cpow
POWER_FROM = 100


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Final states of `samples` independent walks of length n."""

    cfg: WalkConfig
    n: int
    seed: int
    samples: int
    final_states: np.ndarray  # (samples, d) residues

    def states_csv(self, header_comment: str = "") -> str:
        """One line per walk, its residues in decimal. Rows are formatted
        RNG_CHUNK at a time through a %d template, so no more than one
        block's tuple of Python ints is alive at once."""
        d = self.cfg.d
        head = f"# {header_comment}\n" if header_comment else ""
        parts = [head + ",".join(f"x{i}" for i in range(d)) + "\n"]
        row = ",".join(["%d"] * d) + "\n"
        for lo in range(0, self.samples, RNG_CHUNK):
            blk = self.final_states[lo : lo + RNG_CHUNK]
            parts.append((row * len(blk)) % tuple(blk.ravel().tolist()))
        return "".join(parts)


def _step_stream(seed: int, chunk_index: int, rows: int, n: int, d: int) -> np.ndarray:
    key = np.array([seed % 2**64, chunk_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, d + 1, size=(rows, n), dtype=np.uint8)


def _group_size(d: int, samples: int) -> int:
    """Steps packed into one uint8 code: the largest g with (d+1)^g at
    most 256 and at most `samples`, and 1 at least. A group's table row
    holds (d+1)^g entries, so no row is longer than the walks that read
    it."""
    g = 1
    while (d + 1) ** (g + 1) <= min(256, samples):
        g += 1
    return g


def _increment_table(cfg: WalkConfig, n: int, g: int) -> np.ndarray:
    """Row j*(d+1)^g + code: sum_t T^(m-1-jg-t) e_{b_t} mod p, with m the
    multiple of g at or above n, e_0 = 0 and b_0 ... b_{g-1} the base
    d+1 digits of code, most significant first. That is what group j of
    the steps adds to X_n when time is counted from m - n steps before
    the walk starts.

    The powers T^k mod p, k < m, come by doubling from T mod p; a product
    of two reduced matrices stays below d (p-1)^2 + 1, which the int64
    refusal keeps exact. Each coordinate is built digit by digit, least
    significant first, so every broadcast add runs along the codes, then
    reduced into its column of the table."""
    p, d = cfg.p, cfg.d
    groups = -(-n // g)
    m = groups * g
    tm = np.array(cfg.T.mod(p).entries, dtype=np.int64)
    pw = np.empty((m, d, d), dtype=np.int64)
    pw[0] = np.eye(d, dtype=np.int64)
    done = 1
    while done < m:
        k = min(done, m - done)
        np.matmul(pw[done - 1] @ tm % p, pw[:k], out=pw[done : done + k])
        pw[done : done + k] %= p
        done += k
    inc = np.zeros((m, d, d + 1), dtype=np.int64)  # [step, coordinate, b]
    inc[:, :, 1:] = pw[::-1]
    inc = inc.reshape(groups, g, d, d + 1)
    table = np.empty((groups, (d + 1) ** g, d), dtype=np.int64)
    for i in range(d):
        W = inc[:, g - 1, i]
        for t in range(g - 2, -1, -1):
            W = (inc[:, t, i, :, None] + W[:, None, :]).reshape(groups, -1)
        np.remainder(W, p, out=table[:, :, i])
    return table.reshape(-1, d)


def _add_unrolled(out: np.ndarray, stream: np.ndarray, table: np.ndarray, p: int, g: int) -> None:
    """Add to out, mod p, the final states of the walks whose steps are
    the rows of stream, one table row per group of g steps (see
    simulate). Tiles hold at most _TILE_ROWS_BYTES // n stream rows (one
    at least) by _TILE_READS // rows groups, codes and indices laid out
    (groups, rows) so the gathered entries sum over axis 0; out is
    reduced after every tile."""
    rows, n = stream.shape
    d = out.shape[1]
    groups = -(-n // g)
    pad = groups * g - n  # digits missing from the first group
    offsets = np.arange(groups, dtype=np.intp)[:, None] * (d + 1) ** g
    tile_rows = max(1, min(rows, _TILE_ROWS_BYTES // n))
    tile_groups = max(1, _TILE_READS // tile_rows)
    for r0 in range(0, rows, tile_rows):
        steps, acc = stream[r0 : r0 + tile_rows], out[r0 : r0 + tile_rows]
        for j0 in range(0, groups, tile_groups):
            j1 = min(groups, j0 + tile_groups)
            code = np.zeros((j1 - j0, len(steps)), dtype=np.uint8)
            for t in range(g):
                k = j0 * g + t - pad  # the step of digit t in group j0
                skip = int(k < 0)  # only the first group lacks digits
                code *= d + 1
                code[skip:] += steps[:, k + skip * g : j1 * g + t - pad : g].T
            idx = np.add(code, offsets[j0:j1], dtype=np.intp)
            acc += table.take(idx, axis=0).sum(axis=0)
            acc %= p


def check_simulate(cfg: WalkConfig, n: int, samples: int) -> None:
    """What simulate refuses, in its order: a negative n or samples
    (ValueError), an inadmissible (T, p) (PreconditionError) and a modulus
    past the int64 limit (BudgetError)."""
    if n < 0 or samples < 0:
        raise ValueError("n and samples must be >= 0")
    cfg.require_admissible()
    cfg.require_int64("simulate")


def simulate(cfg: WalkConfig, n: int, samples: int, seed: int) -> TrajectoryBatch:
    """Run `samples` walks from the zero state for n i.i.d. steps.

    Identical (cfg, n, samples, seed) always yields an identical batch;
    chunks of RNG_CHUNK trajectories each draw from their own Philox
    substream, so chunks could be filled in parallel without changing
    the result.

    No walk is stepped. From X_0 = 0 the walk unrolls to
    X_n = sum_{k<n} T^(n-1-k) B_k mod p, so a final state is a sum of
    table entries. g consecutive steps pack into one uint8 code by
    Horner, g the largest integer with (d+1)^g <= 256 (and <= samples),
    and one read of `_increment_table` adds the whole group. The leading
    n mod g steps form a shorter first group: leading zero digits leave
    a code unchanged and e_0 = 0, so the stream is never padded.

    Each chunk's (rows, n) step stream is read in tiles (`_add_unrolled`)
    whose temporaries keep one size however long the walk; the table,
    built once per call, holds 8 d (d+1)^g / g bytes per step.

    int64 is exact throughout under the int64 refusal (BudgetError when
    d (p-1)^2 + 1 > 2^63 - 1): it keeps the table's matrix products
    exact, and since then p < 2^32, a state below p plus the at most
    _TILE_READS table entries below p that one tile adds stays below
    2^50.
    """
    check_simulate(cfg, n, samples)
    X = np.zeros((samples, cfg.d), dtype=np.int64)
    if n and samples:
        g = _group_size(cfg.d, samples)
        table = _increment_table(cfg, n, g)
        for ci, lo in enumerate(range(0, samples, RNG_CHUNK)):
            rows = min(RNG_CHUNK, samples - lo)
            stream = _step_stream(seed, ci, rows, n, cfg.d)
            _add_unrolled(X[lo : lo + rows], stream, table, cfg.p, g)
            del stream  # freed before the next chunk's stream is drawn
    return TrajectoryBatch(cfg=cfg, n=n, seed=seed, samples=samples, final_states=X)


def check_counting(cfg: WalkConfig, samples: int, count_cap: int = DEFAULT_COUNT_CAP) -> None:
    """What empirical_tv refuses, in its order, so a caller can refuse it
    before simulating: a count_cap below 0 (ValueError), a histogram over
    all p^d states past count_cap (BudgetError, both by
    `WalkConfig.require_states`) and nothing to count (ValueError)."""
    cfg.require_states(count_cap, "count_cap", "counting budget")
    if samples == 0:
        raise ValueError("empty batch")


def empirical_tv(batch: TrajectoryBatch, count_cap: int = DEFAULT_COUNT_CAP) -> float:
    """TV between the batch's empirical histogram and uniform. Biased
    upward by about sqrt(p^d / samples); fine as a mixing indicator,
    useless beyond the counting budget (`check_counting`). The walks are
    encoded and counted RNG_CHUNK at a time into one int64 histogram, so
    nothing is held per walk beyond the batch; the TV is exact, then rounded."""
    check_counting(batch.cfg, batch.samples, count_cap)
    counts = np.zeros(batch.cfg.num_states, dtype=np.int64)
    for lo in range(0, batch.samples, RNG_CHUNK):
        np.add.at(counts, indexing.encode(batch.final_states[lo : lo + RNG_CHUNK], batch.cfg.p), 1)
    return float(exactdist.tv_from_uniform(exactdist.DenseDistribution(
        batch.cfg.p, batch.cfg.d, counts, scale=batch.samples)))


@dataclass(frozen=True)
class ProjectionReport:
    """The functional pi(x) = v . x mod p fixed by (T^m)^t, and the exact
    distribution of its increment over one m-step block."""

    m: int
    v: ModVector
    increment_support: tuple[tuple[int, float], ...]  # (residue, probability)
    u: int
    degenerate_prime: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "p": self.v.p,
            "v": list(self.v.entries),
            "increments": [[r, pr] for r, pr in self.increment_support],
            "u": self.u,
            "degenerate_prime": self.degenerate_prime,
        }

    def increment_probs(self) -> np.ndarray:
        out = np.zeros(self.v.p)
        for r, pr in self.increment_support:
            out[r] = pr
        return out


def projection_functional(T: IntMatrix, p: int) -> ProjectionReport:
    """Build the slow-mixing projection for a matrix whose spectrum has a
    primitive root of unity, its order m detected from the characteristic
    polynomial (PreconditionError when there is none).

    v is the first basis vector of the nullspace of (T^m)^t - I mod p
    (deterministic RREF order). That nullspace is never empty: Phi_m
    divides the characteristic polynomial, so T^m - I is singular over Q
    and its rank mod p is at most its rank over Q. The increment
    distribution of pi(T^{m-1} B_0 + ... + B_{m-1}) over one block is
    computed by exact integer convolution over Z/pZ - identical to
    enumerating all (d+1)^m equally likely step tuples, without the
    exponential loop.

    m and the nullity of T^m - I over Q do not depend on p and come from
    `spectral.cyclotomic_facts`, computed once per matrix.
    """
    facts = spectral.cyclotomic_facts(T)
    if facts is None:
        raise PreconditionError("matrix has no root-of-unity eigenvalue")
    if not is_prime(p):
        raise PreconditionError(f"the projection construction needs a prime p, got {p}")
    cfg = WalkConfig(T, p)
    cfg.require_admissible()
    m, d = facts.m, T.dim
    A = mat_pow_mod(T, m, p).transpose() + IntMatrix.identity(d).scale(-1)
    basis = nullspace_mod_prime(A, p)
    # a nullity mod p other than the generic one over Q flags p
    degenerate = len(basis) != facts.fixed_nullity
    v = basis[0]

    # the weight rows v^t T^(m-1-j) mod p of block positions j = m-1, ...,
    # 0 are w = v, T^t w, ...; the counts are exact, so convolving the
    # positions in this order gives the same law
    counts = [0] * p
    counts[0] = 1
    tt = T.transpose()
    w = v
    for _ in range(m):
        vals = [0, *w.entries]
        w = mat_vec_mod(tt, w)
        nxt = [0] * p
        for r in range(p):
            cr = counts[r]
            if cr:
                for val in vals:
                    nxt[(r + val) % p] += cr
        counts = nxt
    total = (d + 1) ** m
    support = tuple(
        (r, counts[r] / total) for r in range(p) if counts[r]
    )
    return ProjectionReport(
        m=m, v=v, increment_support=support, u=len(support), degenerate_prime=degenerate
    )


def _block_law(report: ProjectionReport) -> Callable[[int], np.ndarray]:
    """k -> law of the projected walk after k blocks, started at the point
    mass at 0, read from the spectrum as ifft(phi^k).real, phi the DFT
    of the block increment law with phi_0 = 1 exactly, the law's mass.

    From POWER_FROM blocks on, phi^k is read as exp(k log phi), log phi
    taken once per law. numpy raises a complex array to an integer power
    of at least 100 by cpow, which the C library computes as
    cexp(k clog z), so the two agree bit for bit, and the exponential
    alone costs about a quarter of the power. k scales the real and
    imaginary parts of log phi apart, so an exact zero of phi
    (log = -inf) reads 0, never nan. Such a k enters as the nearest
    float, as it does in numpy's power; a k that rounds past the largest
    float is refused with a BudgetError."""
    phi = np.fft.fft(report.increment_probs())
    # the mass of a probability law, which the FFT's sum leaves an ulp
    # or so off 1: phi_0^k would drain the law over many blocks
    phi[0] = 1.0
    with np.errstate(divide="ignore"):  # log 0 = -inf reads exp(-inf) = 0
        log_parts = np.log(phi).view(np.float64)  # (re, im) interleaved

    def law(k: int) -> np.ndarray:
        # below 100 numpy's power multiplies phi by itself, which the
        # exponential would match only to round-off
        if k < POWER_FROM:
            return np.fft.ifft(phi**k).real
        try:
            kf = float(k)
        except OverflowError:
            raise BudgetError(
                "a block count past the largest float cannot be read from the spectrum"
            ) from None
        with np.errstate(over="ignore"):  # k log|phi_j| = -inf reads exp = 0
            return np.fft.ifft(np.exp((kf * log_parts).view(np.complex128))).real

    return law


def projected_walk_dist(
    report: ProjectionReport, cfg: WalkConfig, blocks: int
) -> np.ndarray:
    """Distribution of pi(X_{blocks*m}): `blocks` convolutions of the
    increment distribution on Z/pZ, starting from the point mass at 0,
    read from the spectrum (entries agree with stepping to round-off).
    Any block count is an exact Python int; a negative one raises
    ValueError, and one that rounds past the largest float (about
    1.8e308) raises BudgetError, the law being read in floats."""
    exactdist.check_caps(blocks=blocks)
    if report.v.p != cfg.p:
        raise ValueError("projection and config use different moduli")
    return _block_law(report)(blocks)


def projected_mixing_time(
    T: IntMatrix, p: int, eps: float, n_cap: int = fourier.DEFAULT_MIX_CAP
) -> int:
    """Least n = blocks*m with TV(projection of P_n, uniform) <= eps, m
    the root-of-unity order of T, searching blocks = 0, ...,
    floor(n_cap / m); raises NotMixedError, with its cap counted in
    steps and the TV at that cap, when none qualifies. eps and n_cap
    follow `fourier.check_search`, n_cap counting steps as it does for
    every method.

    The projected TV lower-bounds the full TV, so this n lower-bounds
    the true mixing time - the quantity whose growth in p is the
    slow-mixing signature.

    The law after k blocks is read from the spectrum (`_block_law`), and
    its TV to uniform is non-increasing in k (uniform is invariant under
    convolution with a probability measure), so the block count is found
    over k >= 1 by `fourier.least_below`: the cap floor(n_cap / m) is
    probed first, then regula falsi on log TV narrows the bracket. Each
    probe costs O(p log p), an FFT at length p, and there are at most
    4 ceil(log2(n_cap / m)) + 1 of them (about 6 for the slow matrices
    at p from 101 to 2003, against about 16 by bisection). A probe's TV
    depends on k alone, so wherever the float TV is non-increasing the
    answer is bisection's. k = 0, the point mass with TV 1 - 1/p, is
    decided exactly, as fourier.mixing_time decides n = 0, and the
    search never returns it. The search runs on Python ints, so any
    n_cap is searched; a cap past the largest float raises BudgetError
    (`_block_law`).
    """
    fourier.check_search(eps, n_cap)
    report = projection_functional(T, p)
    m = report.m
    if Fraction(eps) >= 1 - Fraction(1, p):
        return 0
    hi = n_cap // m
    law = _block_law(report)

    @lru_cache(maxsize=1)  # a search that ends past the cap read tv(hi) last
    def tv(k: int) -> float:
        return exactdist.tv_vector(law(k))

    blocks = fourier.least_below(tv, eps, 0, 1 - 1 / p, hi)
    if blocks > hi:
        raise NotMixedError(hi * m, "projected", tv(hi))
    return m * blocks


def mixing_search(
    cfg: WalkConfig, eps: float, method: str, n_cap: int, state_cap: int, char_cap: int
) -> int:
    """Least n at which the distance `method` measures is <= eps:
    `fourier.mixing_time` for 'exact' and 'ub', `projected_mixing_time`
    of (cfg.T, cfg.p) for 'projected'. Any other method raises
    ValueError, as do inputs that break `fourier.check_search` and a
    negative state_cap or char_cap, whichever method is asked for."""
    fourier.check_method(method, METHODS)
    exactdist.check_caps(state_cap=state_cap, char_cap=char_cap)
    if method == "projected":
        return projected_mixing_time(cfg.T, cfg.p, eps, n_cap)
    return fourier.mixing_time(
        cfg, eps, method=method, n_cap=n_cap, state_cap=state_cap, char_cap=char_cap
    )


@dataclass
class ScalingReport:
    """Mixing-time growth for one matrix over a modulus sweep, with a
    least-squares fit in the log domain: either the constant of the
    (log p)^2 law or the exponent of a power law p^b. The fit fields stay
    None, with no residuals, when the cells leave nothing to fit."""

    matrix_tag: str
    method: str
    cells: list[tuple[int, int]] = field(default_factory=list)  # (p, n_mix)
    failures: list[tuple[int, str]] = field(default_factory=list)
    fit_kind: Optional[str] = None  # "logp_squared_constant" | "power_law_exponent"
    fit_value: Optional[float] = None
    residuals: list[float] = field(default_factory=list)

    def fit_summary(self) -> dict:
        return {
            "matrix": self.matrix_tag,
            "method": self.method,
            "cells": [[p, n] for p, n in self.cells],
            "failures": [[p, msg] for p, msg in self.failures],
            "fit_kind": self.fit_kind,
            "fit_value": self.fit_value,
            "residuals": self.residuals,
        }


def _fit_log_constant(cells: Sequence[tuple[int, int]]) -> tuple[Optional[float], list[float]]:
    """Fit n = C (log p)^2 by least squares on log n - log((log p)^2);
    (None, []) with no cell of n > 0 to fit."""
    logs = [math.log(n) - math.log(math.log(p) ** 2) for p, n in cells if n > 0]
    if not logs:
        return None, []
    c = math.exp(sum(logs) / len(logs))
    resid = [x - math.log(c) for x in logs]
    return c, resid


def _fit_power_law(cells: Sequence[tuple[int, int]]) -> tuple[Optional[float], list[float]]:
    """Fit n = a p^b by least squares on (log p, log n); returns b, or
    (None, []) when the cells of n > 0 hold fewer than two distinct
    values of log p: no line is fixed through one abscissa."""
    pts = [(math.log(p), math.log(n)) for p, n in cells if n > 0]
    if len({x for x, _ in pts}) < 2:
        return None, []
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    b, a = np.polyfit(xs, ys, 1)
    resid = list(ys - (b * xs + a))
    return float(b), [float(r) for r in resid]


def scaling_sweep(
    Ts: Sequence[IntMatrix],
    ps: Sequence[int],
    eps: float,
    method: str = "auto",
    n_cap: int = fourier.DEFAULT_MIX_CAP,
    char_cap: int = fourier.DEFAULT_CHAR_CAP,
    state_cap: int = exactdist.DEFAULT_STATE_CAP,
) -> list[ScalingReport]:
    """Mixing time (`mixing_search`) for each (T, p) cell; a cell that
    fails with a package error or a ValueError is recorded and the sweep
    continues (any other exception is a bug and propagates).
    method: one of METHODS, or 'auto' to pick 'projected' for a
    root-of-unity spectrum and 'ub' otherwise; the same split picks the
    fit. The split is `spectral.root_of_unity_order`, the exact test by
    which `spectral.classify` answers ROOT_OF_UNITY. No root is found,
    so a matrix is never failed for its classification. An unknown method, an eps outside (0, 1) or
    a negative n_cap, char_cap or state_cap is refused before any cell
    runs."""
    fourier.check_search(eps, n_cap)
    exactdist.check_caps(char_cap=char_cap, state_cap=state_cap)
    fourier.check_method(method, ("auto", *METHODS))
    reports = []
    for T in Ts:
        root_of_unity = spectral.root_of_unity_order(T) is not None
        cell_method = method
        if method == "auto":
            cell_method = "projected" if root_of_unity else "ub"
        rep = ScalingReport(matrix_tag=T.tag(), method=cell_method)
        for p in ps:
            try:
                walk = WalkConfig(T, p)
                n_mix = mixing_search(walk, eps, cell_method, n_cap, state_cap, char_cap)
                rep.cells.append((p, n_mix))
            except (AffineWalkError, ValueError) as exc:  # recorded, sweep continues
                rep.failures.append((p, f"{type(exc).__name__}: {exc}"))
        if len(rep.cells) >= 2:
            kind, fit = (
                ("power_law_exponent", _fit_power_law)
                if root_of_unity
                else ("logp_squared_constant", _fit_log_constant)
            )
            value, resid = fit(rep.cells)
            if value is not None:  # a fit with no cell to use stays unset
                rep.fit_kind, rep.fit_value, rep.residuals = kind, value, resid
        reports.append(rep)
    return reports


def sweep_csv(reports: Sequence[ScalingReport], header_comment: str = "") -> str:
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("matrix_tag,p,n_mix,method")
    for rep in reports:
        for p, n in rep.cells:
            lines.append(f"\"{rep.matrix_tag}\",{p},{n},{rep.method}")
    return "\n".join(lines) + "\n"
