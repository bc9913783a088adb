"""Trajectory simulation and the slow-mixing apparatus.

When a root-of-unity factor of order m forces T^m to fix a direction
mod p, the walk observed through that direction is a random walk on
Z/pZ with increments supported on at most (d+1)^m residues. That
projected walk is evolved exactly (a length-p convolution per m-step
block) and its distance from uniform is the slow-mixing witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from . import exactdist, fourier, indexing, spectral
from .errors import (
    AffineWalkError,
    BudgetError,
    DegeneratePrimeError,
    NotMixedError,
    PreconditionError,
)
from .exactdist import WalkConfig
from .modmath import (
    IntMatrix,
    ModVector,
    is_prime,
    mat_pow_mod,
    nullity_rational,
    nullspace_mod_prime,
)

# Trajectory step streams come from the Philox counter-based generator,
# keyed (seed, chunk); a chunk is a fixed block of trajectories, so the
# stream layout never depends on thread count or batch size.
RNG_CHUNK = 4096
DEFAULT_SEED = 12345


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Final states of `samples` independent walks of length n."""

    cfg: WalkConfig
    n: int
    seed: int
    samples: int
    final_states: np.ndarray  # (samples, d) residues

    def states_csv(self, header_comment: str = "") -> str:
        lines = []
        if header_comment:
            lines.append(f"# {header_comment}")
        lines.append(",".join(f"x{i}" for i in range(self.cfg.d)))
        for row in self.final_states:
            lines.append(",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def states_from_csv(text: str) -> np.ndarray:
    rows = [
        [int(x) for x in ln.split(",")]
        for ln in text.splitlines()
        if ln.strip() and not ln.startswith("#") and not ln.startswith("x0")
    ]
    return np.array(rows, dtype=np.int64)


def _step_stream(seed: int, chunk_index: int, rows: int, n: int, d: int) -> np.ndarray:
    key = np.array([seed % 2**64, chunk_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, d + 1, size=(rows, n), dtype=np.uint8)


def simulate(cfg: WalkConfig, n: int, samples: int, seed: int) -> TrajectoryBatch:
    """Run `samples` walks from the zero state for n i.i.d. steps.

    Identical (cfg, n, samples, seed) always yields an identical batch;
    chunks of RNG_CHUNK trajectories each draw from their own Philox
    substream, so chunks could be filled in parallel without changing
    the result.
    """
    if n < 0 or samples < 0:
        raise ValueError("n and samples must be >= 0")
    cfg.require_admissible()
    p, d = cfg.p, cfg.d
    steps = np.empty((samples, n), dtype=np.uint8)
    for ci, lo in enumerate(range(0, samples, RNG_CHUNK)):
        rows = min(RNG_CHUNK, samples - lo)
        steps[lo : lo + rows] = _step_stream(seed, ci, rows, n, d)
    increments = np.vstack([np.zeros(d, dtype=np.int64), np.eye(d, dtype=np.int64)])
    tmod_t = np.array(cfg.T.mod(p).entries, dtype=np.int64).T
    X = np.zeros((samples, d), dtype=np.int64)
    for t in range(n):
        X = (X @ tmod_t + increments[steps[:, t]]) % p
    return TrajectoryBatch(cfg=cfg, n=n, seed=seed, samples=samples, final_states=X)


def empirical_tv(batch: TrajectoryBatch, count_cap: int = 10_000_000) -> float:
    """TV between the batch's empirical histogram and uniform. Biased
    upward by about sqrt(p^d / samples); fine as a mixing indicator,
    useless beyond the counting budget."""
    n_states = batch.cfg.num_states
    if n_states > count_cap:
        raise BudgetError(f"p^d = {n_states} exceeds the counting budget {count_cap}")
    if batch.samples == 0:
        raise ValueError("empty batch")
    idx = indexing.encode(batch.final_states, batch.cfg.p)
    counts = np.bincount(idx, minlength=n_states)
    freqs = counts / batch.samples
    return 0.5 * float(np.abs(freqs - 1.0 / n_states).sum())


@dataclass(frozen=True)
class ProjectionReport:
    """The functional pi(x) = v . x mod p fixed by (T^m)^t, and the exact
    distribution of its increment over one m-step block."""

    m: int
    v: ModVector
    increment_support: tuple[tuple[int, float], ...]  # (residue, probability)
    u: int
    degenerate_prime: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "p": self.v.p,
                "v": list(self.v.entries),
                "increments": [[r, pr] for r, pr in self.increment_support],
                "u": self.u,
                "degenerate_prime": self.degenerate_prime,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ProjectionReport":
        doc = json.loads(text)
        return cls(
            m=doc["m"],
            v=ModVector(doc["p"], doc["v"]),
            increment_support=tuple((int(r), float(pr)) for r, pr in doc["increments"]),
            u=doc["u"],
            degenerate_prime=doc["degenerate_prime"],
        )

    def increment_probs(self) -> np.ndarray:
        out = np.zeros(self.v.p)
        for r, pr in self.increment_support:
            out[r] = pr
        return out


def mat_pow_exact(T: IntMatrix, k: int) -> IntMatrix:
    """Exact integer power (no modulus); k is small here (the root order)."""
    result = IntMatrix.identity(T.dim)
    for _ in range(k):
        result = result @ T
    return result


def projection_functional(T: IntMatrix, p: int, m: int) -> ProjectionReport:
    """Build the slow-mixing projection for a matrix whose spectrum has a
    primitive m-th root of unity.

    v is the first basis vector of the nullspace of (T^m)^t - I mod p
    (deterministic RREF order). The increment distribution of
    pi(T^{m-1} B_0 + ... + B_{m-1}) over one block is computed by exact
    integer convolution over Z/pZ - identical to enumerating all
    (d+1)^m equally likely step tuples, without the exponential loop.
    """
    if not is_prime(p):
        raise PreconditionError(f"the projection construction needs a prime p, got {p}")
    order = spectral.cyclotomic_order(spectral.char_poly(T))
    if order != m:
        raise PreconditionError(
            f"matrix has root-of-unity order {order}, not the requested m={m}"
        )
    cfg = WalkConfig(T, p)
    cfg.require_admissible()
    d = T.dim
    tm_t = mat_pow_mod(T, m, p).transpose()
    A = tm_t + IntMatrix.identity(d).scale(-1)
    basis = nullspace_mod_prime(A, p)
    if not basis:
        raise DegeneratePrimeError(
            f"(T^m)^t - I is invertible mod {p}: degenerate prime for this matrix"
        )
    # generic nullity over Q of T^m - I; a different count mod p flags p
    generic = nullity_rational(
        mat_pow_exact(T, m) + IntMatrix.identity(d).scale(-1)
    )
    degenerate = len(basis) != generic
    v = basis[0]

    # weight row for block position j: v^t T^(m-1-j) mod p
    counts = [0] * p
    counts[0] = 1
    for j in range(m):
        w = mat_pow_mod(T, m - 1 - j, p).transpose().apply(v.entries)
        vals = [0] + [wi % p for wi in w]
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


def _projected_dists(report: ProjectionReport, p: int) -> Iterator[np.ndarray]:
    """Law of pi(X_{b m}) for b = 0, 1, 2, ...: the point mass at 0, then
    one convolution with the block increment distribution per item."""
    dist = np.zeros(p)
    dist[0] = 1.0
    while True:
        yield dist
        nxt = np.zeros(p)
        for r, pr in report.increment_support:
            nxt += pr * np.roll(dist, r)
        dist = nxt


def projected_walk_dist(
    report: ProjectionReport, cfg: WalkConfig, blocks: int
) -> np.ndarray:
    """Exact distribution of pi(X_{blocks*m}): `blocks` convolutions of
    the increment distribution on Z/pZ, starting from the point mass at
    0. Cost O(blocks * u * p)."""
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if report.v.p != cfg.p:
        raise ValueError("projection and config use different moduli")
    return next(islice(_projected_dists(report, cfg.p), blocks, None))


def projected_mixing_time(
    T: IntMatrix,
    p: int,
    eps: float,
    m: Optional[int] = None,
    blocks_cap: Optional[int] = None,
) -> int:
    """Least n = blocks*m with TV(projection of P_n, uniform) <= eps.

    The projected TV lower-bounds the full TV, so this n lower-bounds
    the true mixing time - the quantity whose growth in p is the
    slow-mixing signature.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if m is None:
        m = spectral.cyclotomic_order(spectral.char_poly(T))
        if m is None:
            raise PreconditionError("matrix has no root-of-unity eigenvalue")
    report = projection_functional(T, p, m)
    blocks_cap = 4 * p * p if blocks_cap is None else blocks_cap
    values = map(exactdist.tv_vector, _projected_dists(report, p))
    try:
        return m * fourier.first_below(values, eps, blocks_cap, "projected")
    except NotMixedError as exc:  # the cap is counted in steps, not blocks
        raise NotMixedError(blocks_cap * m, "projected", exc.last_value) from None


@dataclass
class ScalingReport:
    """Mixing-time growth for one matrix over a modulus sweep, with a
    least-squares fit in the log domain: either the constant of the
    (log p)^2 law or the exponent of a power law p^b."""

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


def _fit_log_constant(cells: Sequence[tuple[int, int]]) -> tuple[float, list[float]]:
    """Fit n = C (log p)^2 by least squares on log n - log((log p)^2)."""
    logs = [math.log(n) - math.log(math.log(p) ** 2) for p, n in cells if n > 0]
    if not logs:
        return float("nan"), []
    c = math.exp(sum(logs) / len(logs))
    resid = [x - math.log(c) for x in logs]
    return c, resid


def _fit_power_law(cells: Sequence[tuple[int, int]]) -> tuple[float, list[float]]:
    """Fit n = a p^b by least squares on (log p, log n); returns b."""
    pts = [(math.log(p), math.log(n)) for p, n in cells if n > 0]
    if len(pts) < 2:
        return float("nan"), []
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
    threads: Optional[int] = None,
) -> list[ScalingReport]:
    """Mixing time for each (T, p) cell; a cell that fails with a package
    error or a ValueError is recorded and the sweep continues (any other
    exception is a bug and propagates). method: 'exact' | 'ub' | 'projected', or
    'auto' to pick 'ub' for spectra off the unit circle and 'projected'
    for root-of-unity spectra."""
    reports = []
    for T in Ts:
        spec = spectral.classify(T)
        if method == "auto":
            cell_method = (
                "projected"
                if spec.classification == spectral.Classification.ROOT_OF_UNITY
                else "ub"
            )
        else:
            cell_method = method
        rep = ScalingReport(matrix_tag=T.tag(), method=cell_method)
        for p in ps:
            try:
                if cell_method == "projected":
                    n_mix = projected_mixing_time(T, p, eps)
                else:
                    n_mix = fourier.mixing_time(
                        WalkConfig(T, p),
                        eps,
                        method=cell_method,
                        n_cap=n_cap,
                        char_cap=char_cap,
                        state_cap=state_cap,
                        threads=threads,
                    )
                rep.cells.append((p, n_mix))
            except (AffineWalkError, ValueError) as exc:  # recorded, sweep continues
                rep.failures.append((p, f"{type(exc).__name__}: {exc}"))
        if len(rep.cells) >= 2:
            if spec.classification == spectral.Classification.ROOT_OF_UNITY:
                rep.fit_kind = "power_law_exponent"
                rep.fit_value, rep.residuals = _fit_power_law(rep.cells)
            else:
                rep.fit_kind = "logp_squared_constant"
                rep.fit_value, rep.residuals = _fit_log_constant(rep.cells)
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


def sweep_from_csv(text: str) -> list[tuple[str, int, int, str]]:
    rows = []
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#") or ln.startswith("matrix_tag"):
            continue
        tag, rest = ln.rsplit("\",", 1) if "\"" in ln else (None, None)
        if tag is None:
            continue
        p, n, method = rest.split(",")
        rows.append((tag.lstrip("\""), int(p), int(n), method))
    return rows
