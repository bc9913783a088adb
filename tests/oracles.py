"""Oracles the tests check the engines against: the walk's exact
counts in Python integers and the exact TV of counts, the dense
character transform, the law of a linear functional, the uniform law,
the full table of the one-step multiplier, single-state indexing, and a
high-precision count of a polynomial's roots on the unit circle. Nothing
in the package calls them.
"""

from fractions import Fraction
from typing import Iterator

import mpmath
import numpy as np

from affinewalk import indexing
from affinewalk.exactdist import DenseDistribution, WalkConfig
from affinewalk.modmath import ModVector

EXACT_STATES = 10**4  # the most states exact_counts walks


def exact_counts(cfg: WalkConfig) -> Iterator[np.ndarray]:
    """c_0, c_1, ... with P_n = c_n / (d+1)^n, as object arrays of Python
    integers, exact at any n: each step adds the counts onto
    (T x + b) mod p for every b in {0, e_0, ..., e_{d-1}}, each a
    one-to-one map, through the (p^d, d) coordinate table. For
    p^d <= EXACT_STATES."""
    p, d, N = cfg.p, cfg.d, cfg.num_states
    if N > EXACT_STATES:
        raise ValueError(f"p^d = {N} is past the exact oracle's {EXACT_STATES} states")
    moved = indexing.all_coords(p, d) @ np.array(cfg.T.mod(p).entries, dtype=np.int64).T
    shifts = [np.zeros(d, dtype=np.int64)] + list(np.eye(d, dtype=np.int64))
    targets = [indexing.encode((moved + b) % p, p) for b in shifts]
    counts = np.zeros(N, dtype=object)
    counts[0] = 1
    while True:
        yield counts
        nxt = np.zeros(N, dtype=object)
        for t in targets:
            nxt[t] += counts
        counts = nxt


def exact_tv(counts, scale: int) -> Fraction:
    """TV to uniform of the law counts / scale with integer counts: half
    the sum of |c/scale - 1/N| over all N counts, in Python integers."""
    N = len(counts)
    return Fraction(sum(abs(N * c - scale) for c in counts.tolist()), 2 * N * scale)


def exact_mixing_time(cfg: WalkConfig, eps: float) -> int:
    """The least n with the exact TV(P_n, U) <= eps, by exact_counts."""
    for n, counts in enumerate(exact_counts(cfg)):
        if exact_tv(counts, (cfg.d + 1) ** n) <= eps:
            return n


def index_of(state, p: int) -> int:
    """Index of a single state given as a sequence of residues."""
    acc = 0
    for x in reversed(tuple(state)):
        acc = acc * p + int(x) % p
    return acc


def state_of(index: int, p: int, d: int) -> tuple[int, ...]:
    """Residues of the state at an index, coordinate 0 first."""
    out = []
    for _ in range(d):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def prob(P: DenseDistribution, state) -> float:
    """Mass of P at a single state."""
    return float(P.masses[index_of(state, P.p)])


def uniform(p: int, d: int) -> DenseDistribution:
    n = p**d
    return DenseDistribution(p, d, np.full(n, 1.0 / n))


def dft(P: DenseDistribution) -> np.ndarray:
    """Character transform: out[c] = sum_s P(s) q^(s . c), q = e^(2 pi i/p),
    indexed like the state space. The sign of the exponent makes this an
    unnormalised inverse DFT over the (p,)*d grid: np.fft.ifftn times
    p^d, cost O(p^d log p)."""
    p, d = P.p, P.d
    return (np.fft.ifftn(P.masses.reshape((p,) * d)) * p**d).reshape(-1)


def pushforward(P: DenseDistribution, v: ModVector) -> np.ndarray:
    """Distribution of v . x mod p under P (length-p vector). A linear
    functional is a coarsening, and when gcd(v, p) = 1 it maps the
    uniform law to the uniform law, so its TV to uniform lower-bounds the
    full TV (data-processing); for a v sharing a factor with a composite
    p it does not. v . x mod p is formed on the (p,)*d grid by
    broadcasting, with no (p^d, d) coordinate table."""
    if v.p != P.p or v.d != P.d:
        raise ValueError("functional does not match state space")
    p, d = P.p, P.d
    k = np.arange(p, dtype=np.int64)
    vals = sum(indexing.along(m * k % p, d, r) for r, m in enumerate(v.entries)) % p
    return np.bincount(vals.reshape(-1), weights=P.masses, minlength=p)


def factor_table(p: int, d: int) -> np.ndarray:
    """The one-step multiplier f(c) = (1 + sum_r q^{c_r})/(d+1) at every
    character, through the (p^d, d) coordinate table."""
    coords = indexing.all_coords(p, d)
    acc = np.ones(coords.shape[0], dtype=complex)
    for r in range(d):
        acc += np.exp(2j * np.pi / p * coords[:, r])
    return acc / (d + 1)


def circle_roots(coeffs, dps: int = 50) -> tuple[int, int]:
    """(distinct, with multiplicity) roots on the unit circle of the
    monic integer polynomial with ascending coeffs: the eigenvalues of
    its companion matrix by mpmath at dps digits. A root of
    multiplicity k comes out to about 10^(-dps/k), so for the small
    degrees the tests use (k <= 8) roots within 1e-4 of each other are
    one root, and a root within 1e-4 of the circle is on it; no root of
    those polynomials lies that close to the circle or to another root
    without being on it or equal to it."""
    n = len(coeffs) - 1
    with mpmath.workdps(dps):
        C = mpmath.zeros(n, n)
        for i in range(n):
            if i:
                C[i, i - 1] = 1
            C[i, n - 1] = -coeffs[i]
        # mpmath hands a 1 x 1 matrix's eigenvalue back with its vectors
        found = mpmath.eig(C, left=False, right=False) if n > 1 else [C[0, 0]]
        on = [complex(z) for z in found if abs(abs(z) - 1) < mpmath.mpf("1e-4")]
    distinct = []
    for z in on:
        if all(abs(z - w) >= 1e-4 for w in distinct):
            distinct.append(z)
    return len(distinct), len(on)
