"""Spectrum of the driving matrix: exact characteristic polynomial,
certified complex roots, root-of-unity detection, and the classification
that separates the fast-mixing regime (no eigenvalue on the unit circle)
from the slow one (a cyclotomic factor).

Root-of-unity detection is exact integer polynomial division and never
consults floating point; the numeric root finder only feeds the
off-circle / near-circle distinction. Only `classify` finds roots, so
mpmath is imported there (by `_simple_roots`), not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import RootConvergenceError
from .modmath import IntMatrix, int_det

DEFAULT_TOL = 1e-9
ROOT_ATTEMPTS = 4  # working precisions root refinement tries, each double the last


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial det(xI - T), coefficients ascending
    (coeffs[k] multiplies x^k)."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) < 2 or cs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic of degree >= 1")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class Classification(str, Enum):
    SINGULAR = "singular"
    ALL_OFF_UNIT_CIRCLE = "all_off_unit_circle"
    ROOT_OF_UNITY = "root_of_unity"
    UNIT_MODULUS_NON_CYCLOTOMIC = "unit_modulus_non_cyclotomic"
    BORDERLINE = "borderline"


@dataclass(frozen=True)
class SpectrumReport:
    charpoly: CharPoly
    eigenvalues: tuple[tuple[complex, int], ...]  # (value, multiplicity)
    moduli: tuple[float, ...]
    classification: Classification
    root_of_unity_order: Optional[int]
    tolerance: float

    def to_dict(self) -> dict:
        doc = {
            "charpoly": list(self.charpoly.coeffs),
            "eigenvalues": [[z.real, z.imag, m] for z, m in self.eigenvalues],
            "classification": self.classification.value,
            "tolerance": self.tolerance,
        }
        if self.root_of_unity_order is not None:
            doc["m"] = self.root_of_unity_order
        return doc


@dataclass(frozen=True)
class JordanBlockSpec:
    """One Jordan block: eigenvalue on the diagonal, ones above it."""

    eigenvalue: complex
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be >= 1")


def char_poly(T: IntMatrix) -> CharPoly:
    """det(xI - T) by the Faddeev-LeVerrier recurrence; every division is
    an exact integer division (asserted)."""
    d = T.dim
    desc = [1]  # coefficients, descending powers
    M = IntMatrix.identity(d)
    for k in range(1, d + 1):
        AM = T @ M
        t = AM.trace()
        q, r = divmod(-t, k)
        if r:
            raise AssertionError("Faddeev-LeVerrier trace not divisible")
        desc.append(q)
        M = AM + IntMatrix.identity(d).scale(q)
    return CharPoly(tuple(reversed(desc)))


# -- exact integer / rational polynomial helpers (ascending coefficients) --


def _poly_trim(c: list) -> list:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_divides(den: Sequence[int], num: Sequence[int]) -> bool:
    return _q_divmod(num, den)[1] == [0]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    quot = num
    for q in range(1, n):
        if n % q == 0:
            quot, rem = _q_divmod(quot, cyclotomic_poly(q))
            assert rem == [0]
    return tuple(int(c) for c in quot)


def _euler_phi(n: int) -> int:
    result = n
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def cyclotomic_order(cp: CharPoly) -> Optional[int]:
    """Smallest m with the m-th cyclotomic polynomial dividing cp exactly
    over Z, or None. Candidates are all k <= 2 d^2 with phi(k) <= d; the
    bound follows from phi(k) >= sqrt(k/2)."""
    d = cp.degree
    for k in range(1, 2 * d * d + 1):
        if _euler_phi(k) <= d and _poly_divides(cyclotomic_poly(k), cp.coeffs):
            return k
    return None


def _q_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple[list, list]:
    """Quotient and remainder of polynomials over Q (den nonzero); int
    coefficients are read as rationals."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv = Fraction(1) / den[-1]
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k] * inv
        q[k - (len(den) - 1)] = c
        if c:
            for j, dcoef in enumerate(den):
                num[k - (len(den) - 1) + j] -= c * dcoef
    return _poly_trim(q), _poly_trim(num)


def _q_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q by Euclid's algorithm (a nonzero)."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [Fraction(0)]:
        _, r = _q_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def _q_exact_div(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    quot, rem = _q_divmod(num, den)
    assert rem == [Fraction(0)], "inexact polynomial division"
    return quot


def _q_deriv(a: Sequence[Fraction]) -> list[Fraction]:
    return _poly_trim([k * a[k] for k in range(1, len(a))] or [Fraction(0)])


def _q_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _square_free_factors(cp: CharPoly) -> list[tuple[CharPoly, int]]:
    """cp = prod_i a_i^i with each a_i square-free and the a_i pairwise
    coprime, by Yun's algorithm over Q; returns the (a_i, i) with
    deg a_i >= 1. Every a_i is a monic factor of a monic integer
    polynomial, so its coefficients are integers (Gauss's lemma)."""
    f = [Fraction(c) for c in cp.coeffs]
    df = _q_deriv(f)
    g = _q_gcd(f, df)
    b = _q_exact_div(f, g)
    dd = _q_sub(_q_exact_div(df, g), _q_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _q_gcd(b, dd)
        b = _q_exact_div(b, a)
        dd = _q_sub(_q_exact_div(dd, a), _q_deriv(b))
        if len(a) > 1:
            assert all(c.denominator == 1 for c in a)
            out.append((CharPoly([int(c) for c in a]), i))
        i += 1
    return out


def complex_roots(cp: CharPoly) -> list[tuple[complex, int]]:
    """All distinct roots of cp with certified residuals and exact
    multiplicities, sorted by (real, imag).

    cp is split into square-free factors (_square_free_factors); the
    roots of each factor are simple, found by simultaneous
    (Durand-Kerner) iteration at increasing working precision, and take
    the factor's multiplicity. Raises RootConvergenceError if none of
    the ROOT_ATTEMPTS precisions both converges and certifies.
    """
    roots = [
        (z, mult)
        for factor, mult in _square_free_factors(cp)
        for z in _simple_roots(factor)
    ]
    return sorted(roots, key=lambda zm: (zm[0].real, zm[0].imag))


def _simple_roots(cp: CharPoly) -> list[complex]:
    """Roots of a square-free cp, each certified by its residual."""
    import mpmath  # here, so only a root search pays for the import
    from mpmath.libmp import NoConvergence

    desc = [mpmath.mpf(c) for c in reversed(cp.coeffs)]
    dps, extraprec, maxsteps = 30, 40, 200
    for _ in range(ROOT_ATTEMPTS):
        try:
            with mpmath.workdps(dps):
                found = mpmath.polyroots(desc, maxsteps=maxsteps, extraprec=extraprec)
            candidates = [complex(r) for r in found]
        except NoConvergence:
            candidates = None
        if candidates is not None and all(_residual_ok(cp, r) for r in candidates):
            return candidates
        dps *= 2
        extraprec *= 2
        maxsteps *= 2
    raise RootConvergenceError(
        f"root refinement failed for degree {cp.degree} polynomial"
    )


def _residual_ok(cp: CharPoly, r: complex) -> bool:
    scale = sum(abs(c) * max(1.0, abs(r)) ** k for k, c in enumerate(cp.coeffs))
    return abs(cp(r)) <= 1e-8 * scale + 1e-300


def _reciprocal_gcd_degree(cp: CharPoly) -> tuple[int, list[complex]]:
    """Degree of gcd(cp(x), x^d cp(1/x)) over Q, plus the gcd's roots.

    A monic integer polynomial with a root on the unit circle shares that
    root with its coefficient-reversal, so a nontrivial gcd is a necessary
    (exact) witness; the returned roots let the caller confirm one
    actually sits on the circle.
    """
    g = _q_gcd(
        [Fraction(c) for c in cp.coeffs], [Fraction(c) for c in reversed(cp.coeffs)]
    )
    if len(g) - 1 < 1:
        return 0, []
    groots = np.roots([float(c) for c in reversed(g)])
    return len(g) - 1, [complex(z) for z in groots]


def classify(T: IntMatrix, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Classify T by its complex spectrum.

    Order of tests: exact singularity, exact cyclotomic factor (overrides
    any numerics), then the numeric all-off-circle / near-circle split
    with an exact reciprocal-polynomial confirmation for unit-modulus
    non-cyclotomic spectra.
    """
    if not 0 < tol < math.inf:  # also refuses NaN
        raise ValueError("tol must be positive and finite")
    cp = char_poly(T)
    if int_det(T) == 0:
        return SpectrumReport(cp, (), (), Classification.SINGULAR, None, tol)
    m = cyclotomic_order(cp)
    eig = tuple(complex_roots(cp))
    moduli = tuple(abs(z) for z, _ in eig)
    if m is not None:
        return SpectrumReport(cp, eig, moduli, Classification.ROOT_OF_UNITY, m, tol)
    if all(abs(r - 1.0) > tol for r in moduli):
        return SpectrumReport(
            cp, eig, moduli, Classification.ALL_OFF_UNIT_CIRCLE, None, tol
        )
    gdeg, groots = _reciprocal_gcd_degree(cp)
    if gdeg >= 1 and any(abs(abs(z) - 1.0) <= tol for z in groots):
        return SpectrumReport(
            cp, eig, moduli, Classification.UNIT_MODULUS_NON_CYCLOTOMIC, None, tol
        )
    return SpectrumReport(cp, eig, moduli, Classification.BORDERLINE, None, tol)


def jordan_power(block: JordanBlockSpec, ell: int):
    """Entrywise closed form for the ell-th power of a Jordan block:
    a^ell on the diagonal, C(ell, j-i) a^(ell-(j-i)) above it (binomial 0
    when j-i > ell), zero below. Binomials are exact big integers before
    the complex conversion."""
    if ell < 0:
        raise ValueError("exponent must be >= 0")
    c = block.size
    a = complex(block.eigenvalue)
    out = np.zeros((c, c), dtype=complex)
    for i in range(c):
        for j in range(i, c):
            k = j - i
            if k > ell:
                continue
            binom = math.comb(ell, k)
            out[i, j] = binom * a ** (ell - k)
    return out
