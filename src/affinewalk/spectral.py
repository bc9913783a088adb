"""Spectrum of the driving matrix: exact characteristic polynomial,
root-of-unity detection, and the classification that separates the
fast-mixing regime (no eigenvalue on the unit circle) from the slow one
(a cyclotomic factor).

Every class is decided in exact arithmetic: singularity by the integer
determinant, a cyclotomic factor by integer polynomial division, and a
root on the unit circle by a Sturm count over Q (`_circle_roots`).
Floating point only lists the eigenvalues a report shows
(`complex_roots`, numpy's companion-matrix roots). A matrix's
cyclotomic order, and the nullity over Q that the slow-mixing
projection compares against, are kept per matrix (`cyclotomic_facts`),
since a sweep asks for them at every modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import RootConvergenceError
from .modmath import IntMatrix, int_det, mat_pow_exact, nullity_rational

# complex_roots reads two real parts closer than this, relative to the
# larger modulus (at least 1) of their two roots, as equal
TIE_TOL = 1e-9
# matrices whose cyclotomic facts `cyclotomic_facts` keeps
FACTS_CACHE = 128


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


class Classification(str, Enum):
    SINGULAR = "singular"
    ALL_OFF_UNIT_CIRCLE = "all_off_unit_circle"
    ROOT_OF_UNITY = "root_of_unity"
    UNIT_MODULUS_NON_CYCLOTOMIC = "unit_modulus_non_cyclotomic"


@dataclass(frozen=True)
class SpectrumReport:
    charpoly: CharPoly
    eigenvalues: tuple[tuple[complex, int], ...]  # (value, multiplicity)
    moduli: tuple[float, ...]
    classification: Classification
    root_of_unity_order: Optional[int]

    def to_dict(self) -> dict:
        doc = {
            "charpoly": list(self.charpoly.coeffs),
            "eigenvalues": [[z.real, z.imag, m] for z, m in self.eigenvalues],
            "classification": self.classification.value,
        }
        if self.root_of_unity_order is not None:
            doc["m"] = self.root_of_unity_order
        return doc


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
    """All distinct roots of cp with exact multiplicities, sorted by real
    part and a tie by imag, for display only: no class reads them.

    cp is split into square-free factors (_square_free_factors); the
    roots of each factor are simple, found by `np.roots` (the
    eigenvalues of its companion matrix), and take the factor's
    multiplicity. Real parts equal in exact arithmetic come out a few
    ulps apart (-1 as -1.0000000000000009 and -1.0000000000000004), so
    the sort reads a run of real parts, each within TIE_TOL times the
    larger modulus (at least 1) of it and the one before, as one tie, and
    orders a tie by imag alone: last-bit rounding cannot order a tie, and
    a large root elsewhere in the spectrum does not widen it.
    Raises RootConvergenceError where numpy's eigenvalue iteration does
    not converge, or a coefficient overflows a float.
    """
    try:
        roots = [
            (complex(z) + 0j, mult)  # + 0j turns a -0.0 part into 0.0
            for factor, mult in _square_free_factors(cp)
            for z in np.roots(np.array(factor.coeffs[::-1], dtype=float))
        ]
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise RootConvergenceError(
            f"no roots for the degree {cp.degree} characteristic polynomial: {exc}"
        ) from exc
    roots.sort(key=lambda zm: zm[0].real)
    steps = (
        b.real - a.real > TIE_TOL * max(1.0, abs(a), abs(b))
        for (a, _), (b, _) in zip(roots, roots[1:])
    )
    tie = list(accumulate(steps, initial=0))
    return [roots[i] for i in sorted(range(len(roots)), key=lambda i: (tie[i], roots[i][0].imag))]


def _q_eval(a: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _circle_roots(cp: CharPoly) -> int:
    """Number of distinct roots of cp on the unit circle, for cp with no
    root +1 or -1 (no cyclotomic factor of order 1 or 2).

    A root z with |z| = 1 is also a root of the reversal
    cp*(x) = x^d cp(1/x), since 1/z is its conjugate; so it is a root of
    g = gcd(cp, cp*). The roots of g pair z with 1/z != z, so g is
    palindromic of even degree 2k, and g(x) = x^k h(x + 1/x) with
    h(y) = g_k + sum_i g_(k+i) (x^i + x^-i), x^i + x^-i a polynomial in
    y = x + 1/x. y is real in (-2, 2) exactly when |z| = 1, z != +-1,
    and then z and its conjugate both map to y; Sturm's theorem counts
    the distinct real roots of h there.
    """
    f = [Fraction(c) for c in cp.coeffs]
    g = _q_gcd(f, f[::-1])
    k = (len(g) - 1) // 2
    h = [g[k]]
    # P_i(y) = x^i + x^-i for i = 0, 1, then P_(i+1) = y P_i - P_(i-1)
    prev, cur = [Fraction(2)], [Fraction(0), Fraction(1)]
    for i in range(1, k + 1):
        h = _q_sub(h, [-g[k + i] * c for c in cur])  # h += g_(k+i) (x^i + x^-i)
        prev, cur = cur, _q_sub([Fraction(0)] + cur, prev)
    sturm = [h, _q_deriv(h)]
    while sturm[-1] != [0]:
        sturm.append([-c for c in _q_divmod(sturm[-2], sturm[-1])[1]])

    def sign_changes(x: Fraction) -> int:
        vals = [v for v in (_q_eval(s, x) for s in sturm) if v]
        return sum(a * b < 0 for a, b in zip(vals, vals[1:]))

    return 2 * (sign_changes(Fraction(-2)) - sign_changes(Fraction(2)))


@dataclass(frozen=True)
class CyclotomicFacts:
    """What the slow-mixing projection needs of T at every modulus: the
    least m with Phi_m dividing det(xI - T), and the nullity of T^m - I
    over Q."""

    m: int
    fixed_nullity: int


@lru_cache(maxsize=FACTS_CACHE)
def cyclotomic_facts(T: IntMatrix) -> Optional[CyclotomicFacts]:
    """T's CyclotomicFacts, or None when no cyclotomic polynomial divides
    det(xI - T); singular T included. Neither depends on a modulus, so
    each matrix is examined once, by value: equal matrices share one
    cache entry."""
    m = cyclotomic_order(char_poly(T))
    if m is None:
        return None
    fixed = mat_pow_exact(T, m) + IntMatrix.identity(T.dim).scale(-1)
    return CyclotomicFacts(m, nullity_rational(fixed))


def root_of_unity_order(T: IntMatrix) -> Optional[int]:
    """The least m with Phi_m dividing det(xI - T) (`cyclotomic_facts`)
    when T is invertible, else None: exact, and the one rule by which
    `classify` answers ROOT_OF_UNITY and `scaling_sweep` picks its
    method and fit."""
    if int_det(T) == 0:
        return None
    facts = cyclotomic_facts(T)
    return None if facts is None else facts.m


def classify(T: IntMatrix) -> SpectrumReport:
    """Classify T by its complex spectrum, exactly.

    Order of tests: singularity, a cyclotomic factor
    (`root_of_unity_order`), then a root on the unit circle
    (`_circle_roots`); each is exact arithmetic over Z or Q. The listed
    eigenvalues and moduli are for display.
    """
    cp = char_poly(T)
    if int_det(T) == 0:
        return SpectrumReport(cp, (), (), Classification.SINGULAR, None)
    m = root_of_unity_order(T)
    eig = tuple(complex_roots(cp))
    moduli = tuple(abs(z) for z, _ in eig)
    if m is not None:
        cls = Classification.ROOT_OF_UNITY
    elif _circle_roots(cp):
        cls = Classification.UNIT_MODULUS_NON_CYCLOTOMIC
    else:
        cls = Classification.ALL_OFF_UNIT_CIRCLE
    return SpectrumReport(cp, eig, moduli, cls, m)
