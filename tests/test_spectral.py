import json
import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import readers
from affinewalk import spectral
from affinewalk.modmath import IntMatrix, int_det
from affinewalk.spectral import (
    CharPoly,
    Classification,
    _circle_roots,
    char_poly,
    classify,
    complex_roots,
    cyclotomic_order,
    cyclotomic_poly,
)

FIB = IntMatrix([[2, 1], [1, 1]])
ROT = IntMatrix([[0, -1], [1, 0]])
UPPER = IntMatrix([[1, 1], [0, 2]])
# companion of x^4 - x^3 - x^2 - x + 1: a reciprocal quartic with two
# non-cyclotomic roots exactly on the unit circle
SALEM = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])


class TestCharPoly:
    def test_fib(self):
        assert char_poly(FIB).coeffs == (1, -3, 1)  # x^2 - 3x + 1

    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)

    def test_rotation(self):
        assert char_poly(ROT).coeffs == (1, 0, 1)  # x^2 + 1

    def test_cayley_hamilton(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randint(1, 4)
            T = IntMatrix([[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)])
            cp = char_poly(T)
            acc = IntMatrix.zero(d)
            power = IntMatrix.identity(d)
            for c in cp.coeffs:
                acc = acc + power.scale(c)
                power = power @ T
            assert acc.entries == IntMatrix.zero(d).entries

    def test_constant_term_is_signed_det(self):
        from affinewalk.modmath import int_det

        rng = random.Random(9)
        for _ in range(40):
            d = rng.randint(1, 4)
            T = IntMatrix([[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)])
            assert char_poly(T).coeffs[0] == (-1) ** d * int_det(T)


class TestComplexRoots:
    def test_golden_ratio_pair(self):
        roots = complex_roots(CharPoly((1, -3, 1)))
        vals = sorted(z.real for z, _ in roots)
        assert vals == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])

    def test_pure_imaginary(self):
        roots = sorted((z for z, _ in complex_roots(CharPoly((1, 0, 1)))), key=lambda z: z.imag)
        assert roots[0] == pytest.approx(-1j)
        assert roots[1] == pytest.approx(1j)

    def test_zero_parts_print_unsigned(self):
        # numpy returns the rotation's +i as -0.0+1j; the listing shows 0.0
        for cp in (CharPoly((1, 0, 1)), CharPoly((1, 0, 0, 0, 1)), CharPoly((1, 1, 1))):
            for z, _ in complex_roots(cp):
                for part in (z.real, z.imag):
                    assert math.copysign(1.0, part) == 1.0 or part != 0

    def test_exact_ties_order_by_imag(self):
        # (x + 1)(x^2 + 2x + 30): the real root and the pair -1 +- i sqrt(29)
        # have real part -1 exactly, which np.roots returns as
        # -1.0000000000000004 and -1.0000000000000009
        cp = char_poly(IntMatrix([[-1, -3, 3], [4, 1, 2], [-5, -3, -3]]))
        assert cp.coeffs == (30, 32, 3, 1)
        roots = [z for z, _ in complex_roots(cp)]
        assert [z.real for z in roots] == pytest.approx([-1.0] * 3)
        assert [z.imag for z in roots] == pytest.approx([-math.sqrt(29), 0.0, math.sqrt(29)])

    def test_large_root_does_not_merge_real_parts(self):
        # (x - 10^12)(x^2 + 2x + 5)(x - 1): the roots -1 +- 2i and 1 differ
        # in real part by 2, which a tolerance scaled by 10^12 would call a tie
        big = 10**12
        cp = CharPoly((5 * big, -3 * big - 5, -big + 3, -big + 1, 1))
        roots = [z for z, _ in complex_roots(cp)]
        assert roots == pytest.approx([-1 - 2j, -1 + 2j, 1, big], rel=1e-8)

    def test_double_root_merged(self):
        roots = complex_roots(CharPoly((1, -2, 1)))
        assert len(roots) == 1
        z, mult = roots[0]
        assert mult == 2 and z == pytest.approx(1.0)

    def test_product_and_sum_invariants(self):
        rng = random.Random(13)
        for _ in range(40):
            d = rng.randint(1, 4)
            T = IntMatrix([[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)])
            cp = char_poly(T)
            roots = complex_roots(cp)
            prod = 1.0 + 0.0j
            tot = 0.0 + 0.0j
            for z, m in roots:
                prod *= z**m
                tot += z * m
            assert abs(prod - (-1) ** d * cp.coeffs[0]) < 1e-8 * max(1, abs(cp.coeffs[0]))
            assert abs(tot - T.trace()) < 1e-8 * max(1, abs(T.trace()))


class TestCyclotomic:
    def test_phi4(self):
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_order(CharPoly((1, 0, 1))) == 4

    def test_phi1(self):
        assert cyclotomic_order(CharPoly((1, -2, 1))) == 1

    def test_absent(self):
        assert cyclotomic_order(CharPoly((1, -3, 1))) is None

    def test_phi6_and_phi12(self):
        assert cyclotomic_poly(6) == (1, -1, 1)
        # x^2 - x + 1 is exactly Phi_6
        assert cyclotomic_order(CharPoly((1, -1, 1))) == 6
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_smallest_order_wins(self):
        # (x-1)(x+1) = x^2 - 1 contains Phi_1 and Phi_2; report 1
        assert cyclotomic_order(CharPoly((-1, 0, 1))) == 1


class TestClassify:
    def test_reference_matrices(self):
        assert classify(FIB).classification == Classification.ALL_OFF_UNIT_CIRCLE
        rep = classify(ROT)
        assert rep.classification == Classification.ROOT_OF_UNITY
        assert rep.root_of_unity_order == 4
        rep2 = classify(UPPER)
        assert rep2.classification == Classification.ROOT_OF_UNITY
        assert rep2.root_of_unity_order == 1

    def test_singular(self):
        assert classify(IntMatrix([[1, 1], [1, 1]])).classification == Classification.SINGULAR

    def test_salem_like_unit_modulus(self):
        assert char_poly(SALEM).coeffs == (1, -1, -1, -1, 1)
        rep = classify(SALEM)
        assert rep.classification == Classification.UNIT_MODULUS_NON_CYCLOTOMIC
        assert sum(1 for r in rep.moduli if abs(r - 1) < 1e-9) == 2

    def test_golden_companion_never_borderline(self):
        # x^2 - x - 1 shares no root with its reversal: gcd 1, h = 1
        rep = classify(IntMatrix([[1, 1], [1, 0]]))
        assert rep.classification == Classification.ALL_OFF_UNIT_CIRCLE
        assert {c.value for c in Classification} == {
            "singular", "all_off_unit_circle", "root_of_unity",
            "unit_modulus_non_cyclotomic",
        }

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_tol_outside_positive_reals_refused(self, tol):
        # the class has no tolerance: classify refuses any tol, not
        # only these, rather than ignore it
        with pytest.raises(TypeError, match="tol"):
            classify(FIB, tol=tol)

    def test_cyclotomic_overrides_numerics(self, monkeypatch):
        # no class reads the listed roots: with every listed root put on
        # the circle, or every one off it, each class stays the exact one
        cases = [
            (T, classify(T).classification, classify(T).root_of_unity_order)
            for T in (FIB, ROT, UPPER, SALEM)
        ]
        for modulus in (1.0, 3.0):
            monkeypatch.setattr(
                spectral, "complex_roots",
                lambda cp, r=modulus: [(complex(r), cp.degree)],
            )
            for T, cls, m in cases:
                rep = classify(T)
                assert (rep.classification, rep.root_of_unity_order) == (cls, m)

    def test_json_round_trip(self):
        rep = classify(FIB)
        back = readers.spectrum_report(json.loads(json.dumps(rep.to_dict())))
        assert back == rep


def test_root_of_unity_tag_backed_by_exact_division():
    # whenever classify says order m, Phi_m must divide the charpoly
    # exactly over Z, independent of any tolerance
    from affinewalk.spectral import _poly_divides

    cases = [ROT, UPPER, IntMatrix([[-1, 0], [0, -1]]), IntMatrix([[0, -1], [1, 1]])]
    for T in cases:
        rep = classify(T)
        assert rep.classification == Classification.ROOT_OF_UNITY
        m = rep.root_of_unity_order
        assert _poly_divides(cyclotomic_poly(m), rep.charpoly.coeffs)


def direct_sum(A, B):
    a, b = A.dim, B.dim
    rows = [list(r) + [0] * b for r in A.entries]
    rows += [[0] * a + list(r) for r in B.entries]
    return IntMatrix(rows)


class TestRepeatedEigenvalues:
    def test_unipotent_is_root_of_unity_order_1(self):
        rep = classify(IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        assert rep.classification == Classification.ROOT_OF_UNITY
        assert rep.root_of_unity_order == 1
        assert rep.eigenvalues == ((1.0, 3),)

    def test_cat_map_doubled(self):
        # charpoly (x^2 - 3x + 1)^2
        rep = classify(direct_sum(FIB, FIB))
        assert rep.classification == Classification.ALL_OFF_UNIT_CIRCLE
        assert [m for _, m in rep.eigenvalues] == [2, 2]
        vals = [z.real for z, _ in rep.eigenvalues]
        assert vals == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])

    def test_mixed_multiplicities(self):
        # (x - 1)^2 (x + 2)^3 (x^2 + 1)
        cp = CharPoly((8, -4, -2, -3, -6, 2, 4, 1))
        got = [(round(z.real, 9) + 1j * round(z.imag, 9), m) for z, m in complex_roots(cp)]
        assert got == [(-2, 3), (-1j, 1), (1j, 1), (1, 2)]


@st.composite
def invertible_2x2(draw):
    entries = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    A = IntMatrix([entries[:2], entries[2:]])
    assume(int_det(A) != 0)
    return A


@settings(max_examples=40, deadline=None)
@given(invertible_2x2())
def test_direct_sum_doubles_multiplicities(A):
    one, two = classify(A), classify(direct_sum(A, A))
    assert two.classification == one.classification
    assert two.root_of_unity_order == one.root_of_unity_order
    assert [m for _, m in two.eigenvalues] == [2 * m for _, m in one.eigenvalues]
    for (z, _), (w, _) in zip(one.eigenvalues, two.eigenvalues):
        assert abs(z - w) <= 1e-9 * max(1.0, abs(z))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.data())
def test_unipotent_classifies_like_identity(d, data):
    # I + N with N strictly upper triangular
    rows = [
        [int(i == j) + (data.draw(st.integers(-3, 3)) if j > i else 0) for j in range(d)]
        for i in range(d)
    ]
    rep = classify(IntMatrix(rows))
    assert rep.classification == Classification.ROOT_OF_UNITY
    assert rep.root_of_unity_order == 1
    assert rep.eigenvalues == ((1.0, d),)


class TestCircleRoots:
    """_circle_roots counts the distinct roots on the unit circle of a
    polynomial with no root +-1, by Sturm's theorem on h, where
    gcd(chi, chi*)(x) = x^k h(x + 1/x)."""

    @pytest.mark.parametrize("coeffs, count", [
        ((1, -3, 1), 0),  # cat map: its own reversal, so g = chi; h = y - 3
        ((-1, -1, 1), 0),  # x^2 - x - 1: gcd 1
        ((1, -1, -1, -1, 1), 2),  # Salem quartic: h = y^2 - y - 3, one root in (-2, 2)
        ((1, 0, 0, 0, 1), 4),  # Phi_8: h = y^2 - 2, both roots in (-2, 2)
        ((2, 1, 1), 0),  # x^2 + x + 2 has roots of modulus sqrt 2: gcd 1
    ])
    def test_examples(self, coeffs, count):
        assert _circle_roots(CharPoly(coeffs)) == count

    def test_block_sums(self):
        # a factor shared with a repeated block counts once
        for T, count in [
            (direct_sum(FIB, SALEM), 2),
            (direct_sum(SALEM, SALEM), 2),
            (direct_sum(FIB, FIB), 0),
        ]:
            assert _circle_roots(char_poly(T)) == count


def _small_matrix(max_dim, bound):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
            min_size=d, max_size=d,
        ).map(IntMatrix)
    )


_BLOCKS = st.one_of(
    st.sampled_from([FIB, SALEM, ROT, UPPER, IntMatrix([[0, -1], [1, -1]]),
                     IntMatrix([[1, 1], [1, 0]]), IntMatrix([[-1]])]),
    _small_matrix(2, 3),
)
_SPECTRA = st.one_of(_small_matrix(4, 3), st.builds(direct_sum, _BLOCKS, _BLOCKS))


def _check_exact_class(T):
    """The class agrees with a 50-digit count of the roots on the unit
    circle, and (Kronecker) a spectrum all on the circle is cyclotomic."""
    rep = classify(T)
    if rep.classification == Classification.SINGULAR:
        assert int_det(T) == 0
        return
    distinct, with_mult = oracles.circle_roots(rep.charpoly.coeffs)
    if rep.root_of_unity_order is None:
        assert _circle_roots(rep.charpoly) == distinct
    assert (rep.classification == Classification.ALL_OFF_UNIT_CIRCLE) == (distinct == 0)
    if with_mult == T.dim:
        assert rep.classification == Classification.ROOT_OF_UNITY


@settings(max_examples=200, deadline=None)
@given(_SPECTRA)
def test_class_agrees_with_high_precision_root_count(T):
    _check_exact_class(T)


def test_every_small_2x2_classified_exactly():
    # all 625 matrices with entries in [-2, 2]: many have every root on
    # the circle (det 1, |trace| <= 2), so Kronecker's check runs often
    for a, b, c, d in product(range(-2, 3), repeat=4):
        _check_exact_class(IntMatrix([[a, b], [c, d]]))
