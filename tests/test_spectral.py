import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import readers
from affinewalk.modmath import IntMatrix, int_det
from affinewalk.spectral import (
    CharPoly,
    Classification,
    JordanBlockSpec,
    char_poly,
    classify,
    complex_roots,
    cyclotomic_order,
    cyclotomic_poly,
    jordan_power,
)

FIB = IntMatrix([[2, 1], [1, 1]])
ROT = IntMatrix([[0, -1], [1, 0]])
UPPER = IntMatrix([[1, 1], [0, 2]])


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

    def test_tolerance_independence(self):
        for T in (FIB, ROT, UPPER):
            tags = {classify(T, tol=t).classification for t in (1e-6, 1e-12)}
            assert len(tags) == 1

    def test_salem_like_unit_modulus(self):
        # companion of x^4 - x^3 - x^2 - x + 1: a reciprocal quartic with
        # two non-cyclotomic roots exactly on the unit circle
        C = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert char_poly(C).coeffs == (1, -1, -1, -1, 1)
        rep = classify(C)
        assert rep.classification == Classification.UNIT_MODULUS_NON_CYCLOTOMIC
        assert sum(1 for r in rep.moduli if abs(r - 1) < 1e-9) == 2

    def test_borderline_under_loose_tolerance(self):
        # x^2 - x - 1 has no reciprocal factor; a huge tol pulls 0.618
        # "near" the circle but the exact test refuses to confirm
        rep = classify(IntMatrix([[1, 1], [1, 0]]), tol=0.5)
        assert rep.classification == Classification.BORDERLINE

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_tol_outside_positive_reals_refused(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            classify(FIB, tol=tol)

    def test_cyclotomic_overrides_numerics(self):
        # the exact divisibility witness must not depend on tol
        rep = classify(ROT, tol=1e-15)
        assert rep.root_of_unity_order == 4

    def test_json_round_trip(self):
        rep = classify(FIB)
        back = readers.spectrum_report(json.loads(json.dumps(rep.to_dict())))
        assert back == rep


class TestJordanPower:
    def test_example_a2(self):
        out = jordan_power(JordanBlockSpec(2, 2), 3)
        assert np.allclose(out, [[8, 12], [0, 8]])

    def test_zero_power_identity(self):
        out = jordan_power(JordanBlockSpec(3 + 1j, 3), 0)
        assert np.allclose(out, np.eye(3))

    def test_example_imaginary(self):
        out = jordan_power(JordanBlockSpec(1j, 2), 2)
        assert np.allclose(out, [[-1, 2j], [0, -1]])

    def test_binomial_convention_small_ell(self):
        # entries with j - i > ell vanish by the binomial convention
        out = jordan_power(JordanBlockSpec(5, 4), 1)
        assert out[0, 2] == 0 and out[0, 3] == 0 and out[0, 1] == 1

    def test_matches_iterated_multiplication(self):
        rng = random.Random(17)
        eigs = [2, -2, 0.5, -0.5, 1j, 1 + 1j, 3]
        for _ in range(200):
            a = rng.choice(eigs)
            size = rng.randint(1, 4)
            ell = rng.randint(0, 64)
            J = np.diag([a] * size).astype(complex) + np.diag([1] * (size - 1), 1)
            expected = np.linalg.matrix_power(J, ell)
            got = jordan_power(JordanBlockSpec(a, size), ell)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(got - expected).max() <= 1e-10 * scale


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
