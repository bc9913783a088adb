import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinewalk import indexing
from affinewalk.errors import PreconditionError
from affinewalk.exactdist import WalkConfig
from affinewalk.modmath import (
    CenteredVector,
    IntMatrix,
    ModVector,
    center,
    int_det,
    is_admissible,
    is_prime,
    mat_inv_mod,
    mat_pow_exact,
    mat_pow_mod,
    mat_vec_mod,
    nullspace_mod_prime,
)

FIB = IntMatrix([[2, 1], [1, 1]])


class TestIntegerEntries:
    """Matrix and vector entries are exact integers: a float, bool or
    string is refused, never truncated to some other walk."""

    @pytest.mark.parametrize("rows, bad", [
        ([[2.9, 1], [1, 1.5]], "2.9"),
        ([[True, 1], [1, False]], "True"),
        (["21", "11"], "'2'"),
    ])
    def test_matrix_refused(self, rows, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            IntMatrix(rows)

    @pytest.mark.parametrize("entries, bad", [([1, True], "True"), ([1, 1.0], "1.0")])
    def test_vector_refused(self, entries, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            ModVector(101, entries)

    @pytest.mark.parametrize("entries, bad", [([1.7, True], "1.7"), ([1, True], "True")])
    def test_centered_vector_refused(self, entries, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            CenteredVector(5, entries)

    @pytest.mark.parametrize("make", [
        lambda p: ModVector(p, [7]),
        lambda p: CenteredVector(p, [1]),
        lambda p: WalkConfig(FIB, p),
    ], ids=["ModVector", "CenteredVector", "WalkConfig"])
    @pytest.mark.parametrize("p, bad", [(5.9, "5.9"), (101.7, "101.7"), (True, "True"), ("7", "'7'")])
    def test_modulus_refused(self, make, p, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            make(p)

    def test_numpy_integers_accepted(self):
        T = IntMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
        v = ModVector(5, np.array([7, -1], dtype=np.int32))
        assert T == FIB and v.entries == (2, 4)
        assert all(type(x) is int for x in (*T.entries[0], *v.entries))
        c = CenteredVector(np.int64(5), np.array([2, -2], dtype=np.int32))
        cfg = WalkConfig(FIB, np.int64(101))
        assert (c.p, c.entries, cfg.p) == (5, (2, -2), 101)
        assert all(type(x) is int for x in (c.p, *c.entries, cfg.p))


def det_fraction_gauss(rows):
    """Independent determinant oracle: plain Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    d = len(a)
    det = Fraction(1)
    for k in range(d):
        piv = next((i for i in range(k, d) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, d):
            f = a[i][k] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


class TestIntDet:
    def test_fib(self):
        assert int_det(FIB) == 1

    def test_identity(self):
        assert int_det(IntMatrix.identity(3)) == 1

    def test_diagonal(self):
        assert int_det(IntMatrix([[2, 0], [0, 2]])) == 4

    def test_matches_fraction_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            assert int_det(IntMatrix(rows)) == det_fraction_gauss(rows)


class TestAdmissible:
    def test_fib_101(self):
        assert is_admissible(FIB, 101)

    def test_shared_factor(self):
        assert not is_admissible(IntMatrix([[2, 0], [0, 2]]), 6)

    def test_singular(self):
        assert not is_admissible(IntMatrix([[1, 1], [1, 1]]), 5)
        assert not is_admissible(IntMatrix([[1, 1], [1, 1]]), 7)

    def test_composite_p_ok_for_unit_det(self):
        assert is_admissible(FIB, 9)


class TestMatPowMod:
    def test_zero_power(self):
        assert mat_pow_mod(FIB, 0, 5).entries == IntMatrix.identity(2).entries

    def test_square_mod5(self):
        assert mat_pow_mod(FIB, 2, 5).entries == ((0, 3), (3, 2))

    def test_first_power(self):
        T = IntMatrix([[7, -3], [4, 11]])
        assert mat_pow_mod(T, 1, 5).entries == T.mod(5).entries

    def test_additivity(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rng.randint(0, 32), rng.randint(0, 32)
            lhs = mat_pow_mod(FIB, a + b, 11)
            rhs = (mat_pow_mod(FIB, a, 11) @ mat_pow_mod(FIB, b, 11)).mod(11)
            assert lhs.entries == rhs.entries

    def test_exact_power_reduces_to_modular_power(self):
        rot = IntMatrix([[0, -1], [1, 0]])
        big = IntMatrix([[7, -3, 0], [4, 11, 2], [-5, 1, 3]])
        for T in (FIB, rot, big):
            for k in range(9):
                for p in (2, 7, 12, 101):
                    assert mat_pow_exact(T, k).mod(p) == mat_pow_mod(T, k, p)
        assert mat_pow_exact(big, 3) == big @ big @ big
        with pytest.raises(ValueError):
            mat_pow_exact(FIB, -1)


@st.composite
def unit_det_matrices(draw):
    """(T, p) with gcd(det T, p) = 1, d = 1..4, p = 2..60: prime,
    composite and even moduli."""
    d = draw(st.integers(1, 4))
    p = draw(st.integers(2, 60))
    entries = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=d * d, max_size=d * d))
    T = IntMatrix([entries[i * d : (i + 1) * d] for i in range(d)])
    assume(is_admissible(T, p))
    return T, p


class TestMatInvMod:
    @settings(max_examples=200, deadline=None)
    @given(unit_det_matrices())
    def test_inverse_on_both_sides(self, walk):
        T, p = walk
        inv = mat_inv_mod(T, p)
        assert all(0 <= x < p for row in inv.entries for x in row)
        assert (inv @ T).mod(p) == IntMatrix.identity(T.dim)
        assert (T @ inv).mod(p) == IntMatrix.identity(T.dim)

    def test_composite_modulus(self):
        # det = 1 is a unit mod every p; Z/12Z is not a field
        assert mat_inv_mod(FIB, 12) == IntMatrix([[1, 11], [11, 2]])

    @pytest.mark.parametrize(
        "T,p", [(IntMatrix([[2, 0], [0, 3]]), 12), (IntMatrix([[1, 2], [2, 4]]), 7), (IntMatrix([[4]]), 6)]
    )
    def test_non_unit_determinant_refused(self, T, p):
        with pytest.raises(PreconditionError):
            mat_inv_mod(T, p)


class TestCenter:
    @pytest.mark.parametrize(
        "p,residues,expected",
        [
            (5, [3, 2], (-2, 2)),
            (7, [5, 0], (-2, 0)),
            (6, [3, 4], (3, -2)),  # half-open window keeps +p/2
        ],
    )
    def test_examples(self, p, residues, expected):
        assert center(ModVector(p, residues)).entries == expected

    @given(
        st.integers(min_value=2, max_value=1000),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_congruent_and_small(self, p, raw):
        v = ModVector(p, raw)
        cv = center(v)
        for e, r in zip(cv.entries, v.entries):
            assert e % p == r
            assert 2 * abs(e) <= p

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CenteredVector(5, [3])


class TestNullspace:
    def test_eigvec_example(self):
        T = IntMatrix([[1, 1], [0, 2]])
        A = T.transpose() + IntMatrix.identity(2).scale(-1)
        basis = nullspace_mod_prime(A, 101)
        assert [v.entries for v in basis] == [(1, 100)]
        # verify (T^t) v = v mod 101
        assert mat_vec_mod(T.transpose(), basis[0]).entries == basis[0].entries

    def test_identity_empty(self):
        assert nullspace_mod_prime(IntMatrix.identity(2), 7) == []

    def test_zero_matrix_full(self):
        basis = nullspace_mod_prime(IntMatrix.zero(2), 5)
        assert [v.entries for v in basis] == [(1, 0), (0, 1)]

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            nullspace_mod_prime(IntMatrix.identity(2), 6)

    def test_rank_nullity_and_membership(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11])
            d = rng.randint(1, 4)
            A = IntMatrix([[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)])
            basis = nullspace_mod_prime(A, p)
            # the kernel over Z/pZ has p^nullity vectors
            images = indexing.all_coords(p, d) @ np.array(A.entries).T % p
            assert p ** len(basis) == int((images == 0).all(axis=1).sum())
            for v in basis:
                img = A.apply(v.entries)
                assert all(x % p == 0 for x in img)
                first = next(x for x in v.entries if x != 0)
                assert first == 1


def test_is_prime_vs_trial_division():
    for n in range(0, 600):
        assert is_prime(n) == (n >= 2 and all(n % q for q in range(2, n)))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)
