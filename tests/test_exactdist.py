from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from affinewalk import exactdist, indexing
from affinewalk.errors import BudgetError, PreconditionError
from affinewalk.exactdist import (
    DenseDistribution,
    WalkConfig,
    delta_at_zero,
    evolve,
    step_exact,
    tv_from_uniform,
    tv_vector,
)
from affinewalk.modmath import IntMatrix, ModVector

FIB = IntMatrix([[2, 1], [1, 1]])
CFG5 = WalkConfig(FIB, 5)


def brute_force_walk(T: IntMatrix, p: int, n: int) -> dict:
    """Oracle: enumerate all (d+1)^n step sequences with exact fractions."""
    d = T.dim
    incs = [tuple(0 for _ in range(d))] + [
        tuple(1 if i == j else 0 for i in range(d)) for j in range(d)
    ]
    out: dict = {}
    w = Fraction(1, (d + 1) ** n)
    for seq in product(incs, repeat=n):
        x = tuple(0 for _ in range(d))
        for b in seq:
            x = tuple((v + e) % p for v, e in zip(T.apply(x), b))
        out[x] = out.get(x, Fraction(0)) + w
    return out


class TestDelta:
    def test_all_mass_at_zero(self):
        P = delta_at_zero(5, 2)
        assert P.masses[0] == 1.0 and P.masses[1:].sum() == 0.0

    def test_tv_to_uniform(self):
        P = delta_at_zero(5, 2)
        assert tv_from_uniform(P) == pytest.approx(1 - 1 / 25)

    def test_dft_all_ones(self):
        assert np.allclose(oracles.dft(delta_at_zero(5, 2)), 1.0)


class TestStepExact:
    def test_one_step_uniform_on_increments(self):
        P1 = step_exact(delta_at_zero(5, 2), CFG5)
        for state in [(0, 0), (1, 0), (0, 1)]:
            assert oracles.prob(P1, state) == pytest.approx(1 / 3)
        assert P1.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_two_steps_match_enumeration(self):
        P2 = step_exact(step_exact(delta_at_zero(5, 2), CFG5), CFG5)
        oracle = brute_force_walk(FIB, 5, 2)
        assert oracle[(2, 1)] == Fraction(2, 9)  # the collision state
        for idx in range(25):
            s = oracles.state_of(idx, 5, 2)
            assert P2.masses[idx] == pytest.approx(float(oracle.get(s, 0)), abs=1e-15)

    def test_mass_conserved(self):
        P = delta_at_zero(5, 2)
        for _ in range(20):
            P = step_exact(P, CFG5)
            assert abs(P.masses.sum() - 1.0) <= 1e-12
            assert (P.masses >= 0).all()

    def test_requires_admissible(self):
        bad = WalkConfig(IntMatrix([[2, 0], [0, 2]]), 6)
        with pytest.raises(PreconditionError):
            step_exact(delta_at_zero(6, 2), bad)


class TestEvolve:
    def test_n0_is_delta(self):
        P = evolve(CFG5, 0)
        assert P.masses[0] == 1.0

    def test_n1_matches_single_step(self):
        assert np.array_equal(evolve(CFG5, 1).masses, step_exact(delta_at_zero(5, 2), CFG5).masses)

    def test_n3_matches_enumeration(self):
        P3 = evolve(CFG5, 3)
        oracle = brute_force_walk(FIB, 5, 3)
        for idx in range(25):
            s = oracles.state_of(idx, 5, 2)
            assert P3.masses[idx] == pytest.approx(float(oracle.get(s, 0)), abs=1e-15)

    def test_state_cap(self):
        with pytest.raises(BudgetError):
            evolve(WalkConfig(FIB, 101), 1, state_cap=10_000)


class TestTV:
    def test_p2_golden(self):
        # exact rational value from the enumerated 2-step distribution:
        # one state at 2/9, seven at 1/9, seventeen at 0
        expected = Fraction(1, 2) * (
            abs(Fraction(2, 9) - Fraction(1, 25))
            + 7 * abs(Fraction(1, 9) - Fraction(1, 25))
            + 17 * Fraction(1, 25)
        )
        assert expected == Fraction(17, 25)
        assert tv_from_uniform(evolve(CFG5, 2)) == pytest.approx(float(expected))

    def test_monotone_in_n(self):
        for p in (5, 7):
            cfg = WalkConfig(FIB, p)
            P = delta_at_zero(p, 2)
            prev = tv_from_uniform(P)
            for _ in range(30):
                P = step_exact(P, cfg)
                cur = tv_from_uniform(P)
                assert cur <= prev + 1e-12
                prev = cur


class TestDFT:
    def test_uniform_is_indicator(self):
        got = oracles.dft(oracles.uniform(5, 2))
        assert abs(got[0] - 1.0) < 1e-12
        assert np.abs(got[1:]).max() < 1e-12

    def test_one_step_factor(self):
        P1 = step_exact(delta_at_zero(5, 2), CFG5)
        got = oracles.dft(P1)
        q = np.exp(2j * np.pi / 5)
        coords = indexing.all_coords(5, 2)
        expected = (1 + q ** coords[:, 0] + q ** coords[:, 1]) / 3
        assert np.abs(got - expected).max() < 1e-12

    def test_against_double_sum_oracle(self):
        for p, d in [(5, 2), (6, 1), (4, 3)]:
            n = p**d
            rng = np.random.default_rng(0)
            m = rng.random(n)
            m /= m.sum()
            P = DenseDistribution(p, d, m)
            brute = np.zeros(n, dtype=complex)
            for ci in range(n):
                c = oracles.state_of(ci, p, d)
                for si in range(n):
                    s = oracles.state_of(si, p, d)
                    dot = sum(a * b for a, b in zip(s, c))
                    brute[ci] += m[si] * np.exp(2j * np.pi / p * dot)
            assert np.abs(oracles.dft(P) - brute).max() < 1e-12


class TestPushforward:
    def test_data_processing_inequality(self):
        cfg = WalkConfig(IntMatrix([[1, 1], [0, 2]]), 7)
        v = ModVector(7, [1, 6])
        for n in range(0, 12):
            P = evolve(cfg, n)
            assert tv_vector(oracles.pushforward(P, v)) <= tv_from_uniform(P) + 1e-12

    def test_mass_preserved(self):
        P = evolve(CFG5, 5)
        proj = oracles.pushforward(P, ModVector(5, [2, 3]))
        assert proj.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_coordinate_table_without_building_it(self, monkeypatch):
        cfg = WalkConfig(IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 3]]), 12)
        P = evolve(cfg, 4)
        v = ModVector(12, [3, 0, 7])
        coords = indexing.all_coords(12, 3)
        want = np.bincount(coords @ np.array(v.entries) % 12, weights=P.masses, minlength=12)

        def boom(*args):
            raise RuntimeError("built the (p^d, d) coordinate table")

        monkeypatch.setattr(indexing, "all_coords", boom)
        assert np.array_equal(oracles.pushforward(P, v), want)


LEAF = exactdist.TV_LEAF
# lengths about numpy's summation tree: short ones (one temporary), a leaf
# and one either side, two leaves plus 8k + r, and longer ones
TV_LENGTHS = st.one_of(
    st.integers(1, 300),
    st.sampled_from([LEAF - 1, LEAF, LEAF + 1]),
    st.builds(lambda k, r: 2 * LEAF + 8 * k + r, st.integers(0, 64), st.integers(0, 7)),
    st.integers(LEAF + 1, 6 * LEAF),
)


def dense_tv(v):
    """TV to uniform through one temporary over the whole vector."""
    return 0.5 * float(np.abs(v - 1 / v.shape[0]).sum())


def leaf_starts(a, k):
    """Where each leaf of the TV sum over a..a+k-1 starts."""
    if k <= LEAF:
        return [a]
    half = k // 2 // 8 * 8
    return leaf_starts(a, half) + leaf_starts(a + half, k - half)


def spread_law(rng, n):
    # masses over 13 orders of magnitude, so the order of the sum shows in its bits
    v = rng.random(n) * 10.0 ** rng.integers(-12, 1, n)
    return v / v.sum()


@settings(max_examples=60, deadline=None)
@given(TV_LENGTHS, st.integers(0, 2**32 - 1))
def test_tv_vector_has_the_bits_of_one_sum(n, seed):
    v = spread_law(np.random.default_rng(seed), n)
    assert tv_vector(v) == dense_tv(v)


@settings(max_examples=40, deadline=None)
@given(TV_LENGTHS, st.integers(0, 2**32 - 1))
def test_support_tv_has_the_bits_of_the_dense_law(n, seed):
    # support states on both sides of every leaf boundary, the first and
    # last state, and some others
    rng = np.random.default_rng(seed)
    edges = [b + o for b in leaf_starts(0, n) for o in (-1, 0, 1)] + [n - 1]
    states = np.unique(np.clip(np.concatenate([edges, rng.integers(0, n, 50)]), 0, n - 1))
    weights = spread_law(rng, states.shape[0])
    P = DenseDistribution(n, 1, support=(states, weights))
    dense = np.zeros(n)
    dense[states] = weights
    assert tv_from_uniform(P) == dense_tv(dense)
    assert P._masses is None


@pytest.mark.parametrize("p,d,dtype", [
    (2, 31, np.int32),  # p^d = 2^31: the largest index, 2^31 - 1, fits
    (2**31 + 1, 1, np.int64),  # p^d = 2^31 + 1
    (2, 32, np.int64),
    (46340, 2, np.int32),
    (46341, 2, np.int64),
    (2**31 - 1, 1, np.int32),
    (2**31, 1, np.int64),  # every index fits, but not the modulus the build reduces by
])
def test_index_dtype(p, d, dtype):
    assert indexing.index_dtype(p, d) is dtype


@pytest.mark.parametrize("p,dtype", [(2**31 - 1, np.int32), (2**31 + 11, np.int64)])
def test_gather_table_takes_the_index_dtype(monkeypatch, p, dtype):
    # decided from (p, d) before anything is allocated
    seen = []
    monkeypatch.setattr(indexing, "linear_perm", lambda rows, p, h, dtype: seen.append(dtype))
    exactdist._gather_index.__wrapped__(IntMatrix([[3]]), p)
    assert seen == [dtype]


GATHER_WALKS = [
    WalkConfig(IntMatrix([[3]]), 10007),
    WalkConfig(FIB, 101),
    WalkConfig(IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 3]]), 23),
]


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("cfg", GATHER_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_step_through_int64_table_is_the_int32_step(cfg, split, request, monkeypatch):
    if split:
        request.getfixturevalue("forced_split")
    P = DenseDistribution(cfg.p, cfg.d, spread_law(np.random.default_rng(cfg.p), cfg.num_states))
    exactdist._gather_index.cache_clear()
    want = step_exact(P, cfg).masses
    assert exactdist._gather_index(cfg.T, cfg.p).dtype == np.int32
    with monkeypatch.context() as patched:
        patched.setattr(indexing, "index_dtype", lambda p, d: np.int64)
        exactdist._gather_index.cache_clear()
        got = step_exact(P, cfg).masses
        assert exactdist._gather_index(cfg.T, cfg.p).dtype == np.int64
    exactdist._gather_index.cache_clear()
    assert np.array_equal(got, want)
