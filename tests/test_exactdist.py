from fractions import Fraction
from itertools import islice, product

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


BLOCK = exactdist.BLOCK_STATES
# lengths about the TV's blocks: short ones (one block), a block and one
# either side, two blocks plus some, and longer ones
TV_LENGTHS = st.one_of(
    st.integers(1, 300),
    st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]),
    st.builds(lambda k: 2 * BLOCK + k, st.integers(0, 600)),
    st.integers(BLOCK + 1, 6 * BLOCK),
)
# scales that leave a remainder mod the length, or none, or exceed every
# count (t = 0), up to the int64 limit
SCALES = st.one_of(st.integers(1, 2**20), st.integers(2**62, 2**63 - 1))


def spread_law(rng, n):
    # masses over 13 orders of magnitude, so the order of the sum shows in its bits
    v = rng.random(n) * 10.0 ** rng.integers(-12, 1, n)
    return v / v.sum()


def spread_counts(rng, n, scale):
    """n int64 counts that sum to scale: about half of them 0, one at
    t = scale // n (not above scale/n), and the rest of the scale cut at
    random points."""
    counts = np.zeros(n, dtype=np.int64)
    slots = rng.permutation(n)
    t = scale // n if n > 1 else 0
    counts[slots[0]] = t
    rest = slots[1 : 1 + n // 2] if n > 1 else slots
    cuts = np.sort(rng.integers(0, scale - t, size=rest.shape[0] - 1, endpoint=True))
    counts[rest] += np.diff(cuts, prepend=0, append=scale - t)
    return counts


def block_starts(n):
    """Where each block of the TV over n counts starts."""
    return list(range(0, n, BLOCK))


@settings(max_examples=60, deadline=None)
@given(TV_LENGTHS, SCALES, st.integers(0, 2**32 - 1))
def test_tv_of_counts_is_the_exact_sum(n, scale, seed):
    # exact at any length and scale, the count threshold t = scale // n
    # included; a float law's TV is that value to rounding
    counts = spread_counts(np.random.default_rng(seed), n, scale)
    P = DenseDistribution(n, 1, counts, scale=scale)
    tv = tv_from_uniform(P)
    assert isinstance(tv, Fraction) and tv == oracles.exact_tv(counts, scale)
    assert tv_vector(counts / scale) == pytest.approx(float(tv), rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(TV_LENGTHS, SCALES, st.integers(0, 2**32 - 1))
def test_support_tv_has_the_bits_of_the_dense_law(n, scale, seed):
    # support states on both sides of every block boundary, the first and
    # last state, and some others: the TV read on the support alone is
    # the dense law's exact TV, with no dense vector built
    rng = np.random.default_rng(seed)
    edges = [b + o for b in block_starts(n) for o in (-1, 0, 1)] + [n - 1]
    states = np.unique(np.clip(np.concatenate([edges, rng.integers(0, n, 50)]), 0, n - 1))
    held = spread_counts(rng, states.shape[0], scale)
    P = DenseDistribution(n, 1, support=(states, held), scale=scale)
    dense = np.zeros(n, dtype=np.int64)
    dense[states] = held
    assert tv_from_uniform(P) == tv_from_uniform(DenseDistribution(n, 1, dense, scale=scale))
    assert tv_from_uniform(P) == oracles.exact_tv(dense, scale)
    assert P._counts is None


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


# d = 1 and d = 2 walks of at most 10^4 states, long past the int64 range
# (n <= 62 at d = 1, n <= 39 at d = 2); [[1]] at p = 1000 is slow, so its
# TV stays large
LONG_WALKS = [
    (WalkConfig(IntMatrix([[1]]), 1000), 62, 150),
    (WalkConfig(IntMatrix([[1, 1], [0, 1]]), 10), 39, 100),
]


@pytest.mark.parametrize("ratio", [1, exactdist.HEAD_RATIO], ids=["support", "dense"])
@pytest.mark.parametrize("cfg,last_int,steps", LONG_WALKS, ids=["d1-p1000", "d2-p10"])
def test_walk_past_int64_follows_the_exact_counts(cfg, last_int, steps, ratio, monkeypatch):
    # int64 counts and a Fraction TV equal to the exact ones up to
    # (d+1)^n <= 2^63 - 1, then float counts within rounding of them
    monkeypatch.setattr(exactdist, "HEAD_RATIO", ratio)
    walk = zip(exactdist.dense_states(cfg), oracles.exact_counts(cfg), range(steps + 1))
    for P, counts, n in walk:
        scale = (cfg.d + 1) ** n
        tv = tv_from_uniform(P)
        if n <= last_int:
            assert P.held().dtype == np.int64 and P.scale == scale
            assert np.array_equal(P.counts, counts.astype(np.int64))
            assert tv == oracles.exact_tv(counts, scale)
        else:
            # the float scale is multiplied by d+1 a step, rounded each time
            assert P.held().dtype == np.float64 and P.scale == pytest.approx(scale, rel=1e-13)
            want = np.array([float(Fraction(c, scale)) for c in counts])
            np.testing.assert_allclose(P.masses, want, rtol=1e-12, atol=1e-300)
            assert tv == pytest.approx(float(oracles.exact_tv(counts, scale)), rel=1e-12, abs=1e-15)
        P.check_mass()


@pytest.mark.parametrize("ratio", [1, exactdist.HEAD_RATIO], ids=["support", "dense"])
def test_rescale_keeps_every_mass(ratio, monkeypatch):
    # multiplying counts and scale by 2^-k is exact, so a walk that
    # rescales past 2^100 (at n = 101 and 201 here) has every mass and TV
    # of one that never does
    cfg = WalkConfig(IntMatrix([[1]]), 1000)
    monkeypatch.setattr(exactdist, "HEAD_RATIO", ratio)
    plain = list(islice(exactdist.dense_states(cfg), 251))
    monkeypatch.setattr(exactdist, "RESCALE_BITS", 100)
    rescaled = list(islice(exactdist.dense_states(cfg), 251))
    assert rescaled[100].scale == 2.0**100 and rescaled[101].scale == 2.0
    assert max(P.scale for P in rescaled) <= 2.0**100 < plain[250].scale
    for P, Q in zip(rescaled, plain, strict=True):
        assert np.array_equal(P.masses, Q.masses)
        assert tv_from_uniform(P) == tv_from_uniform(Q)
