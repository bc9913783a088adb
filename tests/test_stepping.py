"""The stepping generators and the shared first-below search, checked
against plain step-by-step reference loops with exact equality. The
dense walk's counts are integers, exact in any order, and its TVs are
exact Fractions; past the int64 range its float counts take the same
additions in the same order as the reference's, so they match bit for
bit too, and only their TVs, rounded in another order, match to 1e-15.
The character walks run the same float operations in the same order as
their references, with two exceptions that match to 1e-12: the
projected law is read from the spectrum, and the bounds' real walk steps
half the characters and reads the rest through c -> -c, where
|f(-c)| is rounded apart from |f(c)| and the square sum is taken in
another order.

The references share no code with the engines they check: the dense
step scatters the counts onto T x + b, the support step of the dense
walk's head adds (T x + b) mod p per coordinate for each b in a given
order, the exact search reads TV at every n, the index and factor
tables go through the (p^d, d) coordinate table, and the int64 kernels
of the beyond-dense path (simulate, states_csv, first_large_sweep) are
row-wise loops that reduce mod p after every step."""

import math
import threading
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from affinewalk import exactdist, fourier, indexing, montecarlo
from affinewalk.errors import BudgetError, NotMixedError
from affinewalk.exactdist import DenseDistribution, WalkConfig, evolve, step_exact
from affinewalk.fourier import (
    bound_series,
    first_below,
    mixing_time,
    step_factor_table,
    transpose_perm,
)
from affinewalk.modmath import IntMatrix, ModVector, is_admissible
from affinewalk.montecarlo import (
    projected_mixing_time,
    projected_walk_dist,
    projection_functional,
    scaling_sweep,
)

WALKS = [
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 11),
    WalkConfig(IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 3]]), 7),
]
# root-of-unity matrices (order m = 4) for the projected walk, d = 2 and 3
PROJECTED = [
    (IntMatrix([[0, -1], [1, 0]]), 13, 4),
    (IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 2]]), 13, 4),
]
FAST3 = IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 3]])
# companion matrix of x^4 - x - 1, det -1
D4 = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
# d = 1..4, prime and composite moduli
MODULI_WALKS = [
    WalkConfig(IntMatrix([[3]]), 2),
    WalkConfig(IntMatrix([[5]]), 12),
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 2),
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 12),
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101),
    WalkConfig(IntMatrix([[-5, 7], [3, 4]]), 11),
    WalkConfig(FAST3, 12),
    WalkConfig(FAST3, 31),
    WalkConfig(D4, 5),
    WalkConfig(D4, 6),
]
STEPS = 32


def ref_tmod(cfg):
    return np.array(cfg.T.mod(cfg.p).entries, dtype=np.int64)


def ref_scatter_base(cfg):
    """x -> T x mod p through the coordinate table."""
    coords = indexing.all_coords(cfg.p, cfg.d)
    return indexing.encode(coords @ ref_tmod(cfg).T % cfg.p, cfg.p)


def ref_gather_index(cfg):
    """T x -> x: the coordinate-table map x -> T x, inverted by a scatter."""
    base = ref_scatter_base(cfg)
    inv = np.empty_like(base)
    inv[base] = np.arange(base.shape[0])
    return inv


def ref_transpose_perm(cfg):
    """c -> T^t c mod p through the coordinate table."""
    coords = indexing.all_coords(cfg.p, cfg.d)
    return indexing.encode(coords @ ref_tmod(cfg) % cfg.p, cfg.p)


def ref_step(counts, cfg):
    """Add each count onto T x, then onto T x + e_r for r = 0..d-1, one
    scatter each (x -> T x + b is one-to-one): exact for integer counts,
    and for float counts each state's terms in step_exact's order."""
    p, d = cfg.p, cfg.d
    base = ref_scatter_base(cfg)
    out = np.zeros_like(counts)
    out[base] += counts
    for r in range(d):
        w = p**r
        digit = (base // w) % p
        out[base + np.where(digit == p - 1, w - w * p, w)] += counts
    return out


def ref_support_step(P, cfg, shifts):
    """A support step of the dense walk, written from its definition: the
    support's coordinates times T mod p, one block of keys per shift b in
    the order given, and each state's terms added by np.add.at."""
    p = cfg.p
    states, counts = P.support
    image = indexing.decode(states, p, cfg.d) @ ref_tmod(cfg).T
    blocks = [indexing.encode((image + b) % p, p) for b in shifts]
    support, which = np.unique(np.concatenate(blocks), return_inverse=True)
    sums = np.zeros(support.shape[0], dtype=counts.dtype)
    np.add.at(sums, which, np.tile(counts, len(shifts)))
    return support, sums


def step_shifts(d):
    """b = 0, e_0, ..., e_{d-1}: the order in which step_exact adds a
    state's terms."""
    return [np.zeros(d, dtype=np.int64)] + list(np.eye(d, dtype=np.int64))


def ref_tv(counts, scale):
    """TV to uniform of counts / scale: exact for integer counts; for float
    counts half the sum of |c/scale - 1/N| as one float sum."""
    if counts.dtype == np.int64:
        return oracles.exact_tv(counts, scale)
    return 0.5 * float(np.abs(counts / scale - 1.0 / counts.shape[0]).sum())


def assert_tv_matches(P, counts, scale):
    tv = exactdist.tv_from_uniform(P)
    if counts.dtype == np.int64:
        assert tv == ref_tv(counts, scale)  # Fractions
    else:
        # near uniform, each c - scale/N cancels, rounded apart from
        # c/scale - 1/N by about 2^-53 scale/N: an absolute margin
        assert tv == pytest.approx(ref_tv(counts, scale), rel=1e-12, abs=1e-15)


def ref_states(cfg, n):
    """(counts, scale) of P_0, ..., P_n by ref_step from the point mass at
    zero: int64 counts and an int scale while (d+1)^k <= 2^63 - 1, then
    float64 counts, the last int64 ones converted once, and a float
    scale."""
    counts, scale = np.zeros(cfg.num_states, dtype=np.int64), 1
    counts[0] = 1
    out = [(counts, scale)]
    for _ in range(n):
        scale *= cfg.d + 1
        if counts.dtype == np.int64 and scale > exactdist.INT64_MAX:
            counts, scale = counts.astype(np.float64), float(scale)
        counts = ref_step(counts, cfg)
        out.append((counts, scale))
    return out


def assert_state_matches(P, counts, scale):
    """P holds the reference's counts, of its dtype, at its scale."""
    assert P.counts.dtype == counts.dtype and P.scale == scale
    assert np.array_equal(P.counts, counts)


def ref_transforms(cfg, n):
    """P_hat_0, ..., P_hat_n over every character by F = f * F[perm], the
    complex walk of the product formula."""
    f = oracles.factor_table(cfg.p, cfg.d)
    perm = ref_transpose_perm(cfg)
    F = np.ones(cfg.num_states, dtype=complex)
    out = [F]
    for _ in range(n):
        F = f * F[perm]
        out.append(F)
    return out


def ref_powers(cfg, n):
    """|P_hat_0|^2, ..., |P_hat_n|^2 by G = g * G[perm], g = |f|^2 taken
    from the complex factor table."""
    g = np.abs(oracles.factor_table(cfg.p, cfg.d)) ** 2
    perm = ref_transpose_perm(cfg)
    G = np.ones(cfg.num_states)
    out = [G]
    for _ in range(n):
        G = g * G[perm]
        out.append(G)
    return out


def ref_fold(cfg):
    """Index of c, or of -c when c_{d-1} > p//2, for every character,
    through the coordinate table."""
    coords = indexing.all_coords(cfg.p, cfg.d)
    top = coords[:, -1] > cfg.p // 2
    return indexing.encode(np.where(top[:, None], -coords % cfg.p, coords), cfg.p)


def ref_half_tables(cfg):
    """|f|^2 and c -> T^t c folded by ref_fold, on the characters with
    c_{d-1} <= p//2 (the first (p//2 + 1) p^(d-1) indices)."""
    slab = (cfg.p // 2 + 1) * cfg.p ** (cfg.d - 1)
    g = np.abs(oracles.factor_table(cfg.p, cfg.d)) ** 2
    return g[:slab], ref_fold(cfg)[ref_transpose_perm(cfg)][:slab]


def assert_powers_read_through_fold(cfg, n):
    """Every full-space reference value |P_hat_k(c)|^2, k <= n, equals the
    half table of char_powers read at c or -c. f(c) and f(-c) are rounded
    apart: near |f| ~ 1/p that moves |f|^2 by up to 2e-12 relative, at a
    size near 4e-7 (over 2100 random walks with p^d <= 5000, at most
    3.2e-19 past the relative margin), and at an exact zero of f each
    side keeps a residue below 1e-30; hence the absolute floor."""
    fold = ref_fold(cfg)
    got = islice(fourier.char_powers(cfg), n + 1)
    for H, G in zip(got, ref_powers(cfg, n), strict=True):
        np.testing.assert_allclose(H[fold], G, rtol=1e-12, atol=1e-16)


def ref_exactly_uniform(cfg, n):
    """P_n is exactly uniform: its exact counts (oracles.exact_counts) are
    all equal. Needs p^d to divide (d+1)^n, so for most walks no count is
    stepped."""
    if (cfg.d + 1) ** n % cfg.num_states:
        return False
    counts = next(islice(oracles.exact_counts(cfg), n, None))
    return bool((counts == counts[0]).all())


def ref_ub(G):
    return 0.5 * math.sqrt(float(G[1:].sum()))


def ref_lb(G):
    return 0.5 * math.sqrt(float(G[1:].max()))


def ref_projected(report, p, blocks):
    dist = np.zeros(p)
    dist[0] = 1.0
    out = [dist]
    for _ in range(blocks):
        nxt = np.zeros(p)
        for r, pr in report.increment_support:
            nxt += pr * np.roll(dist, r)
        dist = nxt
        out.append(dist)
    return out


def ref_first_below(values, eps):
    return next(n for n, v in enumerate(values) if v <= eps)


@pytest.mark.parametrize("cfg", WALKS, ids=["d2", "d3"])
class TestMatchesReferenceLoops:
    def test_evolve(self, cfg):
        for n, (counts, scale) in enumerate(ref_states(cfg, 6)):
            assert_state_matches(evolve(cfg, n), counts, scale)

    def test_bound_series(self, cfg):
        ns = [0, 2, 3, 7]
        states, powers = ref_states(cfg, 7), ref_powers(cfg, 7)
        series = bound_series(cfg, ns, include_exact=True)
        assert series.n == ns
        # the half-character walk reads c past p//2 through -c and sums in
        # another order than the full-space reference: equal to round-off
        assert series.ub == pytest.approx([ref_ub(powers[n]) for n in ns], rel=1e-12)
        assert series.lb == pytest.approx([ref_lb(powers[n]) for n in ns], rel=1e-12)
        assert series.tv_exact == [float(ref_tv(*states[n])) for n in ns]

    def test_mixing_time_exact(self, cfg):
        tvs = [ref_tv(*state) for state in ref_states(cfg, 60)]
        assert mixing_time(cfg, 0.1, method="exact") == ref_first_below(tvs, 0.1)

    def test_mixing_time_ub(self, cfg):
        ubs = [ref_ub(G) for G in ref_powers(cfg, 60)]
        assert mixing_time(cfg, 0.1, method="ub") == ref_first_below(ubs, 0.1)
        for n in (0, 4, 9):
            # the half-character walk reads c past p//2 through -c and sums
            # in another order than the full-space reference
            assert fourier.ub_bound(n, cfg) == pytest.approx(ubs[n], rel=1e-12)


def test_bound_series_matches_reference_powers_at_p257():
    cfg = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 257)  # 66049 characters
    series = bound_series(cfg, range(25), include_exact=False)
    powers = ref_powers(cfg, 24)
    # the half-character walk reads c past p//2 through -c and sums in
    # another order than the full-space reference: equal to round-off
    assert series.ub == pytest.approx([ref_ub(G) for G in powers], rel=1e-12)
    assert series.lb == pytest.approx([ref_lb(G) for G in powers], rel=1e-12)


@pytest.mark.parametrize("cfg", MODULI_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
class TestMatchesCoordinateReferences:
    def test_tables(self, cfg):
        assert np.array_equal(exactdist._gather_index(cfg.T, cfg.p), ref_gather_index(cfg))
        g, perm = ref_half_tables(cfg)
        assert np.array_equal(step_factor_table(cfg.p, cfg.d), g)
        assert np.array_equal(transpose_perm(cfg), perm)

    def test_dense_states(self, cfg):
        got = islice(exactdist.dense_states(cfg), STEPS + 1)
        # past the int64 range at d = 3 (n = 32) and d = 4 (n >= 28)
        for P, (counts, scale) in zip(got, ref_states(cfg, STEPS), strict=True):
            assert_state_matches(P, counts, scale)
            assert_tv_matches(P, counts, scale)

    def test_char_powers(self, cfg):
        assert_powers_read_through_fold(cfg, STEPS)


# Walks whose support head runs at least 3 steps and then turns dense at
# the module's HEAD_RATIO (None), or at the ratio given where p^d is too
# small for that: at p = 2, (d+1)^3 HEAD_RATIO <= 2^d needs d near 20.
# The companion matrix of x^12 - x - 1 holds P_3 on 380 of 4096 states.
C12 = IntMatrix([[int(j == i - 1) + int(j == 11 and i < 2) for j in range(12)] for i in range(12)])
HEAD_WALKS = [
    (WalkConfig(IntMatrix([[3]]), 10007), None),  # d = 1, 7 support steps
    (WalkConfig(IntMatrix([[2, 1], [1, 1]]), 100), None),  # composite p, 4
    (WalkConfig(FAST3, 31), None),  # 4
    (WalkConfig(D4, 13), None),  # 4; the 4th is the order-sensitive one below
    (WalkConfig(D4, 12), None),  # composite p, 4
    (WalkConfig(C12, 2), 2),  # p = 2, 3
]


def assert_walk_matches_reference(cfg, steps):
    """Every state of dense_states, and its TV, equal to the reference
    walk, and its support bound exact while the walk holds the support;
    returns, per state, whether the walk held it by its support."""
    held = []
    got = islice(exactdist.dense_states(cfg), steps + 1)
    for P, (counts, scale) in zip(got, ref_states(cfg, steps), strict=True):
        held.append(P.support is not None)
        count = np.count_nonzero(counts)
        if held[-1]:
            assert P.max_support == count == P.support[0].shape[0]
        assert P.max_support >= count
        assert_tv_matches(P, counts, scale)  # before P.counts builds the dense vector
        assert_state_matches(P, counts, scale)
    return held


@pytest.mark.parametrize("cfg,ratio", HEAD_WALKS, ids=[f"d{c.d}-p{c.p}" for c, _ in HEAD_WALKS])
def test_support_head_matches_reference(cfg, ratio, monkeypatch):
    if ratio is not None:
        monkeypatch.setattr(exactdist, "HEAD_RATIO", ratio)
    held = assert_walk_matches_reference(cfg, 12)
    # at least three steps on the support, then dense steps
    assert held[:4] == [True] * 4 and not held[-1]


@pytest.mark.parametrize("cfg,ratio", HEAD_WALKS, ids=[f"d{c.d}-p{c.p}" for c, _ in HEAD_WALKS])
def test_support_tv_builds_no_mass_vector(cfg, ratio, monkeypatch):
    # the TV of a law held by its support is the dense law's exact TV,
    # read without building (and keeping) that law's dense vector
    if ratio is not None:
        monkeypatch.setattr(exactdist, "HEAD_RATIO", ratio)
    got = islice(exactdist.dense_states(cfg), 4)
    for P, (counts, scale) in zip(got, ref_states(cfg, 3), strict=True):
        assert P.support is not None
        assert exactdist.tv_from_uniform(P) == ref_tv(counts, scale)
        assert P._counts is None


def test_support_step_counts_do_not_depend_on_term_order():
    # D4 at p = 13: in the step to P_4, eight states take terms whose float
    # sum rounded differently in the reverse order. Counts are integers,
    # exact in any order, so both orders give the walk's counts.
    cfg = WalkConfig(D4, 13)
    P3, P4 = list(islice(exactdist.dense_states(cfg), 5))[3:]
    assert P4.support[1].dtype == np.int64
    for shifts in (step_shifts(cfg.d), step_shifts(cfg.d)[::-1]):
        support, counts = ref_support_step(P3, cfg, shifts)
        assert np.array_equal(P4.support[0], support)
        assert np.array_equal(P4.support[1], counts)


def every_table(cfg):
    """The index and factor tables and STEPS steps of the dense walk and
    the bound walk."""
    exactdist._gather_index.cache_clear()
    return [
        exactdist._gather_index(cfg.T, cfg.p),
        step_factor_table(cfg.p, cfg.d),
        transpose_perm(cfg),
        *(P.counts for P in islice(exactdist.dense_states(cfg), STEPS + 1)),
        *islice(fourier.char_powers(cfg), STEPS + 1),
    ]


@pytest.mark.parametrize("cfg", MODULI_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_split_matches_serial(cfg, monkeypatch, request):
    monkeypatch.setattr(indexing, "_cpus", lambda: 1)
    serial = every_table(cfg)
    request.getfixturevalue("forced_split")
    split = every_table(cfg)
    for got, want in zip(split, serial, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cfg", MODULI_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_split_step_matches_reference(cfg, forced_split):
    # each range gathers the row below its first (row p-1 below row 0)
    # from P itself, and each later block reads the row saved from the
    # block before it; a wrong row would change the states of that block's
    # first row
    P = exactdist.delta_at_zero(cfg.p, cfg.d)
    for counts, scale in ref_states(cfg, STEPS)[1:]:
        P = step_exact(P, cfg)
        assert_state_matches(P, counts, scale)


def input_laws(cfg):
    """Laws held by their support (every third state) and dense laws, with
    float masses and with int64 counts drawn at random; the step of the
    last int64 law leaves the int64 range, and that of the last law, past
    2^960, rescales."""
    rng = np.random.default_rng(cfg.p)
    states = np.arange(0, cfg.num_states, 3)
    held = rng.integers(0, 1000, states.shape[0])
    dense = rng.integers(0, 1000, cfg.num_states)
    big = 2.0**exactdist.RESCALE_BITS * 2
    return [
        DenseDistribution(cfg.p, cfg.d, support=(states, rng.dirichlet(np.ones(states.shape[0])))),
        DenseDistribution(cfg.p, cfg.d, rng.dirichlet(np.ones(cfg.num_states))),
        DenseDistribution(cfg.p, cfg.d, support=(states, held), scale=int(held.sum())),
        DenseDistribution(cfg.p, cfg.d, dense, scale=exactdist.INT64_MAX // cfg.d),
        DenseDistribution(cfg.p, cfg.d, rng.dirichlet(np.ones(cfg.num_states)) * big, scale=big),
    ]


# d = 1..4 at moduli small enough for a thread per row of numpy axis 0
ROW_WALKS = [
    WalkConfig(IntMatrix([[3]]), 23),
    WalkConfig(IntMatrix([[-5, 7], [3, 4]]), 23),
    WalkConfig(FAST3, 13),
    WalkConfig(D4, 7),
]


@pytest.mark.parametrize("ranges", [3, "rows"])
@pytest.mark.parametrize("cfg", ROW_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_split_step_matches_serial(cfg, ranges, monkeypatch):
    # three uneven ranges, or one range per row, each gathering the row
    # below its first itself: every law's step, the ones that leave int64
    # and rescale included, bit for bit the serial step
    monkeypatch.setattr(indexing, "_cpus", lambda: 1)
    laws = input_laws(cfg)
    serial = [step_exact(P, cfg) for P in laws]
    monkeypatch.setattr(indexing, "MIN_PART", 1)
    monkeypatch.setattr(indexing, "_cpus", lambda: cfg.p if ranges == "rows" else ranges)
    assert len(indexing.row_ranges(cfg.p, cfg.num_states // cfg.p)) == (cfg.p if ranges == "rows" else 3)
    for P, want in zip(laws, serial, strict=True):
        got = step_exact(P, cfg)
        assert got.scale == want.scale
        assert got.counts.dtype == want.counts.dtype
        assert got.counts.tobytes() == want.counts.tobytes()


@pytest.mark.parametrize("cfg", ROW_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_one_split_per_step_and_ranges_stand_alone(cfg, forced_split, monkeypatch):
    # a dense step is one split_rows call, and a range reads nothing that
    # another range writes: run one at a time, last range first, the
    # ranges give the step that runs them together
    laws = input_laws(cfg)
    want = [step_exact(P, cfg).counts for P in laws]  # builds the table, which splits too
    calls = []

    def backwards(fn, rows, row_size=1):
        calls.append(rows)
        for s in reversed(indexing.row_ranges(rows, row_size)):
            fn(s)

    monkeypatch.setattr(indexing, "split_rows", backwards)
    for k, P in enumerate(laws):
        assert step_exact(P, cfg).counts.tobytes() == want[k].tobytes()
        assert calls == [cfg.p] * (k + 1)


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("cfg", MODULI_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_step_exact_leaves_its_input_alone(cfg, split, request):
    # the shifted adds write the new vector only
    if split:
        request.getfixturevalue("forced_split")
    for P in input_laws(cfg):
        if P.support is None:
            support, counts = None, P.counts.tobytes()
        else:  # its dense vector is left for the step to build
            support = [a.tobytes() for a in P.support]
            counts = np.zeros(cfg.num_states, dtype=P.support[1].dtype)
            counts[P.support[0]] = P.support[1]
            counts = counts.tobytes()
        Q = step_exact(P, cfg)
        assert not np.shares_memory(Q.counts, P.counts)
        assert P.counts.tobytes() == counts
        if support is not None:
            assert [a.tobytes() for a in P.support] == support


def test_split_rows_cuts_uneven_ranges(forced_split):
    seen = []
    indexing.split_rows(lambda s: seen.append((s, threading.current_thread())), 10)
    assert sorted((s.start, s.stop) for s, _ in seen) == [(0, 3), (3, 6), (6, 10)]
    # the caller takes the first range, a new thread each of the others
    assert {s.start for s, t in seen if t is threading.main_thread()} == {0}
    seen.clear()
    indexing.split_rows(lambda s: seen.append((s, None)), 2)  # no more ranges than rows
    assert sorted((s.start, s.stop) for s, _ in seen) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("bad", [0, 3, 6], ids=["caller", "thread-1", "thread-2"])
def test_split_rows_raises_what_a_range_raised(forced_split, bad):
    done = []

    def fn(s):
        if s.start == bad:
            raise ZeroDivisionError(f"range at {bad}")
        done.append(s.start)

    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=f"range at {bad}"):
        indexing.split_rows(fn, 10)
    assert sorted(done) == sorted({0, 3, 6} - {bad})  # every other range ran to its end
    assert threading.active_count() == threads  # and every thread was joined


@st.composite
def admissible_walks(draw):
    d = draw(st.integers(1, 4))
    p = draw(st.integers(2, max(q for q in range(2, 5001) if q**d <= 5000)))
    entries = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=d * d, max_size=d * d))
    T = IntMatrix([entries[i * d : (i + 1) * d] for i in range(d)])
    assume(is_admissible(T, p))
    return WalkConfig(T, p)


@settings(max_examples=60, deadline=None)
@given(admissible_walks())
def test_random_walks_match_coordinate_references(cfg):
    assert np.array_equal(exactdist._gather_index(cfg.T, cfg.p), ref_gather_index(cfg))
    g, perm = ref_half_tables(cfg)
    assert np.array_equal(step_factor_table(cfg.p, cfg.d), g)
    assert np.array_equal(transpose_perm(cfg), perm)
    P = exactdist.delta_at_zero(cfg.p, cfg.d)
    for counts, scale in ref_states(cfg, 6)[1:]:
        P = step_exact(P, cfg)
        assert_state_matches(P, counts, scale)



@settings(max_examples=60, deadline=None)
@given(admissible_walks(), st.sampled_from([1, 2, 8, 64]))
def test_random_walks_support_head_matches_reference(cfg, ratio):
    # the ratio is drawn, so the head runs at p^d far below the default's reach
    with mock.patch.object(exactdist, "HEAD_RATIO", ratio):
        assert_walk_matches_reference(cfg, 10)


@settings(max_examples=40, deadline=None)
@given(admissible_walks(), st.integers(0, 12))
def test_random_walks_product_formula_matches_dft(cfg, n):
    # both sides are float sums of at most 5000 terms of modulus <= 1;
    # over 400 random walks they differed by at most 2.6e-15
    got = ref_transforms(cfg, n)[n]
    assert np.abs(got - oracles.dft(evolve(cfg, n))).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(admissible_walks(), st.lists(st.integers(0, 16), min_size=1, max_size=5))
def test_random_walks_bounds_sandwich_exact_tv(cfg, ns):
    series = bound_series(cfg, ns, include_exact=True)
    for lb, tv, ub in zip(series.lb, series.tv_exact, series.ub, strict=True):
        assert lb <= tv + 1e-12
        assert tv <= ub + 1e-12


@settings(max_examples=40, deadline=None)
@given(admissible_walks(), st.integers(0, 29))
# P_14 is exactly uniform, and the two walks leave 2.9e-20 and 3.8e-20 of
# rounding residue in ub
@example(WalkConfig(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 1]]), 4), 14)
def test_random_walks_bounds_match_complex_transform(cfg, n):
    # the squared-modulus walk rounds differently from |P_hat_n| taken
    # from the complex walk: at most 4.1e-15 relative over 400 random
    # walks. Below about 1e-154 a modulus squares out of the normal float
    # range, so there the comparison is absolute. Where P_n is exactly
    # uniform, P_hat_n vanishes off c = 0 and both sides are only the
    # rounding residue of zero, which no relative margin admits.
    mods = np.abs(ref_transforms(cfg, n)[n][1:])
    series = bound_series(cfg, [n], include_exact=False)
    ub = 0.5 * math.sqrt(float((mods**2).sum()))
    lb = 0.5 * float(mods.max())
    if ref_exactly_uniform(cfg, n):
        assert max(series.ub[0], series.lb[0], ub, lb) <= 1e-12
    else:
        assert series.ub[0] == pytest.approx(ub, rel=1e-12, abs=1e-150)
        assert series.lb[0] == pytest.approx(lb, rel=1e-12, abs=1e-150)


@settings(max_examples=40, deadline=None)
@given(admissible_walks(), st.integers(0, 29))
def test_random_walks_char_powers_read_through_fold(cfg, n):
    assert_powers_read_through_fold(cfg, n)


@settings(max_examples=40, deadline=None)
@given(admissible_walks(), st.integers(0, 12), st.data())
def test_random_walks_pushforward_tv_at_most_full_tv(cfg, n, data):
    v = data.draw(st.lists(st.integers(0, cfg.p - 1), min_size=cfg.d, max_size=cfg.d))
    # v . x is uniform under the uniform law only when gcd(v, p) = 1; for
    # a composite p and a v sharing a factor with it the bound fails
    assume(math.gcd(cfg.p, *v) == 1)
    P = evolve(cfg, n)
    tv = exactdist.tv_vector(oracles.pushforward(P, ModVector(cfg.p, v)))
    assert tv <= exactdist.tv_from_uniform(P) + 1e-12

def test_dense_and_character_paths_build_no_coordinate_table(monkeypatch):
    def boom(*args):
        raise RuntimeError("built the (p^d, d) coordinate table")

    monkeypatch.setattr(indexing, "all_coords", boom)
    exactdist._gather_index.cache_clear()
    cfg = WALKS[1]  # d = 3
    evolve(cfg, 3)
    mixing_time(cfg, 0.1, method="exact")
    mixing_time(cfg, 0.1, method="ub")
    bound_series(cfg, [0, 2, 5], include_exact=True)


@pytest.mark.parametrize("T,p,m", PROJECTED, ids=["d2", "d3"])
def test_projected_matches_reference_loop(T, p, m):
    report = projection_functional(T, p)
    assert report.m == m
    cfg = WalkConfig(T, p)
    dists = ref_projected(report, p, 400)
    for blocks in (0, 1, 5, 40):
        # the law is read from the spectrum: equal to round-off, not bit for bit
        got = projected_walk_dist(report, cfg, blocks)
        assert np.max(np.abs(got - dists[blocks])) <= 1e-12
    tvs = [exactdist.tv_vector(d) for d in dists]
    assert projected_mixing_time(T, p, 0.25) == m * ref_first_below(tvs, 0.25)


# the exact search skips TV where the support count alone puts it above eps
SEARCH_WALKS = [
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101),
    WalkConfig(IntMatrix([[3]]), 10007),
    WalkConfig(FAST3, 31),
]


def ref_exact_search(tvs, eps, n_cap):
    """The search reading TV at every n: (least n <= n_cap with TV <= eps,
    None), else (None, TV at n_cap)."""
    for n in range(n_cap + 1):
        if tvs[n] <= eps:
            return n, None
    return None, tvs[n_cap]


def exact_search(cfg, eps, n_cap):
    try:
        return mixing_time(cfg, eps, method="exact", n_cap=n_cap), None
    except NotMixedError as err:
        assert (err.n_cap, err.method) == (n_cap, "exact")
        return None, err.last_value


def assert_same_search(got, want):
    """The same answer, or the same TV at the cap: the exact TV correctly
    rounded, or a float TV to 1e-12 past the int64 range."""
    assert got[0] == want[0] and (got[1] is None) == (want[1] is None)
    if isinstance(want[1], Fraction):
        assert got[1] == float(want[1])
    elif want[1] is not None:
        assert got[1] == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("cfg", SEARCH_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
def test_exact_search_matches_reading_every_tv(cfg):
    states = ref_states(cfg, 40)  # the last past the int64 range at d = 2, 3
    tvs = [ref_tv(*state) for state in states]
    floors = [1 - Fraction(np.count_nonzero(counts), cfg.num_states) for counts, _ in states[1:6]]
    # eps at and either side of the float nearest each exact skip threshold
    # (a TV is skipped where its floor exceeds eps), the floats nearest
    # TVs the walk takes, and plain values
    edges = [math.nextafter(float(f), to) for f in floors for to in (0, float(f), 1)]
    for eps in edges + [float(tv) for tv in tvs[4:16:3]] + [0.001, 0.1, 0.25, 0.5, 0.9]:
        n_mix, _ = ref_exact_search(tvs, eps, 40)
        for n_cap in sorted({0, 1, 2, 3, 5, n_mix - 1, n_mix, 40} - {-1}):
            assert_same_search(exact_search(cfg, eps, n_cap), ref_exact_search(tvs, eps, n_cap))


def test_exact_search_reads_tv_only_near_the_answer(monkeypatch):
    cfg, eps = SEARCH_WALKS[0], 0.25
    read = []
    exact_tv = exactdist.tv_from_uniform

    def tv(P):
        read.append(P.max_support)
        return exact_tv(P)

    monkeypatch.setattr(exactdist, "tv_from_uniform", tv)
    n_mix = mixing_time(cfg, eps, method="exact")
    tvs = [ref_tv(*state) for state in ref_states(cfg, n_mix)]
    assert n_mix == ref_first_below(tvs, eps) == 11
    # read only where the count leaves TV <= eps open: P_9 .. P_11 here (P_8
    # has at most 4455 of 10201 states, so its TV is at least 0.563)
    assert len(read) == 3
    assert all(1 - Fraction(s, cfg.num_states) <= eps for s in read)


class TestFirstBelow:
    def test_least_index(self):
        assert first_below([0.9, 0.5, 0.2, 0.1], 0.2, 10, "x") == 2
        assert first_below([0.1, 0.5], 0.2, 10, "x") == 0

    def test_cap_reports_value_at_cap(self):
        with pytest.raises(NotMixedError) as err:
            first_below(iter([0.9, 0.8, 0.7, 0.1]), 0.2, 2, "x")
        assert (err.value.n_cap, err.value.method, err.value.last_value) == (2, "x", 0.7)


def test_ub_search_cap():
    with pytest.raises(NotMixedError) as err:
        mixing_time(WALKS[0], 0.01, method="ub", n_cap=5)
    assert err.value.n_cap == 5
    assert err.value.method == "ub"


def test_projected_search_cap_counts_steps():
    rot = IntMatrix([[0, -1], [1, 0]])
    assert projection_functional(rot, 101).m == 4
    with pytest.raises(NotMixedError) as err:
        projected_mixing_time(rot, 101, 0.25, n_cap=3 * 4)
    assert err.value.n_cap == 3 * 4
    assert err.value.method == "projected"


class TestBudgetsBeforeStepping:
    @pytest.fixture(autouse=True)
    def no_stepping(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("stepped past a budget")

        monkeypatch.setattr(exactdist, "step_exact", boom)

    def test_bound_series_char_cap_with_no_n(self):
        with pytest.raises(BudgetError):
            bound_series(WALKS[0], [], char_cap=100)

    def test_bound_series_state_cap_with_no_n(self):
        with pytest.raises(BudgetError):
            bound_series(WALKS[0], [], include_exact=True, state_cap=100)

    def test_mixing_time_state_cap(self):
        with pytest.raises(BudgetError):
            mixing_time(WALKS[0], 0.1, method="exact", state_cap=100)

    def test_evolve_state_cap(self):
        with pytest.raises(BudgetError):
            evolve(WALKS[0], 3, state_cap=100)


def test_mass_drift_is_asserted(monkeypatch):
    # integer counts must sum to the scale exactly: one count too many is
    # drift; float counts may drift by at most MASS_TOL
    def leaky_count(P, cfg):
        counts = np.zeros(cfg.num_states, dtype=np.int64)
        counts[0] = 3**39 + 1  # a defect of 3^-39, far below MASS_TOL
        return DenseDistribution(P.p, P.d, counts, scale=3**39)

    def leaky_float(P, cfg):
        masses = np.zeros(cfg.num_states)
        masses[0] = 1.0 + 1e-9
        return DenseDistribution(P.p, P.d, masses)

    def drifting_float(P, cfg):
        masses = np.zeros(cfg.num_states)
        masses[0] = 1.0 + exactdist.MASS_TOL / 2
        return DenseDistribution(P.p, P.d, masses)

    monkeypatch.setattr(exactdist, "HEAD_RATIO", 10**9)  # every step dense
    assert evolve(WALKS[0], 0).mass_defect() == 0.0
    assert evolve(WALKS[0], 3).mass_defect() == 0.0
    for leaky in (leaky_count, leaky_float):
        monkeypatch.setattr(exactdist, "step_exact", leaky)
        with pytest.raises(AssertionError, match="mass drifted"):
            evolve(WALKS[0], 1)
    monkeypatch.setattr(exactdist, "step_exact", drifting_float)
    assert evolve(WALKS[0], 1).mass_defect() <= exactdist.MASS_TOL



def test_bound_series_steps_only_to_the_largest_n(monkeypatch):
    steps = []

    def counted(P, cfg):
        steps.append(1)
        return step_exact(P, cfg)

    monkeypatch.setattr(exactdist, "step_exact", counted)
    series = bound_series(WALKS[0], [5, 2], include_exact=True)
    assert series.n == [2, 5]
    assert len(steps) == 5

def test_sweep_does_not_record_bugs_as_failures(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(montecarlo, "projected_mixing_time", broken)
    with pytest.raises(RuntimeError, match="bug"):
        scaling_sweep([IntMatrix([[0, -1], [1, 0]])], [101], 0.25)


# -- the int64 kernels of the beyond-dense path -------------------------


def ref_simulate(cfg, n, samples, seed):
    """Row-wise walk, reduced mod p after every step: X <- X T^t + b."""
    p, d = cfg.p, cfg.d
    steps = np.empty((samples, n), dtype=np.uint8)
    for ci, lo in enumerate(range(0, samples, montecarlo.RNG_CHUNK)):
        rows = min(montecarlo.RNG_CHUNK, samples - lo)
        steps[lo : lo + rows] = montecarlo._step_stream(seed, ci, rows, n, d)
    increments = np.vstack([np.zeros(d, dtype=np.int64), np.eye(d, dtype=np.int64)])
    tmod_t = ref_tmod(cfg).T
    X = np.zeros((samples, d), dtype=np.int64)
    for t in range(n):
        X = (X @ tmod_t + increments[steps[:, t]]) % p
    return X


def ref_states_csv(batch, header_comment=""):
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(",".join(f"x{i}" for i in range(batch.cfg.d)))
    for row in batch.final_states:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def ref_first_large_sweep(cfg, c1, cs=None, ell_max=None):
    """Every row stepped at every ell, C <- C T mod p, until none is below
    the threshold."""
    p, d = cfg.p, cfg.d
    ell_max = math.ceil(10 * math.log2(p)) if ell_max is None else ell_max
    if cs is None:
        cs = indexing.all_coords(p, d)[1:]
    C = np.array(cs, dtype=np.int64) % p
    tmod = ref_tmod(cfg)
    out = np.full(C.shape[0], -1, dtype=np.int64)
    alive = np.ones(C.shape[0], dtype=bool)
    for ell in range(ell_max + 1):
        mags = np.minimum(C, p - C).max(axis=1)
        hit = alive & (mags >= c1 * p)
        out[hit] = ell
        alive &= ~hit
        if not alive.any():
            break
        C = C @ tmod % p
    return out


# d = 1..4, negative entries, composite moduli, and moduli at the int64
# edge; [[3,-1],[1,0]] has T mod p entry p - 1, so at p = 2^31 the
# products that build simulate's powers of T mod p come near 2^63
INT64_WALKS = [
    WalkConfig(IntMatrix([[5]]), 12),
    WalkConfig(IntMatrix([[-7]]), 3_037_000_500),  # the d = 1 edge
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101),
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 2**31 - 1),
    WalkConfig(IntMatrix([[3, -1], [1, 0]]), 2**31),
    WalkConfig(IntMatrix([[-5, 7], [3, 4]]), 1001),
    WalkConfig(FAST3, 12),
    WalkConfig(FAST3, 1_753_413_057),  # the d = 3 edge
    WalkConfig(D4, 6),
    WalkConfig(IntMatrix([[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), 1_500_000_001),
]


@pytest.mark.parametrize("cfg", INT64_WALKS, ids=lambda c: f"d{c.d}-p{c.p}")
class TestInt64KernelsMatchReferences:
    def test_simulate(self, cfg):
        # n = 1001 is no multiple of any group size, so the first group is short
        for n, samples in ((0, 5), (3, 0), (1, 7), (45, 300), (1001, 50)):
            got = montecarlo.simulate(cfg, n, samples, seed=11).final_states
            assert got.shape == (samples, cfg.d)
            assert np.array_equal(got, ref_simulate(cfg, n, samples, 11))

    def test_simulate_in_small_tiles(self, cfg, monkeypatch):
        # tiles of at most 2 rows by 32 groups at n = 1001: the short first
        # group and every tile edge in both directions
        monkeypatch.setattr(montecarlo, "_TILE_ROWS_BYTES", 2048)
        monkeypatch.setattr(montecarlo, "_TILE_READS", 64)
        for n, samples in ((1001, 50), (47, 300)):
            got = montecarlo.simulate(cfg, n, samples, seed=13).final_states
            assert np.array_equal(got, ref_simulate(cfg, n, samples, 13))

    def test_states_csv(self, cfg):
        for samples in (0, 1, 300):
            batch = montecarlo.simulate(cfg, 30, samples, seed=5)
            for header in ("", "affinewalk test"):
                got = batch.states_csv(header_comment=header).encode()
                assert got == ref_states_csv(batch, header).encode()

    def test_first_large_sweep(self, cfg):
        rng = np.random.default_rng(cfg.p % 1000)
        cs = rng.integers(-cfg.p, cfg.p, size=(500, cfg.d), dtype=np.int64)
        for c1, ell_max in ((0.125, None), (0.49, 3), (0.5, 0)):
            got = fourier.first_large_sweep(cfg, c1=c1, cs=cs, ell_max=ell_max)
            assert np.array_equal(got, ref_first_large_sweep(cfg, c1, cs, ell_max))
        with pytest.raises(ValueError, match="ell_max"):
            fourier.first_large_sweep(cfg, c1=0.3, cs=cs, ell_max=-1)
        empty = np.empty((0, cfg.d), dtype=np.int64)
        assert fourier.first_large_sweep(cfg, cs=empty).shape == (0,)


def test_simulate_across_chunk_boundaries():
    # 2 * 4096 + 37 rows: three Philox substreams, the last one partial
    cfg = WalkConfig(IntMatrix([[3, -1], [1, 0]]), 2**31)
    samples = 2 * montecarlo.RNG_CHUNK + 37
    batch = montecarlo.simulate(cfg, 25, samples, seed=3)
    assert np.array_equal(batch.final_states, ref_simulate(cfg, 25, samples, 3))
    text = batch.states_csv(header_comment="chunks")
    assert text.encode() == ref_states_csv(batch, "chunks").encode()


def test_first_large_sweep_every_character_at_small_p():
    for cfg in (WalkConfig(FAST3, 7), WalkConfig(IntMatrix([[3, -1], [1, 0]]), 12)):
        for c1 in (0.125, 0.4):
            for ell_max in (None, 1):
                got = fourier.first_large_sweep(cfg, c1=c1, ell_max=ell_max)
                want = ref_first_large_sweep(cfg, c1, ell_max=ell_max)
                assert np.array_equal(got, want)
        # ell_max = 1 leaves rows below the threshold
        assert (fourier.first_large_sweep(cfg, c1=0.4, ell_max=1) == -1).any()


@st.composite
def int64_walks(draw):
    d = draw(st.integers(1, 4))
    top = math.isqrt((2**63 - 2) // d) + 1  # largest p with d (p-1)^2 + 1 < 2^63
    p = draw(st.one_of(st.integers(2, 60), st.integers(top - 1000, top)))
    entries = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=d * d, max_size=d * d))
    T = IntMatrix([entries[i * d : (i + 1) * d] for i in range(d)])
    assume(is_admissible(T, p))
    return WalkConfig(T, p)


@settings(max_examples=60, deadline=None)
@given(
    int64_walks(),
    st.integers(0, 40),
    st.integers(0, 40),
    st.floats(0.01, 0.5),
    st.integers(-1, 12),
    st.integers(0, 2**32),
)
def test_random_walks_match_int64_references(cfg, n, samples, c1, ell_max, seed):
    batch = montecarlo.simulate(cfg, n, samples, seed)
    assert np.array_equal(batch.final_states, ref_simulate(cfg, n, samples, seed))
    assert batch.states_csv("h").encode() == ref_states_csv(batch, "h").encode()
    cs = np.random.default_rng(seed).integers(0, cfg.p, size=(samples, cfg.d))
    if ell_max < 0:
        with pytest.raises(ValueError, match="ell_max"):
            fourier.first_large_sweep(cfg, c1=c1, cs=cs, ell_max=ell_max)
        return
    got = fourier.first_large_sweep(cfg, c1=c1, cs=cs, ell_max=ell_max)
    assert np.array_equal(got, ref_first_large_sweep(cfg, c1, cs, ell_max))
