"""The spectral projected search against the stepped reference loop.

`projected_mixing_time` reads the law after k blocks as ifft(phi^k) and
searches k with `fourier.least_below` (regula falsi on log TV, midpoints
when that stalls), relying on TV to uniform being non-increasing in k.
`TestLeastBelow` holds that search to bisect_left's answer and its
probe bound on any non-increasing values. The other tests compare the
projected search with the step-by-step convolution of
`test_stepping.ref_projected` and its linear search. The spectral and
stepped TVs differ by round-off only, so every cell also asserts that
the reference TV keeps at least `MARGIN` away from eps at the answer
and one block before it: closer than that, the two could disagree
without either being wrong.
"""

import bisect
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinewalk import cli, exactdist, fourier, montecarlo, spectral
from affinewalk.errors import NotMixedError, PreconditionError
from affinewalk.exactdist import WalkConfig
from affinewalk.modmath import IntMatrix, ModVector, is_prime
from affinewalk.montecarlo import (
    ProjectionReport,
    projected_mixing_time,
    projection_functional,
    scaling_sweep,
)
from test_stepping import ref_first_below, ref_projected

MATRICES = [
    IntMatrix([[1, 1], [0, 2]]),
    IntMatrix([[0, -1], [1, 0]]),
    IntMatrix([[0, -1], [1, -1]]),
    IntMatrix([[1, 1, 0], [0, 2, 1], [0, 1, 1]]),
    IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 2]]),
]
PRIMES = (13, 31, 61)
EPSILONS = (0.1, 0.25, 0.5)
MARGIN = 1e-9
ROT = IntMatrix([[0, -1], [1, 0]])
# the root-of-unity matrices of the slow_projected benchmark
SLOW = ("[[1,1],[0,2]]", "[[0,-1],[1,0]]", "[[0,-1],[1,-1]]", "[[1,1,0],[0,2,1],[0,1,1]]")


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("T", MATRICES, ids=lambda T: T.tag())
def test_spectral_search_matches_stepped_search(T, p):
    report = projection_functional(T, p)
    m = report.m
    blocks = projected_mixing_time(T, p, min(EPSILONS)) // m
    tvs = [exactdist.tv_vector(d) for d in ref_projected(report, p, blocks)]
    for eps in EPSILONS:
        k = ref_first_below(tvs, eps)
        assert projected_mixing_time(T, p, eps) == m * k
        for v in tvs[max(k - 1, 0) : k + 1]:
            assert abs(v - eps) >= MARGIN


def test_cap_reports_stepped_tv_at_cap():
    report = projection_functional(ROT, 101)
    tvs = [exactdist.tv_vector(d) for d in ref_projected(report, 101, 3)]
    with pytest.raises(NotMixedError) as err:
        projected_mixing_time(ROT, 101, 0.25, n_cap=3 * 4)
    assert err.value.n_cap == 3 * 4
    assert err.value.last_value == pytest.approx(tvs[3], abs=1e-12)


def test_zero_block_cap():
    with pytest.raises(NotMixedError) as err:
        projected_mixing_time(ROT, 101, 0.25, n_cap=0)
    assert err.value.n_cap == 0
    assert err.value.last_value == pytest.approx(1 - 1 / 101, abs=1e-12)
    # TV of the point mass is 1 - 1/3 <= 0.7, so zero blocks suffice
    assert projected_mixing_time(ROT, 3, 0.7, n_cap=0) == 0


def test_zero_blocks_decided_exactly():
    # eps at the float nearest 1 - 1/p, the TV of the point mass, and at
    # its two float neighbours: zero blocks exactly when eps >= 1 - 1/p,
    # else one block (four steps), whatever the point mass's float TV
    for p in (q for q in range(3, 102) if is_prime(q)):
        near = float(1 - Fraction(1, p))
        for eps in (math.nextafter(near, 0), near, math.nextafter(near, 1)):
            want = 0 if Fraction(eps) >= 1 - Fraction(1, p) else 4
            assert projected_mixing_time(ROT, p, eps) == want, (p, eps)
    # the float TV of the point mass rounds to eps or below at these two
    assert projected_mixing_time(ROT, 7, 0.857142857142857) == 4
    assert projected_mixing_time(ROT, 3, 0.6666666666666666) == 4


@st.composite
def increment_laws(draw):
    p = draw(st.sampled_from([q for q in range(2, 201) if is_prime(q)]))
    others = draw(st.lists(st.integers(1, p - 1), max_size=6, unique=True))
    support = sorted({0, *others})
    weights = draw(st.lists(st.integers(1, 20), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return ProjectionReport(
        m=1,
        v=ModVector(p, [1]),
        increment_support=tuple((r, w / total) for r, w in zip(support, weights)),
        u=len(support),
        degenerate_prime=False,
    )


@settings(max_examples=60, deadline=None)
@given(increment_laws())
def test_spectral_tv_is_monotone_and_matches_stepped_law(report):
    p = report.v.p
    cfg = WalkConfig(IntMatrix([[1]]), p)
    laws = [montecarlo.projected_walk_dist(report, cfg, k) for k in range(41)]
    stepped_laws = ref_projected(report, p, 40)
    assert max(np.max(np.abs(a - b)) for a, b in zip(laws, stepped_laws)) <= 1e-12
    spectral = [exactdist.tv_vector(d) for d in laws]
    stepped = [exactdist.tv_vector(d) for d in stepped_laws]
    assert np.max(np.abs(np.subtract(spectral, stepped))) <= 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(spectral, spectral[1:]))


class Probed:
    """A non-increasing step function on k = 0, 1, ...: values[j] from
    the j-th of the sorted breakpoints on, values[0] before the first.
    Records every k it is read at."""

    def __init__(self, breaks, values):
        self.breaks, self.values, self.probes = breaks, values, []

    def value(self, k):
        return self.values[bisect.bisect_right(self.breaks, k)]

    def __call__(self, k):
        assert type(k) is int
        self.probes.append(k)
        return self.value(k)

    def first_at_or_below(self, eps, hi):
        """The least k in 1, ..., hi with value <= eps, else hi + 1: the
        value changes only at a breakpoint."""
        starts = (k for k in [1, *self.breaks] if k <= hi)
        return next((k for k in starts if self.value(k) <= eps), hi + 1)


def probe_bound(lo, hi):
    """least_below's stated worst case: the cap, then STALL_PROBES + 1
    probes per halving of the bracket."""
    halvings = (hi - lo - 1).bit_length() if hi > lo else 0
    return (fourier.STALL_PROBES + 1) * halvings + (hi > lo)


def check_least_below(value_at, eps, lo_value, hi, want):
    got = fourier.least_below(value_at, eps, 0, lo_value, hi)
    assert got == want
    assert len(value_at.probes) <= probe_bound(0, hi)
    assert all(0 < k <= hi for k in value_at.probes)


EPS = 0.25
# values a search may meet: eps itself and its float neighbours (ties),
# zeros (no log), values far above and just below
POOL = [1.0, 0.9, 0.5, math.nextafter(EPS, 1), EPS, math.nextafter(EPS, 0), 0.1, 1e-300, 0.0]


@st.composite
def step_functions(draw, hi_max):
    hi = draw(st.integers(0, hi_max))
    breaks = sorted(draw(st.sets(st.integers(1, max(hi, 1)), max_size=12)))
    values = sorted(draw(st.lists(st.sampled_from(POOL), min_size=len(breaks) + 1,
                                  max_size=len(breaks) + 1)), reverse=True)
    return hi, Probed(breaks, values)


class TestLeastBelow:
    """`fourier.least_below` answers bisect_left's question in Python
    ints, within its stated probe bound, on any non-increasing values."""

    @settings(max_examples=300, deadline=None)
    @given(step_functions(hi_max=300))
    def test_matches_bisect_left(self, case):
        hi, value_at = case
        mixed = [value_at.value(k) <= EPS for k in range(1, hi + 1)]  # False, then True
        want = bisect.bisect_left(mixed, True) + 1
        # lo_value may round to eps or below (the point mass at p = 7):
        # lo is still never returned
        check_least_below(value_at, EPS, value_at.values[0], hi, want)

    @settings(max_examples=300, deadline=None)
    @given(step_functions(hi_max=10**30))
    def test_huge_ranges(self, case):
        hi, value_at = case
        check_least_below(value_at, EPS, 1.0, hi, value_at.first_at_or_below(EPS, hi))

    CLIFFS = {"1": lambda hi: 1, "2": lambda hi: 2, "middle": lambda hi: hi // 2,
              "cap-1": lambda hi: hi - 1, "cap": lambda hi: hi}

    @pytest.mark.parametrize("hi", [10**6, 2**61 - 1, 10**30])
    @pytest.mark.parametrize("cliff", CLIFFS)
    @pytest.mark.parametrize("low", [EPS, 0.0, 0.2], ids=["tie", "zero", "below"])
    def test_adversarial_steps(self, hi, cliff, low):
        # one drop, from just above eps to eps itself, to 0 or to just
        # below: the line through the ends says nothing of where it is
        at = self.CLIFFS[cliff](hi)
        value_at = Probed([at], [math.nextafter(EPS, 1), low])
        check_least_below(value_at, EPS, 1.0, hi, at)

    def test_cap_first_and_empty_range(self):
        value_at = Probed([50], [0.9, 0.3])
        assert fourier.least_below(value_at, EPS, 0, 1.0, 100) == 101
        assert value_at.probes == [100]
        assert fourier.least_below(value_at, EPS, 0, 1.0, 0) == 1
        assert value_at.probes == [100]


def test_benchmark_searches_take_few_probes(monkeypatch):
    # the sweep and mixtime searches of the slow_projected benchmark: 270
    # probes in all by bisection
    probes = []
    block_law = montecarlo._block_law

    def counted(report):
        law = block_law(report)
        return lambda k: probes.append(k) or law(k)

    monkeypatch.setattr(montecarlo, "_block_law", counted)
    slow = [IntMatrix(json.loads(m)) for m in SLOW]
    got = [projected_mixing_time(T, p, 0.25) for T in slow for p in (101, 151, 211, 307)]
    got.append(projected_mixing_time(slow[0], 401, 0.25))
    assert got == [726, 1623, 3168, 6706, 2180, 4868, 9504, 20120, 1308, 2922, 5703,
                   12072, 968, 2164, 4224, 8942, 11442]
    assert len(probes) <= 120


class TestStepCap:
    """--n-cap and scaling_sweep's n_cap count steps for the projected
    search too: floor(n_cap / m) blocks."""

    def mixtime(self, tmp_path, n_cap):
        out = tmp_path / "mix.json"
        code = cli.main([
            "mixtime", "--matrix", "[[0,-1],[1,0]]", "--p", "101", "--epsilon", "0.25",
            "--method", "projected", "--n-cap", str(n_cap), "-o", str(out),
        ])
        return code, out

    def test_cli_small_cap_exits_4(self, tmp_path):
        code, out = self.mixtime(tmp_path, 5)
        assert code == cli.EXIT_BUDGET
        assert not out.exists()

    def test_cli_cap_at_answer(self, tmp_path):
        code, out = self.mixtime(tmp_path, 2180)
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["n_mix"] == 2180
        # 2179 // 4 = 544 blocks, one short of the 545 needed
        assert self.mixtime(tmp_path, 2179)[0] == cli.EXIT_BUDGET

    def test_library_default_is_the_shared_step_cap(self):
        # the rotation at eps 0.25 first needs more than 100000 steps at p=691
        with pytest.raises(NotMixedError) as err:
            projected_mixing_time(ROT, 691, 0.25)
        assert err.value.n_cap == 100000
        assert projected_mixing_time(ROT, 691, 0.25, n_cap=101924) == 101924

    def test_sweep_records_capped_cell(self):
        (rep,) = scaling_sweep([ROT], [101, 151], 0.25, n_cap=3000)
        assert rep.cells == [(101, 2180)]
        assert [p for p, _ in rep.failures] == [151]
        assert rep.failures[0][1].startswith("NotMixedError")


class TestBlockLaw:
    """`_block_law` reads phi^k as exp(k log phi) from POWER_FROM blocks
    on, with phi_0 = 1 exactly."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("T", MATRICES, ids=lambda T: T.tag())
    def test_law_is_the_power_law_across_the_cutoff(self, T, p):
        report = projection_functional(T, p)
        law = montecarlo._block_law(report)
        phi = np.fft.fft(report.increment_probs())
        for k in (1, 99, 100, 101, 8000):
            np.testing.assert_allclose(law(k), np.fft.ifft(phi**k).real, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("T", MATRICES, ids=lambda T: T.tag())
    def test_zero_blocks_is_the_point_mass(self, T):
        law = montecarlo._block_law(projection_functional(T, 31))(0)
        assert law[0] == 1.0
        np.testing.assert_allclose(law[1:], 0.0, rtol=0, atol=1e-15)

    def test_exact_zero_of_phi_reads_zero_without_warning(self):
        # increments 0 and 1 at p = 2, each 1/2: phi = (1, 0)
        report = ProjectionReport(
            m=1, v=ModVector(2, [1]), increment_support=((0, 0.5), (1, 0.5)), u=2,
            degenerate_prime=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = montecarlo._block_law(report)
            assert law(0).tolist() == [1.0, 0.0]
            for k in (1, 99, 100, 101, 8000, 10**20, int(1.7e308)):
                assert law(k).tolist() == [0.5, 0.5], k

    def test_mass_stays_one_over_many_blocks(self):
        report = projection_functional(IntMatrix([[1, 1], [0, 2]]), 101)
        law = montecarlo._block_law(report)
        for k in (10**9, 10**12, 10**15, 10**20, int(1.7e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist = law(k)
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert exactdist.tv_vector(dist) <= 1e-12


class TestCyclotomicFactsCache:
    """What projection_functional needs of T at every p is computed once
    per matrix (`spectral.cyclotomic_facts`)."""

    def test_cold_and_warm_reports_agree(self):
        ps = (13, 31, 61, 101)
        for T in MATRICES:
            cold = []
            for p in ps:
                spectral.cyclotomic_facts.cache_clear()
                cold.append(projection_functional(T, p))
            assert [projection_functional(T, p) for p in ps] == cold

    def test_equal_matrices_share_one_entry(self):
        spectral.cyclotomic_facts.cache_clear()
        projection_functional(IntMatrix([[0, -1], [1, 0]]), 13)
        projection_functional(IntMatrix([[0, -1], [1, 0]]), 31)
        assert spectral.root_of_unity_order(IntMatrix([[0, -1], [1, 0]])) == 4
        info = spectral.cyclotomic_facts.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    @pytest.mark.parametrize("T,p,message", [
        ([[2, 1], [1, 1]], 15, "no root-of-unity eigenvalue"),
        ([[0, -1], [1, 0]], 15, "needs a prime p, got 15"),
        ([[1, 0], [0, 0]], 7, "not admissible"),
    ])
    def test_refusals_keep_message_and_order_cold_and_warm(self, T, p, message):
        spectral.cyclotomic_facts.cache_clear()
        for _ in range(2):
            with pytest.raises(PreconditionError, match=message):
                projection_functional(IntMatrix(T), p)


class TestHugeCounts:
    """Block counts and step caps are Python ints of any size: past 2^63
    the search runs as below it, and a block count past the largest
    float is refused (exit 4), never a traceback."""

    UPPER = ["--matrix", "[[1,1],[0,2]]", "--p", "101"]

    def run(self, capsys, *argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_step_cap_past_2_63(self, capsys):
        code, out, _ = self.run(capsys, "mixtime", *self.UPPER, "--epsilon", "0.25",
                                "--method", "projected", "--n-cap", str(10**23))
        assert code == cli.EXIT_OK and json.loads(out)["n_mix"] == 726

    def test_blocks_past_2_63_read_uniform(self, capsys):
        code, out, _ = self.run(capsys, "project", *self.UPPER, "--blocks", str(10**20))
        assert code == cli.EXIT_OK and json.loads(out)["projected_tv"] < 1e-12

    @pytest.mark.parametrize("argv", [
        ["project", *UPPER, "--blocks", str(10**400)],
        ["mixtime", *UPPER, "--epsilon", "0.25", "--method", "projected",
         "--n-cap", str(10**400)],
    ], ids=["project", "mixtime"])
    def test_count_past_the_float_range_exits_4(self, argv, capsys):
        code, out, err = self.run(capsys, *argv)
        assert code == cli.EXIT_BUDGET and out == ""
        assert "past the largest float" in err
