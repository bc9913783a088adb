"""The spectral projected search against the stepped reference loop.

`projected_mixing_time` reads the law after k blocks as ifft(phi^k) and
bisects on k, relying on TV to uniform being non-increasing in k. These
tests compare it with the step-by-step convolution of
`test_stepping.ref_projected` and its linear search. The spectral and
stepped TVs differ by round-off only, so every cell also asserts that
the reference TV keeps at least `MARGIN` away from eps at the answer
and one block before it: closer than that, the two could disagree
without either being wrong.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinewalk import cli, exactdist, montecarlo
from affinewalk.errors import NotMixedError
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
