"""The stepping generators and the shared first-below search, checked
against plain step-by-step reference loops with exact equality: the
generators run the same float operations in the same order, so their
results must match bit for bit."""

import math

import numpy as np
import pytest

from affinewalk import exactdist, montecarlo
from affinewalk.errors import BudgetError, NotMixedError
from affinewalk.exactdist import DenseDistribution, WalkConfig, evolve
from affinewalk.fourier import (
    bound_series,
    first_below,
    fourier_n_all,
    mixing_time,
    step_factor_table,
    transpose_perm,
)
from affinewalk.modmath import IntMatrix
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
CHUNK = 1 << 16


def ref_states(cfg, n):
    P = exactdist.delta_at_zero(cfg.p, cfg.d)
    out = [P]
    for _ in range(n):
        P = exactdist.step_exact(P, cfg)
        out.append(P)
    return out


def ref_transforms(cfg, n):
    f = step_factor_table(cfg.p, cfg.d)
    perm = transpose_perm(cfg)
    F = np.ones(cfg.num_states, dtype=complex)
    out = [F]
    for _ in range(n):
        F = f * F[perm]
        out.append(F)
    return out


def ref_ub(F):
    mags = np.abs(F) ** 2
    mags[0] = 0.0
    total = 0.0
    for i in range(0, mags.shape[0], CHUNK):
        total += float(mags[i : i + CHUNK].sum())
    return 0.5 * math.sqrt(total)


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
        for n, P in enumerate(ref_states(cfg, 6)):
            assert np.array_equal(evolve(cfg, n).masses, P.masses)

    def test_fourier_n_all(self, cfg):
        for n, F in enumerate(ref_transforms(cfg, 6)):
            assert np.array_equal(fourier_n_all(n, cfg), F)

    def test_bound_series(self, cfg):
        ns = [0, 2, 3, 7]
        states, chars = ref_states(cfg, 7), ref_transforms(cfg, 7)
        series = bound_series(cfg, ns, include_exact=True)
        assert series.n == ns
        assert series.ub == [ref_ub(chars[n]) for n in ns]
        lbs = []
        for n in ns:
            mods = np.abs(chars[n])
            mods[0] = 0.0
            lbs.append(0.5 * float(mods.max()))
        assert series.lb == lbs
        assert series.tv_exact == [exactdist.tv_from_uniform(states[n]) for n in ns]

    def test_mixing_time_exact(self, cfg):
        tvs = [exactdist.tv_from_uniform(P) for P in ref_states(cfg, 60)]
        assert mixing_time(cfg, 0.1, method="exact") == ref_first_below(tvs, 0.1)

    def test_mixing_time_ub(self, cfg):
        ubs = [ref_ub(F) for F in ref_transforms(cfg, 60)]
        assert mixing_time(cfg, 0.1, method="ub") == ref_first_below(ubs, 0.1)


def test_ub_keeps_fixed_chunk_order():
    # p^d = 66049 spans two chunks; one sum over the whole vector rounds
    # differently at about half of these n
    cfg = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 257)
    ns = list(range(25))
    series = bound_series(cfg, ns, include_exact=False)
    assert series.ub == [ref_ub(F) for F in ref_transforms(cfg, 24)]


@pytest.mark.parametrize("T,p,m", PROJECTED, ids=["d2", "d3"])
def test_projected_matches_reference_loop(T, p, m):
    report = projection_functional(T, p, m)
    cfg = WalkConfig(T, p)
    dists = ref_projected(report, p, 400)
    for blocks in (0, 1, 5, 40):
        assert np.array_equal(projected_walk_dist(report, cfg, blocks), dists[blocks])
    tvs = [exactdist.tv_vector(d) for d in dists]
    assert projected_mixing_time(T, p, 0.25) == m * ref_first_below(tvs, 0.25)


def test_fourier_n_all_rejects_negative_n():
    with pytest.raises(ValueError):
        fourier_n_all(-1, WALKS[0])


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
    assert projection_functional(rot, 101, 4).m == 4
    with pytest.raises(NotMixedError) as err:
        projected_mixing_time(rot, 101, 0.25, blocks_cap=3)
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
    def leaky_step(P, cfg):
        masses = np.zeros_like(P.masses)
        masses[0] = 1.0 + 1e-9
        return DenseDistribution(P.p, P.d, masses)

    monkeypatch.setattr(exactdist, "step_exact", leaky_step)
    assert evolve(WALKS[0], 0).mass_defect() == 0.0
    with pytest.raises(AssertionError, match="mass drifted"):
        evolve(WALKS[0], 1)


def test_sweep_does_not_record_bugs_as_failures(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(montecarlo, "projected_mixing_time", broken)
    with pytest.raises(RuntimeError, match="bug"):
        scaling_sweep([IntMatrix([[0, -1], [1, 0]])], [101], 0.25)
