import json
import math
from itertools import product

import numpy as np
import pytest

import oracles
import readers
from affinewalk import indexing, spectral
from affinewalk.errors import BudgetError, PreconditionError, RootConvergenceError
from affinewalk.exactdist import WalkConfig, evolve, tv_from_uniform, tv_vector
from affinewalk.fourier import fourier_n
from affinewalk.modmath import (
    IntMatrix,
    ModVector,
    is_admissible,
    is_prime,
    mat_pow_mod,
    nullspace_mod_prime,
)
from affinewalk.montecarlo import (
    TrajectoryBatch,
    empirical_tv,
    projected_mixing_time,
    projected_walk_dist,
    projection_functional,
    scaling_sweep,
    simulate,
    sweep_csv,
)

FIB = IntMatrix([[2, 1], [1, 1]])
UPPER = IntMatrix([[1, 1], [0, 2]])
ROT = IntMatrix([[0, -1], [1, 0]])
CFG5 = WalkConfig(FIB, 5)


class TestSimulate:
    def test_n0_all_zero(self):
        batch = simulate(CFG5, 0, 50, seed=1)
        assert (batch.final_states == 0).all()

    def test_determinism(self):
        b1 = simulate(CFG5, 30, 2000, seed=42)
        b2 = simulate(CFG5, 30, 2000, seed=42)
        assert np.array_equal(b1.final_states, b2.final_states)
        assert b1.states_csv() == b2.states_csv()

    def test_seed_matters(self):
        b1 = simulate(CFG5, 30, 2000, seed=1)
        b2 = simulate(CFG5, 30, 2000, seed=2)
        assert not np.array_equal(b1.final_states, b2.final_states)

    def test_one_step_distribution(self):
        batch = simulate(CFG5, 1, 30000, seed=3)
        idx = indexing.encode(batch.final_states, 5)
        freqs = np.bincount(idx, minlength=25) / batch.samples
        # only 0, e1, e2 reachable, each ~1/3
        support = {0, oracles.index_of((1, 0), 5), oracles.index_of((0, 1), 5)}
        assert set(np.nonzero(freqs)[0]) == support
        assert np.abs(freqs[list(support)] - 1 / 3).max() < 0.02

    def test_equilibrium_frequencies(self):
        # TV(P_30, U) is negligible by the dense oracle, so each of the
        # 25 states should show up at ~1/25 within 4 standard errors
        assert tv_from_uniform(evolve(CFG5, 30)) < 1e-6
        batch = simulate(CFG5, 30, 100_000, seed=7)
        idx = indexing.encode(batch.final_states, 5)
        freqs = np.bincount(idx, minlength=25) / batch.samples
        se = math.sqrt((1 / 25) * (24 / 25) / batch.samples)
        assert np.abs(freqs - 1 / 25).max() <= 4 * se

    def test_requires_admissible(self):
        with pytest.raises(PreconditionError):
            simulate(WalkConfig(IntMatrix([[2, 0], [0, 2]]), 6), 1, 1, seed=0)

    def test_character_means_match_product_formula_at_minstd(self):
        # E q^{c.X_n} = P_hat_n(c); by Hoeffding, the real and imaginary
        # parts of the mean of N draws each miss it by more than
        # sqrt(2 ln(4/delta) / N) with probability at most delta
        p, n, samples, delta = 2**31 - 1, 22, 20_000, 1e-6
        cfg = WalkConfig(FIB, p)
        X = simulate(cfg, n, samples, seed=2024).final_states
        radius = math.sqrt(2 * math.log(4 / delta) / samples)
        largest = 0.0
        for c in product((-1, 0, 1), repeat=2):
            if c == (0, 0):
                continue
            phases = (X @ np.array(c, dtype=np.int64)) % p
            mean = np.exp(2j * np.pi * phases / p).mean()
            want = fourier_n(ModVector(p, [x % p for x in c]), n, cfg)
            assert abs(mean.real - want.real) <= radius
            assert abs(mean.imag - want.imag) <= radius
            largest = max(largest, abs(want))
        # the check has power: some mean sits far from 0 (the uniform value)
        assert largest >= 10 * radius


class TestEmpiricalTV:
    def test_n0_exact(self):
        batch = simulate(CFG5, 0, 100, seed=1)
        assert empirical_tv(batch) == pytest.approx(1 - 1 / 25)

    def test_balanced_synthetic_is_zero(self):
        states = np.repeat(indexing.all_coords(5, 2), 4, axis=0)
        batch = TrajectoryBatch(cfg=CFG5, n=0, seed=0, samples=100, final_states=states)
        assert empirical_tv(batch) == 0.0

    def test_converges_to_exact(self):
        batch = simulate(CFG5, 5, 1_000_000, seed=9)
        exact = tv_from_uniform(evolve(CFG5, 5))
        assert abs(empirical_tv(batch) - exact) < 0.02

    def test_count_budget(self):
        batch = simulate(WalkConfig(FIB, 101), 1, 10, seed=0)
        with pytest.raises(BudgetError):
            empirical_tv(batch, count_cap=100)


class TestProjectionFunctional:
    def test_eigendirection_example(self):
        rep = projection_functional(UPPER, 101)
        assert rep.v.entries == (1, 100)  # the (1, -1) direction
        assert rep.u == 3
        assert dict(rep.increment_support) == pytest.approx(
            {0: 1 / 3, 1: 1 / 3, 100: 1 / 3}
        )
        assert not rep.degenerate_prime

    def test_rotation_matches_enumeration(self):
        # oracle: enumerate all (d+1)^m = 81 step tuples directly
        p, m = 13, 4
        rep = projection_functional(ROT, p)
        assert rep.m == m
        assert rep.v.entries == (1, 0)
        ws = [
            mat_pow_mod(ROT, m - 1 - j, p).transpose().apply(rep.v.entries)
            for j in range(m)
        ]
        incs = [(0, 0), (1, 0), (0, 1)]
        counts: dict[int, int] = {}
        for tup in product(range(3), repeat=m):
            val = sum(
                ws[j][0] * incs[k][0] + ws[j][1] * incs[k][1]
                for j, k in enumerate(tup)
            )
            counts[val % p] = counts.get(val % p, 0) + 1
        oracle = {r: c / 81 for r, c in counts.items()}
        assert dict(rep.increment_support) == pytest.approx(oracle)
        assert rep.u == len(oracle) <= 81

    def test_identity_matrix(self):
        rep = projection_functional(IntMatrix.identity(3), 7)
        assert rep.v.entries == (1, 0, 0)
        assert dict(rep.increment_support) == pytest.approx({0: 3 / 4, 1: 1 / 4})

    def test_support_bound(self):
        for T, p, m in [(UPPER, 11, 1), (ROT, 13, 4), (ROT, 5, 4)]:
            rep = projection_functional(T, p)
            assert rep.m == m
            assert rep.u <= (T.dim + 1) ** m
            assert sum(pr for _, pr in rep.increment_support) == pytest.approx(1.0)

    def test_rejects_composite_p(self):
        with pytest.raises(PreconditionError):
            projection_functional(UPPER, 9)

    def test_rejects_no_root_of_unity(self):
        with pytest.raises(PreconditionError, match="no root-of-unity eigenvalue"):
            projection_functional(FIB, 101)

    def test_nullspace_never_empty(self):
        # Phi_m divides the characteristic polynomial, so (T^m)^t - I is
        # singular over Q, hence mod every prime: the projection always
        # finds a direction
        matrices = [
            UPPER, ROT, IntMatrix.identity(3), IntMatrix([[-1, 0], [0, -1]]),
            IntMatrix([[0, -1], [1, 1]]), IntMatrix([[0, -1], [1, -1]]),
            IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            IntMatrix([[1, 1, 0], [0, 2, 1], [0, 1, 1]]),
            IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 2]]),
        ]
        for T in matrices:
            m = spectral.root_of_unity_order(T)
            for p in filter(is_prime, range(2, 200)):
                if not is_admissible(T, p):
                    continue
                A = mat_pow_mod(T, m, p).transpose() + IntMatrix.identity(T.dim).scale(-1)
                assert nullspace_mod_prime(A, p), (T.tag(), p)
                assert projection_functional(T, p).m == m

    def test_json_round_trip(self):
        rep = projection_functional(UPPER, 101)
        back = readers.projection_report(json.loads(json.dumps(rep.to_dict())))
        assert back == rep

    def test_block_increment_matches_trajectories(self):
        # along one long trajectory, every m-step increment of pi(X) must
        # land in the computed support with matching frequencies
        m = 1
        rep = projection_functional(UPPER, 11)
        cfg = WalkConfig(UPPER, 11)
        blocks = 100_000
        batch_states = _trajectory_states(cfg, blocks * m, seed=21)
        v = np.array(rep.v.entries, dtype=np.int64)
        proj = batch_states[::m] @ v % 11
        diffs = (proj[1:] - proj[:-1]) % 11
        freqs = np.bincount(diffs, minlength=11) / (len(proj) - 1)
        probs = rep.increment_probs()
        assert set(np.nonzero(freqs)[0]) <= {r for r, _ in rep.increment_support}
        for r, pr in rep.increment_support:
            se = math.sqrt(pr * (1 - pr) / (len(proj) - 1))
            assert abs(freqs[r] - pr) <= 4 * se
        assert probs.sum() == pytest.approx(1.0)


def _trajectory_states(cfg, n, seed):
    """All intermediate states of a single trajectory (n+1, d)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    steps = rng.integers(0, cfg.d + 1, size=n, dtype=np.uint8)
    incs = np.vstack([np.zeros(cfg.d, dtype=np.int64), np.eye(cfg.d, dtype=np.int64)])
    tmod = np.array(cfg.T.mod(cfg.p).entries, dtype=np.int64)
    out = np.zeros((n + 1, cfg.d), dtype=np.int64)
    x = np.zeros(cfg.d, dtype=np.int64)
    for t in range(n):
        x = (tmod @ x + incs[steps[t]]) % cfg.p
        out[t + 1] = x
    return out


class TestProjectedWalk:
    def test_zero_blocks_is_delta(self):
        rep = projection_functional(UPPER, 101)
        dist = projected_walk_dist(rep, WalkConfig(UPPER, 101), 0)
        assert dist[0] == 1.0 and dist.sum() == 1.0

    def test_golden_slow_mixing_at_p(self):
        # frozen: after p = 101 steps the projected walk is still far
        # from uniform (TV ~ 0.636)
        rep = projection_functional(UPPER, 101)
        dist = projected_walk_dist(rep, WalkConfig(UPPER, 101), 101)
        tv = tv_vector(dist)
        assert tv == pytest.approx(0.6358602806842039, abs=1e-9)
        assert tv >= 0.5
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_pushforward_of_dense_evolution(self):
        rep = projection_functional(UPPER, 7)
        cfg = WalkConfig(UPPER, 7)
        for blocks in range(0, 12):
            dense = oracles.pushforward(evolve(cfg, blocks), rep.v)
            walk = projected_walk_dist(rep, cfg, blocks)
            assert np.abs(dense - walk).max() < 1e-10

    def test_matches_pushforward_m4(self):
        rep = projection_functional(ROT, 5)
        cfg = WalkConfig(ROT, 5)
        for blocks in (0, 1, 2, 3):
            dense = oracles.pushforward(evolve(cfg, 4 * blocks), rep.v)
            walk = projected_walk_dist(rep, cfg, blocks)
            assert np.abs(dense - walk).max() < 1e-10

    def test_projected_tv_below_full_tv(self):
        rep = projection_functional(UPPER, 7)
        cfg = WalkConfig(UPPER, 7)
        for blocks in range(0, 15):
            full = tv_from_uniform(evolve(cfg, blocks))
            proj = tv_vector(projected_walk_dist(rep, cfg, blocks))
            assert proj <= full + 1e-12


class TestProjectedMixingTime:
    def test_quadratic_growth(self):
        cells = [(p, projected_mixing_time(UPPER, p, 0.25)) for p in (11, 31, 101)]
        assert [n for _, n in cells] == [9, 69, 726]  # frozen convolution oracle
        from affinewalk.montecarlo import _fit_power_law

        b, _ = _fit_power_law(cells)
        assert b >= 1.7  # grows at least ~quadratically in p

    def test_epsilon_edges(self):
        # TV(delta, U) = 1 - 1/11 ~ 0.909, already within eps = 0.95
        assert projected_mixing_time(UPPER, 11, 0.95) == 0
        # one block reaches TV = 24/33 ~ 0.727
        assert projected_mixing_time(UPPER, 11, 0.8) == 1


class TestScalingSweep:
    def test_empty_ps(self):
        reports = scaling_sweep([FIB], [], 0.25)
        assert len(reports) == 1 and reports[0].cells == []
        # the CSV carries only the column header
        assert sweep_csv(reports).strip() == "matrix_tag,p,n_mix,method"

    def test_auto_methods_and_fits(self):
        reports = scaling_sweep([FIB, UPPER], [11, 31], 0.25, method="auto")
        fast, slow = reports
        assert fast.method == "ub" and slow.method == "projected"
        assert fast.fit_kind == "logp_squared_constant"
        assert slow.fit_kind == "power_law_exponent"
        assert fast.fit_value > 0
        assert slow.fit_value > 1.5
        assert len(fast.residuals) == 2

    def test_no_fit_without_a_cell_to_fit(self):
        # n_mix = 0 at every p: the fit is left unset, never NaN
        for T, method in ((FIB, "ub"), (ROT, "projected")):
            (rep,) = scaling_sweep([T], [2, 3], 0.9, method=method)
            assert [n for _, n in rep.cells] == [0, 0]
            assert (rep.fit_kind, rep.fit_value, rep.residuals) == (None, None, [])
        (rep,) = scaling_sweep([FIB], [5, 11], 0.25, method="ub")
        assert rep.fit_kind == "logp_squared_constant" and math.isfinite(rep.fit_value)

    def test_failures_recorded_sweep_continues(self):
        # p = 2 shares a factor with det(UPPER) = 2: cell fails, sweep lives
        reports = scaling_sweep([UPPER], [2, 11], 0.25, method="projected")
        (rep,) = reports
        assert [p for p, _ in rep.cells] == [11]
        assert len(rep.failures) == 1 and rep.failures[0][0] == 2

    def test_auto_finds_no_root(self, monkeypatch):
        # the exact cyclotomic test picks the method and the fit; a root
        # search that cannot succeed fails no matrix
        def no_roots(*args, **kwargs):
            raise RootConvergenceError("residuals not certified")

        monkeypatch.setattr(spectral, "classify", no_roots)
        monkeypatch.setattr(spectral, "complex_roots", no_roots)
        singular = IntMatrix([[1, 0], [0, 0]])  # x (x - 1): classify says singular
        rot, upper, fib, sing = scaling_sweep([ROT, UPPER, FIB, singular], [11, 31], 0.25)
        assert [r.method for r in (rot, upper, fib, sing)] == ["projected", "projected", "ub", "ub"]
        assert rot.cells == [(11, 28), (31, 208)] and not rot.failures
        assert upper.cells == [(11, 9), (31, 69)] and not upper.failures
        assert fib.cells == [(11, 7), (31, 9)] and not fib.failures
        assert rot.fit_kind == upper.fit_kind == "power_law_exponent"
        assert rot.fit_value == pytest.approx(1.9354784147979953, rel=1e-12)
        assert upper.fit_value == pytest.approx(1.965927795562465, rel=1e-12)
        assert fib.fit_kind == "logp_squared_constant"
        assert fib.fit_value == pytest.approx(0.9639208861285149, rel=1e-12)
        assert sing.cells == [] and sing.fit_kind is None
        assert [p for p, _ in sing.failures] == [11, 31]

    def test_repeated_eigenvalues_sweep(self):
        # unipotent: root of unity of order 1, a triple eigenvalue
        unipotent = IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        reports = scaling_sweep([unipotent, UPPER], [11, 31], 0.25, method="auto")
        assert [r.method for r in reports] == ["projected", "projected"]
        assert all(len(r.cells) == 2 and not r.failures for r in reports)

    def test_csv_round_trip(self):
        reports = scaling_sweep([FIB], [5, 7], 0.25, method="ub")
        text = sweep_csv(reports, header_comment="affinewalk test")
        rows = readers.sweep_rows(text)
        assert rows == [("[[2,1],[1,1]]", p, n, "ub") for p, n in reports[0].cells]

    def test_determinism(self):
        a = sweep_csv(scaling_sweep([FIB, UPPER], [5, 11], 0.25))
        b = sweep_csv(scaling_sweep([FIB, UPPER], [5, 11], 0.25))
        assert a == b


def test_states_csv_round_trip():
    batch = simulate(CFG5, 7, 40, seed=5)
    text = batch.states_csv(header_comment="affinewalk test")
    back = readers.states(text)
    assert np.array_equal(back, batch.final_states)


def test_block_increments_m4_rotation():
    # order-4 spectrum: pi(X) moves only at multiples of m = 4, with the
    # computed block-increment law
    m, p = 4, 13
    rep = projection_functional(ROT, p)
    cfg = WalkConfig(ROT, p)
    blocks = 25_000
    states = _trajectory_states(cfg, blocks * m, seed=33)
    v = np.array(rep.v.entries, dtype=np.int64)
    proj = states[::m] @ v % p
    diffs = (proj[1:] - proj[:-1]) % p
    freqs = np.bincount(diffs, minlength=p) / (len(proj) - 1)
    support = {r for r, _ in rep.increment_support}
    assert set(np.nonzero(freqs)[0]) <= support
    for r, pr in rep.increment_support:
        se = math.sqrt(pr * (1 - pr) / (len(proj) - 1))
        assert abs(freqs[r] - pr) <= 4 * se


def test_d1_scalar_walk_end_to_end():
    # the scalar case x -> 2x + b mod p also goes through every layer
    from affinewalk.fourier import mixing_time

    T = IntMatrix([[2]])
    cfg = WalkConfig(T, 11)
    assert mixing_time(cfg, 0.25, "exact") >= 1
    batch = simulate(cfg, 40, 20_000, seed=2)
    assert abs(empirical_tv(batch) - tv_from_uniform(evolve(cfg, 40))) < 0.05
