import json
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import oracles
import readers
from affinewalk import exactdist, indexing
from affinewalk.errors import BudgetError, NotMixedError
from affinewalk.exactdist import WalkConfig, delta_at_zero, evolve, step_exact
from affinewalk.fourier import (
    bound_series,
    char_lower_bound,
    contraction_gap,
    default_ell_max,
    first_large_sweep,
    fourier_n,
    mixing_time,
    orbit_analysis,
    orbit_constant_report,
    step_factor,
    transpose_perm,
    ub_bound,
)
from affinewalk.modmath import IntMatrix, ModVector, mat_vec_mod

FIB = IntMatrix([[2, 1], [1, 1]])
UPPER = IntMatrix([[1, 1], [0, 2]])
ROT = IntMatrix([[0, -1], [1, 0]])
CFG5 = WalkConfig(FIB, 5)


class TestStepFactor:
    def test_trivial_character(self):
        assert step_factor(ModVector(5, [0, 0])) == pytest.approx(1.0)

    def test_conjugate_pair_is_real(self):
        got = step_factor(ModVector(5, [1, 4]))
        assert got == pytest.approx((1 + 2 * math.cos(2 * math.pi / 5)) / 3)
        assert abs(got.imag) < 1e-15

    def test_p2(self):
        assert step_factor(ModVector(2, [1, 1])) == pytest.approx(-1 / 3)

    def test_table_matches_scalar(self):
        table = oracles.factor_table(7, 2)
        for idx in range(49):
            c = ModVector(7, oracles.state_of(idx, 7, 2))
            assert table[idx] == pytest.approx(step_factor(c))

    def test_modulus_at_most_one_with_equality_iff_zero(self):
        table = np.abs(oracles.factor_table(7, 2))
        assert table[0] == pytest.approx(1.0)
        assert table.max() <= 1.0 + 1e-15
        assert table[1:].max() < 1.0

    def test_certified_contraction_gap(self):
        # every character with a centered coordinate >= p/8 contracts by
        # at least the certified gap
        p, d, c1 = 101, 2, 0.125
        gap = contraction_gap(d, c1)
        assert gap == pytest.approx((1 - math.cos(2 * math.pi * c1)) / (2 * (d + 1)))
        table = np.abs(oracles.factor_table(p, d))
        coords = indexing.all_coords(p, d)
        centered = np.minimum(coords, p - coords).max(axis=1)
        big = centered >= c1 * p
        assert table[big].max() <= 1 - gap + 1e-12


class TestFourierN:
    def test_n0_is_one(self):
        for idx in range(25):
            c = ModVector(5, oracles.state_of(idx, 5, 2))
            assert fourier_n(c, 0, CFG5) == pytest.approx(1.0)

    def test_n1_is_step_factor(self):
        for idx in range(25):
            c = ModVector(5, oracles.state_of(idx, 5, 2))
            assert fourier_n(c, 1, CFG5) == pytest.approx(step_factor(c))

    @pytest.mark.parametrize("T", [FIB, UPPER, ROT], ids=lambda m: m.tag())
    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_dft_oracle(self, T, p):
        cfg = WalkConfig(T, p)
        P = delta_at_zero(p, 2)
        for n in range(0, 16):
            if n:
                P = step_exact(P, cfg)
            hat = oracles.dft(P)
            for idx in (0, 1, p, p + 1, p * p - 1):
                c = ModVector(p, oracles.state_of(idx, p, 2))
                assert abs(fourier_n(c, n, cfg) - hat[idx]) < 1e-9

    def test_batch_matches_per_character(self):
        cfg = WalkConfig(FIB, 7)
        F = oracles.dft(evolve(cfg, 9))
        for idx in range(49):
            c = ModVector(7, oracles.state_of(idx, 7, 2))
            assert F[idx] == pytest.approx(fourier_n(c, 9, cfg))

    def test_cycle_power_matches_direct_product(self):
        # n large enough to wrap the cycle several times but small enough
        # for a naive product to stay representable
        cfg = WalkConfig(FIB, 7)
        c = ModVector(7, [1, 0])
        Tt = FIB.transpose()
        for n in (60, 97, 200):
            vec = c
            naive = 1.0 + 0.0j
            for _ in range(n):
                naive *= step_factor(vec)
                vec = mat_vec_mod(Tt, vec, 7)
            assert abs(fourier_n(c, n, cfg) - naive) < 1e-12 + 1e-9 * abs(naive)

    def test_no_underflow_at_huge_n(self):
        got = fourier_n(ModVector(7, [1, 0]), 10**6, WalkConfig(FIB, 7))
        assert got == 0.0 or abs(got) < 1e-300

    def test_orbit_multiplicativity(self):
        cfg = WalkConfig(FIB, 7)
        Tt = FIB.transpose()
        for a, b in [(3, 4), (0, 9), (7, 2), (11, 13)]:
            for idx in (1, 8, 30):
                c = ModVector(7, oracles.state_of(idx, 7, 2))
                shifted = c
                for _ in range(b):
                    shifted = mat_vec_mod(Tt, shifted, 7)
                lhs = fourier_n(c, a + b, cfg)
                rhs = fourier_n(shifted, a, cfg) * fourier_n(c, b, cfg)
                assert abs(lhs - rhs) < 1e-12


class TestUpperBound:
    def test_n0_value(self):
        assert ub_bound(0, CFG5) == pytest.approx(0.5 * math.sqrt(24))

    def test_dominates_exact_tv(self):
        P = delta_at_zero(5, 2)
        for n in range(0, 16):
            if n:
                P = step_exact(P, CFG5)
            assert ub_bound(n, CFG5) >= exactdist.tv_from_uniform(P) - 1e-12

    def test_matches_sum_over_fourier_n(self):
        n = 6
        total = sum(
            abs(fourier_n(ModVector(5, oracles.state_of(i, 5, 2)), n, CFG5)) ** 2
            for i in range(1, 25)
        )
        assert ub_bound(n, CFG5) == pytest.approx(0.5 * math.sqrt(total))

    def test_golden_small_at_p101(self):
        # frozen from a converged run: the bound first dips below 0.01
        # at n = 17 for the reference fast-mixing matrix at p = 101
        cfg = WalkConfig(FIB, 101)
        assert ub_bound(17, cfg) < 0.01 < ub_bound(16, cfg)

    def test_character_budget(self):
        with pytest.raises(BudgetError):
            ub_bound(1, WalkConfig(FIB, 101), char_cap=100)


class TestCharLowerBound:
    def test_n0_half(self):
        assert char_lower_bound(0, CFG5, [ModVector(5, [1, 0])]) == pytest.approx(0.5)

    def test_below_exact_tv(self):
        for p in (5, 7):
            cfg = WalkConfig(FIB, p)
            cands = [
                ModVector(p, oracles.state_of(i, p, 2)) for i in range(1, p * p)
            ]
            P = delta_at_zero(p, 2)
            for n in range(0, 12):
                if n:
                    P = step_exact(P, cfg)
                lb = char_lower_bound(n, cfg, cands)
                assert lb <= exactdist.tv_from_uniform(P) + 1e-12

    def test_golden_persistent_direction(self):
        # (1,-1) is fixed by T^t for the eigenvalue-1 matrix, so the bound
        # decays only like ((1 + 2cos(2 pi/p))/3)^n; frozen at n = p = 101
        cfg = WalkConfig(UPPER, 101)
        lb = char_lower_bound(101, cfg, [ModVector(101, [1, -1])])
        f = (1 + 2 * math.cos(2 * math.pi / 101)) / 3
        assert lb == pytest.approx(f**101 / 2)
        assert lb == pytest.approx(0.4389011636384574, abs=1e-12)
        assert lb > 0.4

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            char_lower_bound(1, CFG5, [])
        with pytest.raises(ValueError):
            char_lower_bound(1, CFG5, [ModVector(5, [0, 0])])


class TestOrbitAnalysis:
    def test_fibonacci_orbit_golden(self):
        cfg = WalkConfig(FIB, 101)
        rec = orbit_analysis(ModVector(101, [1, 0]), cfg, c1=1 / 8)
        prefix = [v.entries for v in rec.orbit[:4]]
        assert prefix == [(1, 0), (2, 1), (5, 3), (13, 8)]
        assert rec.first_large_ell == 3  # 13 >= 101/8
        assert rec.max_centered_magnitudes[:4] == (1, 2, 5, 13)

    def test_already_large_gives_zero(self):
        cfg = WalkConfig(FIB, 101)
        rec = orbit_analysis(ModVector(101, [50, 0]), cfg, c1=1 / 8)
        assert rec.first_large_ell == 0

    def test_purely_periodic_exhaustive_p7(self):
        cfg = WalkConfig(FIB, 7)
        for idx in range(1, 49):
            c = ModVector(7, oracles.state_of(idx, 7, 2))
            rec = orbit_analysis(c, cfg, ell_max=60)
            assert rec.cycle_start == 0  # invertible T^t: no pre-period
            assert rec.cycle_length is not None
            # successive entries really are T^t images
            Tt = FIB.transpose()
            for a, b in zip(rec.orbit, rec.orbit[1:]):
                assert mat_vec_mod(Tt, a, 7).entries == b.entries

    def test_threshold_never_reached_is_reported(self):
        # tiny p with c1 = 1/2: only centered magnitude >= 3.5 counts,
        # impossible for p = 7 whose centered entries stay <= 3
        cfg = WalkConfig(FIB, 7)
        rec = orbit_analysis(ModVector(7, [1, 0]), cfg, c1=0.5, ell_max=60)
        assert rec.first_large_ell is None

    def test_character_of_another_dimension_refused(self):
        # orbit_analysis and fourier_n share one check
        cfg = WalkConfig(FIB, 11)
        for call in (orbit_analysis, lambda c, cfg: fourier_n(c, 3, cfg)):
            with pytest.raises(ValueError, match="character does not match config"):
                call(ModVector(11, [1]), cfg)

    def test_json_round_trip(self):
        cfg = WalkConfig(FIB, 101)
        rec = orbit_analysis(ModVector(101, [1, 0]), cfg)
        back = readers.orbit_record(json.loads(json.dumps(rec.to_dict())))
        assert back == rec


class TestFirstLargeSweep:
    def test_matches_orbit_analysis(self):
        cfg = WalkConfig(FIB, 101)
        firsts = first_large_sweep(cfg, c1=1 / 8)
        for idx in (1, 2, 57, 1000, 10200):
            c = ModVector(101, oracles.state_of(idx, 101, 2))
            rec = orbit_analysis(c, cfg, c1=1 / 8)
            assert rec.first_large_ell == firsts[idx - 1]

    @pytest.mark.parametrize("c1", [0.0, -0.1, 0.7, float("nan")])
    def test_threshold_outside_half_interval_refused(self, c1):
        # every orbit function shares the c1 in (0, 1/2] check
        cfg = WalkConfig(FIB, 101)
        with pytest.raises(ValueError, match="c1"):
            first_large_sweep(cfg, c1=c1)
        with pytest.raises(ValueError, match="c1"):
            orbit_constant_report(cfg, c1=c1, sample=10)
        with pytest.raises(ValueError, match="c1"):
            orbit_analysis(ModVector(101, [1, 0]), cfg, c1=c1)
        with pytest.raises(ValueError, match="c1"):
            contraction_gap(2, c1)

    def test_constant_report(self):
        rep = orbit_constant_report(WalkConfig(FIB, 101), c1=1 / 8)
        assert rep["characters"] == 10200
        assert rep["not_reached"] == 0
        assert rep["max_first_large_ell"] <= default_ell_max(101)
        assert rep["c2_fit"] == pytest.approx(rep["max_first_large_ell"] / math.log(101))


class TestMixingTime:
    def test_exact_golden_p5(self):
        # frozen from the dense-evolution oracle
        assert mixing_time(CFG5, 0.25, "exact") == 3

    def test_ub_dominates_exact(self):
        n_ub = mixing_time(CFG5, 0.25, "ub")
        assert n_ub == 4
        assert n_ub >= mixing_time(CFG5, 0.25, "exact")

    def test_trivial_epsilon(self):
        # TV(P_0, U) = 24/25, compared exactly: the float 0.96 lies just
        # below it (TV_1 = 22/25 is the first at or below), the next float
        # above it
        assert Fraction(0.96) < Fraction(24, 25) < Fraction(math.nextafter(0.96, 1))
        assert mixing_time(CFG5, 0.96, "exact") == 1
        assert mixing_time(CFG5, 0.96, "ub") > 0
        eps = math.nextafter(0.96, 1)
        assert mixing_time(CFG5, eps, "exact") == 0
        assert mixing_time(CFG5, eps, "ub") == 0

    def test_n0_rule_compares_exactly(self):
        # TV_0 = 8/9 lies above the float 8/9, so n = 0 is not the answer
        cfg, eps = WalkConfig(IntMatrix([[2]]), 9), 0.8888888888888888
        assert Fraction(eps) < Fraction(8, 9)
        assert mixing_time(cfg, eps, "exact") == oracles.exact_mixing_time(cfg, eps) == 1
        assert mixing_time(cfg, eps, "ub") > 0

    # TV_n equals eps exactly at the answer; a float TV read it one ulp above
    @pytest.mark.parametrize("T,p,eps,n_mix", [
        ([[-3]], 20, 0.125, 7),
        ([[1]], 20, 0.75, 4),
        ([[1, 1], [0, 1]], 10, 0.75, 4),
    ], ids=["neg3-p20", "one-p20", "unipotent-p10"])
    def test_exact_tie_is_mixed(self, T, p, eps, n_mix):
        cfg = WalkConfig(IntMatrix(T), p)
        counts = list(islice(oracles.exact_counts(cfg), n_mix + 1))
        assert oracles.exact_tv(counts[n_mix], (cfg.d + 1) ** n_mix) == Fraction(eps)
        assert exactdist.tv_from_uniform(evolve(cfg, n_mix)) == Fraction(eps)
        assert mixing_time(cfg, eps, "exact") == oracles.exact_mixing_time(cfg, eps) == n_mix

    def test_cap_raises(self):
        with pytest.raises(NotMixedError):
            mixing_time(WalkConfig(UPPER, 101), 0.01, "exact", n_cap=5)

    def test_methods_reject_junk(self):
        with pytest.raises(ValueError):
            mixing_time(CFG5, 0.25, "fastest")
        with pytest.raises(ValueError):
            mixing_time(CFG5, 1.5, "exact")

    def test_unknown_method_refused_where_n_is_zero(self):
        # eps >= 1 - 1/p^d answers 0 for a known method, never for another
        cfg = WalkConfig(FIB, 2)
        assert mixing_time(cfg, 0.8, "ub") == 0
        for eps in (0.5, 0.8):
            with pytest.raises(ValueError, match="unknown method 'nope'"):
                mixing_time(cfg, eps, method="nope")


class TestBoundSeries:
    def test_sandwich_rows(self):
        series = bound_series(CFG5, range(0, 16))
        assert series.tv_exact is not None
        for i in range(len(series.n)):
            assert series.lb[i] - 1e-12 <= series.tv_exact[i] <= series.ub[i] + 1e-12

    def test_csv_round_trip(self):
        series = bound_series(CFG5, range(0, 8))
        text = series.to_csv(header_comment="affinewalk test run")
        back = readers.bound_series(text)
        assert back.n == series.n
        assert back.ub == series.ub  # repr() round-trips doubles exactly
        assert back.lb == series.lb
        assert back.tv_exact == series.tv_exact

    def test_exact_column_optional(self):
        series = bound_series(CFG5, [0, 3], include_exact=False)
        assert series.tv_exact is None
        text = series.to_csv()
        assert "tv_exact" not in text

    def test_empty_range(self):
        series = bound_series(CFG5, [])
        assert series.n == []
        assert series.to_csv().strip() == "n,ub,lb,tv_exact"


def test_transpose_perm_definition():
    # the characters with c_1 <= 2, each sent to T^t c, or to -T^t c when
    # the top coordinate of T^t c is above 2
    cfg = WalkConfig(UPPER, 5)
    perm = transpose_perm(cfg)
    assert perm.shape == (15,)
    Tt = UPPER.transpose()
    for idx in range(15):
        c = ModVector(5, oracles.state_of(idx, 5, 2))
        image = mat_vec_mod(Tt, c, 5).entries
        if image[1] > 2:
            image = [-x for x in image]
        assert perm[idx] == oracles.index_of(image, 5)
