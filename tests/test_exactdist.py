from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from affinewalk import indexing
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
