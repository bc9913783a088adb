"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with -s to see them live)."""

import math
import time
from itertools import product

import numpy as np

import oracles
from affinewalk import exactdist, fourier, indexing, montecarlo, spectral
from affinewalk.exactdist import WalkConfig, delta_at_zero, step_exact
from affinewalk.modmath import IntMatrix, ModVector, mat_pow_exact
from affinewalk.spectral import Classification

FIB = IntMatrix([[2, 1], [1, 1]])
UPPER = IntMatrix([[1, 1], [0, 2]])
ROT = IntMatrix([[0, -1], [1, 0]])
GRID_MATRICES = [FIB, UPPER, ROT]
GRID_PS = [5, 7]
GRID_N = range(0, 16)


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_product_formula_equals_dft():
    t0 = time.perf_counter()
    worst = 0.0
    for T, p in product(GRID_MATRICES, GRID_PS):
        cfg = WalkConfig(T, p)
        chars = [ModVector(p, oracles.state_of(i, p, 2)) for i in range(p * p)]
        P = delta_at_zero(p, 2)
        for n in GRID_N:
            if n:
                P = step_exact(P, cfg)
            hat = oracles.dft(P)
            for i, c in enumerate(chars):
                worst = max(worst, abs(fourier.fourier_n(c, n, cfg) - hat[i]))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(
        "criterion 1 (product formula vs dense DFT)",
        f"max deviation {worst:.3e} <= 1e-9 over the full grid, {elapsed:.2f}s",
    )


def test_criterion_2_bound_sandwich():
    t0 = time.perf_counter()
    checked = 0
    for T, p in product(GRID_MATRICES, GRID_PS):
        cfg = WalkConfig(T, p)
        cands = [ModVector(p, oracles.state_of(i, p, 2)) for i in range(1, p * p)]
        P = delta_at_zero(p, 2)
        for n in GRID_N:
            if n:
                P = step_exact(P, cfg)
            tv = exactdist.tv_from_uniform(P)
            lb = fourier.char_lower_bound(n, cfg, cands)
            ub = fourier.ub_bound(n, cfg)
            assert lb - 1e-12 <= tv <= ub + 1e-12, (T.tag(), p, n, lb, tv, ub)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "criterion 2 (lower bound <= exact TV <= upper bound)",
        f"{checked} grid points, {elapsed:.2f}s",
    )


def test_criterion_3_fast_mixing_trend():
    t0 = time.perf_counter()
    ps = [11, 31, 101, 211, 401]
    n_mix = [fourier.mixing_time(WalkConfig(FIB, p), 0.25, "ub") for p in ps]
    ratios = [n / math.log(p) ** 2 for p, n in zip(ps, n_mix)]
    assert all(a <= b for a, b in zip(n_mix, n_mix[1:])), n_mix
    assert all(r <= 2 * ratios[0] for r in ratios), ratios
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        "criterion 3 (n >= C (log p)^2 trend)",
        f"n_mix={n_mix} nondecreasing; n/(ln p)^2={['%.3f' % r for r in ratios]} "
        f"all <= 2x first, {elapsed:.2f}s",
    )


def test_criterion_4_slow_mixing():
    t0 = time.perf_counter()
    p = 101
    report = montecarlo.projection_functional(UPPER, p)
    dist = montecarlo.projected_walk_dist(report, WalkConfig(UPPER, p), p)
    tv_proj = exactdist.tv_vector(dist)
    assert tv_proj >= 0.5, tv_proj

    n_long = math.ceil(p**1.5)  # 1016
    cands = [ModVector(p, (k, -k)) for k in range(1, p)]  # the (1,-1) line
    lb = fourier.char_lower_bound(n_long, WalkConfig(UPPER, p), cands)
    assert lb >= 0.1, lb
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        "criterion 4 (root-of-unity slow mixing)",
        f"projected TV after n=p steps {tv_proj:.4f} >= 0.5; character lower "
        f"bound at n={n_long} is {lb:.4f} >= 0.1, {elapsed:.2f}s",
    )


def test_criterion_5_jordan_block_powers():
    # J^ell has a^ell on the diagonal and C(ell, k) a^(ell - k) on the k-th
    # superdiagonal (0 when k > ell); integer blocks make the check exact
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    eigs = [2, -2, 1, -1, 0, 3]
    for _ in range(200):
        a = eigs[rng.integers(0, len(eigs))]
        size = int(rng.integers(1, 5))
        ell = int(rng.integers(0, 65))
        J = IntMatrix([[a if j == i else int(j == i + 1) for j in range(size)]
                       for i in range(size)])
        expected = [[math.comb(ell, j - i) * a ** (ell - (j - i)) if i <= j <= i + ell else 0
                     for j in range(size)] for i in range(size)]
        assert mat_pow_exact(J, ell).to_lists() == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        "criterion 5 (Jordan power formula vs exact iterated multiplication)",
        f"200 random integer blocks equal, {elapsed:.2f}s",
    )


def test_criterion_6_orbit_growth():
    t0 = time.perf_counter()
    c1 = 1 / 8

    cfg101 = WalkConfig(FIB, 101)
    firsts = fourier.first_large_sweep(cfg101, c1=c1)
    bound101 = 4 * math.log2(101)
    assert firsts.shape[0] == 10200
    assert (firsts >= 0).all()
    assert firsts.max() <= bound101

    cfg499 = WalkConfig(FIB, 499)
    rng = np.random.default_rng(20260810)
    idx = rng.integers(1, 499 * 499, size=10_000)
    cs = indexing.decode(idx, 499, 2)
    firsts499 = fourier.first_large_sweep(cfg499, c1=c1, cs=cs)
    bound499 = 4 * math.log2(499)
    assert (firsts499 >= 0).all()
    assert firsts499.max() <= bound499
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        "criterion 6 (coordinate pushed to size >= p/8 quickly)",
        f"p=101 exhaustive max l={firsts.max()} <= {bound101:.1f}; "
        f"p=499 sampled max l={firsts499.max()} <= {bound499:.1f}, {elapsed:.2f}s",
    )


def test_criterion_7_classification():
    salem = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    expected = [
        (FIB, Classification.ALL_OFF_UNIT_CIRCLE, None, 0),
        (UPPER, Classification.ROOT_OF_UNITY, 1, 1),
        (ROT, Classification.ROOT_OF_UNITY, 4, 2),
        (salem, Classification.UNIT_MODULUS_NON_CYCLOTOMIC, None, 2),
    ]
    for T, tag, m, on_circle in expected:
        rep = spectral.classify(T)
        assert rep.classification == tag, T.tag()
        assert rep.root_of_unity_order == m
        assert oracles.circle_roots(rep.charpoly.coeffs)[0] == on_circle
    _report(
        "criterion 7 (spectrum classification)",
        "reference matrices classify off-circle / order-1 / order-4 / "
        "unit-modulus non-cyclotomic, matching a 50-digit count of the "
        "roots on the circle",
    )


def test_criterion_8_monotone_tv_and_mass():
    worst_defect = 0.0
    for T, p in product(GRID_MATRICES, GRID_PS):
        cfg = WalkConfig(T, p)
        P = delta_at_zero(p, 2)
        prev = exactdist.tv_from_uniform(P)
        for n in GRID_N:
            if n == 0:
                continue
            P = step_exact(P, cfg)
            cur = exactdist.tv_from_uniform(P)
            assert cur <= prev + 1e-12, (T.tag(), p, n)
            prev = cur
            worst_defect = max(worst_defect, P.mass_defect())
    assert worst_defect <= 1e-12
    _report(
        "criterion 8 (TV monotone, mass conserved)",
        f"monotone on the full grid; worst mass defect {worst_defect:.2e} <= 1e-12",
    )


def test_criterion_9_reproducibility():
    cfg = WalkConfig(FIB, 5)
    b1 = montecarlo.simulate(cfg, 20, 5000, seed=12345)
    b2 = montecarlo.simulate(cfg, 20, 5000, seed=12345)
    assert b1.states_csv().encode() == b2.states_csv().encode()

    s1 = montecarlo.sweep_csv(montecarlo.scaling_sweep([FIB, UPPER], [5, 11], 0.25))
    s2 = montecarlo.sweep_csv(montecarlo.scaling_sweep([FIB, UPPER], [5, 11], 0.25))
    assert s1.encode() == s2.encode()

    cfg101 = WalkConfig(FIB, 101)
    assert fourier.ub_bound(10, cfg101) == fourier.ub_bound(10, cfg101)
    _report(
        "criterion 9 (reproducibility)",
        "simulate, sweep and ub_bound identical across reruns",
    )
