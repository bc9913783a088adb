#!/usr/bin/env python3
"""Trajectory sampling where dense evolution is possible (to validate)
and where it is not (the actual use case).

Streams come from the Philox counter-based generator keyed by (seed,
chunk), so a batch is a pure function of its arguments: same config and
seed, same bytes out.
"""

import numpy as np

from affinewalk.exactdist import WalkConfig, evolve, tv_from_uniform
from affinewalk.modmath import IntMatrix
from affinewalk.montecarlo import empirical_tv, simulate

T = IntMatrix([[2, 1], [1, 1]])
cfg = WalkConfig(T, 5)

print("small modulus: compare the plug-in TV estimate against exact TV")
print(f"{'n':>3} {'exact TV':>10} {'empirical (10^5)':>17} {'empirical (10^6)':>17}")
for n in (0, 2, 5, 8, 12):
    exact = float(tv_from_uniform(evolve(cfg, n)))  # an exact Fraction, rounded
    est5 = empirical_tv(simulate(cfg, n, 100_000, seed=1))
    est6 = empirical_tv(simulate(cfg, n, 1_000_000, seed=1))
    print(f"{n:>3} {exact:>10.5f} {est5:>17.5f} {est6:>17.5f}")
print("(the estimator is biased up by ~ sqrt(p^d / samples) once mixed)\n")

b1 = simulate(cfg, 25, 50_000, seed=42)
b2 = simulate(cfg, 25, 50_000, seed=42)
print(f"same seed, same batch: {np.array_equal(b1.final_states, b2.final_states)}")

big = WalkConfig(T, 10_007)  # 10^8 states: far beyond dense evolution
batch = simulate(big, 400, 20_000, seed=3)
frac_distinct = len({tuple(r) for r in batch.final_states.tolist()}) / batch.samples
print(
    f"\nlarge modulus p = {big.p} ({big.num_states} states): simulated "
    f"{batch.samples} walks of length 400; {100 * frac_distinct:.1f}% of "
    "final states are distinct, as expected near uniformity"
)
