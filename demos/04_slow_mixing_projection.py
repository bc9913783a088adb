#!/usr/bin/env python3
"""Why a root-of-unity eigenvalue stalls the walk.

When T has an eigenvalue of unit order m, (T^m)^t fixes a vector v mod
p, and pi(x) = v . x watched every m steps is a random walk on Z/pZ
whose increment takes at most (d+1)^m values. A bounded-increment walk
needs ~p^2 steps to wrap around Z/pZ, and since projecting can only
shrink total variation, the full chain is at least as slow.
"""

from affinewalk.exactdist import WalkConfig, tv_vector
from affinewalk.modmath import IntMatrix
from affinewalk.montecarlo import (
    projected_mixing_time,
    projected_walk_dist,
    projection_functional,
)

T = IntMatrix([[1, 1], [0, 2]])  # eigenvalues 1 and 2 -> order m = 1
p = 101

report = projection_functional(T, p)
print(f"T = {T.tag()}, p = {p}")
print(f"fixed direction v = {report.v.entries} (i.e. pi(x) = x1 - x2 mod p)")
print(f"block increments (residue: probability): {dict(report.increment_support)}")
print(f"support size u = {report.u} <= (d+1)^m = {(T.dim + 1) ** report.m}\n")

cfg = WalkConfig(T, p)
print(f"{'steps':>6} {'projected TV':>13}")
for blocks in (0, 10, p, 4 * p, 20 * p, 60 * p):
    tv = tv_vector(projected_walk_dist(report, cfg, blocks))
    print(f"{blocks:>6} {tv:>13.4f}")

print("\nafter n = p steps the projection is still far from uniform;")
print("the walk needs on the order of p^2 steps:\n")
print(f"{'p':>5} {'n with proj. TV <= 0.25':>24} {'n/p^2':>8}")
for q in (11, 31, 101):
    n = projected_mixing_time(T, q, 0.25)
    print(f"{q:>5} {n:>24} {n / q**2:>8.4f}")
