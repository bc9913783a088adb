"""Memory budgets of the exact engines, in bytes per state, and of
`simulate`, in bytes per sample-step of one chunk.

tracemalloc sees every numpy buffer, so each traced peak is held to a
per-state budget plus a constant slack for Python objects and numpy's
ufunc buffers. The budgets: the squared-modulus walk behind ub and lb
steps only the characters with c_{d-1} <= p//2, about half of them, and
holds |f|^2, the folded transpose map and the old and new |P_hat|^2
(about 4 B per state each, 24 B budgeted). Building the two tables
peaks near 13 B (16 B budgeted): step_factor_table holds |f|^2 and its
complex temporary (12 B), then transpose_perm holds the folded map, the
image coordinate and the flip mask next to |f|^2 (12.5 B). The dense
walk holds the state (8 B: int64 counts), the gather permutation (4 B:
int32, since p^d <= 2^31) and the new state (8 B) from its first dense
step on: in one pass over blocks of rows, the step gathers a block,
widening that block of the table into a temporary of at most 1/8 of its
range (so at most 1 B per state in all) before np.take reads it, then
adds the block's shifted copies into it in place through the same
temporary and one row buffer per range, the row below the block.
Measured: 21.3-21.6 B serial and 21.4-21.9 B on three ranges (22 B
budgeted).
Before the first dense step the walk holds P_n by its support, at most
p^d / 64 states, and no table. Both WALKS cross that switch
(test_walks_cross_the_switch). The first dense step builds the gather
table before it expands the support-held law to its dense vector.
Building the table (indexing.linear_perm, nothing folded, int32) holds
the map and one image coordinate (4 B each) and a numpy buffer per
range for the in-place broadcast add: 8.5-8.6 B measured (9 B
budgeted), under the step's 20 B. TV to uniform holds no vector over
every state: it reads the counts in blocks through one buffer of at
most exactdist.BLOCK_STATES entries, so its budget is that buffer, on a
dense law and on a law held by its support alike, and the mass check
holds nothing (test_tv_peak). bound_series runs one engine at a time, so its peak is
the larger of the two. After each call returns, traced memory is back
to its level before the call: no index table outlives its walk. Each
budget holds with the tables and walk steps run on the calling thread
and split into uneven ranges on three threads (`indexing.split_rows`),
which allocates nothing of its own.

The slack is a constant, not a share of p^d. Its largest part is the
buffers numpy's ufunc machinery may allocate for an add over a strided
view of 2-D or more: three buffers of up to 8192 float64 (192 KiB) per
add, each no larger than the view. At d = 2 every add of the dense step
runs on 1-D views and takes none; at d >= 3 the middle-axis slabs of a
block are 2-D or more, and at d = 3 only the wrap-around one takes
buffers, 8 KiB for a block of six rows at p = 47.

simulate holds one chunk's uint8 step stream (1 B per step of each of
its min(samples, RNG_CHUNK) walks), the batch (8 d B per walk), the
temporaries of one tile, a fixed size (a uint8 code, an intp index and
d int64 table entries per table read), and, per step, the powers of T
mod p and the increment table. That table holds 8 d (d+1)^g / g B per
step: under 0.2 B per sample-step of a full chunk at d <= 2, and with
fewer than 256 walks no more codes per group than walks, so 72 B per
step for 10 walks at d = 2. The budget is 1.5 B per sample-step of one
chunk, 16 d B per walk, 128 d^2 B per step and the tile's temporaries,
plus the slack. empirical_tv counts RNG_CHUNK walks at a time into one
int64 histogram, so it holds nothing per walk: the histogram (8 B per
state), the TV's block buffer (at most 8 B per state), and per chunk
the encoded indices (8 B per walk of the chunk), 16 B per state and
16 RNG_CHUNK B budgeted.
"""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from affinewalk import cli, exactdist, montecarlo
from affinewalk.exactdist import WalkConfig, evolve
from affinewalk.fourier import (
    bound_series,
    mixing_time,
    step_factor_table,
    transpose_perm,
    ub_bound,
)
from affinewalk.exactdist import DenseDistribution
from affinewalk.modmath import IntMatrix

SLACK = 128 * 1024
WALKS = [
    WalkConfig(IntMatrix([[2, 1], [1, 1]]), 317),  # 100489 states
    WalkConfig(IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 3]]), 47),  # 103823 states
]
NS = range(12)
# call -> (peak budget in bytes per state, the call)
CALLS = {
    "bound_series_exact": (22, lambda cfg: bound_series(cfg, NS, include_exact=True)),
    "bound_series_no_exact": (24, lambda cfg: bound_series(cfg, NS, include_exact=False)),
    "mixing_time_exact": (22, lambda cfg: mixing_time(cfg, 0.25, method="exact")),
    "evolve": (22, lambda cfg: evolve(cfg, max(NS))),
    "mixing_time_ub": (24, lambda cfg: mixing_time(cfg, 0.25, method="ub")),
    "ub_bound": (24, lambda cfg: ub_bound(max(NS), cfg)),
    "tables": (16, lambda cfg: (step_factor_table(cfg.p, cfg.d), transpose_perm(cfg))),
    "gather_table": (9, lambda cfg: exactdist._gather_index.__wrapped__(cfg.T, cfg.p)),
}


@pytest.fixture
def traced():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg", WALKS, ids=["d2-p317", "d3-p47"])
def test_walks_cross_the_switch(cfg):
    # several steps on the support, then dense steps within the NS range
    held = [P.support is not None for P in islice(exactdist.dense_states(cfg), max(NS) + 1)]
    assert held[:4] == [True] * 4 and not held[-1]


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("cfg", WALKS, ids=["d2-p317", "d3-p47"])
def test_peak_and_residue(traced, cfg, name):
    per_state, call = CALLS[name]
    exactdist._gather_index.cache_clear()  # start cold, as a fresh process does
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call(cfg)
    after, peak = tracemalloc.get_traced_memory()
    assert peak - before <= per_state * cfg.num_states + SLACK
    assert after - before <= SLACK


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("cfg", WALKS, ids=["d2-p317", "d3-p47"])
def test_peak_and_residue_split(traced, forced_split, cfg, name):
    # the split allocates nothing of its own, and no worker keeps an array
    # alive after its walk
    test_peak_and_residue(traced, cfg, name)


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_bounds_exact_leaves_nothing(traced, tmp_path, request, split):
    if split:
        request.getfixturevalue("forced_split")
    argv = ["bounds", "--matrix", "[[0,0,1],[1,0,-1],[0,1,3]]", "--p", "47",
            "--n-min", "0", "--n-max", "11", "--exact", "-o", str(tmp_path / "b.csv")]
    assert cli.main(argv) == 0  # the first run imports what the command needs
    before = tracemalloc.get_traced_memory()[0]
    assert cli.main(argv) == 0
    assert tracemalloc.get_traced_memory()[0] - before <= SLACK


@pytest.mark.parametrize("n", [3 * exactdist.BLOCK_STATES + 5, 24 * exactdist.BLOCK_STATES + 3])
def test_tv_peak(traced, n):
    # the same constant at both sizes: no term per state, and none per
    # support state
    v = np.full(n, 1.0 / n)
    counts = np.full(n, 3, dtype=np.int64)
    states = np.arange(0, n, n // 1000)
    held = DenseDistribution(n, 1, support=(states, np.full(states.shape[0], 7)), scale=7 * states.shape[0])
    dense = DenseDistribution(n, 1, counts, scale=3 * n)
    for call in (lambda: exactdist.tv_vector(v), lambda: exactdist.tv_from_uniform(held),
                 lambda: exactdist.tv_from_uniform(dense), dense.check_mass):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        after, peak = tracemalloc.get_traced_memory()
        assert peak - before <= 8 * exactdist.BLOCK_STATES + SLACK
        assert after - before <= SLACK


@pytest.mark.parametrize("samples", [20_000, 300_000])
def test_empirical_tv_peak(traced, samples):
    cfg = WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101)
    batch = montecarlo.simulate(cfg, 12, samples, seed=1)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    montecarlo.empirical_tv(batch)
    after, peak = tracemalloc.get_traced_memory()
    tv_buffer = 8 * min(cfg.num_states, exactdist.BLOCK_STATES)
    assert peak - before <= 8 * cfg.num_states + tv_buffer + 16 * montecarlo.RNG_CHUNK + SLACK
    assert after - before <= SLACK


SIMULATIONS = [  # (walk, n, samples)
    (WalkConfig(IntMatrix([[2, 1], [1, 1]]), 2**31 - 1), 20_000, 4096),  # a long walk
    (WalkConfig(IntMatrix([[2, 1], [1, 1]]), 2**31 - 1), 2000, 40_000),  # a wide batch
    (WalkConfig(IntMatrix([[-7]]), 3_037_000_500), 3000, 9000),  # the d = 1 int64 edge
    (WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101), 100_000, 10),  # a long walk of few walks
]


@pytest.mark.parametrize("cfg,n,samples", SIMULATIONS, ids=["long", "wide", "d1-edge", "few"])
def test_simulate_peak_and_residue(traced, cfg, n, samples):
    montecarlo.simulate(cfg, 1, 1, seed=0)  # numpy imports np.random on first use
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    batch = montecarlo.simulate(cfg, n, samples, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    del batch
    after = tracemalloc.get_traced_memory()[0]
    tile = (1 + 8 + 8 * cfg.d) * montecarlo._TILE_READS
    chunk_steps = min(samples, montecarlo.RNG_CHUNK) * n
    per_step = 128 * cfg.d**2 * n
    assert peak - before <= 1.5 * chunk_steps + 16 * cfg.d * samples + per_step + tile + SLACK
    assert after - before <= SLACK
