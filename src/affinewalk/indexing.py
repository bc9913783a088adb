"""Mixed-radix indexing of (Z/pZ)^d.

State (x_0, ..., x_{d-1}) <-> index sum_i x_i * p^i, coordinate 0 least
significant. All dense vectors in the package (distributions, character
tables) use this encoding. Reshaped to the (p,)*d grid in C order,
coordinate r lies on numpy axis d-1-r, so coordinate 0 is the last axis.

`split_rows` runs elementwise work over contiguous ranges of a table on
the CPUs the process may use (its affinity mask), one short-lived
thread per range; numpy releases the interpreter lock in `take` and in
ufunc loops. Each element goes through the same operations in the same
order whatever the split, so tables and walk steps are bit-identical to
a serial run, and every reduction stays with the caller.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Elements per range at least. Starting and joining a thread took about
# 150 us on a 2-vCPU host, a gather step of 2^17 elements about 500 us:
# two ranges broke even at 2^17 elements and won from 2^18.
MIN_PART = 1 << 17


def num_states(p: int, d: int) -> int:
    return p**d


def encode(coords, p: int) -> np.ndarray:
    """Indices for an (m, d) array of residue coordinates."""
    coords = np.asarray(coords, dtype=np.int64)
    d = coords.shape[-1]
    weights = p ** np.arange(d, dtype=np.int64)
    return coords @ weights


def decode(indices, p: int, d: int) -> np.ndarray:
    """(m, d) residue coordinates for an index array."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty(idx.shape + (d,), dtype=np.int64)
    for i in range(d):
        out[..., i] = idx % p
        idx = idx // p
    return out


def all_coords(p: int, d: int) -> np.ndarray:
    """(p^d, d) table of every state's coordinates, in index order."""
    return decode(np.arange(num_states(p, d), dtype=np.int64), p, d)


def along(v: np.ndarray, d: int, r: int) -> np.ndarray:
    """A length-p vector laid along coordinate r of the (p,)*d grid
    (numpy axis d-1-r), ready to broadcast against the grid."""
    shape = [1] * d
    shape[d - 1 - r] = v.shape[0]
    return v.reshape(shape)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def split_rows(fn, rows: int, row_size: int = 1) -> None:
    """Call fn(s) once for each of k contiguous slices s that cover
    range(rows) in order, for a table of `rows` rows of `row_size`
    elements: k = min(CPUs, rows * row_size // MIN_PART, rows), at least
    1. The calling thread takes the first slice and one new thread each
    of the others, all joined before the return; with k = 1 fn runs on
    the calling thread alone. An exception raised by fn in any slice is
    raised here after the join.

    fn must call numpy only, write only what its own slice owns, and
    allocate no large array: memory a worker thread allocates comes from
    that thread's malloc arena, which keeps it after the thread ends and
    so raises the process's peak RSS. The caller allocates the outputs
    and temporaries, and fn fills its slice of them."""
    k = max(1, min(_cpus(), rows * row_size // MIN_PART, rows))
    ends = [rows * i // k for i in range(k + 1)]
    errors = []

    def run(s):
        try:
            fn(s)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slice(a, b),)) for a, b in zip(ends[1:], ends[2:])]
    for t in threads:
        t.start()
    try:
        fn(slice(0, ends[1]))
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def linear_perm(rows, p: int) -> np.ndarray:
    """Index map x -> M x mod p over all p^d states, M given by its k
    rows of d residues mod p; the image is indexed in (Z/pZ)^k, so one
    row v gives v . x mod p.

    Built by broadcasting length-p columns over the (p,)*d grid, so no
    (p^d, d) coordinate table is formed, and reduced in place, so at most
    two grids (16 bytes per state) are alive at once. Both grids are
    allocated here and filled by ranges of rows of numpy axis 0
    (`split_rows`), which carries coordinate d-1; the terms of the other
    coordinates are summed once, outside the ranges."""
    d = len(rows[0])
    k = np.arange(p, dtype=np.int64)
    terms = []  # per image coordinate: its coordinate-(d-1) term, the sum of the others
    for row in rows:
        *low, top = (along(m * k % p, d, r) for r, m in enumerate(row))
        terms.append((top, sum(low)))
    out = np.empty((p,) * d, dtype=np.int64)
    y = np.empty_like(out) if len(rows) > 1 else None

    def fill(s):
        for j, (top, low) in enumerate(terms):
            t = out[s] if j == 0 else y[s]
            np.add(top[s], low, out=t)
            np.remainder(t, p, out=t)
            if j:
                t *= p**j
                out[s] += t

    split_rows(fill, p, p ** (d - 1))
    return out.reshape(-1)

