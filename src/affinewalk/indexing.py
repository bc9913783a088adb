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


def row_ranges(rows: int, row_size: int = 1) -> list[slice]:
    """The contiguous slices that split_rows runs over a table of `rows`
    rows of `row_size` elements, in order: k of them covering
    range(rows), k = min(CPUs, rows * row_size // MIN_PART, rows), at
    least 1. A caller that must prepare something per range before any
    range runs reads them here."""
    k = max(1, min(_cpus(), rows * row_size // MIN_PART, rows))
    ends = [rows * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def split_rows(fn, rows: int, row_size: int = 1) -> None:
    """Call fn(s) once for each slice s of row_ranges(rows, row_size).
    The calling thread takes the first slice and one new thread each of
    the others, all joined before the return; with one slice fn runs on
    the calling thread alone. An exception raised by fn in any slice is
    raised here after the join.

    fn must call numpy only, write only what its own slice owns, and
    allocate no large array: memory a worker thread allocates comes from
    that thread's malloc arena, which keeps it after the thread ends and
    so raises the process's peak RSS. The caller allocates the outputs
    and temporaries, and fn fills its slice of them."""
    first, *rest = row_ranges(rows, row_size)
    errors = []

    def run(s):
        try:
            fn(s)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in rest]
    for t in threads:
        t.start()
    try:
        fn(first)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def slab(p: int, d: int, h: int) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The values of each coordinate r over the states with top coordinate
    x_{d-1} < h, the first h p^(d-1) indices, and the shape of their
    grid, whose numpy axis 0 carries x_{d-1}."""
    k = np.arange(p, dtype=np.int64)
    return [k] * (d - 1) + [k[:h]], (h,) + (p,) * (d - 1)


def index_dtype(p: int, d: int) -> type:
    """int32 when every state index, p^d - 1, and the modulus p fit in it
    (p^d <= 2^31, p < 2^31), else int64: the dtype of the dense gather
    table, decided from (p, d) alone."""
    return np.int32 if p < 2**31 and p**d <= 2**31 else np.int64


def linear_perm(rows, p: int, h: int, dtype: type = np.int64) -> np.ndarray:
    """Index map x -> M x mod p over the states with x_{d-1} < h (`slab`),
    M given by its d rows of residues mod p, as `dtype`, which must hold
    every index and p (`index_dtype`). An image whose top coordinate is
    h or more is replaced by its negative. The dense step's gather table
    is x -> T^{-1} x with h = p, where nothing flips; the character
    walk's is c -> +-T^t c with h = p//2 + 1, where every image or its
    negative lies in the slab.

    Built by broadcasting length-p columns over the slab's grid, so no
    (p^d, d) coordinate table is formed. The map, one image coordinate
    and, when h < p, the flip mask are allocated here, in that order, and
    filled by ranges of rows of numpy axis 0 (`split_rows`), which carries
    x_{d-1}; the terms of the other coordinates are summed once, outside
    the ranges, in `dtype`. Each coordinate of the image is a copy and an
    in-place add, which takes one 64 KiB numpy buffer per range where a
    broadcast np.add takes buffers for both operands: the build peaks at
    the two grids (16 bytes per state of the slab in int64, 8 in int32)
    plus about 80-120 KiB, 16.8 B/state for an int64 table at p = 317,
    d = 2, and 8.6 for the int32 gather table. The top coordinate of the
    image decides the flip, and the lower ones are negated where it
    flipped and added in by Horner's rule, index = sum_j y_j p^j."""
    d = len(rows)
    spans, shape = slab(p, d, h)
    terms = []  # per image coordinate: its x_{d-1} term, the sum of the others
    for row in rows:
        cols = ((m * span % p).astype(dtype, copy=False) for m, span in zip(row, spans))
        *low, top = (along(col, d, r) for r, col in enumerate(cols))
        terms.append((top, sum(low)))
    # allocated in the order measured for peak RSS, which moves with it
    out = np.empty(shape, dtype=dtype)
    y = np.empty(shape, dtype=dtype) if d > 1 else None
    flip = np.empty(shape, dtype=bool) if h < p else None  # images replaced by their negatives

    def fill(s):
        o = out[s]
        top, low = terms[d - 1]
        o[...] = low
        o += top[s]
        np.remainder(o, p, out=o)
        if flip is not None:
            np.greater_equal(o, h, out=flip[s])
            np.subtract(p, o, out=o, where=flip[s])
        for top, low in reversed(terms[: d - 1]):
            t = y[s]
            t[...] = low
            t += top[s]
            np.remainder(t, p, out=t)
            if flip is not None:
                np.negative(t, out=t, where=flip[s])
                np.remainder(t, p, out=t)
            o *= p
            o += t

    split_rows(fill, h, p ** (d - 1))
    return out.reshape(-1)
