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
    """Indices for an (..., d) array of residue coordinates, as a new
    int64 array of the leading shape: Horner's rule over the columns,
    index = (... (x_{d-1} p + x_{d-2}) p + ...) p + x_0, since numpy's
    integer matmul has no BLAS path."""
    coords = np.asarray(coords, dtype=np.int64)
    idx = coords[..., -1].copy()
    for i in range(coords.shape[-1] - 2, -1, -1):
        idx *= p
        idx += coords[..., i]
    return idx


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


def _wrapped(value: int, dtype: type):
    """value as a scalar of the integer dtype, reduced mod 2^bits into
    its range, as the dtype's array arithmetic wraps."""
    bits = np.iinfo(dtype).bits
    value %= 1 << bits
    return dtype(value - (1 << bits) if value >> (bits - 1) else value)


def linear_perm(rows, p: int, h: int, dtype: type = np.int64) -> np.ndarray:
    """Index map x -> M x mod p over the states with x_{d-1} < h (`slab`),
    M given by its d rows of residues mod p, as `dtype`, which must hold
    every index and p (`index_dtype`). An image whose top coordinate is
    h or more is replaced by its negative. The dense step's gather table
    is x -> T^{-1} x with h = p, where nothing flips; the character
    walk's is c -> +-T^t c with h = p//2 + 1, where every image or its
    negative lies in the slab.

    No state goes through a division. Image coordinate i splits into
    L_i, the reduced sum of its terms in x_0 .. x_{d-2} over their
    (p,)*(d-1) grid, and t_i = M_{i,d-1} x_{d-1} mod p over the h values
    of x_{d-1}: y_i = L_i + t_i - p [L_i >= p - t_i]. Both are built once,
    outside the ranges, and with LL = sum_i p^i L_i and TT = sum_i p^i t_i
    the index is LL + TT - sum_i p^(i+1) [L_i >= p - t_i]: one broadcast
    sum, then per coordinate one compare into a bool mask and one masked
    subtract. The compares read residues in the narrowest dtype that
    holds p, where numpy compares more of them per instruction. An image
    flips where that index is h p^(d-1) or more (its top coordinate is at
    least h), and its negative, whose coordinates are p - y_i or 0, has
    index S - index - sum_{i<d-1, y_i=0} p^(i+1), S = p + p^2 + ... + p^d,
    with y_i = 0 exactly where L_i = (-t_i) mod p. At d = 1 the table is
    a x mod p itself.

    Sums along the way can leave the dtype's range: LL + TT reaches about
    2 p^d, and S passes p^d. numpy's integer array arithmetic wraps
    modulo 2^bits, the constants are taken modulo 2^bits (`_wrapped`),
    and every final index lies in the range, so the table is exact.

    The map, one bool mask and, when h < p, the flip mask are allocated
    here, in that order, and filled by ranges of rows x_{d-1}
    (`split_rows`); the L_i and LL, d + 1 arrays over the p^(d-1) lower
    states, and the per-row terms are built before them. So the build
    peaks at the map plus one byte per state of the slab for each mask,
    and numpy's ufunc buffers, 64 KiB per range: traced, 5.1 B/state for
    the int32 gather table at d = 2, p = 997 and d = 3, p = 97 (5.5-5.6
    at about 10^5 states), and 5.1-5.2 per state of the full space for
    the int64 fold (5.8-6.0)."""
    d = len(rows)
    k = np.arange(p, dtype=np.int64)
    tops = [row[-1] * k[:h] % p for row in rows]  # t_i, one per row of x_{d-1}
    if d == 1:
        out = tops[0].astype(dtype)
        if h < p:
            np.subtract(p, out, out=out, where=out >= h)
        return out
    lows = [  # L_i over the lower coordinates, flat in index order
        (sum(along(m * k % p, d - 1, r) for r, m in enumerate(row[:-1])) % p).reshape(-1)
        for row in rows
    ]
    base = sum(p**i * low for i, low in enumerate(lows)).astype(dtype)  # LL
    shift = sum(p**i * t for i, t in enumerate(tops)).astype(dtype)[:, None]  # TT
    # a broadcast compare of uint16s took a quarter of the time of int64s
    small = np.min_scalar_type(p)
    bounds = [(p - t).astype(small)[:, None] for t in tops]  # y_i wraps where L_i >= p - t_i
    zeros = [bound % p for bound in bounds[:-1]]  # y_i = 0 where L_i = -t_i mod p
    lows = [low.astype(small) for low in lows]
    wraps = [_wrapped(p ** (i + 1), dtype) for i in range(d)]
    span = _wrapped(sum(p ** (i + 1) for i in range(d)), dtype)  # S
    q = p ** (d - 1)
    # the map first, then the masks: peak RSS moves with the allocation order
    out = np.empty((h, q), dtype=dtype)
    mask = np.empty((h, q), dtype=bool)
    flip = np.empty((h, q), dtype=bool) if h < p else None  # images replaced by their negatives

    def fill(s):
        o, m = out[s], mask[s]
        # LL + TT as a copy and an in-place add, which take half the ufunc
        # buffers of a broadcast np.add
        o[...] = base
        o += shift[s]
        for low, bound, w in zip(lows, bounds, wraps):
            np.greater_equal(low, bound[s], out=m)
            np.subtract(o, w, out=o, where=m)
        if flip is not None:
            f = flip[s]
            np.greater_equal(o, h * q, out=f)
            np.subtract(span, o, out=o, where=f)
            for low, zero, w in zip(lows, zeros, wraps):
                np.equal(low, zero[s], out=m)
                m &= f
                np.subtract(o, w, out=o, where=m)

    split_rows(fill, h, q)
    return out.reshape(-1)
