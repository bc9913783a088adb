"""Mixed-radix indexing of (Z/pZ)^d.

State (x_0, ..., x_{d-1}) <-> index sum_i x_i * p^i, coordinate 0 least
significant. All dense vectors in the package (distributions, character
tables) use this encoding. Reshaped to the (p,)*d grid in C order,
coordinate r lies on numpy axis d-1-r, so coordinate 0 is the last axis.
"""

from __future__ import annotations

import numpy as np


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


def linear_perm(rows, p: int) -> np.ndarray:
    """Index map x -> M x mod p over all p^d states, M given by its k
    rows of d residues mod p; the image is indexed in (Z/pZ)^k, so one
    row v gives v . x mod p.

    Built by broadcasting length-p columns over the (p,)*d grid, so no
    (p^d, d) coordinate table is formed, and reduced in place, so at most
    two grids (16 bytes per state) are alive at once."""
    d = len(rows[0])
    k = np.arange(p, dtype=np.int64)
    out = None
    for j, row in enumerate(rows):
        y = sum(along(m * k % p, d, r) for r, m in enumerate(row))
        np.remainder(y, p, out=y)
        if out is None:
            out = y
        else:
            y *= p**j
            out += y
        del y
    return out.reshape(-1)


def index_of(state, p: int) -> int:
    """Index of a single state given as a sequence of residues."""
    acc = 0
    for x in reversed(tuple(state)):
        acc = acc * p + int(x) % p
    return acc


def state_of(index: int, p: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)
