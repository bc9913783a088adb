"""Exact integer and modular linear algebra.

Everything here is arbitrary-precision Python integer arithmetic; no
floating point enters this module. Matrices are small and dense (the
walk dimension d, typically 2..5), so O(d^3) algorithms are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of exact signed integers."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def zero(cls, d: int) -> "IntMatrix":
        return cls(tuple((0,) * d for _ in range(d)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        ot = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(k * x for x in row) for row in self.entries))

    def mod(self, p: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(x % p for x in row) for row in self.entries))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Exact matrix-vector product (column-vector convention)."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def tag(self) -> str:
        """Compact row-major tag, e.g. '[[2,1],[1,1]]'."""
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.entries) + "]"


@dataclass(frozen=True)
class ModVector:
    """Vector of residues, every entry reduced into [0, p)."""

    p: int
    entries: tuple[int, ...]

    def __init__(self, p: int, entries: Iterable[int]):
        p = int(p)
        if p < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", tuple(int(x) % p for x in entries))

    @property
    def d(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


@dataclass(frozen=True)
class CenteredVector:
    """Integer vector with each entry in the half-open window (-p/2, p/2].

    The upper endpoint is kept (not the lower) so even moduli still have a
    unique representative per residue class.
    """

    p: int
    entries: tuple[int, ...]

    def __init__(self, p: int, entries: Iterable[int]):
        p = int(p)
        ents = tuple(int(x) for x in entries)
        for e in ents:
            if not (-p < 2 * e <= p):
                raise ValueError(f"entry {e} outside (-{p}/2, {p}/2]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", ents)

    @property
    def d(self) -> int:
        return len(self.entries)

    def max_abs(self) -> int:
        return max(abs(e) for e in self.entries)


def center(v: ModVector) -> CenteredVector:
    """Map each residue to its representative in (-p/2, p/2]."""
    p = v.p
    ents = tuple(e if 2 * e <= p else e - p for e in v.entries)
    return CenteredVector(p, ents)


def int_det(T: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    d = T.dim
    a = [list(row) for row in T.entries]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                # Bareiss: the division is exact, keeping entries integral
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[d - 1][d - 1]


def is_admissible(T: IntMatrix, p: int) -> bool:
    """True iff det(T) != 0 and gcd(|det T|, p) = 1."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    det = int_det(T)
    return det != 0 and math.gcd(abs(det), p) == 1


def mat_pow_mod(T: IntMatrix, k: int, p: int) -> IntMatrix:
    """T^k with entries reduced mod p; binary exponentiation, reducing at
    every multiply so operands never grow past p^2 * d."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if p < 2:
        raise ValueError("modulus must be >= 2")
    result = IntMatrix.identity(T.dim)
    base = T.mod(p)
    while k:
        if k & 1:
            result = (result @ base).mod(p)
        base = (base @ base).mod(p)
        k >>= 1
    return result


def mat_vec_mod(A: IntMatrix, v: ModVector, p: int | None = None) -> ModVector:
    p = v.p if p is None else p
    return ModVector(p, A.apply(v.entries))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nullspace_mod_prime(A: IntMatrix, p: int) -> list[ModVector]:
    """Basis of {v : A v = 0 mod p} over the field Z/pZ.

    Returns one vector per free column of the RREF, free columns in
    ascending order, each scaled so its first nonzero entry is 1. Empty
    list iff A is invertible mod p. Rejects composite p: elimination
    needs field inverses.
    """
    if not is_prime(p):
        raise PreconditionError(f"nullspace over Z/pZ needs a prime modulus, got {p}")
    d = A.dim
    rows = [[x % p for x in row] for row in A.entries]
    pivot_cols: list[int] = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, d) if rows[i][c] % p != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(d) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [0] * d
        v[f] = 1
        for row_idx, c in enumerate(pivot_cols):
            v[c] = (-rows[row_idx][f]) % p
        first = next(i for i in range(d) if v[i] % p != 0)
        inv = pow(v[first], p - 2, p)
        basis.append(ModVector(p, [(x * inv) % p for x in v]))
    return basis


def rank_mod_prime(A: IntMatrix, p: int) -> int:
    return A.dim - len(nullspace_mod_prime(A, p))


def nullity_rational(A: IntMatrix) -> int:
    """Nullspace dimension over the rationals (exact Fraction elimination)."""
    d = A.dim
    rows = [[Fraction(x) for x in row] for row in A.entries]
    rank = 0
    for c in range(d):
        piv = next((i for i in range(rank, d) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][c] for x in rows[rank]]
        for i in range(d):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return d - rank
