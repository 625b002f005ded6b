"""Even lattices presented by integer Gram matrices.

A lattice here is Z^n equipped with the symmetric bilinear form of a Gram
matrix; "even" means every diagonal norm is even.  The class keeps the exact
invariants needed downstream: determinant (from the degeneracy check at
construction), signature, integer adjugate and dual Gram (each computed
once, on first use), level (the smallest N for which N times the dual form
is even), and the rescale/dual constructions used to move between a
lattice, its dual, and their scaled copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import intmat


@dataclass
class Lattice:
    gram: list[list[int]]
    name: str | None = None
    _dual_cache: list[list[Fraction]] | None = field(default=None, repr=False, compare=False)
    _det: int = field(default=0, init=False, repr=False, compare=False)
    _signature: tuple[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _adj: list[list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square")
        self.gram = intmat.int_matrix(self.gram)
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
            if self.gram[i][i] % 2 != 0:
                raise ValueError("lattice is not even: odd diagonal norm")
        self._det = intmat.determinant(self.gram)
        if n and self._det == 0:
            raise ValueError("Gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return self._det

    def signature(self) -> tuple[int, int]:
        if self._signature is None:
            pos, neg, zero = intmat.signature(self.gram)
            assert zero == 0
            self._signature = (pos, neg)
        return self._signature

    def signature_mod8(self) -> int:
        pos, neg = self.signature()
        return (pos - neg) % 8

    def is_positive_definite(self) -> bool:
        pos, neg = self.signature()
        return neg == 0

    def adjugate(self) -> list[list[int]]:
        """The integer matrix det(G) G^-1."""
        if self._adj is None:
            self._adj, _ = intmat.adjugate(self.gram)
        return self._adj

    def dual_gram(self) -> list[list[Fraction]]:
        if self._dual_cache is None:
            self._dual_cache = [[Fraction(x, self._det) for x in row] for row in self.adjugate()]
        return self._dual_cache

    def level(self) -> int:
        """Smallest N such that N times the dual quadratic form is even."""
        inv = self.dual_gram()
        n0 = lcm(*[x.denominator for row in inv for x in row]) if self.rank else 1
        if any((n0 * inv[i][i]).numerator % 2 != 0 for i in range(self.rank)):
            return 2 * n0
        return n0

    def norm(self, v: list[int]) -> int:
        return intmat.vec_dot(v, intmat.mat_vec(self.gram, v))

    def inner(self, u: list[int], v: list[int]) -> int:
        return intmat.vec_dot(u, intmat.mat_vec(self.gram, v))

    def rescaled(self, m: int) -> "Lattice":
        if m <= 0:
            raise ValueError("rescale factor must be positive")
        label = f"{self.name}({m})" if self.name else None
        return Lattice(intmat.scalar_mul(m, self.gram), name=label)

    def dual_rescaled(self, m: int) -> "Lattice":
        """The dual lattice rescaled by m, which must be integral and even."""
        scaled = intmat.scalar_mul(m, self.dual_gram())
        if not intmat.is_integral(scaled):
            raise ValueError(f"dual rescaled by {m} is not integral")
        label = f"{self.name}v({m})" if self.name else None
        return Lattice(intmat.int_matrix(scaled), name=label)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.rank, other.rank
        gram = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                gram[n + i][n + j] = other.gram[i][j]
        return Lattice(gram)

    def __add__(self, other: "Lattice") -> "Lattice":
        return self.direct_sum(other)


def direct_sum(parts: list[Lattice]) -> Lattice:
    if not parts:
        raise ValueError("empty direct sum")
    out = parts[0]
    for part in parts[1:]:
        out = out.direct_sum(part)
    return out
