"""Even lattices presented by integer Gram matrices.

A lattice here is Z^n equipped with the symmetric bilinear form of a Gram
matrix; "even" means every diagonal norm is even.  A `Lattice` is an
immutable value: its Gram is a tuple of integer tuples and its name is fixed
at construction, so equal Grams and names make equal (and hashable)
lattices.  The determinant comes from the degeneracy check at construction;
the signature, the integer adjugate det(G) G^-1 and the level (the smallest
N for which N times the dual form is even) are each computed once, on first
use.  The dual data stays in integers: the level and the rescaled dual are
read off the adjugate and the determinant, and only `dual_gram` returns
Fractions.  `direct_sum` puts any number of lattices into one block-diagonal
Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import intmat


@dataclass(frozen=True)
class Lattice:
    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square")
        gram = tuple(map(tuple, intmat.int_matrix(self.gram)))
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
            if gram[i][i] % 2 != 0:
                raise ValueError("lattice is not even: odd diagonal norm")
        det = intmat.determinant(gram)
        if n and det == 0:
            raise ValueError("Gram matrix is degenerate")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_det", det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return self._det

    @cached_property
    def _inertia(self) -> tuple[int, int]:
        pos, neg, zero = intmat.signature(self.gram)
        assert zero == 0
        return pos, neg

    def signature(self) -> tuple[int, int]:
        return self._inertia

    def signature_mod8(self) -> int:
        pos, neg = self.signature()
        return (pos - neg) % 8

    def is_positive_definite(self) -> bool:
        pos, neg = self.signature()
        return neg == 0

    @cached_property
    def _adjugate(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, intmat.adjugate(self.gram)[0]))

    def adjugate(self) -> tuple[tuple[int, ...], ...]:
        """The integer matrix det(G) G^-1."""
        return self._adjugate

    def dual_gram(self) -> list[list[Fraction]]:
        return [[Fraction(x, self._det) for x in row] for row in self._adjugate]

    @cached_property
    def _level(self) -> int:
        # the entries adj/det have the common denominator |det| / gcd(det, adj)
        det = self._det
        n0 = abs(det) // gcd(det, *(x for row in self._adjugate for x in row))
        if any(n0 * self._adjugate[i][i] // det % 2 for i in range(self.rank)):
            return 2 * n0
        return n0

    def level(self) -> int:
        """Smallest N such that N times the dual quadratic form is even."""
        return self._level

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
        """The dual lattice rescaled by m, m adj(G) / det(G), which must be integral and even."""
        det = self._det
        if any(m * x % det for row in self._adjugate for x in row):
            raise ValueError(f"dual rescaled by {m} is not integral")
        label = f"{self.name}v({m})" if self.name else None
        return Lattice([[m * x // det for x in row] for row in self._adjugate], name=label)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        return direct_sum([self, other])

    def __add__(self, other: "Lattice") -> "Lattice":
        return direct_sum([self, other])


def direct_sum(parts: list[Lattice]) -> Lattice:
    """The orthogonal sum of the parts as one unnamed lattice; one part is returned as is."""
    if not parts:
        raise ValueError("empty direct sum")
    if len(parts) == 1:
        return parts[0]
    return Lattice(intmat.block_diagonal([part.gram for part in parts]))
