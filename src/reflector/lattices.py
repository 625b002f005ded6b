"""Even lattices presented by integer Gram matrices.

A lattice here is Z^n equipped with the symmetric bilinear form of a Gram
matrix; "even" means every diagonal norm is even.  A `Lattice` is an
immutable value: its Gram is a tuple of integer tuples and its name is fixed
at construction, so equal Grams and names make equal (and hashable)
lattices.  The signature, the integer adjugate det(G) G^-1 and the level
(the smallest N for which N times the dual form is even) are each computed
once, on first use.  The dual data stays in integers: the level and the
rescaled dual are read off the adjugate and the determinant.

`direct_sum` puts any number of lattices into one block-diagonal Gram and
keeps them as the sum's `parts`, which equality and hashing ignore.  A sum
reads its invariants off its parts instead of eliminating on the whole Gram:
det = prod det_i, adj = (+) (det / det_i) adj_i, the signatures add and the
level is the lcm of the levels.  Every other lattice takes its determinant
from Bareiss elimination at construction, which is also its degeneracy
check; for a sum, the product of nonzero determinants is that check.

What the other modules compute on a lattice, such as its root data or its
discriminant form, is kept on it through one decorator, `kept`: fn(L, *args)
is built on the first call and kept in L's one `memo` under the key
(fn, *args).  No key holds its lattice, and no value the library keeps
does, so no memo refers back to its lattice, which its reference count
alone frees.  A `Catalog` keeps what it builds in a `memo` of its own,
through the same decorator.
"""

from __future__ import annotations

from functools import cached_property, wraps
from math import gcd, lcm, prod

from . import intmat

_MISSING = object()


def kept(fn):
    """fn(owner, *args), built on the first call and kept in owner.memo under the key
    (fn, *args), which never holds the owner; a build that raises keeps nothing.

    The value is shared by every later call, so its readers must not change it.
    Owners are lattices and catalogs, kept per object and not by equality, as
    `Lattice` equality ignores the parts.
    """

    @wraps(fn)
    def cached(owner, *args):
        memo, key = owner.memo, (fn, *args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(owner, *args)
        return value

    return cached


class Lattice:
    """An immutable even lattice: equality and hashing read (gram, name), never parts."""

    def __init__(self, gram, name: str | None = None, parts: tuple[Lattice, ...] = ()):
        vars(self).update(gram=gram, name=name, parts=parts)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Lattice")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Lattice")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gram, self.name) == (other.gram, other.name)

    def __hash__(self):
        return hash((self.gram, self.name))

    def __repr__(self):
        return f"Lattice(gram={self.gram!r}, name={self.name!r})"

    def __post_init__(self) -> None:
        """Check and normalise the Gram; every build looks it up on the class, so a
        wrapper set there counts builds."""
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
        if self.parts:
            if gram != _block_diagonal([part.gram for part in self.parts]):
                raise ValueError("Gram matrix is not the sum of the parts")
            det = prod(part.det() for part in self.parts)
        else:
            det = intmat.determinant(gram)
        if n and det == 0:
            raise ValueError("Gram matrix is degenerate")
        vars(self).update(gram=gram, _det=det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return self._det

    @cached_property
    def _inertia(self) -> tuple[int, int]:
        if self.parts:
            inertias = [part.signature() for part in self.parts]
            return sum(pos for pos, _ in inertias), sum(neg for _, neg in inertias)
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
        if self.parts:
            return _block_diagonal(
                [intmat.scalar_mul(self._det // part.det(), part.adjugate()) for part in self.parts]
            )
        return tuple(map(tuple, intmat.adjugate(self.gram)[0]))

    def adjugate(self) -> tuple[tuple[int, ...], ...]:
        """The integer matrix det(G) G^-1."""
        return self._adjugate

    @cached_property
    def memo(self) -> dict:
        """What `kept` functions have built on this lattice, by (function, *args)."""
        return {}

    @cached_property
    def _level(self) -> int:
        if self.parts:
            return lcm(*(part.level() for part in self.parts))
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


def _block_diagonal(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, intmat.block_diagonal(blocks)))


def direct_sum(parts: list[Lattice], name: str | None = None) -> Lattice:
    """The orthogonal sum of the parts, keeping them as its `parts`.

    A single part is returned as is when it already bears the name (or no
    name is asked for); otherwise it is rebuilt under the name.
    """
    if not parts:
        raise ValueError("empty direct sum")
    if len(parts) == 1 and name in (None, parts[0].name):
        return parts[0]
    return Lattice(_block_diagonal([part.gram for part in parts]), name=name, parts=tuple(parts))
