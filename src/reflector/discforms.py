"""Discriminant forms, Milgram signatures, and prime-level genus symbols.

The discriminant form of an even lattice L is the finite abelian group
D = L^dual / L carrying the quadratic form q(x) = (x, x) mod 2Z and the
bilinear form b(x, y) = (x, y) mod Z.  This module computes D from a Gram
matrix through the Smith normal form, evaluates the Gauss sum of q exactly in
a cyclotomic ring to pin its Milgram octant, reads prime-level genus symbols
and the value counts of their forms off closed formulas, and performs the
overlattice constructions (isotropic subgroups, even overlattices) that the
classification needs.

Whether a symbol names an even genus is decided in one place,
`GenusSymbol.why_absent`; the U(p) -> U map on symbols is
`GenusSymbol.transfer`.  The per-genus invariants are cached functions of
ints, a Fraction or a `GenusSymbol`, never of a lattice.  `is_prime` runs
trial division below 2^20 and deterministic Miller-Rabin above, up to
MR_LIMIT.

D(L) and the dual vectors of norm <= 2 (`short_duals`) are kept on the
`Lattice`; D of an orthogonal sum is the direct sum of its parts' forms
(Nikulin 1979, 1.1), so only a lattice that is not a sum runs a Smith form.
The root classes that a glue group must miss are told apart by adding up
the coset minima of the parts, and the long roots of a glue overlattice are
concatenated from the parts' root tables (`roots.dual_roots`), so the dual
of a sum is never enumerated as a whole.  The root system R(M) of the
overlattice M that H glues is read off the generators the search built for H
(`glue_components`), and its isometry class up to O(L) as an orbit of O(L)'s
action on D(L) (`glue_orbits`, `glue_actions`); no overlattice is built.

Every search that can blow up counts the operations it spends and hands
them to `charge`, which raises BudgetExceeded past `BUDGET`.  The value
statistics of a form come from one integer walk over D (`_walk`) that counts
the values x^T bnum x mod 2 den; the norm counts and the Gauss sum are read
off those counts, and the Gauss sum is compared with sqrt(|D|) zeta_8^s
exactly in Z[C_M], M = lcm(8, level), by a CRT reduction along the
prime-power factors of M (Milgram's formula: Milnor and Husemoller,
Symmetric Bilinear Forms, 1973, appendix 4).

Conventions for the plus/minus invariant at odd p: a rank-one block <2a/p>
contributes chi_p(2a) to epsilon and a Milgram octant governed by chi_p(a);
at p = 2 only the even (II-type) rank-two blocks occur at prime level, with
epsilon + for the hyperbolic block and - when one anisotropic block enters.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import gcd, isqrt, lcm, prod
from operator import add, mod, mul
from typing import NamedTuple

from . import intmat, roots
from .lattices import Lattice, kept

BUDGET = 10**6  # the operations any one search may spend, read at each `charge`


class BudgetExceeded(RuntimeError):
    """Raised by `charge` when a search spends more than `BUDGET` operations."""


def charge(spent: int, what: str) -> int:
    """`spent`, the operations a search has spent so far; BudgetExceeded naming the
    search `what` once they pass `BUDGET`.  The one place that reads the budget."""
    if spent > BUDGET:
        raise BudgetExceeded(f"{what}: {spent} operations passed the budget {BUDGET}")
    return spent


class GenusNotRepresentable(ValueError):
    """Raised when no discriminant form matches the requested invariants."""


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for a in range(2, p):
        if legendre(a, p) == -1:
            return a
    raise ValueError(f"{p} has no quadratic nonresidue; is it prime?")


def _factorize(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the first 13 primes; as Miller-Rabin bases they decide every n below MR_LIMIT
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division below 2^20, deterministic Miller-Rabin from there up to
    MR_LIMIT (about 3.317 10^24); ValueError above it, where no finite set of
    bases is proven."""
    if n < 2**20:
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return n >= 2
    if n >= MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: it exceeds {MR_LIMIT}")
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- the exact zero test for cyclotomic integers in the Gauss-sum comparison --


def _crt_layout(m: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Z/m laid out as the row-major product of its prime-power factors.

    Returns pos, with pos[n] the place of n in that layout, and the axes
    (q, q^a, stride) in layout order.
    """
    powers = [(q, q**a) for q, a in sorted(_factorize(m).items())]
    axes = []
    stride = m
    for q, qa in powers:
        stride //= qa
        axes.append((q, qa, stride))
    pos = [sum((n % qa) * st for _, qa, st in axes) for n in range(m)]
    return pos, axes


def _vanishes_at_root(coeffs: list[int], axes: list[tuple[int, int, int]]) -> bool:
    """Whether an element of Z[C_m], in `_crt_layout` order, vanishes at zeta_m.

    By CRT, Z[C_m] is the tensor product of the Z[C_{q^a}], and Z[zeta_m]
    the tensor product of the Z[zeta_{q^a}].  Along each axis the element is
    reduced modulo Phi_{q^a}(y) = sum_t y^(t q^(a-1)): each fibre
    {r + t q^(a-1)} loses its top coefficient (t = q - 1) from all of its
    members, which leaves the coefficients on the basis 1, y, ...,
    y^(phi(q^a) - 1).  The reductions along different axes commute, so the
    element is zero exactly when every reduced coefficient is.
    """
    v = coeffs[:]
    for q, qa, stride in axes:
        seg = qa // q * stride  # one value of t, all r and all later axes
        block = qa * stride
        for base in range(0, len(v), block):
            top = base + (q - 1) * seg
            tv = v[top : top + seg]
            if any(tv):
                for start in range(base, top, seg):
                    v[start : start + seg] = [x - y for x, y in zip(v[start : start + seg], tv)]
                v[top : top + seg] = [0] * seg
    return not any(v)


def _shifted(elem: dict[int, int], shifts, m: int) -> dict[int, int]:
    """The element sum_e c_e y^e of Z[C_m] times sum_s y^s, sparse."""
    out: dict[int, int] = {}
    for e, c in elem.items():
        for sh in shifts:
            k = (e + sh) % m
            out[k] = out.get(k, 0) + c
    return out


def _walk(bnum, box, modulus: int, counts: list[int] | None = None,
          groups: defaultdict[tuple, list] | None = None, minima: dict | None = None) -> None:
    """Adds one to counts[v(x)] for every x of a box, v(x) = x^T A x mod `modulus`,
    A = bnum, in integers; with `groups` and `minima` instead, appends x to
    groups[v(x), minima.get(x)].

    Axis i runs over x_i = 0, s_i, ..., (n_i - 1) s_i, box[i] = (n_i, s_i), in
    `itertools.product` order.  An entry of the explicit stack is an axis with
    the value, the partial linear forms lin[t] = sum_j A_tj x_j of the later
    axes t and the coordinates before it (kept only with `groups`).  Along an
    axis the value is a quadratic, stepped by its first difference, so the
    last axis costs O(1) per element.
    """
    if not box:  # one element, (), of value 0
        if counts is not None:
            counts[0] += 1
        else:
            groups[0, minima.get(())].append(())
        return
    last = len(box) - 1
    # per axis: its size and stride, s^2 A_ii, and s A_it for the later axes t
    axes = [(n, s, s * s * bnum[i][i], [s * a for a in bnum[i][i + 1 :]])
            for i, (n, s) in enumerate(box)]
    stack = [(0, 0, [0] * len(box), ())]  # lin holds lin[t] for t >= the axis
    while stack:
        i, value, lin, prefix = stack.pop()
        n, s, b, row = axes[i]
        step = (b + 2 * s * lin[0]) % modulus  # v(x + s e_i) - v(x) at x_i = 0
        if i == last:
            for x in range(0, n * s, s):
                if counts is not None:
                    counts[value % modulus] += 1
                else:
                    elem = prefix + (x,)
                    groups[value % modulus, minima.get(elem)].append(elem)
                value += step
                step += 2 * b
            continue
        lin = lin[1:]
        children = []
        for x in range(0, n * s, s):
            children.append((i + 1, value % modulus, lin, prefix + (x,) if counts is None else ()))
            value += step
            step += 2 * b
            lin = [u + v for u, v in zip(lin, row)]
        stack.extend(reversed(children))


class DiscriminantForm:
    """Finite quadratic module presented by generator orders and an integer Gram.

    orders are the generator orders (> 1): the invariant factors for
    `from_lattice`, the orders of both summands in turn for `direct_sum`.
    The Gram B of the generators in the dual pairing is rational, so
    q(x) = x^T B x mod 2 and b(x, y) = x^T B y mod 1 for integer coefficient
    vectors x, y; it is presented as bnum = den B, with den > 0 the common
    denominator of B in lowest terms (gcd(den, entries of bnum) = 1).
    """

    def __init__(self, orders: tuple[int, ...], den: int, bnum: list[list[int]],
                 gens: list[list[int]] | None = None, coords: list[list[int]] | None = None):
        self.orders, self.den, self.bnum = orders, den, bnum
        self.gens = gens  # generator coordinates in Z^n / G Z^n
        # the rows of the Smith transform U at the generators, read by `element_of`
        self.coords = coords

    @classmethod
    def from_lattice(cls, lat: Lattice) -> "DiscriminantForm":
        u, d, _ = intmat.smith_normal_form(lat.gram)
        u_adj, u_det = intmat.adjugate(u)  # U is unimodular, so U^-1 = u_det * u_adj
        keep = [i for i in range(lat.rank) if abs(d[i][i]) != 1]
        orders = tuple(abs(d[i][i]) for i in keep)
        w = [[u_det * u_adj[r][i] for i in keep] for r in range(lat.rank)]  # columns of U^-1
        # B = W^T adj(G) W / det(G), in lowest terms over g = gcd(det, b) with det's sign
        b = intmat.mat_mul(intmat.mat_mul(intmat.transpose(w), lat.adjugate()), w)
        det = lat.det()
        g = gcd(det, *(x for row in b for x in row)) * (1 if det > 0 else -1)
        bnum = [[x // g for x in row] for row in b]
        return cls(orders, det // g, bnum, gens=w, coords=[u[i] for i in keep])

    @classmethod
    def trivial(cls) -> "DiscriminantForm":
        return cls((), 1, [])

    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def element_of(self, c: list[int]) -> tuple[int, ...]:
        """The element that c in Z^n / G Z^n presents, the dual vector G^-1 c; ValueError
        on a form without `coords`."""
        if self.coords is None:
            raise ValueError("the element of a vector needs a form that carries coords")
        return tuple(intmat.vec_dot(row, c) % o for row, o in zip(self.coords, self.orders))

    def level(self) -> int:
        return self._level_over(intmat.identity(len(self.orders)))

    def _level_over(self, vecs: list[list[int]]) -> int:
        """The lcm of the denominators of q(x)/2 and b(x, y) over the vectors, in integers.

        Over generators of D this is the level of D; over generators of
        H^perp, for H isotropic, it is the level of H^perp / H.
        """
        den, n = self.den, 1
        for i, x in enumerate(vecs):
            bx = intmat.mat_vec(self.bnum, x)
            n = lcm(n, 2 * den // gcd(2 * den, sum(map(mul, x, bx))))
            for y in vecs[i + 1 :]:
                n = lcm(n, den // gcd(den, sum(map(mul, y, bx))))
        return n

    def direct_sum(self, other: "DiscriminantForm") -> "DiscriminantForm":
        """D + D', with `gens` and `coords` block diagonal when both forms carry them.

        The integer Gram is block diagonal too, each block scaled from its
        summand's denominator to their lcm, so it stays in lowest terms.
        """
        k1, k2 = len(self.orders), len(other.orders)
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        bnum = [[s1 * x for x in row] + [0] * k2 for row in self.bnum]
        bnum += [[0] * k1 + [s2 * x for x in row] for row in other.bnum]
        gens = coords = None
        if self.gens is not None and other.gens is not None:
            n1, n2 = len(self.gens), len(other.gens)
            gens = [row + [0] * k2 for row in self.gens] + [[0] * k1 + row for row in other.gens]
            coords = [row + [0] * n2 for row in self.coords]
            coords += [[0] * n1 + row for row in other.coords]
        return DiscriminantForm(self.orders + other.orders, den, bnum, gens, coords)

    @cached_property
    def _counts(self) -> list[int]:
        """counts[v] = number of elements x with x^T B x * den = v mod 2 den: one `_walk`
        over D per form, charged one operation per element before it starts."""
        charge(self.order(), "value walk")
        counts = [0] * (2 * self.den)
        _walk(self.bnum, [(o, 1) for o in self.orders], len(counts), counts)
        return counts

    def count_norm(self, target: Fraction) -> int:
        """Number of nonzero elements with q(x) = target mod 2."""
        v = Fraction(target) % 2 * self.den
        if v.denominator != 1:
            return 0
        zero = 1 if v == 0 else 0  # the zero element has q = 0
        return self._counts[v.numerator] - zero

    def _gauss_vector(self, m: int) -> list[int]:
        """vec[e] = number of elements with q(x) m / 2 = e mod m, for m a multiple of the level."""
        counts = self._counts
        vec = [0] * m
        den2 = 2 * self.den
        for v, c in enumerate(counts):
            if c:
                e, r = divmod(v * m, den2)
                assert r == 0
                vec[e] += c
        return vec

    def milgram_octant(self) -> int:
        """The s in 0..7 with sum_x e^(pi i q(x)) = sqrt(|D|) zeta_8^s, exactly.

        The Gauss sum and sqrt(|D|) zeta_8^s are both written in Z[C_M],
        M = lcm(8, level): the Gauss sum from the counts of the one q-value
        pass, sqrt(|D|) as a square times Gauss sums of the odd square-free
        part and zeta_8 + zeta_8^-1 for the factor 2, with zeta_8^s and the
        twist by i as index shifts.  Their difference is tested for
        vanishing at zeta_M by the CRT reduction of `_vanishes_at_root`.
        """
        m = lcm(8, self.level())
        vec = self._gauss_vector(m)  # first, for its walk's size check
        pos, axes = _crt_layout(m)
        gauss = [0] * m
        for e, c in enumerate(vec):
            gauss[pos[e]] = c

        size = self.order()
        fac = _factorize(size)
        square_free = prod(p for p, e in fac.items() if e % 2)
        s_int = isqrt(size // square_free)
        assert s_int * s_int * square_free == size

        target = {0: s_int}
        t_odd = square_free
        if square_free % 2 == 0:
            t_odd //= 2
            target = _shifted(target, (m // 8, -(m // 8)), m)
        if t_odd > 1:
            assert m % t_odd == 0
            step = m // t_odd
            target = _shifted(target, [j * j * step for j in range(t_odd)], m)
            if t_odd % 4 == 3:
                # that Gauss sum equals i*sqrt(t); divide by i = zeta_8^2
                target = _shifted(target, (-(m // 4),), m)

        for s in range(8):
            diff = gauss[:]
            shift = s * (m // 8)
            for e, c in target.items():
                diff[pos[(e + shift) % m]] -= c
            if _vanishes_at_root(diff, axes):
                return s
        raise ArithmeticError("Gauss sum does not match any octant; form is degenerate")


# -- standard blocks: their octants and value counts in closed form --


def _disc_chi(p: int, n_p: int, eps: int) -> int:
    """chi_p(a_1 ... a_n) for the blocks <2 a_i / p> of candidate_form(p, n_p, eps);
    GenusNotRepresentable when no form has these invariants."""
    if n_p == 0 and eps != 1:
        raise GenusNotRepresentable("trivial form has eps = +1")
    if p == 2:
        if n_p % 2 != 0:
            raise GenusNotRepresentable("level-2 forms of even type have even rank")
        return eps
    return eps * (legendre(2, p) if n_p % 2 else 1)


def candidate_form(p: int, n_p: int, eps: int) -> DiscriminantForm:
    """A discriminant form with invariants (p, n_p, eps), built from blocks."""
    target_chi = _disc_chi(p, n_p, eps)
    if n_p == 0:
        return DiscriminantForm.trivial()
    if p == 2:  # den 2: the blocks u = [[0, 1/2], [1/2, 0]] and v = [[1, 1/2], [1/2, 1]]
        u, v = [[0, 1], [1, 0]], [[2, 1], [1, 2]]
        blocks = [u] * (n_p // 2 - 1) + [v if eps == -1 else u]
        return DiscriminantForm((2,) * n_p, 2, intmat.block_diagonal(blocks))
    last_a = 1 if target_chi == 1 else smallest_nonresidue(p)
    blocks = [[[2 * a]] for a in [1] * (n_p - 1) + [last_a]]
    return DiscriminantForm((p,) * n_p, p, intmat.block_diagonal(blocks))


@cache
def elementary_count_norm(p: int, n_p: int, eps: int, target: Fraction) -> int:
    """candidate_form(p, n_p, eps).count_norm(target) in closed form, in integers.

    At p = 2, q takes the value 1 on 2^(n-1) - eps 2^(n/2-1) elements of
    2_II^{eps n} and 0 on the others.  At odd p, q(x) = 2 Q(x) / p mod 2 for
    the form Q = sum a_i x_i^2 over F_p, whose discriminant d has
    chi_p(d) = `_disc_chi`, and Q(x) = b has (Lidl and Niederreiter, Finite
    Fields, Theorems 6.26 and 6.27)
        p^(n-1) + p^((n-1)/2) chi_p((-1)^((n-1)/2) b d)    solutions, n odd,
        p^(n-1) + nu(b) p^((n-2)/2) chi_p((-1)^(n/2) d)    solutions, n even,
    with nu(b) = -1 for b != 0 and nu(0) = p - 1.  The zero element is not
    counted, as in `count_norm`.
    """
    chi = _disc_chi(p, n_p, eps)
    v = Fraction(target) % 2
    if p != 2:
        v = v * p / 2  # q(x) = v mod 2 exactly when Q(x) = v * p / 2 mod p
    if n_p == 0 or v.denominator != 1:
        return 0
    b, n = v.numerator, n_p
    if p == 2:
        ones = 2 ** (n - 1) - eps * 2 ** (n // 2 - 1)
        return ones if b == 1 else 2**n - ones - 1
    if n % 2:
        count = p ** (n - 1) + p ** (n // 2) * legendre((-1) ** (n // 2) * b, p) * chi
    else:
        nu = p - 1 if b == 0 else -1
        count = p ** (n - 1) + nu * p ** (n // 2 - 1) * legendre((-1) ** (n // 2), p) * chi
    return count - (b == 0)


@cache
def norm_2p_count(p: int, n_p: int, eps: int) -> int:
    """`elementary_count_norm` at 2/p, the number of elements of norm 2/p, cached by ints."""
    return elementary_count_norm(p, n_p, eps, Fraction(2, p))


@cache
def milgram_formula(p: int, n_p: int, eps: int) -> int:
    """Milgram octant of candidate_form(p, n_p, eps): at odd p, each block <2a/p>
    adds p - 1 mod 4, plus 4 when chi_p(a) = -1."""
    chi = _disc_chi(p, n_p, eps)
    if p == 2:
        return 0 if eps == 1 else 4
    return (n_p * ((p - 1) % 4) + 2 * (1 - chi)) % 8


# -- genus symbols at prime level --


def _format_label(g: GenusSymbol) -> str:
    sign = "+" if g.eps == 1 else "-"
    inner = f"2_II^{{{sign}{g.n_p}}}" if g.p == 2 else f"{g.p}^{{{sign}{g.n_p}}}"
    return f"II_{{{g.pos},{g.neg}}}({inner})"


class GenusSymbol(NamedTuple):
    pos: int
    neg: int
    p: int
    n_p: int
    eps: int

    def signature_mod8(self) -> int:
        return (self.pos - self.neg) % 8

    @cache
    def label(self) -> str:
        """II_{pos,neg}(p^{eps n_p}), formatted once per symbol."""
        return _format_label(self)

    def __str__(self) -> str:
        return self.label()

    def why_absent(self) -> str | None:
        """Why no even genus has this symbol, or None: it exists exactly when p is prime,
        the rank pos + neg is even and at least n_p >= 0, and a form with invariants
        (p, n_p, eps) has the Milgram octant pos - neg mod 8 (Nikulin 1979, 1.9-1.10)."""
        rank, sig = self.pos + self.neg, self.signature_mod8()
        if not is_prime(self.p):
            return f"{self.p} is not prime"
        if rank % 2:
            return f"even lattices have even rank, not {rank}"
        if self.n_p < 0:
            return f"p-rank {self.n_p} is negative"
        if self.n_p > rank:
            return f"p-rank {self.n_p} exceeds the rank {rank}"
        try:
            octant = milgram_formula(self.p, self.n_p, self.eps)
        except GenusNotRepresentable as exc:
            return str(exc)
        if octant != sig:
            return f"Milgram octant {octant} differs from the signature {sig} mod 8"
        return None

    def transfer(self) -> GenusSymbol:
        """The genus after U(p) -> U: D(U(p)), of p-rank 2, leaves the discriminant form."""
        sign = 1 if self.p == 2 else legendre(-1, self.p)  # the sign of D(U(p))
        return self._replace(n_p=self.n_p - 2, eps=self.eps * sign)


@cache
def existing_genus(pos: int, neg: int, p: int, n_p: int) -> GenusSymbol | None:
    """The genus II_{pos,neg}(p^{eps n_p}) of the one sign eps that exists, or None."""
    for eps in (1, -1):
        g = GenusSymbol(pos, neg, p, n_p, eps)
        if g.why_absent() is None:
            return g
    return None


_GENUS_RE = re.compile(
    r"II_\{?(\d+),(\d+)\}?\((\d+)(?:_\{?II\}?)?\^\{?([+-])(\d+)\}?\)"
)


@cache
def parse_genus(text: str) -> GenusSymbol:
    """The genus symbol a label names, parsed once per text (the symbol is immutable);
    ValueError unless that genus exists (`GenusSymbol.why_absent`)."""
    m = _GENUS_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"cannot parse genus symbol {text!r}")
    pos, neg, p, sign, n_p = m.groups()
    g = GenusSymbol(int(pos), int(neg), int(p), int(n_p), 1 if sign == "+" else -1)
    why = g.why_absent()
    if why:
        raise ValueError(f"no genus {text!r}: {why}")
    return g


def genus_symbol(lat: Lattice, p: int | None = None) -> GenusSymbol:
    """Genus symbol II_{pos,neg}(p^{eps n_p}) of an even lattice of level 1 or p.

    For p prime, the discriminant form of such a lattice is an elementary
    p-group of rank n_p, |det| = p^n_p, with a nondegenerate form.  These
    forms are classified by n_p and one sign eps, and Milgram's formula ties
    the octant of the form, fixed by (p, n_p, eps), to the signature mod 8
    (Nikulin, Izv. Akad. Nauk SSSR 43, 1979, 1.9; 3.6 for p = 2).  So the
    symbol is read off the lattice's cached level, determinant and signature,
    with n_p the number of times p divides det and the sign of
    `existing_genus`, once per (level, det, signature, p): the lattice itself
    is not the key.  Raises ValueError when p is not prime,
    when the level is not 1 or p, when |det| is not a power of p, and
    GenusNotRepresentable when no sign gives a genus.
    """
    level = lat.level()
    if p is None:
        if level == 1:
            raise ValueError("unimodular lattice: pass p explicitly for a trivial symbol")
        p = level
    return _genus_symbol(level, lat.det(), *lat.signature(), p)


@cache
def _genus_symbol(level: int, det: int, pos: int, neg: int, p: int) -> GenusSymbol:
    """`genus_symbol` of a lattice with these invariants, once per (level, det, pos, neg, p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if level not in (1, p):
        raise ValueError(f"lattice level {level} is not 1 or the prime {p}")
    n_p, rest = 0, abs(det)
    while rest > 1 and rest % p == 0:
        n_p, rest = n_p + 1, rest // p
    if rest != 1:
        raise ValueError(f"determinant {det} is not a power of {p}")
    g = existing_genus(pos, neg, p, n_p)
    if g is None:
        raise GenusNotRepresentable(f"no sign gives a genus II_{{{pos},{neg}}}({p}^{{{n_p}}})")
    return g


@cache
def splits_u_up(g: GenusSymbol) -> bool:
    """Whether the genus admits a model U + U(p) + (definite part).

    Splitting off U is automatic for the signatures in scope; U(p) splits
    off exactly when its definite complement, of signature (pos - 2,
    neg - 2) and the form left by `GenusSymbol.transfer`, exists.
    """
    return g.transfer()._replace(pos=g.pos - 2, neg=g.neg - 2).why_absent() is None


# -- isotropic subgroups and even overlattices --


def _closure(base: frozenset, new: tuple, orders: tuple[int, ...]) -> frozenset | None:
    """<base, new> for a subgroup `base`: the union of the cosets base + k new; None
    at the first element outside base that comes before `new`.

    The cosets repeat from the first k with k new in base, and each coset
    before that one lies wholly outside base.
    """
    elems = set(base)
    coset = list(base)
    while True:
        shifted = []
        for h in coset:
            y = tuple(map(mod, map(add, h, new), orders))
            if y < new and y not in elems:
                return None
            shifted.append(y)
        if shifted[0] in elems:
            return frozenset(elems)
        elems.update(shifted)
        coset = shifted


def glue_level(form: DiscriminantForm, sub: tuple[tuple[int, ...], ...], gens: tuple) -> int:
    """Level of H^perp / H for the isotropic subgroup H of D with elements `sub` and
    generators `gens`, as `isotropic_subgroups` hands them out: the level of the
    overlattice M that H glues, as D(M) = H^perp / H (Nikulin 1979, 1.4).

    H^perp is spanned by generators of D cut down once per generator g of H
    to those x with x . (bnum g) = 0 mod den (`_annihilated`).  On odd
    order the level is the exponent: for x in M^dual of odd order e mod M,
    s = (e x, x) is an integer and e s = (e x, e x) is even, so s is even.
    So each odd prime q adds the least q^j that takes the q-part of some
    spanning vector into H, each test a lookup in `sub`; only the 2-part,
    where the level can be twice the exponent, is read off q and b
    (`_level_over`).
    """
    orders, members, level, twos = form.orders, set(sub), 1, []
    perp = _units(len(orders))
    for g in gens:
        perp = _annihilated(perp, intmat.mat_vec(form.bnum, g), form.den, orders)
    for y in perp:
        n = lcm(*(o // gcd(o, a) for a, o in zip(y, orders)))
        odd = n // (n & -n)
        for q, e in _factorize(odd).items() if level % odd else ():
            x, j = _times(n // q**e, y, orders), 0
            while j < e and x not in members:
                x, j = _times(q, x, orders), j + 1
            level = lcm(level, q**j)
        if odd < n:
            twos.append(_times(odd, y, orders))
    return level * form._level_over(twos)


@cache
def _units(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for i in range(k)) for j in range(k))


def _times(c: int, x: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c * a % o for a, o in zip(x, orders))


def _annihilated(vecs: list[tuple], c: list[int], den: int, orders: tuple[int, ...]) -> list[tuple]:
    """Generators of the x in the span of `vecs` in D with x . c = 0 mod den, for c =
    bnum g: one extended-gcd sweep keeps a pivot whose value x . c is the gcd of the
    values so far and leaves every other vector of value 0, by unimodular steps; the
    pivot then enters times den / gcd(den, its value)."""
    out, pivot, a = [], None, 0
    for v in vecs:
        b = sum(map(mul, v, c)) % den
        if not b:
            out.append(v)
        elif pivot is None:
            pivot, a = v, b
        else:  # s a + t b = g, and [[s, t], [-b/g, a/g]] has determinant 1
            g = gcd(a, b)
            out.append(tuple((a // g * y - b // g * x) % o for x, y, o in zip(pivot, v, orders)))
            if g != a:  # else s, t = 1, 0
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                pivot, a = tuple((s * x + t * y) % o for x, y, o in zip(pivot, v, orders)), g
    if pivot is not None:
        out.append(_times(den // gcd(den, a), pivot, orders))
    return out


def _pool_scan(form: DiscriminantForm, order: int) -> int:
    """The operations of a pool scan, one per element of order dividing `order`,
    charged before any element is visited."""
    return charge(prod(n for n, _ in _torsion_box(form.orders, order)), "pool scan")


def _torsion_box(orders: tuple[int, ...], order: int) -> list[tuple[int, int]]:
    """The elements of order dividing `order`, as a `_walk` box: step o_i / gcd(o_i, order)."""
    return [(gcd(o, order), o // gcd(o, order)) for o in orders]


def root_free_pool(lat: Lattice, order: int) -> list[tuple[int, ...]]:
    """The nonzero isotropic x of `discriminant_form(L)` of order dividing `order`,
    without the root classes of L, the x whose coset x + L holds a norm-2 vector,
    for L positive definite, sorted; no root class is concatenated.

    D(L) is presented part by part over the parts P of L (L itself when it
    is not a sum), since D(L1 + L2) = D(L1) + D(L2) (Nikulin 1979, 1.1), so
    an element of D(L) is the concatenation of one element of each D(P),
    and the minimum norm of x + L is the sum of the minima of the part
    cosets x_P + P (Conway and Sloane, Sphere Packings, Lattices and
    Groups, ch. 4 and 16).  L is even, so every norm in x + L is 2 q(x)
    mod 2.  Hence a nonzero x holds a norm-2 vector exactly when its part
    minima add up to 2: a sum below 2 could reach 2 only by adding 2 on a
    part whose minimum is 0, and then x would be 0.  Each part keeps its
    value groups split by coset minimum (`_value_groups`); here the values
    v_P = x_P^T (den_P B_P) x_P are scaled to v_P den / den_P mod 2 den and
    the minima to the lcm of the part determinants, with a minimum above 2
    counted as one past 2.  The join skips every combination of groups
    whose minima add up to exactly 2 (`_join`).
    """
    form = discriminant_form(lat)
    parts = lat.parts or (lat,)
    den = lcm(*(part.det() for part in parts))
    tables = []
    for part in parts:
        scale = form.den // discriminant_form(part).den
        tables.append([(v * scale, 2 * den + 1 if n is None else n * (den // part.det()), xs)
                       for v, n, xs in _value_groups(part, order)])
    return _join(2 * form.den, tables, 2 * den)


def _join(modulus: int, tables, target: int) -> list[tuple[int, ...]]:
    """The concatenations of one element per table whose values add up to 0 mod
    `modulus` and whose minima do not add up to `target`, sorted, without the first.

    tables[i] holds (value, minimum, elements) groups.  The groups of all
    tables but the largest are combined, and the largest table's groups of
    the complementary value complete each combination.  Every box axis
    ascends, so `itertools.product` order is lexicographic order, and
    sorting the concatenations gives the order of a walk over the whole
    box; the first element is 0, whose minima are all 0.
    """
    sizes = [sum(len(xs) for _, _, xs in table) for table in tables]
    big = sizes.index(max(sizes))
    complement = defaultdict(list)
    for v, n, xs in tables[big]:
        complement[v].append((n, xs))
    combos = [(0, 0, [])]  # the value and the minimum so far, and one group per table
    for i, table in enumerate(tables):
        if i != big:
            combos = [((s + v) % modulus, low + n, chosen + [xs])
                      for s, low, chosen in combos for v, n, xs in table]
    pool = []
    for s, low, chosen in combos:
        for n, xs in complement.get(-s % modulus, ()):
            if low + n == target:
                continue
            elements = [()]
            for group in chosen[:big] + [xs] + chosen[big:]:
                elements = [e + x for e in elements for x in group]
            pool += elements
    pool.sort()
    return pool[1:]


def isotropic_subgroups(form: DiscriminantForm, order: int, pool: list[tuple[int, ...]]):
    """Isotropic subgroups of the given order whose nonzero elements are all in the
    pool, as (elements, gens) pairs sorted by elements: the sorted element tuple,
    and the greedy generators in the order the search added them.

    The pool is any subset of the nonzero isotropic elements of order
    dividing `order`, in any order (`even_overlattices` gives
    `root_free_pool`).  For H isotropic and x isotropic, q(h + kx) = q(h) +
    k^2 q(x) + 2k b(h, x) mod 2, so <H, x> is isotropic exactly when b(g, x)
    is integral for every generator g of H; x is tried only then, and q is
    never evaluated on a closure.  A closure is kept only when each of its
    nonzero elements is in the pool.

    The search is depth first, on the greedy generators that each subgroup
    H has exactly once, g_(i+1) the least element of H outside <g_1, ...,
    g_i>.  A subgroup S is extended by x only when x comes
    after S's last generator in the sorted pool and x is the least element of
    <S, x> outside S (`_closure` gives up at the first smaller one), so
    <S, x> is reached once, from its greedy prefix, and nothing is reached
    twice (B. D. McKay, Isomorph-free exhaustive generation, J. Algorithms
    26, 1998).  This holds in every finite abelian group.  The scan charges
    one operation per element of D of order dividing `order` (`_pool_scan`)
    before any pair is tried, and each subgroup S below `order` that is
    extended charges |pool| - |S| + 1, a total that depends neither on the
    order of the pool nor on how D is presented.
    """
    orders, den = form.orders, form.den
    ops = _pool_scan(form, order)
    pool = sorted(pool)
    # den * x^T B, so den * b(g, x) is the dot product of g with it
    pairing = {x: [sum(map(mul, x, row)) for row in form.bnum] for x in pool}

    # each entry: a subgroup, its greedy generators, and where its candidates start in the pool
    stack = [(frozenset({tuple(0 for _ in orders)}), (), 0)]
    results = []
    while stack:
        sub, gens, start = stack.pop()
        if len(sub) == order:
            results.append((sub, gens))
        if len(sub) >= order:
            continue
        ops = charge(ops + len(pool) - len(sub) + 1, "isotropic subgroup search")
        for after, x in enumerate(pool[start:], start + 1):
            if x in sub or any(sum(map(mul, g, pairing[x])) % den for g in gens):
                continue
            grown = _closure(sub, x, orders)
            if grown is None or order % len(grown) or not pairing.keys() >= grown - sub:
                continue  # x is not next, its order does not divide `order`, or it leaves the pool
            stack.append((grown, gens + (x,), after))
    return sorted((tuple(sorted(sub)), gens) for sub, gens in results)  # elements are distinct


def glue_overlattice(
    lat: Lattice, form: DiscriminantForm, sub: tuple[tuple[int, ...], ...]
) -> Lattice:
    """The overlattice of L glued by the isotropic subgroup of D(L) with elements `sub`.

    `form` is `discriminant_form(lat)`, or any presentation of D(L) that
    carries `gens` (ValueError otherwise).  The Gram is that of the Hermite
    basis of L + (the glue vectors of H), in the coordinates of L, so it
    depends on the subgroup of L^dual / L and not on its presentation.  A
    subgroup that is not isotropic raises ArithmeticError, under `python -O` too.
    """
    n, m, det = lat.rank, len(sub), lat.det()
    if form.gens is None:
        raise ValueError("a glue overlattice needs a form that carries gens")
    # m times the dual-coordinate vectors G^-1 w = adj w / det of the glue vectors w
    glue = [[m * x for x in intmat.mat_vec(lat.adjugate(), intmat.mat_vec(form.gens, h))]
            for h in sub if any(h)]
    if any(x % det for row in glue for x in row):
        raise ArithmeticError("a glue vector is not in the dual lattice")
    basis = intmat.row_hermite_form([[m * (i == j) for j in range(n)] for i in range(n)]
                                    + [[x // det for x in row] for row in glue])
    if len(basis) != n:
        raise ArithmeticError(f"the glue overlattice is not of rank {n}")
    gram = intmat.mat_mul(intmat.mat_mul(basis, lat.gram), intmat.transpose(basis))
    if any(x % (m * m) for row in gram for x in row):
        raise ArithmeticError("the glue is not integral: the subgroup is not isotropic")
    return Lattice([[x // (m * m) for x in row] for row in gram])


@kept
def discriminant_form(lat: Lattice) -> DiscriminantForm:
    """D(L), kept on L: for an orthogonal sum the direct sum of its parts' forms,
    presented part by part (Nikulin 1979, 1.1), else `DiscriminantForm.from_lattice`."""
    if lat.parts:
        return reduce(DiscriminantForm.direct_sum, map(discriminant_form, lat.parts))
    return DiscriminantForm.from_lattice(lat)


@kept
def short_duals(lat: Lattice) -> dict[int, list[tuple[int, ...]]]:
    """The nonzero x in D(L) whose coset x + L holds a vector of norm <= 2, for L
    positive definite, by det(L) times the minimum norm of x + L, with x and -x
    together.  The dual vector G^-1 c lies in `element_of(c)` and has norm
    c^T adj(G) c / det, so one `short_vectors` call on the adjugate lists every dual
    vector of norm <= 2, in increasing norm, and the first one met in a class has
    the minimum norm of its coset."""
    form = discriminant_form(lat)
    cosets: dict[int, list[tuple[int, ...]]] = {}
    seen = set()
    for norm, vecs in roots.short_vectors(lat.adjugate(), 2 * lat.det()).items():
        for c in vecs:
            x = form.element_of(c)
            if any(x) and x not in seen:  # class 0 holds the vectors of L
                neg = tuple(-a % o for a, o in zip(x, form.orders))
                seen |= {x, neg}
                cosets.setdefault(norm, []).extend(sorted({x, neg}))
    return cosets


def _coset_minima(part: Lattice, sizes: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """det(P) times the minimum norm of x + P, by class x of D(P), for the zero class
    and the classes of `short_duals`, which miss no coset of minimum <= 2; only the
    zero class when the torsion box of these sizes holds only 0, so a part coprime to
    the order enumerates nothing."""
    minima = {(0,) * len(sizes): 0}
    if any(n > 1 for n in sizes):
        for norm, xs in short_duals(part).items():
            minima.update(dict.fromkeys(xs, norm))
    return minima


def _value_groups(part: Lattice, order: int) -> list[tuple[int, int | None, list]]:
    """The elements of D(P) of order dividing `order`, in walk order, as (value, coset
    minimum, elements) groups: value x^T bnum x mod 2 den, minimum from `_coset_minima`
    (None off its classes).  One `_walk` per torsion box, kept on P and keyed by the
    box sizes alone (`_box_groups`): a box of size 1 holds only 0, and any other meets
    a prime of det(P), where `_coset_minima` is the same at every order."""
    return _box_groups(part, tuple(gcd(o, order) for o in discriminant_form(part).orders))


@kept
def _box_groups(part: Lattice, sizes: tuple[int, ...]) -> list[tuple[int, int | None, list]]:
    """`_value_groups` of the torsion box whose axes have these sizes."""
    form = discriminant_form(part)
    box = [(n, o // n) for n, o in zip(sizes, form.orders)]
    walked = defaultdict(list)
    _walk(form.bnum, box, 2 * form.den, groups=walked, minima=_coset_minima(part, sizes))
    return [(v, n, xs) for (v, n), xs in walked.items()]


@kept
def _glue_roots(lat: Lattice, p: int):
    """The positive norm-2 roots of L, and by class c of D(L) the vectors p w for the
    dual vectors w of norm 2/p in c, all as coordinates G v, one per +- pair, read off
    `roots.dual_roots`, which concatenates them from the root tables of the parts of
    L; each dual vector G^-1 c gets its class `element_of(c)`."""
    form = discriminant_form(lat)
    short, duals = roots.dual_roots(lat, p)
    long_by_class: dict[tuple[int, ...], list[list[int]]] = {}
    for c in duals:
        long_by_class.setdefault(form.element_of(c), []).append([p * a for a in c])
    return short, long_by_class


def long_root_classes(lat: Lattice, p: int, sub: tuple[tuple[int, ...], ...],
                      gens: tuple) -> frozenset:
    """S(H): the classes x of `_glue_roots` with p x in H and x in H^perp, for the
    subgroup H of `discriminant_form(L)` with elements `sub` and generators `gens`."""
    form = discriminant_form(lat)
    members = set(sub)
    pairings = [intmat.mat_vec(form.bnum, g) for g in gens]
    return frozenset(
        x for x in _glue_roots(lat, p)[1]
        if tuple(p * a % o for a, o in zip(x, form.orders)) in members
        and not any(intmat.vec_dot(x, g) % form.den for g in pairings))


@kept
def glue_components(lat: Lattice, p: int, classes: frozenset) -> tuple[roots.RootComponent, ...]:
    """The components of R(M) at p for the overlattice M of L that a root-free glue
    group H glues, read off D(L) with no overlattice built, given S(H) as `classes`
    (`long_root_classes`); split once per (lattice, p, S(H)) and kept on L.

    H is an isotropic subgroup of `discriminant_form(L)` inside
    `root_free_pool` (with 0), as `even_overlattices` returns them, so the
    norm-2 roots of M are those of L.  A long root v of M, of norm 2p with
    (v, M) in pZ, is p w for a dual vector w of L of norm 2/p; with c the
    class of w, v lies in M exactly when p c lies in H, and w lies in
    M^dual exactly when c lies in H^perp (Nikulin 1979, 1.4:
    M^dual / L = H^perp).  In integers, c is in H^perp when
    c . (bnum g) = 0 mod den for every generator g of H.  So R(M) depends
    on H only through the set S(H) of the classes of `_glue_roots` that
    pass both tests.  All roots are written in L's dual coordinates G v, where
    L's adjugate is det(L) times the pairing, as `roots.split_components` reads
    them.
    """
    short, long_by_class = _glue_roots(lat, p)
    long_ = [v for x, vecs in long_by_class.items() if x in classes for v in vecs]
    return tuple(roots.split_components(lat.adjugate(), p, short, long_))


@kept
def glue_actions(lat: Lattice) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distinct non-identity actions x -> A x of generators of O(L) on the Smith
    coordinates of `discriminant_form(L)`, kept on L, for L a sum of root lattices and
    their rescalings (a unique decomposition, by Eichler).  Part by part: the
    reflections in basis vectors that lie in O(L), the Gram-preserving basis
    permutations, D4's triality included (one operation per candidate tried, charged
    as spent), and the swap with the next part of equal Gram.  As g^T G g = G, g^-1
    sends the class of c in Z^n / G Z^n to that of G g^-1 G^-1 c = g^T c, and the
    inverses generate the same group; g on a part P acts on its block D(P) alone, so
    g^T is applied there, and a swap exchanges two blocks.  A part with D(P) = 0 is
    skipped, and so is a reflection in a vector r of norm 2: it sends x in L^dual to
    x - (x, r) r, in x + L."""
    parts, ops, found = lat.parts or (lat,), 0, []
    forms = [discriminant_form(part) for part in parts]
    starts = [sum(len(f.orders) for f in forms[:i]) for i in range(len(parts) + 1)]
    eye = [tuple(int(i == j) for i in range(starts[-1])) for j in range(starts[-1])]

    def act(*moves) -> None:  # (src, dst, images): generator src + j goes to images[j] at dst
        cols = list(eye)
        for src, dst, images in moves:
            for j, x in enumerate(images):
                cols[src + j] = (0,) * dst + x + (0,) * (len(eye) - dst - len(x))
        found.append(tuple(zip(*cols)))

    for i, (part, form, s) in enumerate(zip(parts, forms, starts)):
        gram, k, classes = part.gram, part.rank, list(zip(*form.gens))
        if not classes:
            continue
        for a, row in enumerate(gram):
            if row[a] not in (0, 2) and not any(2 * x % row[a] for x in row):
                act((s, s, [form.element_of([x - c[a] * 2 * g // row[a] for x, g in zip(c, row)])
                            for c in classes]))
        stack = [()]
        while stack:
            perm = stack.pop()
            if len(perm) == k:
                act((s, s, [form.element_of([c[t] for t in perm]) for c in classes]))
                continue
            ops = charge(ops + k, "basis permutation search")
            a = len(perm)
            stack += [perm + (t,) for t in range(k) if gram[t][t] == gram[a][a] and t not in perm
                      and all(gram[t][perm[b]] == gram[a][b] for b in reversed(range(a)))]
        j = next((j for j in range(i + 1, len(parts)) if parts[j].gram == gram), None)
        if j is not None:
            act((s, starts[j], map(forms[j].element_of, classes)),
                (starts[j], s, map(form.element_of, zip(*forms[j].gens))))
    return tuple(a for a in dict.fromkeys(found) if a != tuple(eye))


def glue_orbits(lat: Lattice, p: int, glue: Mapping[tuple, frozenset]) -> int:
    """The number of isometry classes of the overlattices glued by the groups of `glue`,
    which all carry one root datum R spanning L, counted as O(L)-orbits.

    `glue` maps the elements of each group H to S(H) (`long_root_classes`).  An
    isometry between two such overlattices maps R, so L, onto itself, and g in
    O(L) maps the overlattice of H onto that of gH (Nikulin 1979, 1.4).  A group with
    a long root outside L (p x != 0 for some x of S(H)) is dropped: its roots span a
    copy of L onto which a kept group glues the same lattice, so a lone group is
    kept.  Each group is merged with its image under each action of `glue_actions`
    (union-find by relabelling).  ArithmeticError when an image is not in the list.
    """
    form = discriminant_form(lat)
    subs = [sub for sub, classes in glue.items() if len(glue) < 2 or not any(
        p * a % o for x in classes for a, o in zip(x, form.orders))]
    if len(subs) < 2:
        return len(subs)
    index, orbit = {sub: i for i, sub in enumerate(subs)}, list(range(len(subs)))
    for action in glue_actions(lat):
        for i, sub in enumerate(subs):
            image = tuple(sorted(tuple(intmat.vec_dot(row, h) % o for row, o in
                                       zip(action, form.orders)) for h in sub))
            if image not in index:
                raise ArithmeticError(f"O({lat.name}) moves a glue group off the list")
            old, new = orbit[index[image]], orbit[i]
            if old != new:
                orbit = [new if x == old else x for x in orbit]
    return len(set(orbit))


def even_overlattices(lat: Lattice, target_det: int, level: int) -> list[tuple[tuple, tuple]]:
    """The root-free glue groups of the requested determinant and level, as the
    (elements, gens) pairs of `isotropic_subgroups`, in its order.

    L is positive definite.  Overlattices M with L <= M <= L^dual correspond
    to isotropic subgroups H <= D(L), with [M : L]^2 = |det L| / |det M|, and
    D(M) = H^perp / H (Nikulin 1979, 1.4).  M has a norm-2 vector outside L
    exactly when H holds a root class, and those H are dropped: the pool's
    size is charged (`_pool_scan`), `root_free_pool` leaves the root classes
    out, and the search keeps a closure only while each of its elements is in
    the pool, as two elements that are not root classes can span one.  An H
    is kept when `glue_level`, the level of H^perp / H read off H's
    generators (the exponent on the odd part), equals `level`.  At index 1
    the one group is {0}, with no generators.  No overlattice is built.
    """
    d = abs(lat.det())
    t = abs(target_det)
    if t == 0 or d % t != 0:
        return []
    ratio = d // t
    m = isqrt(ratio)
    if m * m != ratio:
        return []
    form = discriminant_form(lat)
    if m == 1:
        return [(((0,) * len(form.orders),), ())] if lat.level() == level else []
    _pool_scan(form, m)
    return [found for found in isotropic_subgroups(form, m, root_free_pool(lat, m))
            if glue_level(form, *found) == level]
