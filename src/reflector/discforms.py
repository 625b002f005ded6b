"""Discriminant forms, Milgram signatures, and prime-level genus symbols.

The discriminant form of an even lattice L is the finite abelian group
D = L^dual / L carrying the quadratic form q(x) = (x, x) mod 2Z and the
bilinear form b(x, y) = (x, y) mod Z.  This module computes D from a Gram
matrix through the Smith normal form, evaluates the Gauss sum of q exactly in
a cyclotomic ring to pin its Milgram octant, classifies prime-level genera by
a plus/minus invariant computed along two independent routes, and performs
the overlattice constructions (isotropic subgroups, even overlattices) that
the classification needs.

Conventions for the plus/minus invariant at odd p: a rank-one block <2a/p>
contributes chi_p(2a) to epsilon and a Milgram octant governed by chi_p(a);
at p = 2 only the even (II-type) rank-two blocks occur at prime level, with
epsilon + for the hyperbolic block and - when one anisotropic block enters.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from . import intmat, roots
from .lattices import Lattice


class BudgetExceeded(RuntimeError):
    """Raised when a subgroup search exceeds its operation budget."""


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _mobius(n: int) -> int:
    fac = _factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


# -- dense integer polynomial helpers for the exact Gauss-sum comparison --


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """Product in Z[x]/(x^m - 1)."""
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % m] += x * y
    return out


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder by a monic integer polynomial."""
    assert b and b[-1] == 1
    rem = a[:]
    deg_b = len(b) - 1
    quot = [0] * max(1, len(a) - deg_b)
    for i in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[i]
        if c:
            quot[i - deg_b] = c
            for j, y in enumerate(b):
                rem[i - deg_b + j] -= c * y
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _cyclotomic(m: int) -> list[int]:
    num = [1]
    den = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            mu = _mobius(m // d)
            if mu == 0:
                continue
            factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            if mu == 1:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    quot, rem = _poly_divmod(num, den)
    assert all(c == 0 for c in rem)
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot


@dataclass
class DiscriminantForm:
    """Finite quadratic module presented by generator orders and a Gram matrix.

    orders are the invariant factors (> 1); bilinear is the rational Gram of
    the generators in the dual pairing, so q(x) = x^T B x mod 2 and
    b(x, y) = x^T B y mod 1 for integer coefficient vectors x, y.
    """

    orders: tuple[int, ...]
    bilinear: list[list[Fraction]]
    gens: list[list[int]] | None = None  # generator coordinates in Z^n / G Z^n

    def __post_init__(self) -> None:
        self.bilinear = [[Fraction(x) for x in row] for row in self.bilinear]
        den = 1
        for row in self.bilinear:
            for x in row:
                den = lcm(den, x.denominator)
        self._bden = den
        self._bnum = [[int(x * den) for x in row] for row in self.bilinear]

    @classmethod
    def from_lattice(cls, lat: Lattice) -> "DiscriminantForm":
        u, d, _ = intmat.smith_normal_form(lat.gram)
        u_inv = intmat.int_matrix(intmat.invert(u))
        keep = [i for i in range(lat.rank) if abs(d[i][i]) != 1]
        orders = tuple(abs(d[i][i]) for i in keep)
        w = [[u_inv[r][i] for i in keep] for r in range(lat.rank)]  # columns of U^-1
        ginv = lat.dual_gram()
        b = intmat.mat_mul(intmat.mat_mul(intmat.transpose(w), ginv), w)
        return cls(orders, b, gens=w)

    @classmethod
    def trivial(cls) -> "DiscriminantForm":
        return cls((), [])

    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def level(self) -> int:
        n = 1
        k = len(self.orders)
        for i in range(k):
            n = lcm(n, (self.bilinear[i][i] / 2).denominator)
            for j in range(i + 1, k):
                n = lcm(n, self.bilinear[i][j].denominator)
        return n

    def q(self, x: tuple[int, ...]) -> Fraction:
        return Fraction(self._q_num(x), self._bden) % 2

    def is_isotropic(self, x: tuple[int, ...]) -> bool:
        """Whether q(x) = 0, in integers."""
        return self._q_num(x) % (2 * self._bden) == 0

    def _q_num(self, x: tuple[int, ...]) -> int:
        """x^T B x times the common denominator of B."""
        total = 0
        bnum = self._bnum
        k = len(x)
        for i in range(k):
            xi = x[i]
            if xi:
                row = bnum[i]
                total += row[i] * xi * xi
                for j in range(i + 1, k):
                    if x[j]:
                        total += 2 * row[j] * xi * x[j]
        return total

    def b(self, x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
        total = 0
        bnum = self._bnum
        for i in range(len(x)):
            if x[i]:
                row = bnum[i]
                total += x[i] * sum(row[j] * y[j] for j in range(len(y)) if y[j])
        return Fraction(total, self._bden) % 1

    def elements(self):
        return itertools.product(*(range(o) for o in self.orders))

    def elements_of_order_dividing(self, m: int):
        ranges = []
        for o in self.orders:
            step = o // gcd(o, m)
            ranges.append(range(0, o, step))
        return itertools.product(*ranges)

    def direct_sum(self, other: "DiscriminantForm") -> "DiscriminantForm":
        k1, k2 = len(self.orders), len(other.orders)
        b = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                b[i][j] = self.bilinear[i][j]
        for i in range(k2):
            for j in range(k2):
                b[k1 + i][k1 + j] = other.bilinear[i][j]
        return DiscriminantForm(self.orders + other.orders, b)

    def count_norm(self, target: Fraction) -> int:
        """Number of nonzero elements with q(x) = target mod 2."""
        target = Fraction(target) % 2
        count = 0
        for x in self.elements():
            if any(x) and self.q(x) == target:
                count += 1
        return count

    def milgram_octant(self) -> int:
        """The s in 0..7 with sum_x e^(pi i q(x)) = sqrt(|D|) zeta_8^s, exactly.

        The Gauss sum and sqrt(|D|) are both written in Z[x]/(x^M - 1) for
        M = lcm(8, level); equality of cyclotomic integers is tested by
        divisibility by the M-th cyclotomic polynomial.
        """
        m = lcm(8, self.level())
        vec = [0] * m
        for x in self.elements():
            e = self.q(x) * m / 2
            assert e.denominator == 1
            vec[int(e) % m] += 1

        size = self.order()
        fac = _factorize(size)
        square_free = prod(p for p, e in fac.items() if e % 2)
        s_int = isqrt(size // square_free)
        assert s_int * s_int * square_free == size

        target = [0] * m
        target[0] = s_int
        t_odd = square_free
        if square_free % 2 == 0:
            t_odd //= 2
            root2 = [0] * m
            root2[m // 8] += 1
            root2[-(m // 8) % m] += 1
            target = _poly_mul_mod(target, root2, m)
        if t_odd > 1:
            assert m % t_odd == 0
            gauss = [0] * m
            step = m // t_odd
            for j in range(t_odd):
                gauss[(j * j * step) % m] += 1
            target = _poly_mul_mod(target, gauss, m)
            if t_odd % 4 == 3:
                # that Gauss sum equals i*sqrt(t); divide by i = zeta_8^2
                twist = [0] * m
                twist[-(m // 4) % m] = 1
                target = _poly_mul_mod(target, twist, m)

        phi = _cyclotomic(m)
        for s in range(8):
            rot = [0] * m
            rot[(s * (m // 8)) % m] = 1
            cand = _poly_mul_mod(target, rot, m)
            diff = [a - b for a, b in zip(vec, cand)]
            while len(diff) > 1 and diff[-1] == 0:
                diff.pop()
            _, rem = _poly_divmod(diff, phi)
            if all(c == 0 for c in rem):
                return s
        raise ArithmeticError("Gauss sum does not match any octant; form is degenerate")


# -- standard blocks and the formula route to Milgram octants --


def block_sig_odd(p: int, a: int) -> int:
    """Milgram octant of the rank-one block <2a/p> at odd p."""
    chi = legendre(a, p)
    if p % 4 == 1:
        return 0 if chi == 1 else 4
    return 2 if chi == 1 else 6


def candidate_form(p: int, n_p: int, eps: int) -> DiscriminantForm:
    """A discriminant form with invariants (p, n_p, eps), built from blocks."""
    if n_p == 0:
        if eps != 1:
            raise GenusNotRepresentable("trivial form has eps = +1")
        return DiscriminantForm.trivial()
    if p == 2:
        if n_p % 2 != 0:
            raise GenusNotRepresentable("level-2 forms of even type have even rank")
        u = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
        v = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]]
        blocks = [u] * (n_p // 2)
        if eps == -1:
            blocks[-1] = v
        form = DiscriminantForm((2, 2), blocks[0])
        for blk in blocks[1:]:
            form = form.direct_sum(DiscriminantForm((2, 2), blk))
        return form
    chi2 = legendre(2, p)
    target_chi = eps * (chi2 if n_p % 2 else 1)
    last_a = 1 if target_chi == 1 else smallest_nonresidue(p)
    units = [1] * (n_p - 1) + [last_a]
    form = None
    for a in units:
        blk = DiscriminantForm((p,), [[Fraction(2 * a, p)]])
        form = blk if form is None else form.direct_sum(blk)
    return form


def milgram_formula(p: int, n_p: int, eps: int) -> int:
    """Milgram octant of candidate_form(p, n_p, eps), by the block table."""
    if n_p == 0:
        if eps != 1:
            raise GenusNotRepresentable("trivial form has eps = +1")
        return 0
    if p == 2:
        if n_p % 2 != 0:
            raise GenusNotRepresentable("level-2 forms of even type have even rank")
        return 0 if eps == 1 else 4
    chi2 = legendre(2, p)
    target_chi = eps * (chi2 if n_p % 2 else 1)
    total = (n_p - 1) * block_sig_odd(p, 1)
    total += (0 if p % 4 == 1 else 2) if target_chi == 1 else (4 if p % 4 == 1 else 6)
    return total % 8


def eps_for(sig_mod8: int, p: int, n_p: int) -> tuple[int, DiscriminantForm]:
    """Resolve the sign invariant from the signature; raise when impossible."""
    for eps in (1, -1):
        try:
            if milgram_formula(p, n_p, eps) == sig_mod8 % 8:
                return eps, candidate_form(p, n_p, eps)
        except GenusNotRepresentable:
            break
    raise GenusNotRepresentable(
        f"no even-lattice genus with signature {sig_mod8} mod 8, p={p}, n_p={n_p}"
    )


# -- genus symbols at prime level --


@dataclass(frozen=True)
class GenusSymbol:
    pos: int
    neg: int
    p: int
    n_p: int
    eps: int

    def signature_mod8(self) -> int:
        return (self.pos - self.neg) % 8

    def label(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        inner = f"2_II^{{{sign}{self.n_p}}}" if self.p == 2 else f"{self.p}^{{{sign}{self.n_p}}}"
        return f"II_{{{self.pos},{self.neg}}}({inner})"

    def __str__(self) -> str:
        return self.label()


_GENUS_RE = re.compile(
    r"II_\{?(\d+),(\d+)\}?\((\d+)(?:_\{?II\}?)?\^\{?([+-])(\d+)\}?\)"
)


def parse_genus(text: str) -> GenusSymbol:
    m = _GENUS_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"cannot parse genus symbol {text!r}")
    pos, neg, p, sign, n_p = m.groups()
    return GenusSymbol(int(pos), int(neg), int(p), int(n_p), 1 if sign == "+" else -1)


def genus_symbol(lat: Lattice, p: int | None = None) -> GenusSymbol:
    """Genus symbol of an even lattice of prime level.

    The sign invariant is computed twice: from the exact Gauss-sum octant of
    the discriminant form matched against block candidates, and (at odd p)
    from the Legendre product over the p-divisible entries of a p-adically
    pivoted congruence diagonalization.  Disagreement raises.
    """
    level = lat.level()
    if p is None:
        if level == 1:
            raise ValueError("unimodular lattice: pass p explicitly for a trivial symbol")
        p = level
    if level not in (1, p):
        raise ValueError(f"lattice level {level} is not 1 or the prime {p}")
    det = abs(lat.det())
    n_p = 0
    d = det
    while d % p == 0:
        d //= p
        n_p += 1
    if d != 1:
        raise ValueError(f"determinant {det} is not a power of {p}")
    pos, neg = lat.signature()
    sig8 = (pos - neg) % 8

    form = DiscriminantForm.from_lattice(lat)
    oct_actual = form.milgram_octant()
    if oct_actual != sig8:
        raise ArithmeticError("Milgram octant disagrees with the signature")
    eps_gauss = None
    for eps in (1, -1):
        try:
            if milgram_formula(p, n_p, eps) == oct_actual:
                eps_gauss = eps
                break
        except GenusNotRepresentable as exc:
            raise ArithmeticError(f"no block candidate for computed invariants: {exc}")
    if eps_gauss is None:
        raise ArithmeticError("no block candidate matches the Gauss-sum octant")

    if p != 2 and n_p > 0:
        _, diag = intmat.congruent_diagonal(lat.gram, p=p)
        eps_jordan = 1
        seen = 0
        for dval in diag:
            v = intmat.p_valuation(dval, p)
            if v == 0:
                continue
            if v != 1:
                raise ArithmeticError(f"diagonal entry {dval} has p-valuation {v} at level p")
            unit = dval / p
            residue = unit.numerator * pow(unit.denominator, -1, p) % p
            eps_jordan *= legendre(residue, p)
            seen += 1
        if seen != n_p:
            raise ArithmeticError("Jordan block count disagrees with the determinant")
        if eps_jordan != eps_gauss:
            raise ArithmeticError("sign invariant: Jordan route disagrees with Gauss route")

    return GenusSymbol(pos, neg, p, n_p, eps_gauss)


def dual_rescale_genus(g: GenusSymbol) -> GenusSymbol:
    """Genus of the rescaled dual M^dual(p); an involution on symbols."""
    rank = g.pos + g.neg
    new_np = rank - g.n_p
    eps, _ = eps_for(g.signature_mod8(), g.p, new_np)
    return GenusSymbol(g.pos, g.neg, g.p, new_np, eps)


def eps_u_p(p: int) -> int:
    """Sign invariant of the discriminant form of the rescaled hyperbolic plane."""
    return 1 if p == 2 else legendre(-1, p)


def splits_u_up(g: GenusSymbol) -> bool:
    """Whether the genus admits a model U + U(p) + (positive definite part).

    Splitting off U is automatic for the signatures in scope; splitting the
    rescaled plane U(p) requires a definite complement of rank n - 2 whose
    discriminant form complements D(U(p)) inside D, which reduces to a
    rank/sign/octant feasibility check on block candidates.
    """
    m = g.n_p - 2
    rank_complement = (g.pos - 2) + (g.neg - 2)
    if m < 0 or rank_complement < m:
        return False
    eps_c = g.eps * eps_u_p(g.p)
    target = (g.pos - 2 - (g.neg - 2)) % 8
    if m == 0:
        return target == 0 and eps_c == 1
    try:
        return milgram_formula(g.p, m, eps_c) == target
    except GenusNotRepresentable:
        return False


# -- isotropic subgroups and even overlattices --


def isotropic_subgroups(
    form: DiscriminantForm, order: int | None = None, budget: int = 10**6
):
    """Subgroups on which q vanishes identically, as sorted element tuples.

    With `order` given, only subgroups of exactly that order are returned
    (the search restricts to elements whose order divides it).  The search
    walks closures breadth-first and raises BudgetExceeded past `budget`
    element operations.
    """
    zero = tuple(0 for _ in form.orders)
    ops = 0
    is_iso = form.is_isotropic

    if order is not None:
        pool = [x for x in form.elements_of_order_dividing(order) if any(x) and is_iso(x)]
    else:
        pool = [x for x in form.elements() if any(x) and is_iso(x)]

    def add_mod(x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, form.orders))

    def closure(base: frozenset, new):
        # <base, new> is the union of the cosets base + k*new; they repeat
        # from the first k with k*new in base, and only they need checking
        elems = set(base)
        coset = list(base)
        while True:
            coset = [add_mod(h, new) for h in coset]
            if coset[0] in elems:
                return frozenset(elems)
            if not all(map(is_iso, coset)):
                return None
            elems.update(coset)

    seen = {frozenset({zero})}
    frontier = [frozenset({zero})]
    results = []
    if order is None or order == 1:
        results.append(frozenset({zero}))
    while frontier:
        nxt = []
        for sub in frontier:
            if order is not None and len(sub) >= order:
                continue
            for x in pool:
                if x in sub:
                    continue
                ops += 1
                if ops > budget:
                    raise BudgetExceeded(f"isotropic subgroup search passed {budget} operations")
                grown = closure(sub, x)
                if grown is None or grown in seen:
                    continue
                if order is not None and (len(grown) > order or order % len(grown) != 0):
                    continue
                seen.add(grown)
                nxt.append(grown)
                if order is None or len(grown) == order:
                    results.append(grown)
        frontier = nxt
    out = [tuple(sorted(sub)) for sub in results]
    out.sort(key=lambda sub: (len(sub), sub))
    return out


def _lattice_fingerprint(lat: Lattice, norm_cap: int = 4) -> tuple:
    """Cheap isometry invariants used to deduplicate overlattices."""
    base = (abs(lat.det()), lat.level())
    try:
        hist = roots.short_vectors(lat.gram, norm_cap)
    except ValueError:  # not positive definite: fall back to the Gram matrix
        return base + (tuple(tuple(row) for row in lat.gram),)
    counts = tuple(sorted((n, len(v)) for n, v in hist.items()))
    return base + (counts,)


def even_overlattices(
    lat: Lattice, target_det: int, budget: int = 10**6, fingerprint_norm: int = 4
) -> list[Lattice]:
    """Even overlattices with the requested determinant, up to isometry.

    Overlattices M with L <= M <= L^dual correspond to isotropic subgroups
    H <= D(L), with [M : L]^2 = |det L| / |det M|.  One representative is
    returned per fingerprint class (determinant, level, short-vector
    histogram), matching the classification's use of "the" overlattice.
    """
    det = lat.det()
    d = abs(det)
    t = abs(target_det)
    if t == 0 or d % t != 0:
        return []
    ratio = d // t
    m = isqrt(ratio)
    if m * m != ratio:
        return []
    if m == 1:
        return [Lattice([row[:] for row in lat.gram])]
    form = DiscriminantForm.from_lattice(lat)
    n = lat.rank
    adj = intmat.int_matrix(intmat.scalar_mul(det, lat.dual_gram()))
    gens = form.gens
    assert gens is not None

    results: list[Lattice] = []
    seen_fp: set = set()
    for sub in isotropic_subgroups(form, order=m, budget=budget):
        rows = [[m if i == j else 0 for j in range(n)] for i in range(n)]
        for h in sub:
            if not any(h):
                continue
            coord = [sum(gens[r][i] * h[i] for i in range(len(h))) for r in range(n)]
            # m times the dual-coordinate vector G^-1 coord = adj coord / det
            scaled = [m * x for x in intmat.mat_vec(adj, coord)]
            assert all(x % det == 0 for x in scaled)
            rows.append([x // det for x in scaled])
        basis = intmat.row_hermite_form(rows)
        assert len(basis) == n
        gram_scaled = intmat.mat_mul(intmat.mat_mul(basis, lat.gram), intmat.transpose(basis))
        gram2 = []
        for row in gram_scaled:
            assert all(x % (m * m) == 0 for x in row)
            gram2.append([x // (m * m) for x in row])
        over = Lattice(gram2)
        assert abs(over.det()) == t
        fp = _lattice_fingerprint(over, fingerprint_norm)
        if fp in seen_fp:
            continue
        seen_fp.add(fp)
        results.append(over)
    results.sort(key=lambda l: tuple(tuple(row) for row in l.gram))
    return results
