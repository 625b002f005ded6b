"""Discriminant forms, Milgram signatures, and prime-level genus symbols.

The discriminant form of an even lattice L is the finite abelian group
D = L^dual / L carrying the quadratic form q(x) = (x, x) mod 2Z and the
bilinear form b(x, y) = (x, y) mod Z.  This module computes D from a Gram
matrix through the Smith normal form, evaluates the Gauss sum of q exactly in
a cyclotomic ring to pin its Milgram octant, classifies prime-level genera by
a plus/minus invariant computed along two independent routes, and performs
the overlattice constructions (isotropic subgroups, even overlattices) that
the classification needs.

Value statistics of a form come from one integer pass over D, made at most
once per form: it counts the values x^T B x times the common denominator of
B, and both the norm counts and the Gauss sum are read off those counts.
The Gauss sum is compared with sqrt(|D|) zeta_8^s in Z[C_M], M = lcm(8,
level), and a difference vanishes at zeta_M exactly when its reduction along
the prime-power factors of M (by CRT) is zero, which takes O(M omega(M))
integer operations (Milgram's formula: Milnor and Husemoller, Symmetric
Bilinear Forms, 1973, appendix 4).

Conventions for the plus/minus invariant at odd p: a rank-one block <2a/p>
contributes chi_p(2a) to epsilon and a Milgram octant governed by chi_p(a);
at p = 2 only the even (II-type) rank-two blocks occur at prime level, with
epsilon + for the hyperbolic block and - when one anisotropic block enters.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
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
    _counts: list[int] | None = field(default=None, init=False, repr=False, compare=False)

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

    def _q_counts(self) -> list[int]:
        """counts[v] = number of elements x with x^T B x * den = v mod 2 den.

        One pass over D in integers, made once per form.  The walk carries
        the partial linear forms sum_{j<i} B_tj x_j of the later coordinates
        t, so the innermost coordinate costs O(1) per element: along it the
        value is a quadratic in x_i, stepped by its first difference.
        """
        if self._counts is not None:
            return self._counts
        mod = 2 * self._bden
        counts = [0] * mod
        bnum, orders = self._bnum, self.orders
        last = len(orders) - 1

        def walk(i: int, value: int, lin: list[int]) -> None:
            # value(x_i) = value + x_i (b x_i + 2 lin[i]), stepped by `step`
            b = bnum[i][i]
            step = b + 2 * lin[i]
            if i == last:
                for _ in range(orders[i]):
                    counts[value % mod] += 1
                    value += step
                    step += 2 * b
                return
            row = bnum[i]
            for _ in range(orders[i]):
                walk(i + 1, value, lin)
                value += step
                step += 2 * b
                lin = [x + y for x, y in zip(lin, row)]

        if orders:
            walk(0, 0, [0] * len(orders))
        else:
            counts[0] = 1
        self._counts = counts
        return counts

    def count_norm(self, target: Fraction) -> int:
        """Number of nonzero elements with q(x) = target mod 2."""
        v = Fraction(target) % 2 * self._bden
        if v.denominator != 1:
            return 0
        zero = 1 if v == 0 else 0  # the zero element has q = 0
        return self._q_counts()[v.numerator] - zero

    def _gauss_vector(self, m: int) -> list[int]:
        """vec[e] = number of elements with q(x) m / 2 = e mod m, for m a multiple of the level."""
        vec = [0] * m
        den2 = 2 * self._bden
        for v, c in enumerate(self._q_counts()):
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
        pos, axes = _crt_layout(m)
        gauss = [0] * m
        for e, c in enumerate(self._gauss_vector(m)):
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


def eps_for(sig_mod8: int, p: int, n_p: int) -> int:
    """Resolve the sign invariant from the signature; raise when impossible."""
    for eps in (1, -1):
        try:
            if milgram_formula(p, n_p, eps) == sig_mod8 % 8:
                return eps
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
    eps = eps_for(g.signature_mod8(), g.p, new_np)
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
