"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: vector
counts and lists come from a flat coordinate-box sweep in numpy integer
arithmetic, power series come from naive polynomial products, Bernoulli
numbers come from the Akiyama-Tanigawa scheme, values of a discriminant form
come from one Fraction product per element (the isotropic ones from one
exact int64 product per element) on the Gram of its generators in the dual
pairing (`dual_pairing`), vanishing at a root of unity
comes from long division by the cyclotomic polynomial, long roots come
from the Fraction inverse at every level (`signed_roots`), root components
come from testing every pair of roots, taken with both signs, for a nonzero
inner product, span ranks come from row elimination over Z, the
level and rescaled duals of a lattice come from a Fraction Gauss-Jordan
inverse of its Gram, isotropic subgroups come from closures that test q
on every element they add and, on elementary abelian forms, from the
closed count of totally singular subspaces (`totally_singular_spaces`),
the root classes of a discriminant form come from the norm-2 vectors of
the whole dual, whether a glue group carries a root datum comes from the
root components of its built overlattice
(`carries_datum`), the root data of a rank and weight come from a search
over Fraction menus rebuilt on every call (`root_data_by_fractions`), the
matrix identity of a candidate check comes entry by entry from root sums
over `signed_roots` of the whole Gram (`check_candidate_entrywise`), and
the genus of a rescaled
dual comes from the complementary p-rank and the Milgram octant.  The sign of a prime-level
genus, which the library reads off the signature alone, is computed here
along two routes that look at the Gram itself: the exact Gauss sum of the
discriminant form, and the Legendre symbols of a p-adic Jordan splitting.
The existence of a genus, its sign, the U + U(p) split and the genus list
of the classification are also written out here branch by branch, each
condition tested on its own (`genus_rejection`, `eps_for`,
`splits_u_up_by_cases`, `genera_by_octant`), as an oracle for the one rule
of `GenusSymbol.why_absent`.
`in_random_basis` is the change of basis that the Hypothesis strategies
share.  `isotropic_pool`, the pool of a search for every isotropic
subgroup, is built on a library routine, the value walk; the tests check
it against the per-element filter `isotropic_elements`.  So is
`glue_fingerprints`, the histograms that class numbers were counted by
before they were counted as O(L)-orbits, which it bounds from below.  The
generators of O(L) come as n x n matrices on the whole Gram
(`isometry_generators`), whose images on D(L) (`actions_on_glue`) are the
oracle for the actions that the library builds part by part.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import strategies as st

from reflector import discforms, intmat, lattices, reflcheck, roots
from reflector.discforms import (
    BudgetExceeded,
    DiscriminantForm,
    GenusNotRepresentable,
    GenusSymbol,
    is_prime,
    milgram_formula,
)


def _box_sweep(gram: list[list[int]], max_norm: int):
    """Yield (left, right, norms) blocks covering every vector of norm <= max_norm.

    The coordinate box comes from the dual-diagonal bound: if G is positive
    definite and x'Gx <= t, then x_i^2 <= t * (G^{-1})_{ii}.  The sweep splits
    the coordinates into two halves and broadcasts the cross terms, so the
    only arithmetic is exact int64 matrix multiplication; norms[i, j] is the
    norm of the vector left[i] followed by right[j].
    """
    n = len(gram)
    g = np.array(gram, dtype=np.int64)
    inv_diag = np.diag(np.linalg.inv(np.array(gram, dtype=float)))
    bounds = [isqrt(int(max_norm * d) + 1) + 1 for d in inv_diag]
    half = n // 2
    left = _box_vectors(bounds[:half])
    right = _box_vectors(bounds[half:])
    a = g[:half, :half]
    b = g[:half, half:]
    c = g[half:, half:]
    norm_right = np.einsum("ij,jk,ik->i", right, c, right)
    chunk = max(1, (1 << 22) // max(1, len(right)))
    for start in range(0, len(left), chunk):
        piece = left[start : start + chunk]
        norm_left = np.einsum("ij,jk,ik->i", piece, a, piece)
        cross = piece @ b @ right.T
        yield piece, right, norm_left[:, None] + 2 * cross + norm_right[None, :]


def box_count_norm(gram: list[list[int]], target: int) -> int:
    """Count integer vectors of squared norm ``target`` by brute box sweep."""
    return sum(int(np.count_nonzero(norms == target)) for _, _, norms in _box_sweep(gram, target))


def box_vectors_by_norm(gram: list[list[int]], max_norm: int) -> dict[int, list[list[int]]]:
    """All nonzero vectors of norm <= max_norm, both signs, sorted, keyed by norm."""
    out: dict[int, list[list[int]]] = {}
    for left, right, norms in _box_sweep(gram, max_norm):
        for i, j in zip(*np.nonzero((norms > 0) & (norms <= max_norm))):
            vec = [int(x) for x in left[i]] + [int(x) for x in right[j]]
            out.setdefault(int(norms[i, j]), []).append(vec)
    return {norm: sorted(out[norm]) for norm in sorted(out)}


def _box_vectors(bounds: list[int]) -> np.ndarray:
    """All integer vectors with |x_i| <= bounds[i], as an int64 array."""
    if not bounds:
        return np.zeros((1, 0), dtype=np.int64)
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer polynomials truncated to n coefficients."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def euler_product_naive(power: int, n: int) -> list[Fraction]:
    """Coefficients of prod_{m>=1} (1 - q^m)^power by direct expansion.

    Negative powers go through the geometric series of each factor, so the
    whole thing stays a finite polynomial product up to order n.
    """
    series = [1] + [0] * (n - 1)
    for m in range(1, n):
        if power >= 0:
            factor = [0] * n
            factor[0] = 1
            if m < n:
                factor[m] = -1
            block = [1] + [0] * (n - 1)
            for _ in range(power):
                block = poly_mul(block, factor, n)
        else:
            inv = [0] * n
            for j in range(0, n, m):
                inv[j] = 1
            block = [1] + [0] * (n - 1)
            for _ in range(-power):
                block = poly_mul(block, inv, n)
        series = poly_mul(series, block, n)
    return [Fraction(c) for c in series]


def bernoulli_numbers(count: int) -> list[Fraction]:
    """First Bernoulli numbers (B_1 = -1/2) via the Akiyama-Tanigawa scheme."""
    out: list[Fraction] = []
    row: list[Fraction] = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    signed = list(out)
    if count > 1:
        signed[1] = -signed[1]
    return signed


def bernoulli_poly_3(x: Fraction) -> Fraction:
    """Third Bernoulli polynomial evaluated at x, built from B_0..B_3."""
    b = bernoulli_numbers(4)
    from math import comb

    return sum(
        Fraction(comb(3, k)) * b[k] * x ** (3 - k) for k in range(4)
    )


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def dual_pairing(lat, form: DiscriminantForm) -> list[list[Fraction]]:
    """gens^T G^-1 gens in Fractions, G^-1 = `fraction_inverse(lat.gram)`: the Gram
    of the generators of D(L) in the dual pairing, read off the lattice and not
    off the form's own Gram.  `form` is `DiscriminantForm.from_lattice(lat)`, or
    the part-by-part `discriminant_form(lat)` of a sum, whose `gens` are
    block diagonal."""
    w, dual = form.gens, fraction_inverse(lat.gram)
    n, k = len(w), len(form.orders)
    return [[sum(w[r][i] * dual[r][s] * w[s][j] for r in range(n) for s in range(n))
             for j in range(k)] for i in range(k)]


def q_values(orders: tuple[int, ...], bilinear) -> Counter:
    """Multiset of q(x) = x^T B x mod 2 over all elements, one Fraction sum each."""
    k = len(orders)
    out: Counter = Counter()
    for x in itertools.product(*(range(o) for o in orders)):
        q = sum(Fraction(bilinear[i][j]) * x[i] * x[j] for i in range(k) for j in range(k))
        out[q % 2] += 1
    return out


def isotropic_elements(orders: tuple[int, ...], bilinear) -> list[tuple[tuple[int, ...], int]]:
    """(x, order of x) for the nonzero x with q(x) = 0, in `itertools.product` order:
    the order of x as an lcm, and den q(x) = x^T (den B) x one exact int64 product
    each (numpy), den the common denominator of the Fraction entries of B."""
    b = [[Fraction(v) for v in row] for row in bilinear]
    den = lcm(1, *(v.denominator for row in b for v in row))
    a = np.array([[int(v * den) for v in row] for row in b], dtype=np.int64).reshape(len(b), len(b))
    elems = list(itertools.product(*(range(o) for o in orders)))
    x = np.array(elems, dtype=np.int64).reshape(len(elems), len(orders))
    hits = np.flatnonzero(np.einsum("ij,jk,ik->i", x, a, x) % (2 * den) == 0)
    return [(elems[i], lcm(*(o // gcd(o, c) for o, c in zip(orders, elems[i]))))
            for i in hits if any(elems[i])]


def isotropic_pool(form: DiscriminantForm, order: int) -> list[tuple[int, ...]]:
    """The nonzero isotropic x of order dividing `order`, in `itertools.product` order:
    the value-0 group of one `discforms._walk` of the form's torsion box."""
    groups = defaultdict(list)
    discforms._walk(form.bnum, discforms._torsion_box(form.orders, order), 2 * form.den,
                    groups=groups, minima={})
    return groups[0, None][1:]


def witt_index(p: int, n: int, eps: int, disc: int) -> int:
    """The Witt index w of a nondegenerate quadratic space of dimension n over F_p: at
    odd p the form sum a_i x_i^2 with disc = prod a_i, at p = 2 (n even) the space
    2_II^{eps n}, whose anisotropic block enters when eps = -1 (`disc` unused).

    w = (n - 1)/2 for n odd; for n even, w = n/2 when the space is hyperbolic,
    that is when (-1)^(n/2) disc is a square mod p (p odd) or eps = + (p = 2),
    and n/2 - 1 otherwise.
    """
    if n % 2:
        return (n - 1) // 2
    hyperbolic = eps == 1 if p == 2 else legendre((-1) ** (n // 2) * disc, p) == 1
    return n // 2 if hyperbolic else n // 2 - 1


def totally_singular_spaces(p: int, n: int, w: int, k: int) -> int:
    """The number of totally singular k-spaces of a nondegenerate quadratic space of
    dimension n and Witt index w over F_p,
    prod_{i<k} (p^(w-i) - 1)(p^(n-w-1-i) + 1) / (p^(i+1) - 1)
    (D. E. Taylor, The Geometry of the Classical Groups, 1992); 0 when k > w."""
    if k > w:
        return 0
    num = prod((p ** (w - i) - 1) * (p ** (n - w - 1 - i) + 1) for i in range(k))
    den = prod(p ** (i + 1) - 1 for i in range(k))
    assert num % den == 0
    return num // den


def isotropic_subgroups_by_closure(
    orders: tuple[int, ...], bilinear, order: int, budget: int = 10**6
) -> list[tuple]:
    """Isotropic subgroups of the given order, as sorted element tuples, sorted by (size, elements).

    Breadth-first closure from the nonzero isotropic elements whose order
    divides `order`: <H, x> is built coset by coset and rejected as soon as
    one of its elements has q != 0, with q one Fraction sum per element.
    Operations are counted as the library counts them, the prod gcd(o,
    order) elements of the pool scan and then one per (subgroup, element)
    pair tried with the element outside the subgroup, and BudgetExceeded is
    raised past `budget` of them.
    """
    ops = prod(gcd(o, order) for o in orders)
    if ops > budget:
        raise BudgetExceeded(f"pool scan of {ops} elements passes the budget {budget}")
    k = len(orders)

    def q(x) -> Fraction:
        return sum(Fraction(bilinear[i][j]) * x[i] * x[j] for i in range(k) for j in range(k)) % 2

    def divides_order(x) -> bool:
        return order % lcm(*(o // gcd(o, c) for o, c in zip(orders, x))) == 0

    elements = [x for x in itertools.product(*(range(o) for o in orders)) if divides_order(x)]
    isotropic = {x for x in elements if q(x) == 0}
    zero = tuple([0] * k)
    pool = [x for x in elements if x != zero and x in isotropic]

    def closure(base: frozenset, new):
        elems = set(base)
        coset = list(base)
        while True:
            coset = [tuple((a + b) % o for a, b, o in zip(h, new, orders)) for h in coset]
            if coset[0] in elems:
                return frozenset(elems)
            if not all(h in isotropic for h in coset):
                return None
            elems.update(coset)

    start = frozenset({zero})
    seen, frontier = {start}, [start]
    results = [start] if order == 1 else []
    while frontier:
        nxt = []
        for sub in frontier:
            if len(sub) >= order:
                continue
            for x in pool:
                if x in sub:
                    continue
                ops += 1
                if ops > budget:
                    raise BudgetExceeded(f"closures pass the budget {budget}")
                grown = closure(sub, x)
                if grown is None or grown in seen or order % len(grown):
                    continue
                seen.add(grown)
                nxt.append(grown)
                if len(grown) == order:
                    results.append(grown)
        frontier = nxt
    return sorted((tuple(sorted(sub)) for sub in results), key=lambda sub: (len(sub), sub))


def root_classes_by_dual_enumeration(lat, form: DiscriminantForm, order: int) -> frozenset:
    """The nonzero x in D(L) of order dividing `order` whose coset x + L holds a
    norm-2 vector, for L positive definite, from the norm-2 vectors of the
    whole dual of L that lie in those cosets.

    `form` is any presentation of D(L) that carries `gens` and `coords`:
    `DiscriminantForm.from_lattice(lat)`, or the part-by-part
    `discriminant_form(lat)` of a sum.  The dual vector G^-1 c lies in
    `form.element_of(c)` and has norm c^T adj(G) c / det.  The c
    whose element has order dividing `order` form the lattice C spanned by
    G Z^n and the lifts (o / gcd(o, order)) g of the generators g of D, and
    one `short_vectors` call on the adjugate's Gram over a Hermite basis of
    C finds the norm-2 ones; no part of L is looked at on its own.
    """
    det = lat.det()
    lifts = [[o // gcd(o, order) * w[i] for w in form.gens] for i, o in enumerate(form.orders)]
    basis = intmat.row_hermite_form([list(row) for row in lat.gram] + lifts)
    to_c = intmat.transpose(basis)
    gram = intmat.mat_mul(intmat.mat_mul(basis, lat.adjugate()), to_c)
    found = set()
    for z in roots.short_vectors(gram, 2 * det).get(2 * det, []):
        x = form.element_of(intmat.mat_vec(to_c, z))
        if any(x):
            found.add(x)
            found.add(tuple(-a % o for a, o in zip(x, form.orders)))
    return frozenset(found)


def gauss_exponents(orders: tuple[int, ...], bilinear, m: int) -> list[int]:
    """vec[e] = number of elements with q(x) m / 2 = e mod m."""
    vec = [0] * m
    for q, count in q_values(orders, bilinear).items():
        e = q * m / 2
        assert e.denominator == 1
        vec[int(e) % m] += count
    return vec


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder by a monic integer polynomial (low degree first)."""
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


def _mobius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial, as prod_{d | m} (x^d - 1)^mu(m/d)."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d == 0 and _mobius(m // d):
            factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            if _mobius(m // d) == 1:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot


def span_rank(vectors: list[list[int]]) -> int:
    """Rank of the span of integer vectors, by row elimination over Z.

    Rows are kept primitive with a positive leading entry and deduplicated;
    each pivot row clears its leading column from the others by cross
    multiplication, so the rank is the number of pivots.
    """
    def primitive(row) -> tuple | None:
        g = gcd(*row)
        if g == 0:
            return None
        if next(x for x in row if x) < 0:
            g = -g
        return tuple(x // g for x in row)

    rows = {r for v in vectors if (r := primitive(v))}
    rank = 0
    while rows:
        top = rows.pop()
        col = next(i for i, x in enumerate(top) if x)
        rank += 1
        rows = {
            r for row in rows
            if (r := primitive([top[col] * x - row[col] * y for x, y in zip(row, top)]))
        }
    return rank


def signed_roots(lat, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """The reflective roots at p with both signs, sorted: (norm 2, norm 2p).

    Read off the definition at every level: a long root is a vector s of L
    of norm 2p with s/p in the dual, so s = p G^-1 c for the c = G s / p in
    Z^n with c^T G^-1 c = 2/p.  The c are enumerated on den G^-1, with G^-1
    the Fraction inverse and den the lcm of its denominators, and s is kept
    when it is integral.
    """
    def both_signs(vectors):
        return sorted(vectors + [[-c for c in v] for v in vectors])

    short = roots.short_vectors(lat.gram, 2).get(2, [])
    inv = fraction_inverse(lat.gram)
    den = lcm(*(x.denominator for row in inv for x in row))
    long_ = []
    if 2 * den % p == 0:
        bound = 2 * den // p
        scaled = [[int(x * den) for x in row] for row in inv]
        for c in roots.short_vectors(scaled, bound).get(bound, []):
            s = [p * sum(x * y for x, y in zip(row, c)) for row in inv]
            if all(x.denominator == 1 for x in s):
                long_.append([int(x) for x in s])
    return both_signs(short), both_signs(long_)


def pairwise_root_components(lat, p: int) -> list[roots.RootComponent]:
    """Components of the reflective root system by union-find over all root pairs.

    Two roots of `signed_roots` are joined when their inner product is
    nonzero, and the rank of a component is the rank of the span of its roots.
    Each component takes the name of the `roots.component_types` entry with
    its rank and root counts; ValueError when there is none.
    """
    r1, r2 = signed_roots(lat, p)
    labeled = [(v, 0) for v in r1] + [(v, 1) for v in r2]
    parent = list(range(len(labeled)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    gv = [[sum(g * x for g, x in zip(row, v)) for row in lat.gram] for v, _ in labeled]
    for i, (vi, _) in enumerate(labeled):
        for j in range(i + 1, len(labeled)):
            if sum(x * y for x, y in zip(vi, gv[j])):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[int]] = {}
    for i in range(len(labeled)):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for members in groups.values():
        n_short = sum(1 for i in members if labeled[i][1] == 0)
        n_long = len(members) - n_short
        rank = span_rank([labeled[i][0] for i in members])
        names = [
            t.name
            for t, _, _ in roots.component_types(rank, p)
            if (t.count_short, t.count_long) == (n_short, n_long)
        ]
        if not names:
            raise ValueError(f"no table entry of rank {rank} with {n_short} + {n_long} roots")
        comps.append(
            roots.RootComponent(
                name=names[0],
                rank=rank,
                count_short=n_short,
                count_long=n_long,
                alpha=Fraction(n_short, rank),
                beta=Fraction(n_long, p * rank),
            )
        )
    comps.sort(key=lambda c: (c.name, c.rank, c.count_short, c.count_long))
    return comps


@cache
def root_sums_by_enumeration(lat, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """(S1, S2) = sum (Gr)(Gr)^T over the positive roots of norm 2 and of norm 2p of
    the whole lattice, from `signed_roots`: half the sum over both signs, as r and
    -r give the same outer product.  Kept per (lattice, p)."""
    n = lat.rank
    sums = []
    for signed in signed_roots(lat, p):
        total = [[0] * n for _ in range(n)]
        for r in signed:
            u = [sum(g * x for g, x in zip(row, r)) for row in lat.gram]
            for i in range(n):
                for j in range(n):
                    total[i][j] += u[i] * u[j]
        sums.append([[x // 2 for x in row] for row in total])
    return sums[0], sums[1]


def check_candidate_entrywise(lat, p: int, c1: int, cp: int, k: int):
    """`reflcheck.check_candidate` with its matrix identity tested entry by entry.

    s = p^2 c1 S1 + cp S2 is compared with C p^2 G on every entry of the whole
    Gram, with C p^2 = s_00 / G_00, on the root sums of
    `root_sums_by_enumeration`; the other checks are written out as in
    `check_candidate`, in Fractions, on its counts, span and components.
    """
    reflcheck.check_multiplicities(c1, cp)
    data = roots.root_data(lat, p)
    comps, n, n1 = data.components, lat.rank, data.span_short
    n_short, n_long = 2 * data.positive_short, 2 * data.positive_long
    s1, s2 = root_sums_by_enumeration(lat, p)
    s = [[p * p * c1 * x + cp * y for x, y in zip(r1, r2)] for r1, r2 in zip(s1, s2)]
    g00, s00 = (lat.gram[0][0], s[0][0]) if n else (1, 0)
    c = Fraction(s00, p * p * g00)
    matrix_ok = all(x * g00 == s00 * y for srow, grow in zip(s, lat.gram)
                    for x, y in zip(srow, grow))
    counting_ok = c == Fraction(c1 * n_short + cp * n_long + 2 * k, 24) - c1
    singular_ok = Fraction(k) >= Fraction(n1 * c1 + (n - n1) * cp, 2)
    coxeter_ok = None
    if p >= 5 and n_short and n_long and c1 > 0 and cp > 0:
        shorts = [cc for cc in comps if cc.count_long == 0]
        longs = [cc for cc in comps if cc.count_short == 0]
        h1s, h2s = {cc.alpha for cc in shorts}, {p * cc.beta for cc in longs}
        if len(shorts) + len(longs) != len(comps) or len(h1s) != 1 or len(h2s) != 1:
            coxeter_ok = False
        else:
            h1, h2 = h1s.pop(), h2s.pop()
            k_formula = c1 * (12 * (h1 + 1) + Fraction((p - 1) * n1 * h1, 2)
                              - Fraction(n * p * h1, 2))
            coxeter_ok = c == c1 * h1 and c == Fraction(cp * h2, p) and k == k_formula
    checks = {"matrix_identity": matrix_ok, "counting_identity": counting_ok,
              "singular_bound": singular_ok, "coxeter_identity": coxeter_ok}
    return reflcheck.CheckReport(
        lattice=lat.name or "", p=p, c1=c1, cp=cp, k=k,
        passed=all(v for v in checks.values() if v is not None), c=c,
        count_short=n_short, count_long=n_long, span_short=n1, rank=n, checks=checks,
    )


def carries_datum(over, p: int, datum: dict) -> bool:
    """Whether a built lattice carries a root datum of `class_number_rootsystems`.

    The oracle for the glue groups that `count_classes` keeps: the
    `roots.root_components` of the built overlattice, compared with the
    datum by sorted names, then short count, then long count.
    """
    comps = roots.root_components(over, p)
    return (
        sorted(c.name for c in comps) == datum["components"]
        and sum(c.count_short for c in comps) == datum["count_short"]
        and sum(c.count_long for c in comps) == datum["count_long"]
    )


def glue_fingerprints(lat, p: int, subs) -> dict[tuple, list]:
    """The glue groups of L by the fingerprint that class numbers were counted by
    before they were counted as orbits: the histogram of the vectors of norm <= 2p
    of each group's overlattice, built by `discforms.glue_overlattice` and
    enumerated by `roots.short_vectors`.

    The histogram is an isometry invariant, so the groups of one O(L)-orbit
    share one, and there are at least as many orbits as histograms.
    """
    form = discforms.discriminant_form(lat)
    classes = defaultdict(list)
    for sub in subs:
        norms = roots.short_vectors(discforms.glue_overlattice(lat, form, sub).gram, 2 * p)
        classes[tuple(sorted((n, len(v)) for n, v in norms.items()))].append(sub)
    return dict(classes)


def isometry_generators(lat) -> list[list[list[int]]]:
    """Generators of O(L) as n x n integer matrices g with g^T G g = G, built on the
    whole Gram, for L a sum of root lattices and their rescalings: part by part, the
    reflections in the basis vectors of norm 2m > 2 that lie in O(L), the
    Gram-preserving basis permutations, grown breadth first, and the swap with the
    next part of equal Gram."""
    parts, n, gens = lat.parts or (lat,), lat.rank, []
    starts = [sum(part.rank for part in parts[:i]) for i in range(len(parts))]

    def sends(moves) -> None:  # e_s -> e_t for each (s, t), the identity elsewhere
        gens.append(intmat.identity(n))
        for s, t in moves:
            gens[-1][s][s], gens[-1][t][s] = 0, 1

    for i, (part, o) in enumerate(zip(parts, starts)):
        gram, k = part.gram, part.rank
        for a, row in enumerate(gram):
            if row[a] not in (0, 2) and not any(2 * x % row[a] for x in row):
                gens.append(intmat.identity(n))
                gens[-1][o + a][o : o + k] = [(a == b) - 2 * x // row[a] for b, x in enumerate(row)]
        perms = [()]
        for a in range(k):  # the prefixes on which the Gram agrees, one node at a time
            perms = [perm + (t,) for perm in perms for t in range(k) if t not in perm
                     and all(gram[t][u] == gram[a][b] for b, u in enumerate(perm + (t,)))]
        for perm in perms:
            sends((o + a, o + b) for a, b in enumerate(perm))
        twin = next((starts[j] for j in range(i + 1, len(parts)) if parts[j].gram == gram), None)
        if twin is not None:
            sends([(o + a, twin + a) for a in range(k)] + [(twin + a, o + a) for a in range(k)])
    return gens


def actions_on_glue(lat, gens) -> set[tuple]:
    """The non-identity actions of n x n generators g on D(L): the matrix whose column j
    is the class of g^T c_j, for c_j the j-th generator of `discriminant_form(L)` in
    Z^n / G Z^n."""
    form = discforms.discriminant_form(lat)
    size = len(form.orders)
    identity = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    actions = {tuple(zip(*(form.element_of(intmat.mat_vec(intmat.transpose(g), c))
                           for c in zip(*form.gens)))) for g in gens}
    return actions - {identity}


def root_data_by_fractions(rank: int, p: int, c1: int, cp: int, k: int) -> tuple[list[dict], int]:
    """The root data of `classify.class_number_rootsystems`, and the nodes its search visits.

    The oracle for the integer menus: the menus are rebuilt on every call,
    keyed by the Fraction C = c1 alpha + cp beta of each
    `roots.component_types` entry, and the counting identity is compared as
    Fractions at every leaf.  The nodes are counted as the library charges
    them, one per menu and one per partial multiset, with no budget.
    """
    menus: dict[Fraction, list] = {}
    for r in range(1, rank + 1):
        for comp, _, det in roots.component_types(r, p):
            menus.setdefault(c1 * comp.alpha + cp * comp.beta, []).append((comp, det))
    found = []
    nodes = 0
    for c, menu in menus.items():
        chosen: list[tuple] = []
        stack = [[0, rank, 0, 0]]
        nodes += 1
        while stack:
            frame = stack[-1]
            i, remaining, a, b = frame
            while i < len(menu) and menu[i][0].rank > remaining:
                i += 1
            if i == len(menu):
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            frame[0] = i + 1
            nodes += 1
            comp = menu[i][0]
            chosen.append(menu[i])
            a, b = a + comp.count_short, b + comp.count_long
            if remaining > comp.rank:
                stack.append([i, remaining - comp.rank, a, b])
                continue
            if c == Fraction(c1 * a + cp * b + 2 * k, 24) - c1:
                found.append(
                    {
                        "c": c,
                        "components": sorted(entry.name for entry, _ in chosen),
                        "count_short": a,
                        "count_long": b,
                        "det": prod(det for _, det in chosen),
                    }
                )
            chosen.pop()
    found.sort(key=lambda d: (d["c"], d["components"]))
    return found, nodes


def fraction_inverse(gram: list[list[int]]) -> list[list[Fraction]]:
    """G^-1 by Gauss-Jordan elimination over Fraction, with row swaps."""
    n = len(gram)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        top = [x / m[c][c] for x in m[c]]
        m[c] = top
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], top)]
    return [row[n:] for row in m]


def dual_level(gram: list[list[int]]) -> int:
    """Smallest N with N G^-1 integral and of even diagonal, from the Fraction inverse."""
    inv = fraction_inverse(gram)
    n0 = lcm(*(x.denominator for row in inv for x in row))
    if any((n0 * inv[i][i]).numerator % 2 for i in range(len(inv))):
        return 2 * n0
    return n0


def dual_rescaled_gram(gram: list[list[int]], m: int) -> list[list[int]] | None:
    """m G^-1 as integers when it is integral with even diagonal, else None."""
    scaled = [[m * x for x in row] for row in fraction_inverse(gram)]
    if any(x.denominator != 1 for row in scaled for x in row):
        return None
    if any(scaled[i][i].numerator % 2 for i in range(len(scaled))):
        return None
    return [[x.numerator for x in row] for row in scaled]


def eps_for(sig_mod8: int, p: int, n_p: int) -> int:
    """The sign whose block candidate has the octant sig_mod8; GenusNotRepresentable if none."""
    for eps in (1, -1):
        try:
            if milgram_formula(p, n_p, eps) == sig_mod8 % 8:
                return eps
        except GenusNotRepresentable:
            break
    raise GenusNotRepresentable(
        f"no even-lattice genus with signature {sig_mod8} mod 8, p={p}, n_p={n_p}"
    )


def genus_rejection(g: GenusSymbol) -> str | None:
    """Why `parse_genus` must reject the label of g (the text after "no genus ...: "), or None."""
    rank = g.pos + g.neg
    if not is_prime(g.p):
        return f"{g.p} is not prime"
    if rank % 2:
        return f"even lattices have even rank, not {rank}"
    if g.n_p > rank:
        return f"p-rank {g.n_p} exceeds the rank {rank}"
    try:
        octant = milgram_formula(g.p, g.n_p, g.eps)
    except GenusNotRepresentable as exc:
        return str(exc)
    if octant != g.signature_mod8():
        return (
            f"Milgram octant {octant} differs from the signature "
            f"{g.signature_mod8()} mod 8"
        )
    return None


def splits_u_up_by_cases(g: GenusSymbol) -> bool:
    """Whether a definite complement of U + U(p) fits: p-rank, rank, then octant or
    the trivial form, with the rank's parity left unchecked."""
    m = g.n_p - 2
    rank_complement = (g.pos - 2) + (g.neg - 2)
    if m < 0 or rank_complement < m:
        return False
    eps_c = g.eps * (1 if g.p == 2 else legendre(-1, g.p))
    target = (g.pos - 2 - (g.neg - 2)) % 8
    if m == 0:
        return target == 0 and eps_c == 1
    try:
        return milgram_formula(g.p, m, eps_c) == target
    except GenusNotRepresentable:
        return False


def genera_by_octant(p: int, n_max: int = 26) -> list[GenusSymbol]:
    """The genera II_{n,2}(p^{eps n_p}), 4 <= n <= n_max, 1 <= n_p <= (n+2)/2, by `eps_for`."""
    out = []
    for n in range(4, n_max + 1, 2):
        for n_p in range(1, (n + 2) // 2 + 1):
            try:
                eps = eps_for(n - 2, p, n_p)
            except GenusNotRepresentable:
                continue
            out.append(GenusSymbol(n, 2, p, n_p, eps))
    return out


def dual_rescale_genus(g: GenusSymbol) -> GenusSymbol:
    """Genus of the rescaled dual M^dual(p): p-rank rank - n_p, sign from the octant."""
    new_np = g.pos + g.neg - g.n_p
    return GenusSymbol(g.pos, g.neg, g.p, new_np, eps_for(g.signature_mod8(), g.p, new_np))


def eps_by_gauss_sum(lat, p: int) -> int:
    """The sign of the genus of a level-p lattice from the Gauss sum of its discriminant form.

    The Milgram octant of the Gauss sum must equal the signature mod 8; the
    sign is the one whose block candidate has that octant.
    """
    form = DiscriminantForm.from_lattice(lat)
    assert all(o == p for o in form.orders), form.orders
    octant = form.milgram_octant()
    assert octant == lat.signature_mod8()
    return eps_for(octant, p, len(form.orders))


def p_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def eps_by_jordan(lat, p: int) -> int:
    """The sign at odd p from a p-adic Jordan splitting of the Gram.

    A p-adically pivoted congruence diagonalisation splits the Gram into
    units and p times units; the sign is the product of the Legendre symbols
    of the units in the p-part.
    """
    assert p != 2
    eps = 1
    for entry in intmat.congruent_diagonal(lat.gram, lambda x: p_valuation(x, p))[1]:
        v = p_valuation(entry, p)
        assert v in (0, 1), f"diagonal entry {entry} has p-valuation {v} at level p"
        if v == 1:
            unit = entry / p
            eps *= legendre(unit.numerator * pow(unit.denominator, -1, p), p)
    return eps


def in_random_basis(draw, gram, coeff: int = 1) -> list[list[int]]:
    """The Gram in a random basis, drawn with Hypothesis's `draw`.

    The basis change is a product of elementary moves (row i += c row j on
    both sides of the Gram, |c| <= coeff) and a coordinate permutation.
    """
    n = len(gram)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-coeff, coeff))
    for i, j, c in draw(st.lists(moves, max_size=2 * n)):
        if i != j:
            basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
    basis = draw(st.permutations(basis))
    return [
        [sum(u[a] * gram[a][b] * v[b] for a in range(n) for b in range(n)) for v in basis]
        for u in basis
    ]


@contextmanager
def short_vector_calls():
    """The arguments of each `roots.short_vectors` call made inside the block."""
    calls = []
    inner = roots.short_vectors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "short_vectors", lambda *args: calls.append(args) or inner(*args))
        yield calls


@contextmanager
def part_sums_calls():
    """The target of each `roots.part_sums` call made inside the block."""
    calls = []
    inner = roots.part_sums
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "part_sums",
                      lambda steps, target: calls.append(target) or inner(steps, target))
        yield calls


@contextmanager
def split_calls():
    """The arguments of each `roots.split_components` call made inside the block."""
    calls = []
    inner = roots.split_components
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "split_components", lambda *args: calls.append(args) or inner(*args))
        yield calls


@contextmanager
def smith_calls():
    """The arguments of each `intmat.smith_normal_form` call made inside the block."""
    calls = []
    inner = intmat.smith_normal_form
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intmat, "smith_normal_form", lambda *args: calls.append(args) or inner(*args))
        yield calls


@contextmanager
def glue_overlattice_calls():
    """The arguments of each `discforms.glue_overlattice` call made inside the block."""
    calls = []
    inner = discforms.glue_overlattice
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discforms, "glue_overlattice", lambda *args: calls.append(args) or inner(*args))
        yield calls


@contextmanager
def walk_calls():
    """The box of each `discforms._walk` call made inside the block."""
    calls = []
    inner = discforms._walk

    def counted(bnum, box, *args, **kwargs):
        calls.append(box)
        return inner(bnum, box, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discforms, "_walk", counted)
        yield calls


@contextmanager
def joined_pools():
    """The size of each pool that `discforms._join` concatenates inside the block."""
    sizes = []
    inner = discforms._join

    def counted(*args):
        pool = inner(*args)
        sizes.append(len(pool))
        return pool

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discforms, "_join", counted)
        yield sizes


@contextmanager
def search_budget(budget: int):
    """`discforms.BUDGET` set to `budget` inside the block, for the Hypothesis tests
    and strategies that a function-scoped `monkeypatch` does not reach."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discforms, "BUDGET", budget)
        yield


@contextmanager
def lattice_builds():
    """(name, rank) of each `Lattice` constructed inside the block, counted on entry."""
    built = []
    inner = lattices.Lattice.__post_init__

    def counted(lat):
        built.append((lat.name, len(lat.gram)))
        inner(lat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattices.Lattice, "__post_init__", counted)
        yield built
