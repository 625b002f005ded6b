"""Short vectors and reflective root systems of positive definite lattices.

Enumeration is exact and integer-only (Fincke-Pohst): the LDL split of the
Gram matrix, scaled once into integers by fraction-free elimination, drives
a depth-first search whose per-coordinate ranges come from integer square
roots of the remaining budget, so neither floating point nor Fraction work
enters the search.  Root systems split into two classes relative to a prime
p: ordinary roots of norm 2, and vectors of norm 2p that stay integral after
division by p in the dual pairing (these reflect the lattice through
rescaled mirrors).  Together they form one finite root system R.

Each lattice enumerates its own roots once, and its dual vectors of norm
<= 2/p once per bound, and keeps both as its `root_table`, all written in
dual coordinates G v.  A long root is p w for a dual vector w of norm
2/p, so R is read off these tables: the dual vectors of norm 2/p of an
orthogonal sum are concatenated from its parts' tables (`dual_roots`),
and the long roots of L are the p w that lie in L (`_trivial_glue_roots`);
those of a glue overlattice M of L are read off D(L) from the same
concatenation, with no overlattice built (`discforms.glue_components`).
R(M) depends on the glue group only through the set of classes of D(L)
whose long roots it keeps, so `split_components` runs once per (lattice,
p, class set), and its components are kept on L through `kept`.

`root_data` summarises R once per (lattice, p) and keeps the result on the
`Lattice`, as the one record of everything the candidate check reads: the
positive root counts, the irreducible components, n1, the Coxeter pair,
and the root sums S1 and S2 reduced to at most 3 integer relations.  On an
orthogonal sum whose parts all have level 1 or p, the record is joined
from the parts' records, since then every root lies in one part (Bourbaki,
Lie groups, ch. VI, 1): a norm-2 vector because each part is even, and a reflective
norm-2p vector s because each nonzero piece s_i has w = s_i / p in the
part's dual, so p w^2 is even and s_i^2 = p (p w^2) is at least 2p.  Any
other lattice (an overlattice, T8, a sum with a part of another level) is
one block, whose root sums are formed only while its record is built, and
its components come from the simple roots for the lexicographic order of
its dual coordinates (`split_components`).

`component_types(rank, p)` is the one table of irreducible reflective root
systems: the ADE types, their rescalings X(p), B_n, C_n and F4 at p = 2, and
G2 at p = 3, each with its root counts, its coefficients alpha and beta, and
the lattice its roots span.  The simple-root split looks each component up
there by rank and root counts, `root_data` reads Coxeter numbers off it, and
`classify` draws the class-number menu and the spanned lattices from it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from typing import NamedTuple

from . import intmat
from .lattices import Lattice, kept


def short_vectors(gram: list[list[int]], max_norm: int):
    """Nonzero vectors of norm <= max_norm, as a dict norm -> sorted vectors.

    One representative per antipodal pair is returned, the one whose first
    nonzero coordinate is positive.  Raises ValueError when gram is not
    positive definite.
    """
    n = len(gram)
    minors, mult = intmat.scaled_ldl(gram)
    out: dict[int, list[list[int]]] = {}
    if n == 0 or max_norm <= 0:
        return out
    # x^t G x = sum_i (D[i+1] x_i + c_i)^2 / (D[i] D[i+1]) with D the leading
    # minors and c_i = sum_{j>i} mult[i][j] x_j; times `scale` every term is
    # an integer weight[i] * (D[i+1] x_i + c_i)^2
    dets = [1] + minors
    scale = lcm(*(dets[i] * dets[i + 1] for i in range(n)))
    weight = [scale // (dets[i] * dets[i + 1]) for i in range(n)]
    budget = scale * max_norm
    x = [0] * n

    def record(left: int) -> None:
        # the search keeps the last nonzero coordinate positive; the output
        # convention is the first one
        v = x[:]
        first = next(c for c in v if c)
        if first < 0:
            v = [-c for c in v]
        out.setdefault((budget - left) // scale, []).append(v)

    def rec(i: int, left: int, free: bool) -> None:
        # `left` is the unspent scaled budget; `free` says every coordinate
        # above i is zero, and then x_i >= 0 keeps one vector of each +- pair
        piv, w, row = dets[i + 1], weight[i], mult[i]
        c = 0
        for j in range(i + 1, n):
            c += row[j] * x[j]
        s = isqrt(left // w)
        lo = 0 if free else -((s + c) // piv)
        for xi in range(lo, (s - c) // piv + 1):
            t = piv * xi + c
            x[i] = xi
            if i:
                rec(i - 1, left - w * t * t, free and not xi)
            elif xi or not free:
                record(left - w * t * t)
        x[i] = 0

    rec(n - 1, budget, True)
    del rec  # it reaches itself through its cell, a cycle that would hold `out`
    for vecs in out.values():
        vecs.sort()
    return {norm: out[norm] for norm in sorted(out)}


def root_table(lat: Lattice, p: int) -> tuple[list[list[int]], dict[int, list[tuple[int, ...]]]]:
    """The roots of L and its dual vectors of norm <= 2/p, enumerated once and kept on L.

    Returns (roots, duals).  `roots` holds G r for the norm-2 vectors r of
    L, one per +- pair, the first nonzero coordinate of G r positive.
    `duals` holds, by det(L) times their norm, the dual vectors w of norm
    <= 2/p, both signs, each as its coordinates c = G w: the dual vector
    G^-1 c has norm c^T adj(G) c / det, so they are the vectors of norm
    <= 2 det / p for the adjugate.  The roots are enumerated once per
    lattice, and the dual vectors once per bound 2 det // p, which primes
    with the same bound share.
    """
    return _roots(lat), _duals(lat, 2 * lat.det() // p)


@kept
def _roots(lat: Lattice) -> list[list[int]]:
    """The `root_table` roots of lat."""
    return [_first_positive(intmat.mat_vec(lat.gram, r))
            for r in short_vectors(lat.gram, 2).get(2, [])]


@kept
def _duals(lat: Lattice, bound: int) -> dict[int, list[tuple[int, ...]]]:
    """The vectors c of norm <= bound for adj(G), by norm, each norm's
    `short_vectors` list followed by its negatives; kept on lat per bound."""
    return {norm: [tuple(c) for c in vecs] + [tuple(-a for a in c) for c in vecs]
            for norm, vecs in short_vectors(lat.adjugate(), bound).items()}


def _first_positive(v: list[int]) -> list[int]:
    return v if next(c for c in v if c) > 0 else [-c for c in v]


def part_sums(steps, target: int) -> list[tuple]:
    """The concatenations of one piece per part whose scaled norms add up to `target`.

    steps[i] is (the zero piece of part i, {scaled norm: its pieces}), each
    piece a tuple.  A pass over the parts keeps, by the norm spent so far,
    the prefixes from which the later parts can still reach `target`
    exactly.
    """
    # left[i]: the norms the parts of steps[i:] can still add, up to target
    left = [{0}]
    for _, by_norm in reversed(steps):
        left.append({s + t for s in left[-1] for t in (0, *by_norm) if s + t <= target})
    left.reverse()
    spent = {0: [()]}
    for i, (zero, by_norm) in enumerate(steps):
        grown: dict[int, list] = {}
        for s, prefixes in spent.items():
            for t, xs in ((0, [zero]), *by_norm.items()):
                if target - s - t in left[i + 1]:
                    grown.setdefault(s + t, []).extend(e + x for e in prefixes for x in xs)
        spent = grown
    return spent.get(target, [])


def dual_roots(lat: Lattice, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """The positive norm-2 roots of L and its dual vectors of norm 2/p, as (short, duals).

    Both are written as coordinates G v, one per +- pair, the first nonzero
    coordinate positive.  L is the orthogonal sum of its parts (L itself
    when it is not a sum), each with its `root_table`.  Every norm-2 vector
    of L lies in one part, as the parts are even.  A dual vector of L is
    the concatenation of one dual vector of each part, and its norm is the
    sum of theirs, so the dual vectors of norm 2/p are the concatenations
    (`part_sums`) of part dual vectors whose norms add up to exactly 2/p;
    they can span several parts.
    """
    parts = lat.parts or (lat,)
    den = lcm(p, *(part.det() for part in parts))
    short, steps, offset = [], [], 0
    for part in parts:
        own, duals = root_table(part, p)
        pad = [0] * (lat.rank - offset - part.rank)
        short += [[0] * offset + r + pad for r in own]
        offset += part.rank
        scale = den // part.det()
        steps.append(((0,) * part.rank, {norm * scale: ws for norm, ws in duals.items()}))
    duals = [list(c) for c in part_sums(steps, 2 * den // p) if next(a for a in c if a) > 0]
    return short, duals


def _trivial_glue_roots(lat: Lattice, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """R1+ and R2+ of L at p, as coordinates G v, the first nonzero coordinate positive.

    A long root is a vector s of L of norm 2p with s/p in L^dual, so it is
    p w for a dual vector w of norm 2/p with p w in L: with c = G w, one
    with p adj(G) c = 0 mod det(G).  This is `discforms.glue_components` at
    the trivial glue group, with no discriminant form.
    """
    short, duals = dual_roots(lat, p)
    adj, det = lat.adjugate(), lat.det()
    return short, [[p * a for a in c] for c in duals
                   if not any(p * x % det for x in intmat.mat_vec(adj, c))]


class RootComponent(NamedTuple):
    """One irreducible component of the combined reflective root system."""

    name: str
    rank: int
    count_short: int
    count_long: int
    alpha: Fraction
    beta: Fraction


class AdeType(NamedTuple):
    """An irreducible simply laced root system and the lattice its roots span."""

    name: str
    rank: int
    coxeter: int
    det: int

    @property
    def count(self) -> int:
        """Number of roots, rank times the Coxeter number."""
        return self.rank * self.coxeter


_E_TYPES = {6: (12, 3), 7: (18, 2), 8: (30, 1)}  # rank -> (Coxeter number, det)


@cache
def ade_types(rank: int) -> tuple[AdeType, ...]:
    """The ADE table at one rank: A_n, then D_n for n >= 4, then E_6, E_7, E_8."""
    types = [AdeType(f"A{rank}", rank, rank + 1, rank + 1)]
    if rank >= 4:
        types.append(AdeType(f"D{rank}", rank, 2 * rank - 2, 4))
    if rank in _E_TYPES:
        types.append(AdeType(f"E{rank}", rank, *_E_TYPES[rank]))
    return tuple(types)


@cache
def component_types(rank: int, p: int) -> tuple[tuple[RootComponent, str, int], ...]:
    """The irreducible reflective root systems of one rank at p, as (component, span, det).

    `span` is the catalog expression of the lattice the roots span and `det`
    its determinant.  The table holds every ADE type X made of short roots,
    which spans X; every X(p) made of long roots, which spans X(p); at p = 2,
    B_n (n >= 2) spanning nA1, C_n (n >= 3) spanning D_n (written A3 for C3,
    whose span D3 the catalog builds as a relabelled A3) and F4 spanning D4;
    and at p = 3, G2 spanning A2.  B_n has short roots +-e_i of norm 2 and
    long roots +-e_i +- e_j of norm 4; C_n the reverse, with short roots
    +-e_i +- e_j and long roots +-2e_i.  The Coxeter number of a component
    is alpha when it has only short roots and p beta when it has only long
    ones, and (count_short + count_long) / rank in general.
    """

    def entry(name: str, n_short: int, n_long: int, span: str, det: int):
        alpha, beta = Fraction(n_short, rank), Fraction(n_long, p * rank)
        return RootComponent(name, rank, n_short, n_long, alpha, beta), span, det

    types = []
    for t in ade_types(rank):
        types.append(entry(t.name, t.count, 0, t.name, t.det))
        types.append(entry(f"{t.name}({p})", 0, t.count, f"{t.name}({p})", t.det * p**rank))
    if p == 2 and rank >= 2:
        types.append(entry(f"B{rank}", 2 * rank, 2 * rank * (rank - 1), f"{rank}A1", 2**rank))
    if p == 2 and rank >= 3:
        types.append(entry(f"C{rank}", 2 * rank * (rank - 1), 2 * rank,
                           "A3" if rank == 3 else f"D{rank}", 4))
    if p == 2 and rank == 4:
        types.append(entry("F4", 24, 24, "D4", 4))
    if p == 3 and rank == 2:
        types.append(entry("G2", 6, 6, "A2", 3))
    return tuple(types)


class RootData(NamedTuple):
    """The reflective root system R of a positive definite lattice at one prime.

    `positive_short` and `positive_long` are |R1+| and |R2+|, the numbers of
    positive roots of norm 2 and 2p; `components` are sorted by name, rank
    and counts; `span_short` is n1, the rank of the span of R1, which is the
    total rank of the components that hold short roots.  The rest is what
    `reflcheck.check_candidate` reads of the root sums S1 = sum (Gr)(Gr)^T
    over R1+ and S2 = sum (Gs)(Gs)^T over R2+, which are block diagonal
    with one block per enumerated part: `first` is (G00, S1_00, S2_00) of
    the first block, or (1, 0, 0) when there is none, and `relations` is
    the row Hermite form of the rows (p^2 S1_ij, S2_ij, -G_ij), i <= j, of
    every block, at most 3 rows.  `coxeter` is the pair (h1, h2) of Coxeter
    numbers of the short and the long components, or None unless every
    component is made of short roots alone or of long roots alone, with one
    Coxeter number for each kind.
    """

    positive_short: int
    positive_long: int
    components: tuple[RootComponent, ...]
    span_short: int
    first: tuple[int, int, int]
    relations: tuple[tuple[int, int, int], ...]
    coxeter: tuple[int, int] | None


@kept
def root_data(lat: Lattice, p: int) -> RootData:
    """The root data of lat at p, computed once per (lattice, p) and kept on lat.

    A sum whose parts all have level 1 or p joins its parts' data (see the
    module docstring): the counts add, the components merge, the first block
    is the first part's, and the relations are the Hermite form of the
    parts' relations, which span the same rows as all the blocks' rows.
    Any other lattice is one block, whose roots are read off its parts'
    root tables (`_trivial_glue_roots`).
    """
    if lat.parts and all(part.level() in (1, p) for part in lat.parts):
        parts = [root_data(part, p) for part in lat.parts]
        n_short = sum(d.positive_short for d in parts)
        n_long = sum(d.positive_long for d in parts)
        comps = sorted((c for d in parts for c in d.components), key=_component_key)
        # a part of rank 0, which a catalog file may name, has no block
        first = next((d.first for d, part in zip(parts, lat.parts) if part.rank), (1, 0, 0))
        rows = [row for d in parts for row in d.relations]
    else:
        r1, r2 = _trivial_glue_roots(lat, p)
        n_short, n_long, n, g = len(r1), len(r2), lat.rank, lat.gram
        comps = split_components(lat.adjugate(), p, r1, r2)
        s1, s2 = _outer_sum(r1, n), _outer_sum(r2, n)
        first = (g[0][0], s1[0][0], s2[0][0]) if n else (1, 0, 0)
        rows = {(p * p * x, y, -z)
                for i in range(n) for x, y, z in zip(s1[i][i:], s2[i][i:], g[i][i:])}
    span = sum(c.rank for c in comps if c.count_short)
    # a component of one root length is an ADE type, whose root count is its rank
    # times its Coxeter number: alpha for short roots, p beta for long ones
    h1s = {c.count_short // c.rank for c in comps if not c.count_long}
    h2s = {c.count_long // c.rank for c in comps if not c.count_short}
    split = all(not (c.count_short and c.count_long) for c in comps)
    coxeter = (*h1s, *h2s) if split and len(h1s) == len(h2s) == 1 else None
    relations = tuple(map(tuple, intmat.row_hermite_form(list(map(list, rows)))))
    return RootData(n_short, n_long, tuple(comps), span, first, relations, coxeter)


def _outer_sum(vectors: list[list[int]], n: int) -> list[list[int]]:
    """sum_u u u^T over the given vectors of length n, in integers."""
    total = [[0] * n for _ in range(n)]
    for u in vectors:
        nonzero = [(i, x) for i, x in enumerate(u) if x]
        for i, x in nonzero:
            row = total[i]
            for j, y in nonzero:
                row[j] += x * y
    return total


def root_components(lat: Lattice, p: int) -> list[RootComponent]:
    """Irreducible components of the two-class reflective root system, from `root_data`.

    alpha = (short count) / rank and beta = (long count) / (p * rank) are the
    per-component coefficients of the multiplicity equations; for a simply
    laced component made of short roots, alpha is its Coxeter number.
    """
    return list(root_data(lat, p).components)


def _component_key(c: RootComponent):
    return (c.name, c.rank, c.count_short, c.count_long)


def split_components(
    gram, p: int, r1: list[list[int]], r2: list[list[int]]
) -> list[RootComponent]:
    """The components of the root system whose positive roots are r1 and r2.

    The roots are integer vectors in any basis where adding roots adds
    coordinates, and `gram` is a positive multiple of the pairing in that
    basis: a lattice's Gram for roots in its own coordinates, or its
    adjugate for roots written as G v, in dual coordinates.  Only whether
    two roots pair to zero is read off it.

    The split runs on simple roots, which is exact because the norm-2 and
    the reflective norm-2p vectors together form a finite, reduced,
    crystallographic root system R (each reflection maps L, L^dual and the
    norms onto themselves; a norm-2p root is never a rational multiple of a
    norm-2 one; (a, b) is a multiple of (b, b) / 2 for a, b in R).  Positive
    roots are those whose first nonzero coordinate is positive, the
    lexicographic order of Z^n, and r1 and r2 must list them so, as
    `root_data` and `discforms.glue_components` do.  Walking
    them in ascending order, a root b is simple iff no simple a found so
    far has b - a in R+: a non-simple b has a simple a with (b, a) > 0, so
    b - a is a positive root and a comes before b (Bourbaki, Lie groups,
    ch. VI, 1.6-1.7).  Components are the
    classes of the simple roots under non-orthogonality.  A non-simple b
    lies in the component of the a found for it, since a root is never the
    sum of roots from two orthogonal components.  The rank of a component
    is its number of simple roots, and the component is the
    `component_types` entry with that rank and its root counts.
    """
    # a vector as one integer sum_i v_i base^(n-1-i); on vectors with every
    # |v_i| < base / 2, as roots and differences of two roots are, this is
    # additive, one-to-one and ordered like Z^n lexicographically
    base = 4 * max((abs(c) for v in r1 + r2 for c in v), default=0) + 1

    def pack(v: list[int]) -> int:
        x = 0
        for c in v:
            x = x * base + c
        return x

    short = {pack(v): v for v in r1}
    long_ = {pack(v): v for v in r2}
    positive = short | long_
    simple: list[int] = []
    owner: dict[int, int] = {}  # positive root -> index of a simple root of its component
    for b in sorted(positive):
        # b = a + (b - a) with both positive roots puts b in the component of a
        owner[b] = next((i for i, a in enumerate(simple) if b - a in positive), len(simple))
        if owner[b] == len(simple):
            simple.append(b)

    g_simple = [intmat.mat_vec(gram, positive[a]) for a in simple]
    parent = list(range(len(simple)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(simple):
        for j in range(i):
            if intmat.vec_dot(positive[a], g_simple[j]):
                parent[find(i)] = find(j)

    ranks = Counter(find(i) for i in range(len(simple)))
    n_short = Counter(find(owner[v]) for v in short)
    n_long = Counter(find(owner[v]) for v in long_)

    comps = []
    for c, rank in ranks.items():
        counts = (2 * n_short[c], 2 * n_long[c])
        comp = next(
            (t for t, _, _ in component_types(rank, p) if (t.count_short, t.count_long) == counts),
            None,
        )
        if comp is None:
            raise ValueError(
                f"unrecognized component: rank {rank}, {counts[0]} short and {counts[1]} long"
                f" roots at p={p}"
            )
        comps.append(comp)
    comps.sort(key=_component_key)
    return comps
