"""Short vectors and reflective root systems of positive definite lattices.

Enumeration is exact and integer-only (Fincke-Pohst): the LDL split of the
Gram matrix, scaled once into integers by fraction-free elimination, drives
a depth-first search whose per-coordinate ranges come from integer square
roots of the remaining budget, so neither floating point nor Fraction work
enters the search.  Root systems split into two classes relative to a prime
p: ordinary roots of norm 2, and vectors of norm 2p that stay integral after
division by p in the dual pairing (these reflect the lattice through
rescaled mirrors).  Components are read off from inner-product connectivity
and named by their root counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import intmat
from .lattices import Lattice


def short_vectors(gram: list[list[int]], max_norm: int, half: bool = True):
    """Nonzero vectors of norm <= max_norm, as a dict norm -> vectors.

    With half=True (the default) one representative per antipodal pair is
    returned, canonicalized so the first nonzero coordinate is positive.
    Raises ValueError when gram is not positive definite.
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
        vecs = out.setdefault((budget - left) // scale, [])
        vecs.append(v)
        if not half:
            vecs.append([-c for c in v])

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
    for vecs in out.values():
        vecs.sort()
    return {norm: out[norm] for norm in sorted(out)}


def roots_norm2(lat: Lattice) -> list[list[int]]:
    """All vectors of norm 2, both signs."""
    halves = short_vectors(lat.gram, 2).get(2, [])
    return sorted(halves + [[-c for c in v] for v in halves])


def reflective_2p_roots(lat: Lattice, p: int) -> list[list[int]]:
    """All vectors s of norm 2p with s/p integral in the dual pairing.

    Such s are exactly p * G^-1 * k for norm-2 vectors k of the rescaled
    dual Gram p * G^-1; when that matrix is not an even integral Gram there
    are none.
    """
    pg = [[p * x for x in row] for row in lat.dual_gram()]
    if not intmat.is_integral(pg):
        return []
    pgi = intmat.int_matrix(pg)
    if any(pgi[i][i] % 2 for i in range(len(pgi))):
        return []
    halves = short_vectors(pgi, 2).get(2, [])
    roots = [intmat.mat_vec(pgi, k) for k in halves]
    roots = [[int(c) for c in s] for s in roots]
    return sorted(roots + [[-c for c in s] for s in roots])


def reflective_roots(lat: Lattice, p: int) -> tuple[list[list[int]], list[list[int]]]:
    return roots_norm2(lat), reflective_2p_roots(lat, p)


def span_rank(vectors: list[list[int]]) -> int:
    if not vectors:
        return 0
    return intmat.matrix_rank([list(v) for v in vectors])


@dataclass(frozen=True)
class RootComponent:
    """One irreducible component of the combined reflective root system."""

    name: str
    rank: int
    count_short: int
    count_long: int
    alpha: Fraction
    beta: Fraction


def _ade_name(rank: int, count: int) -> str:
    if count == rank * (rank + 1):
        return f"A{rank}"
    if rank >= 4 and count == 2 * rank * (rank - 1):
        return f"D{rank}"
    expected = {6: 72, 7: 126, 8: 240}
    if rank in expected and count == expected[rank]:
        return f"E{rank}"
    raise ValueError(f"no simply laced root system of rank {rank} with {count} roots")


def _component_name(rank: int, n_short: int, n_long: int, p: int) -> str:
    if n_long == 0:
        return _ade_name(rank, n_short)
    if n_short == 0:
        return f"{_ade_name(rank, n_long)}({p})"
    if p == 2:
        if rank == 2 and n_short == 4 and n_long == 4:
            return "B2"
        if rank == 4 and n_short == 24 and n_long == 24:
            return "F4"
        if n_short == 2 * rank and n_long == 2 * rank * (rank - 1):
            return f"B{rank}"
        if n_short == 2 * rank * (rank - 1) and n_long == 2 * rank:
            return f"C{rank}"
    if p == 3 and rank == 2 and n_short == 6 and n_long == 6:
        return "G2"
    raise ValueError(
        f"unrecognized component: rank {rank}, {n_short} short and {n_long} long roots at p={p}"
    )


def coxeter_number(name: str) -> int:
    base = name.split("(")[0]
    letter, num = base[0], base[1:]
    n = int(num)
    if letter == "A":
        return n + 1
    if letter in ("B", "C"):
        return 2 * n
    if letter == "D":
        return 2 * n - 2
    if letter == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    if letter == "F":
        return 12
    if letter == "G":
        return 6
    raise ValueError(f"unknown root system {name!r}")


def root_components(lat: Lattice, p: int) -> list[RootComponent]:
    """Irreducible components of the two-class reflective root system.

    alpha = (short count) / rank and beta = (long count) / (p * rank) are the
    per-component coefficients of the multiplicity equations; for a simply
    laced component made of short roots, alpha is its Coxeter number.
    """
    r1, r2 = reflective_roots(lat, p)
    labeled = [(v, 0) for v in r1] + [(v, 1) for v in r2]
    m = len(labeled)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    gv = [intmat.mat_vec(lat.gram, v) for v, _ in labeled]
    n = lat.rank
    for i in range(m):
        vi = labeled[i][0]
        for j in range(i + 1, m):
            gvj = gv[j]
            if sum(vi[t] * gvj[t] for t in range(n)) != 0:
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)

    comps = []
    for members in groups.values():
        vecs = [labeled[i][0] for i in members]
        n_short = sum(1 for i in members if labeled[i][1] == 0)
        n_long = len(members) - n_short
        rank = span_rank(vecs)
        name = _component_name(rank, n_short, n_long, p)
        comps.append(
            RootComponent(
                name=name,
                rank=rank,
                count_short=n_short,
                count_long=n_long,
                alpha=Fraction(n_short, rank),
                beta=Fraction(n_long, p * rank),
            )
        )
    comps.sort(key=lambda c: (c.name, c.rank, c.count_short, c.count_long))
    return comps
