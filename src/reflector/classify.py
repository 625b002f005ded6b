"""Classification of reflective genera II_{n,2}(p^{+-n_p}) at prime level.

The pipeline: enumerate the genera that exist at all (signature parities fall
out of the discriminant-form octants), cut the list down by the two weight
bounds (with the rescaled-hyperbolic split deciding which bound applies),
then run every surviving case through the same six elimination rules, in
this order, and record the first that fires:

  1. norm-vector count: with no vectors of norm 2/p there are no long roots,
  2. so rule 1 feeds the spanning test: the short roots alone must then span
     a root lattice of determinant p^n_p times a square,
  3. solvability of the component multiplicity equations on the model,
  4. the singular-weight lower bound on the model's ray (or, for a symbolic
     family, the largest prime where the family survives),
  5. the Eisenstein-coefficient obstruction through B_{3,psi} (rank-2
     definite part, p = 3 mod 4),
  6. transfer from an already-eliminated split companion.

Rules 3-5 need a model, a lattice of the genus to compute on; the models
are the only per-case data stored here, and a case without one skips those
rules.  A case where all its rules ran and none fired is REFLECTIVE, and is
matched against the construction tables: the strongly 2-reflective and
strongly 2p-reflective forms, the mixed liftings, and the pull-back towers
and transfers that realize the remaining models.  Primes 13 and up fall in
two symbolic residue classes, decided in closed form from the class's least
prime; the same six rules still run at any individual such prime.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import isqrt, prod
from types import MappingProxyType
from typing import NamedTuple

from . import catalog as cat_mod
from . import discforms, etaq, reflcheck, roots, towers
from .discforms import GenusSymbol, charge, existing_genus, parse_genus
from .lattices import Lattice, kept


# -- construction tables: strongly 2-reflective forms (multiplicities (1, 0)) --

STRONGLY_2_REFLECTIVE = [
    ("II_{6,2}(2_II^{-2})", "2U+D4", 72),
    ("II_{6,2}(2_II^{-4})", "U+U(2)+D4", 40),
    ("II_{10,2}(2_II^{+2})", "2U+D8", 124),
    ("II_{10,2}(2_II^{+4})", "2U+2D4", 60),
    ("II_{10,2}(2_II^{+6})", "2U+D8v(2)", 28),
    ("II_{4,2}(3^{-1})", "2U+A2", 45),
    ("II_{4,2}(3^{+3})", "U+U(3)+A2", 18),
    ("II_{6,2}(3^{+2})", "2U+2A2", 42),
    ("II_{6,2}(3^{-4})", "U+U(3)+2A2", 15),
    ("II_{8,2}(3^{+1})", "2U+E6", 120),
    ("II_{8,2}(3^{-3})", "2U+3A2", 39),
    ("II_{8,2}(3^{+5})", "2U+E6v(3)", 12),
    ("II_{6,2}(5^{+1})", "2U+A4", 62),
    ("II_{6,2}(5^{+3})", "2U+A4v(5)", 12),
    ("II_{8,2}(7^{-1})", "2U+A6", 75),
]

# -- strongly 2p-reflective forms (multiplicities (0, 1)) --

STRONGLY_2P_REFLECTIVE = [
    ("II_{6,2}(2_II^{-2})", "2U+D4", 24),
    ("II_{6,2}(2_II^{-4})", "U+U(2)+D4", 40),
    ("II_{10,2}(2_II^{+2})", "2U+D8", 4),
    ("II_{10,2}(2_II^{+4})", "2U+2D4", 12),
    ("II_{10,2}(2_II^{+6})", "2U+D8v(2)", 28),
    ("II_{4,2}(3^{-1})", "2U+A2", 9),
    ("II_{4,2}(3^{+3})", "U+U(3)+A2", 18),
    ("II_{6,2}(3^{+2})", "2U+2A2", 6),
    ("II_{6,2}(3^{-4})", "U+U(3)+2A2", 15),
    ("II_{8,2}(3^{-3})", "2U+3A2", 3),
    ("II_{8,2}(3^{+5})", "2U+E6v(3)", 12),
    ("II_{6,2}(5^{+3})", "2U+A4v(5)", 2),
]

# -- mixed liftings (multiplicities (1, cp)); last flag: cusp form or not --

MIXED_REFLECTIVE = [
    ("II_{14,2}(2_II^{-2})", "2U+E8+D4", 144, 8, True),
    ("II_{14,2}(2_II^{-4})", "2U+D8+D4", 80, 4, True),
    ("II_{14,2}(2_II^{-6})", "2U+3D4", 48, 2, True),
    ("II_{14,2}(2_II^{-8})", "2U+D8v(2)+D4", 32, 1, True),
    ("II_{18,2}(2_II^{+2})", "2U+E8+D8", 68, 16, True),
    ("II_{18,2}(2_II^{+4})", "2U+E8+2D4", 36, 8, True),
    ("II_{18,2}(2_II^{+6})", "2U+E8+D8v(2)", 20, 4, True),
    ("II_{18,2}(2_II^{+8})", "2U+E8+E8(2)", 12, 2, False),
    ("II_{18,2}(2_II^{+10})", "2U+D8+E8(2)", 8, 1, False),
    ("II_{22,2}(2_II^{-2})", "2U+2E8+D4", 24, 8, True),
    ("II_{10,2}(3^{-2})", "2U+E6+A2", 90, 9, True),
    ("II_{10,2}(3^{+4})", "2U+4A2", 36, 3, True),
    ("II_{10,2}(3^{-6})", "2U+E6v(3)+A2", 18, 1, True),
    ("II_{12,2}(3^{-1})", "2U+E8+A2", 168, 27, True),
    ("II_{12,2}(3^{+3})", "2U+E6+2A2", 60, 9, True),
    ("II_{12,2}(3^{-5})", "2U+5A2", 24, 3, True),
    ("II_{12,2}(3^{+7})", "2U+E6v(3)+2A2", 12, 1, True),
    ("II_{14,2}(3^{+2})", "2U+E8+2A2", 84, 27, True),
    ("II_{14,2}(3^{-4})", "2U+E6+3A2", 30, 9, True),
    ("II_{14,2}(3^{+6})", "2U+6A2", 12, 3, False),
    ("II_{14,2}(3^{-8})", "2U+E6v(3)+3A2", 6, 1, False),
    ("II_{20,2}(3^{-1})", "2U+2E8+A2", 48, 27, True),
    ("II_{6,2}(5^{-2})", "2U+T4", 30, 5, True),
    ("II_{6,2}(5^{-4})", "U+U(5)+T4", 10, 1, True),
    ("II_{10,2}(5^{+2})", "2U+2A4", 52, 25, True),
    ("II_{10,2}(5^{+4})", "2U+A4v(5)+A4", 12, 5, False),
    ("II_{10,2}(5^{+6})", "2U+2A4v(5)", 4, 1, False),
    ("II_{10,2}(5^{-1})", "2U+T8", 120, 45, True),
    ("II_{4,2}(7^{+1})", "2U+L7", 28, 7, True),
    ("II_{4,2}(7^{-3})", "U+U(7)+L7", 7, 1, True),
    ("II_{6,2}(7^{+2})", "2U+2L7", 20, 7, True),
    ("II_{6,2}(7^{-4})", "U+U(7)+2L7", 5, 1, True),
    ("II_{8,2}(7^{+3})", "2U+3L7", 12, 7, False),
    ("II_{8,2}(7^{-5})", "2U+A6v(7)", 3, 1, False),
    ("II_{4,2}(11^{-1})", "2U+L11", 24, 11, True),
    ("II_{4,2}(11^{+3})", "U+U(11)+L11", 4, 1, True),
    ("II_{6,2}(11^{+2})", "2U+2L11", 12, 11, False),
    ("II_{6,2}(11^{-4})", "U+U(11)+2L11", 2, 1, False),
    ("II_{4,2}(23^{+1})", "2U+L23", 12, 23, False),
    ("II_{4,2}(23^{-3})", "U+U(23)+L23", 1, 1, False),
]


# -- the case universe after both weight bounds, per prime (class) --

# prime -> {case (n, n_p): model}; the model is the lattice rules 3-5 try,
# given as a catalog expression, or None for a case with no model
STORED_CASES: dict[int, dict[tuple[int, int], str | None]] = {
    2: dict.fromkeys([(6, 2), (6, 4), (10, 2), (10, 4), (10, 6), (14, 2), (14, 4), (14, 6),
                      (14, 8), (18, 2), (18, 4), (18, 6), (18, 8), (18, 10), (22, 2)]),
    3: dict.fromkeys([(4, 1), (4, 3), (6, 2), (6, 4), (8, 1), (8, 3), (8, 5), (10, 2), (10, 4),
                      (10, 6), (12, 1), (12, 3), (12, 5), (12, 7), (14, 2), (14, 4), (14, 6),
                      (14, 8), (20, 1)]),
    5: {(6, 1): None, (6, 2): None, (6, 3): None, (6, 4): None, (10, 1): None, (10, 2): None,
        (10, 3): "2U+A4+T4", (10, 4): None, (10, 5): "2U+A4v(5)+T4", (10, 6): None,
        (14, 1): "2U+E8+A4", (14, 2): "2U+E8+T4"},
    7: {(4, 1): None, (4, 3): None, (6, 2): None, (6, 4): None, (8, 1): None, (8, 3): None,
        (8, 5): None, (12, 1): "2U+E8+L7"},
    11: {(4, 1): None, (4, 3): None, (6, 2): None, (6, 4): None, (8, 1): None,
         (12, 1): "2U+E8+L11"},
    19: {(4, 1): "2U+L19", (4, 3): None, (6, 2): "2U+2L19", (8, 1): None},
    23: {(4, 1): None, (4, 3): None, (6, 2): "2U+2L23", (8, 1): None},
}

# class -> (least prime, {case: (model, families)}); "{p}" in a model stands
# for the prime, and "t8-overlattice" for the E7 + A1 overlattice of
# `catalog.e7_a1_overlattice`.  A family (h1, h2, n1, rank) is a model's root
# system: the Coxeter numbers of its short and long components, the rank of
# the short ones, and the rank; a case with families but no model is decided
# by their cutoffs alone.
SYMBOLIC_CLASSES = {
    "p = 1 mod 4, p >= 13": (13, {
        (6, 1): (None, []),
        (6, 2): (None, [(2, 2, 2, 4), (3, 3, 2, 4)]),
        (10, 1): ("t8-overlattice", [(18, 2, 7, 8)]),
    }),
    "p = 3 mod 4, p > 23": (31, {
        (4, 1): ("2U+L{p}", [(2, 2, 1, 2)]),
        (6, 2): ("2U+2L{p}", [(2, 2, 2, 4)]),
        (8, 1): (None, []),
    }),
}


def case_table(p: int) -> dict[tuple[int, int], tuple[str | None, list]]:
    """Each case (n, n_p) at the prime p, with its model (prime filled in) and families."""
    if p in STORED_CASES:
        return {case: (model, []) for case, model in STORED_CASES[p].items()}
    if not discforms.is_prime(p):
        raise ValueError(f"{p} is not prime")
    for least, cases in SYMBOLIC_CLASSES.values():
        if p % 4 == least % 4 and p >= least:
            return {case: (model and model.format(p=p), fams) for case, (model, fams)
                    in cases.items()}
    raise ValueError(f"no stored case list for p = {p}")


def stored_cases_for(p: int) -> list[tuple[int, int]]:
    return list(case_table(p))


N_MAX = 26  # the largest n of an enumerated genus II_{n,2}


def enumerate_genera(p: int) -> list[GenusSymbol]:
    """All genera II_{n,2}(p^{n_p}) with 4 <= n <= N_MAX, up to dual rescaling.

    n_p runs over 1..(n+2)/2; the dual representative with larger n_p is the
    rescaled dual lattice and classifies identically.  A genus is listed
    with the sign for which it exists (`discforms.existing_genus`).
    """
    cases = [(n, n_p) for n in range(4, N_MAX + 1, 2) for n_p in range(1, (n + 2) // 2 + 1)]
    return [g for g in (existing_genus(n, 2, p, n_p) for n, n_p in cases) if g is not None]


@cache
def _bounded_cases(p: int) -> frozenset[tuple[int, int]]:
    """The cases (n, n_p) of `enumerate_genera(p)` that the two bounds keep.

    The weight bound n <= 10 + 24/(p+1) is tested in integers, as
    n (p+1) <= 10 (p+1) + 24; a genus that splits off U + U(p) is also
    dropped when the Riemann-Roch window is empty, that is when
    n > 2 + 48/(p+1).  Computed once per p.
    """
    return frozenset(
        (g.pos, g.n_p)
        for g in enumerate_genera(p)
        if g.pos * (p + 1) <= 10 * (p + 1) + 24
        and not (discforms.splits_u_up(g) and etaq.window_is_empty(g.pos, p))
    )


def apply_bounds(p: int):
    """Stored case list plus a report of where the two bounds disagree.

    The computed filter is `_bounded_cases`.  The stored list is
    authoritative, and read on every call; the mismatch report records both
    directions of disagreement with the computed filter.
    """
    return _apply_bounds(p, case_table(p))


def _apply_bounds(p: int, cases: dict):
    """`apply_bounds(p)` on the stored cases `cases`, which is `case_table(p)`."""
    computed = _bounded_cases(p)
    stored = list(cases)
    mismatch = {
        "kept_despite_filter": sorted(set(stored) - computed),
        "dropped_despite_filter": sorted(computed - set(stored)),
    }
    return [existing_genus(n, 2, p, n_p) for n, n_p in stored], mismatch


# -- elimination machinery --

def root_lattice_dets(rank: int) -> list[int]:
    """Determinants of all direct sums of ADE root lattices of a given rank, a new list."""
    return sorted(_root_lattice_dets(rank))


@cache
def _root_lattice_dets(rank: int) -> frozenset[int]:
    """The set of `root_lattice_dets`, once per rank: an ADE lattice of rank r plus a sum."""
    if rank == 0:
        return frozenset({1})
    return frozenset(
        d * t.det for r in range(1, rank + 1) for t in roots.ade_types(r)
        for d in _root_lattice_dets(rank - r)
    )


@cache
def _largest_det_factor(rank: int) -> int:
    """The largest prime factor of any `root_lattice_dets(rank)`, once per rank."""
    return max(q for d in _root_lattice_dets(rank) for q in discforms._factorize(d))


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@cache
def spanning_root_lattice_exists(rank: int, p: int, n_p: int) -> bool:
    """Whether some root lattice of this rank has determinant p^n_p * square, once per
    (rank, p, n_p)."""
    target = p**n_p
    for d in _root_lattice_dets(rank):
        if d % target == 0 and _is_square(d // target):
            return True
    return False


class CaseRecord:
    """One case's verdict, "NOT_REFLECTIVE" when a rule fired (its `reason`), else
    "REFLECTIVE"; the CLI writes its fields, `vars(record)`, as one JSON object."""

    def __init__(self, p: int | None, n: int, n_p: int, eps: int | None, genus: str,
                 reason: str | None = None, detail: str = "", certificate: dict | None = None):
        self.p, self.n, self.n_p, self.eps, self.genus = p, n, n_p, eps, genus
        self.verdict = "NOT_REFLECTIVE" if reason else "REFLECTIVE"
        self.reason, self.detail = reason, detail
        self.certificate = {} if certificate is None else certificate


def eliminate_case(
    genus: GenusSymbol, prior: dict[tuple[int, int], CaseRecord], catalog=None, cases=None
) -> CaseRecord:
    """Run the six rules in order on one case; the first to fire eliminates it.

    Every rule is a computation on the genus, its model or its split
    companion in `prior` that could come out either way, and the record
    names the first that fires.  When all of them run and none fires, the
    case is REFLECTIVE and its reason is None.  `cases` is `case_table(p)`,
    read afresh when not given.
    """
    cat = catalog or cat_mod.default_catalog()
    p, n, n_p = genus.p, genus.pos, genus.n_p
    cert: dict = {}

    def record(reason: str | None = None, detail: str = "") -> CaseRecord:
        return CaseRecord(
            p=p, n=n, n_p=n_p, eps=genus.eps, genus=genus.label(),
            reason=reason, detail=detail, certificate=cert,
        )

    # rules 1-2: with no norm-2/p classes there are no long roots, so the
    # definite part must be spanned by an ordinary root lattice of
    # determinant p^n_p times a square
    long_count = discforms.norm_2p_count(p, n_p, genus.eps)
    cert["norm_2p_vector_count"] = long_count
    if long_count == 0:
        cert["root_lattice_determinants"] = root_lattice_dets(n - 2)
        if not spanning_root_lattice_exists(n - 2, p, n_p):
            return record(
                "no-spanning-root-lattice",
                f"no vectors of norm 2/{p} in the discriminant form, and no rank-{n - 2} "
                f"root lattice has determinant {p}^{n_p} times a square",
            )

    # rules 3-5 on the case's model, or on its families when it has none
    cases = case_table(p) if cases is None else cases
    model, families = cases.get((n, n_p), (None, []))
    cutoffs = [reflcheck.family_cutoff(*fam) for fam in families]
    if model is None and families:
        cert["family_prime_cutoffs"] = cutoffs
        if all(c is not None and c < p for c in cutoffs):
            return record(
                "singular-weight-bound",
                f"every admissible model family dies beyond p = {max(cutoffs)}",
            )
    elif model:
        cert["model"] = model
        if model == "t8-overlattice":
            definite = cat_mod.e7_a1_overlattice(cat, p)
            cert["family_prime_cutoff"] = cutoffs[0]
        else:
            _, definite = cat_mod.definite_part(model, cat)
        res = reflcheck.solve_candidates(definite, p)
        cert["solve_status"] = res.status
        if res.status == "none":
            return record("solve-empty", res.reason)
        if res.status == "ray":
            n1 = roots.root_data(definite, p).span_short
            bound = Fraction(n1 * res.c1 + (definite.rank - n1) * res.cp, 2)
            cert["ray"] = (res.c1, res.cp, res.k)
            cert["singular_bound"] = bound
            if res.k < bound:
                return record(
                    "singular-weight-bound",
                    f"forced weight {res.k} lies below the singular bound {bound}",
                )
            if definite.rank == 2 and p % 4 == 3:
                cert["b3_psi"] = etaq.bernoulli_b3_psi(p)
                if not etaq.obstruction_condition_holds(p, res.k):
                    return record(
                        "eisenstein-obstruction",
                        "coefficient identity (3/k)(p+1)^2/B_3,psi = 1 fails for the ray "
                        f"weight {res.k}",
                    )

    # rule 6: a U + U(p) split transfers the verdict of the companion (n, n_p - 2)
    splits = discforms.splits_u_up(genus)
    companion = prior.get((n, n_p - 2))
    cert["splits_u_up"] = splits
    cert["companion"] = companion.genus if companion else None
    if (
        splits
        and companion is not None
        and companion.verdict == "NOT_REFLECTIVE"
        and (n - 2) * (p + 1) > 24
    ):
        return record(
            "split-transfer",
            "splits as U + U(p) + definite; the transferred companion is eliminated "
            "and the purely 2p-reflective route exceeds its weight bound",
        )
    return record()


def classify(p: int, catalog=None) -> list[CaseRecord]:
    """Full concrete classification at one prime."""
    cat = catalog or cat_mod.default_catalog()
    cases = case_table(p)
    genera, mismatch = _apply_bounds(p, cases)
    records: dict[tuple[int, int], CaseRecord] = {}
    out = []
    for genus in sorted(genera, key=lambda g: (g.pos, g.n_p)):
        rec = eliminate_case(genus, records, cat, cases)
        records[(genus.pos, genus.n_p)] = rec
        out.append(rec)
    if any(v for v in mismatch.values()):
        for rec in out:
            rec.certificate.setdefault("bound_mismatch", mismatch)
    return out


def classify_symbolic(class_name: str) -> list[CaseRecord]:
    """Closed-form elimination of an entire residue class of primes.

    A case is eliminated only when its bound lies below the least prime of
    the class: the largest prime factor of every root lattice determinant
    (no family) or the cutoff of every model family.  Otherwise its record
    is REFLECTIVE.
    """
    if class_name not in SYMBOLIC_CLASSES:
        raise ValueError(f"unknown symbolic class {class_name!r}")
    least, cases = SYMBOLIC_CLASSES[class_name]
    out = []
    for (n, n_p), (_, families) in cases.items():
        cert: dict = {}
        if not families:
            largest_factor = _largest_det_factor(n - 2)
            cert["root_lattice_determinants"] = root_lattice_dets(n - 2)
            cert["largest_prime_factor"] = largest_factor
            fired = largest_factor < least
            tag = "no-spanning-root-lattice"
            detail = (
                "the signature forces the norm-2/p class count 1 + chi_p(a) to vanish, "
                f"and every rank-{n - 2} root lattice determinant is {largest_factor}-smooth, "
                "never p times a square"
            )
        else:
            cutoffs = [reflcheck.family_cutoff(*fam) for fam in families]
            cert["family_prime_cutoffs"] = cutoffs
            fired = all(c is not None and c < least for c in cutoffs)
            tag = "singular-weight-bound"
            detail = (
                f"symbolic families survive only up to p = {max(cutoffs)}, "
                f"below every prime of the class (p >= {least})"
            )
        out.append(
            CaseRecord(
                p=None, n=n, n_p=n_p, eps=None, genus=f"II_{{{n},2}}(p^{{{n_p}}})",
                reason=tag if fired else None, detail=detail if fired else "",
                certificate=cert,
            )
        )
    return out


def _genus_order(label: str) -> tuple[int, int, int]:
    g = parse_genus(label)
    return (g.p, g.pos, g.n_p)


def table_rows() -> list[tuple[str, str, int, int, int]]:
    """Every construction-table row as (genus, model, c1, cp, k)."""
    rows = [(g, m, 1, 0, k) for g, m, k in STRONGLY_2_REFLECTIVE]
    rows += [(g, m, 0, 1, k) for g, m, k in STRONGLY_2P_REFLECTIVE]
    rows += [(g, m, 1, cp, k) for g, m, k, cp, _ in MIXED_REFLECTIVE]
    return rows


def reflective_genera() -> list[str]:
    """The classified genus labels, sorted by (p, n, n_p)."""
    return sorted({g for g, *_ in table_rows()}, key=_genus_order)


def construction_coverage(catalog=None) -> dict[str, dict]:
    """For each reflective genus, its table rows and the rows the towers derive.

    "rows" maps each report key of `verify_construction` (strongly_2,
    strongly_2p, mixed[i]) to (model, c1, cp, k); "covered" holds the
    (c1, cp, k) that a tower step or a transfer derives with the catalog's
    lattices (`towers.covered_rows`).  Every call hands out new dicts and sets.
    """
    return _coverage(table_rows(), towers.covered_rows(catalog))


def _coverage(rows, covered) -> dict[str, dict]:
    """`construction_coverage` of the table rows `rows` and the covered rows `covered`."""
    cov: dict[str, dict] = {}
    for label, model, c1, cp, k in rows:
        entry = cov.setdefault(label, {"rows": {}, "covered": set()})["rows"]
        pure = {(1, 0): "strongly_2", (0, 1): "strongly_2p"}.get((c1, cp))
        key = pure or f"mixed[{sum(key.startswith('mixed') for key in entry)}]"
        entry[key] = (model, c1, cp, k)
    for label, c1, cp, k in covered:
        cov[label]["covered"].add((c1, cp, k))
    return cov


@kept
def _model_facts(cat, model: str, p: int) -> tuple[GenusSymbol, bool, Lattice | None]:
    """(genus at p, whether the hyperbolic-plane scales are exactly [1, 1],
    definite part) of a table model, read off the catalog's lattices."""
    lat, scales, definite = cat.model_parts(model)
    return discforms.genus_symbol(lat, p=p), cat_mod.second_plane(scales) == 1, definite


def verify_construction(label: str, cov: dict, catalog=None) -> dict:
    """Re-verify every table row certifying one genus.

    2U + K models run through the full candidate check; U + U(p) + K models
    are certified by the towers and transfers instead (their multiplicity
    identities involve mirrors inside the rescaled plane, which the
    definite-part check deliberately does not model).  Each model's genus,
    planes and definite part are read once per (catalog, model, p)
    (`_model_facts`); its row's (c1, cp, k) is judged on every call.
    """
    cat = catalog or cat_mod.default_catalog()
    g = parse_genus(label)
    results = {}
    for key, (model, c1, cp, k) in cov["rows"].items():
        genus, two_u, definite = _model_facts(cat, model, g.p)
        if genus != g:
            results[key] = "genus-mismatch"
        elif two_u and definite is not None:
            rep = reflcheck.check_candidate(definite, g.p, c1, cp, k)
            results[key] = "checked" if rep.passed else "check-failed"
        else:
            results[key] = "tower-covered" if (c1, cp, k) in cov["covered"] else "uncovered"
    return results


class Ledger(NamedTuple):
    """One judgment of the construction tables on one catalog: the (tower, levels)
    and transfer reports of `towers._replays`, the rows they cover, each table
    genus's `verify_construction` statuses, and the genera sorted as
    `reflective_genera`."""

    towers: tuple
    transfers: tuple
    covered: frozenset
    verification: dict[str, dict[str, str]]
    labels: tuple[str, ...]


def construction_ledger(catalog=None) -> Ledger:
    """The catalog's `Ledger` of the current tables, shared: its readers hand out copies.

    It is kept under what the judgment reads from module state, the table rows,
    `towers.TOWERS` and `towers.TRANSFERS`, so a change to any of them builds a
    new ledger on the next call, and undoing the change finds the earlier one.
    """
    cat = catalog or cat_mod.default_catalog()
    return _ledger(cat, tuple(table_rows()), towers.TOWERS, towers.TRANSFERS)


@kept
def _ledger(cat, rows: tuple, tower_records: tuple, transfer_records: tuple) -> Ledger:
    tower_levels, transfers = towers._replays(cat, rows, tower_records, transfer_records)
    covered = towers._covered(tower_levels, transfers)
    cov = _coverage(rows, covered)
    return Ledger(tower_levels, transfers, frozenset(covered),
                  {label: verify_construction(label, entry, cat) for label, entry in cov.items()},
                  tuple(sorted(cov, key=_genus_order)))


def verdict_table(verify: bool = False, catalog=None) -> dict:
    """The complete classification across all primes and residue classes.

    The cases are classified afresh on every call.  With `verify`, the row
    statuses and the labels to match are read off the catalog's ledger
    (`construction_ledger`), which judges the tables once per reading of them.
    """
    cat = catalog or cat_mod.default_catalog()
    table: dict = {"primes": {}, "symbolic": {}, "reflective": [], "verification": {}}
    mismatches = {}
    for p in STORED_CASES:
        recs = classify(p, cat)
        table["primes"][p] = recs
        mism = recs[0].certificate.get("bound_mismatch")
        if mism:
            mismatches[p] = mism
        for rec in recs:
            if rec.verdict == "REFLECTIVE":
                table["reflective"].append(rec.genus)
    for name in SYMBOLIC_CLASSES:
        table["symbolic"][name] = classify_symbolic(name)
    table["bound_mismatches"] = mismatches
    ledger = construction_ledger(cat) if verify else None
    expected = list(ledger.labels) if verify else reflective_genera()
    table["reflective"].sort(key=_genus_order)
    table["count"] = len(table["reflective"])
    table["matches_construction_tables"] = table["reflective"] == expected
    if verify:
        for label in table["reflective"]:  # a genus outside the tables has no rows
            table["verification"][label] = dict(ledger.verification.get(label, {}))
    return table


# -- class numbers of reflective root data --


@cache
def _component_table(rank: int, p: int) -> Mapping[str, tuple[roots.RootComponent, str, int]]:
    """Every `roots.component_types` entry of rank <= `rank` at p, as name -> (component,
    span, det), in table order; built once per (rank, p), read-only.  The dets p^r det
    of every rank r <= `rank` make the build quadratic in the rank, so rank^2
    operations are charged on their own count before it starts, as for a Gram."""
    charge(rank * rank, "component table")
    return MappingProxyType({comp.name: (comp, span, det) for r in range(1, rank + 1)
                             for comp, span, det in roots.component_types(r, p)})


@cache
def _datum_menus(rank: int, p: int, c1: int, cp: int) -> tuple[tuple[Fraction, tuple], ...]:
    """The menus of `class_number_rootsystems`, built once per (rank, p, c1, cp).

    One (C, menu) per value C = c1 alpha + cp beta of `_component_table(rank,
    p)`, in order of first appearance; a menu lists the entries with that C
    in table order, so by ascending rank, each as the integers (rank,
    count_short, count_long, name, det) that the search reads.
    """
    menus: dict[Fraction, list[tuple]] = {}
    for comp, _, det in _component_table(rank, p).values():
        menus.setdefault(c1 * comp.alpha + cp * comp.beta, []).append(
            (comp.rank, comp.count_short, comp.count_long, comp.name, det))
    return tuple((c, tuple(menu)) for c, menu in menus.items())


def class_number_rootsystems(rank: int, p: int, c1: int, cp: int, k: int) -> list[dict]:
    """All reflective root data of the given rank, multiplicities, and weight.

    A root datum is a multiset of irreducible components from
    `roots.component_types` sharing one constant C = c1 alpha + cp beta,
    whose total counts a (short) and b (long) satisfy the counting identity
    C = (c1 a + cp b + 2k) / 24 - c1; each datum reports the determinant of
    the lattice its components span.  C ranges over exactly the values
    c1 alpha + cp beta of the table entries of rank <= `rank`, fractions
    included, with no upper limit.  C = 0 is among them when c1 or cp is 0:
    at cp = 0 every component made of long roots alone has C = 0 (at c1 = 0,
    every one made of short roots alone).  At cp = 0 and k = 12 c1 the
    counting identity holds for all of them, so every long-only datum of the
    rank is listed.  The menus of entries per C are built once per (rank, p,
    c1, cp) (`_datum_menus`), and the identity is tested in integers, as
    24 num(C) = (c1 a + cp b + 2k - 24 c1) den(C).  The search visits one
    node per partial multiset, on an explicit stack, and charges each node
    as one operation (`discforms.charge`); the table charges its own build.
    """
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, not {rank}")
    if not discforms.is_prime(p):
        raise ValueError(f"{p} is not prime")
    reflcheck.check_multiplicities(c1, cp)
    shift = 2 * k - 24 * c1
    found = []
    nodes = 0
    for c, menu in _datum_menus(rank, p, c1, cp):
        num, den, size = c.numerator, c.denominator, len(menu)
        # depth first over the multisets of menu entries taken in menu order,
        # on an explicit stack of [next entry to try, rank left, short count,
        # long count] frames, one per node; `chosen` holds the entries taken
        chosen: list[tuple] = []
        stack = [[0, rank, 0, 0]]
        nodes += 1
        while stack:
            frame = stack[-1]
            i, remaining, a, b = frame
            if i == size or menu[i][0] > remaining:  # the menu ascends by rank
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            frame[0] = i + 1
            nodes = charge(nodes + 1, "root datum search")
            entry = menu[i]
            chosen.append(entry)
            a, b = a + entry[1], b + entry[2]
            if remaining > entry[0]:
                stack.append([i, remaining - entry[0], a, b])
                continue
            if 24 * num == (c1 * a + cp * b + shift) * den:
                found.append(
                    {
                        "c": c,
                        "components": sorted(e[3] for e in chosen),
                        "count_short": a,
                        "count_long": b,
                        "det": prod(e[4] for e in chosen),
                    }
                )
            chosen.pop()
    found.sort(key=lambda d: (d["c"], d["components"]))
    return found


def class_number(rank: int, p: int, c1: int, cp: int, k: int, n_p: int, catalog=None) -> int:
    """Number of isometry classes, counted as O(L)-orbits, of lattices carrying the
    given reflective data.

    `count_classes` over the root data that `class_number_rootsystems` lists.
    """
    return count_classes(class_number_rootsystems(rank, p, c1, cp, k), rank, p, n_p, catalog)


def _carries(comps: list[roots.RootComponent], datum: dict) -> bool:
    """Whether components make up the datum: its names, as each name of
    `roots.component_types` at p has one rank, short count and long count."""
    return sorted(c.name for c in comps) == datum["components"]


def count_classes(data: list[dict], rank: int, p: int, n_p: int, catalog=None) -> int:
    """Number of isometry classes, counted as O(L)-orbits, of lattices carrying one of
    the root data.

    `data` are root data of the given rank at p, as `class_number_rootsystems`
    lists them.  Each datum spans a definite lattice L, the sum of its
    components' spans in `roots.component_types`, which the catalog builds
    once per expression and keeps (`Catalog.parse`) with what is read off it.
    Its candidates are the even overlattices of determinant p^n_p and level
    p (level 1 at n_p = 0, where the genus is unimodular), one per glue
    group, whose reflective root system is exactly the datum (glue vectors
    may create extra roots, in which case the overlattice belongs to a
    different datum).  `even_overlattices` drops the glue that adds a
    norm-2 vector, which loses no candidate, as L is spanned by the datum's
    roots, and `discforms.glue_components` reads the root system of each
    group off D(L).  Each datum adds the number of O(L)-orbits on its
    groups (`discforms.glue_orbits`), which is the number of isometry
    classes of their overlattices; no overlattice is built.  S(H), the
    long-root classes of a group (`discforms.long_root_classes`), is read once
    per group off the generators the search built, and handed to both.
    ValueError when no genus II_{rank,0}(p^{+-n_p}) exists
    (`discforms.existing_genus`): there is nothing to count.

    At n_p = 0 a datum with a long root is dropped before any glue search: a
    long root v of M has norm 2p and (v, M) in pZ, so v/p lies in M^dual = M
    and has norm 2/p, which is not an even integer.
    """
    if n_p < 0:
        raise ValueError(f"n_p must be nonnegative, not {n_p}")
    if existing_genus(rank, 0, p, n_p) is None:
        raise ValueError(f"no even definite genus of rank {rank} and determinant {p}^{n_p}")
    cat = catalog or cat_mod.default_catalog()
    target, level = p**n_p, p if n_p else 1
    table = _component_table(rank, p)
    total = 0
    for datum in data:
        if datum["det"] % target or not _is_square(datum["det"] // target) or (
                n_p == 0 and datum["count_long"]):
            continue
        lat = cat.parse("+".join(table[c][1] for c in datum["components"]))
        glue = {}
        for sub, gens in discforms.even_overlattices(lat, target, level):
            classes = discforms.long_root_classes(lat, p, sub, gens)
            if _carries(discforms.glue_components(lat, p, classes), datum):
                glue[sub] = classes
        total += discforms.glue_orbits(lat, p, glue)
    return total
