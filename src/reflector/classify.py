"""Classification of reflective genera II_{n,2}(p^{+-n_p}) at prime level.

The pipeline: enumerate the genera that exist at all (signature parities fall
out of the discriminant-form octants), cut the list down by the two weight
bounds (with the rescaled-hyperbolic split deciding which bound applies),
then run each surviving case through the elimination rules in order:

  1. norm-vector count (can force the long multiplicity to vanish),
  2. existence of a spanning root lattice of the right determinant,
  3. solvability of the component multiplicity equations,
  4. the singular-weight lower bound (concretely or as a symbolic family),
  5. the Eisenstein-coefficient obstruction through B_{3,psi},
  6. transfer from an already-eliminated split companion.

Cases that fire no rule are matched against the construction tables: the
strongly 2-reflective and strongly 2p-reflective forms, the mixed liftings,
and the pull-back towers and transfers that realize the remaining models.
Primes 13 and up are covered by two symbolic residue classes; the same
concrete machinery still runs at any individual such prime as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from . import catalog as cat_mod
from . import discforms, etaq, reflcheck, roots, towers
from .discforms import GenusSymbol, eps_for, parse_genus
from .lattices import Lattice


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

STORED_CASES = {
    2: [(6, 2), (6, 4), (10, 2), (10, 4), (10, 6), (14, 2), (14, 4), (14, 6), (14, 8),
        (18, 2), (18, 4), (18, 6), (18, 8), (18, 10), (22, 2)],
    3: [(4, 1), (4, 3), (6, 2), (6, 4), (8, 1), (8, 3), (8, 5), (10, 2), (10, 4), (10, 6),
        (12, 1), (12, 3), (12, 5), (12, 7), (14, 2), (14, 4), (14, 6), (14, 8), (20, 1)],
    5: [(6, 1), (6, 2), (6, 3), (6, 4), (10, 1), (10, 2), (10, 3), (10, 4), (10, 5), (10, 6),
        (14, 1), (14, 2)],
    7: [(4, 1), (4, 3), (6, 2), (6, 4), (8, 1), (8, 3), (8, 5), (12, 1)],
    11: [(4, 1), (4, 3), (6, 2), (6, 4), (8, 1), (12, 1)],
    19: [(4, 1), (4, 3), (6, 2), (8, 1)],
    23: [(4, 1), (4, 3), (6, 2), (8, 1)],
}

SYMBOLIC_CLASSES = {
    "p = 1 mod 4, p >= 13": [(6, 1), (6, 2), (10, 1)],
    "p = 3 mod 4, p > 23": [(4, 1), (6, 2), (8, 1)],
}


def stored_cases_for(p: int) -> list[tuple[int, int]]:
    if p in STORED_CASES:
        return list(STORED_CASES[p])
    if not discforms.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 == 1 and p >= 13:
        return list(SYMBOLIC_CLASSES["p = 1 mod 4, p >= 13"])
    if p % 4 == 3 and p > 23:
        return list(SYMBOLIC_CLASSES["p = 3 mod 4, p > 23"])
    raise ValueError(f"no stored case list for p = {p}")


def enumerate_genera(p: int, n_max: int = 26) -> list[GenusSymbol]:
    """All genera II_{n,2}(p^{n_p}) with 4 <= n <= n_max, up to dual rescaling.

    n_p runs over 1..(n+2)/2; the dual representative with larger n_p is the
    rescaled dual lattice and classifies identically.  Existence is decided
    by whether any sign matches the Milgram octant.
    """
    out = []
    for n in range(4, n_max + 1, 2):
        for n_p in range(1, (n + 2) // 2 + 1):
            try:
                eps = eps_for(n - 2, p, n_p)
            except discforms.GenusNotRepresentable:
                continue
            out.append(GenusSymbol(n, 2, p, n_p, eps))
    return out


def apply_bounds(p: int, n_max: int = 26):
    """Stored case list plus a report of where the two bounds disagree.

    The computed filter keeps n <= 10 + 24/(p+1) and additionally removes
    genera that split off U + U(p) when n > 2 + 48/(p+1).  The stored list
    is authoritative; the mismatch report records both directions of
    disagreement with the computed filter.
    """
    computed = []
    for g in enumerate_genera(p, n_max):
        if Fraction(g.pos) > 10 + Fraction(24, p + 1):
            continue
        if discforms.splits_u_up(g) and Fraction(g.pos) > 2 + Fraction(48, p + 1):
            continue
        computed.append((g.pos, g.n_p))
    stored = stored_cases_for(p)
    mismatch = {
        "kept_despite_filter": sorted(set(stored) - set(computed)),
        "dropped_despite_filter": sorted(set(computed) - set(stored)),
    }
    cases = []
    for n, n_p in stored:
        eps = eps_for(n - 2, p, n_p)
        cases.append(GenusSymbol(n, 2, p, n_p, eps))
    return cases, mismatch


# -- elimination machinery --

_ADE_PIECES = (
    [("A%d" % r, r, r + 1) for r in range(1, 25)]
    + [("D%d" % r, r, 4) for r in range(4, 25)]
    + [("E6", 6, 3), ("E7", 7, 2), ("E8", 8, 1)]
)


def root_lattice_dets(rank: int) -> list[int]:
    """Determinants of all direct sums of ADE root lattices of a given rank."""
    dets = {0: {1}}
    for r in range(1, rank + 1):
        found = set()
        for name, pr, pd in _ADE_PIECES:
            if pr <= r:
                for d in dets[r - pr]:
                    found.add(d * pd)
        dets[r] = found
    return sorted(dets[rank])


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def spanning_root_lattice_exists(rank: int, p: int, n_p: int) -> bool:
    """Whether some root lattice of this rank has determinant p^n_p * square."""
    target = p**n_p
    for d in root_lattice_dets(rank):
        if d % target == 0 and _is_square(d // target):
            return True
    return False


@dataclass
class CaseRecord:
    p: int | None
    n: int
    n_p: int
    eps: int | None
    genus: str
    verdict: str  # "REFLECTIVE" or "NOT_REFLECTIVE"
    reason: str | None = None
    detail: str = ""
    certificate: dict = field(default_factory=dict)


# per-case elimination rules: (reason tag, model recipe)
_RULES: dict[tuple[int, int, int], tuple[str, str | None]] = {
    (5, 10, 3): ("solve-empty", "2U+A4+T4"),
    (5, 10, 5): ("solve-empty", "2U+A4v(5)+T4"),
    (5, 14, 1): ("solve-empty", "2U+E8+A4"),
    (5, 14, 2): ("solve-empty", "2U+E8+T4"),
    (7, 12, 1): ("solve-empty", "2U+E8+L7"),
    (11, 8, 1): ("no-spanning-root-lattice", None),
    (11, 12, 1): ("solve-empty", "2U+E8+L11"),
    (19, 4, 1): ("eisenstein-obstruction", "2U+L19"),
    (19, 4, 3): ("split-transfer", None),
    (19, 6, 2): ("solve-empty", "2U+2L19"),
    (19, 8, 1): ("no-spanning-root-lattice", None),
    (23, 6, 2): ("solve-empty", "2U+2L23"),
    (23, 8, 1): ("no-spanning-root-lattice", None),
}

# model families (h1, h2, n1, rank) for symbolic singular-weight eliminations
_FAMILIES = {
    (6, 2): [(2, 2, 2, 4), (3, 3, 2, 4)],
    (10, 1): [(18, 2, 7, 8)],
    (4, 1): [(2, 2, 1, 2)],
}


def _rule_for(p: int, n: int, n_p: int) -> tuple[str, str | None] | None:
    if (p, n, n_p) in _RULES:
        return _RULES[(p, n, n_p)]
    if p >= 13 and p % 4 == 1:
        return {
            (6, 1): ("no-spanning-root-lattice", None),
            (6, 2): ("singular-weight-bound", "families"),
            (10, 1): ("singular-weight-bound", "t8-overlattice"),
        }.get((n, n_p))
    if p > 23 and p % 4 == 3:
        return {
            (4, 1): ("singular-weight-bound", f"2U+L{p}"),
            (6, 2): ("solve-empty", f"2U+2L{p}"),
            (8, 1): ("no-spanning-root-lattice", None),
        }.get((n, n_p))
    return None


def _t8_overlattice(p: int, cat) -> Lattice:
    """Rank-8 determinant-p overlattice of E7 + A1(p); exists for p = 1 mod 4."""
    seed = cat.build("E7") + cat.build("A1").rescaled(p)
    over = discforms.even_overlattices(seed, p)
    if len(over) != 1:
        raise ArithmeticError(f"expected one overlattice, found {len(over)}")
    return over[0]


def eliminate_case(
    genus: GenusSymbol, prior: dict[tuple[int, int], CaseRecord], catalog=None
) -> CaseRecord:
    """Run the elimination rules on one case; REFLECTIVE when none fires.

    The rule to apply is looked up per case; the mathematics is then rerun
    from scratch and the record reports whether it actually fires, so stored
    bookkeeping cannot silently overrule a computation.
    """
    cat = catalog or cat_mod.default_catalog()
    p, n, n_p = genus.p, genus.pos, genus.n_p
    rule = _rule_for(p, n, n_p)
    cert: dict = {}

    form = discforms.candidate_form(p, n_p, genus.eps)
    long_count = form.count_norm(Fraction(2, p))
    cert["norm_2p_vector_count"] = long_count

    # with no norm-2/p classes there are no long roots, so the definite part
    # must be spanned by an ordinary root lattice of determinant p^n_p square
    short_only_blocked = long_count == 0 and not spanning_root_lattice_exists(
        n - 2, p, n_p
    )

    if rule is None:
        record = CaseRecord(
            p=p, n=n, n_p=n_p, eps=genus.eps, genus=genus.label(),
            verdict="REFLECTIVE", certificate=cert,
        )
        if short_only_blocked:
            record.verdict = "NOT_REFLECTIVE"
            record.reason = "no-spanning-root-lattice"
            record.detail = "survivor unexpectedly fails the root-span check"
        return record

    tag, model = rule
    fired = False
    detail = ""

    if tag == "no-spanning-root-lattice":
        menu = root_lattice_dets(n - 2)
        fired = short_only_blocked
        cert["root_lattice_determinants"] = menu
        detail = (
            f"no vectors of norm 2/{p} in the discriminant form, and no rank-{n - 2} "
            f"root lattice has determinant {p}^{n_p} times a square"
        )

    elif tag == "solve-empty":
        _, definite = cat_mod.definite_part(model, cat)
        res = reflcheck.solve_candidates(definite, p)
        fired = res.status == "none"
        cert["model"] = model
        cert["solve_status"] = res.status
        detail = res.reason

    elif tag == "singular-weight-bound":
        if model == "families":
            cutoffs = []
            for h1, h2, n1, rank in _FAMILIES[(n, n_p)]:
                fam = reflcheck.solve_family(h1, h2, n1, rank)
                cutoffs.append(reflcheck.singular_filter(fam))
            fired = all(c is not None and c < p for c in cutoffs)
            cert["family_prime_cutoffs"] = cutoffs
            detail = f"every admissible model family dies beyond p = {max(cutoffs)}"
        else:
            if model == "t8-overlattice":
                definite = _t8_overlattice(p, cat)
                fam = reflcheck.solve_family(*_FAMILIES[(10, 1)][0])
                cert["family_prime_cutoff"] = reflcheck.singular_filter(fam)
            else:
                _, definite = cat_mod.definite_part(model, cat)
            res = reflcheck.solve_candidates(definite, p)
            if res.status != "ray":
                fired = True
                detail = f"model admits no multiplicities at all: {res.reason}"
                cert["solve_status"] = res.status
            else:
                r1, _ = roots.reflective_roots(definite, p)
                n1 = roots.span_rank(r1)
                bound = Fraction(n1 * res.c1 + (definite.rank - n1) * res.cp, 2)
                fired = Fraction(res.k) < bound
                cert["ray"] = (res.c1, res.cp, res.k)
                cert["singular_bound"] = bound
                detail = f"forced weight {res.k} lies below the singular bound {bound}"
            cert["model"] = model

    elif tag == "eisenstein-obstruction":
        _, definite = cat_mod.definite_part(model, cat)
        res = reflcheck.solve_candidates(definite, p)
        assert res.status == "ray"
        holds = etaq.obstruction_condition_holds(p, res.k)
        fired = not holds
        cert["model"] = model
        cert["ray"] = (res.c1, res.cp, res.k)
        cert["b3_psi"] = etaq.bernoulli_b3_psi(p)
        detail = (
            f"coefficient identity (3/k)(p+1)^2/B_3,psi = 1 fails for the ray weight {res.k}"
        )

    elif tag == "split-transfer":
        splits = discforms.splits_u_up(genus)
        companion = prior.get((n, n_p - 2))
        companion_dead = companion is not None and companion.verdict == "NOT_REFLECTIVE"
        pure_long_impossible = Fraction(n) > 2 + Fraction(24, p + 1)
        fired = splits and companion_dead and pure_long_impossible
        cert["splits_u_up"] = splits
        cert["companion"] = companion.genus if companion else None
        detail = (
            "splits as U + U(p) + definite; the transferred companion is eliminated "
            "and the purely 2p-reflective route exceeds its weight bound"
        )

    else:
        raise ValueError(f"unknown rule tag {tag}")

    if fired:
        return CaseRecord(
            p=p, n=n, n_p=n_p, eps=genus.eps, genus=genus.label(),
            verdict="NOT_REFLECTIVE", reason=tag, detail=detail, certificate=cert,
        )
    return CaseRecord(
        p=p, n=n, n_p=n_p, eps=genus.eps, genus=genus.label(),
        verdict="REFLECTIVE", reason=f"rule-did-not-fire:{tag}", detail=detail,
        certificate=cert,
    )


def classify(p: int, catalog=None) -> list[CaseRecord]:
    """Full concrete classification at one prime."""
    cat = catalog or cat_mod.default_catalog()
    cases, mismatch = apply_bounds(p)
    records: dict[tuple[int, int], CaseRecord] = {}
    out = []
    for genus in sorted(cases, key=lambda g: (g.pos, g.n_p)):
        rec = eliminate_case(genus, records, cat)
        records[(genus.pos, genus.n_p)] = rec
        out.append(rec)
    if any(v for v in mismatch.values()):
        for rec in out:
            rec.certificate.setdefault("bound_mismatch", mismatch)
    return out


def classify_symbolic(class_name: str) -> list[CaseRecord]:
    """Closed-form elimination of an entire residue class of primes."""
    if class_name not in SYMBOLIC_CLASSES:
        raise ValueError(f"unknown symbolic class {class_name!r}")
    one_mod_4 = "1 mod 4" in class_name
    out = []
    for n, n_p in SYMBOLIC_CLASSES[class_name]:
        label = f"II_{{{n},2}}(p^{{{n_p}}})"
        cert: dict = {}
        if (n, n_p) in ((6, 1), (8, 1)):
            menu = root_lattice_dets(n - 2)
            largest_factor = max(
                q for d in menu for q in range(2, d + 1) if d % q == 0 and discforms.is_prime(q)
            )
            cert["root_lattice_determinants"] = menu
            cert["largest_prime_factor"] = largest_factor
            detail = (
                "the signature forces the norm-2/p class count 1 + chi_p(a) to vanish, "
                f"and every rank-{n - 2} root lattice determinant is {largest_factor}-smooth, "
                "never p times a square"
            )
            tag = "no-spanning-root-lattice"
        else:
            cutoffs = []
            for h1, h2, n1, rank in _FAMILIES[(n, n_p)]:
                fam = reflcheck.solve_family(h1, h2, n1, rank)
                cutoffs.append(reflcheck.singular_filter(fam))
            cert["family_prime_cutoffs"] = cutoffs
            bound = 13 if one_mod_4 else 23
            detail = (
                f"symbolic families survive only up to p = {max(cutoffs)}, "
                f"below every prime of the class (p >= {bound})"
            )
            tag = "singular-weight-bound"
        out.append(
            CaseRecord(
                p=None, n=n, n_p=n_p, eps=None, genus=label,
                verdict="NOT_REFLECTIVE", reason=tag, detail=detail, certificate=cert,
            )
        )
    return out


def reflective_genera() -> list[str]:
    """The classified genus labels, sorted by (p, n, n_p)."""
    labels = {g for g, _, _ in STRONGLY_2_REFLECTIVE}
    labels |= {g for g, _, _, _, _ in MIXED_REFLECTIVE}
    parsed = [(parse_genus(s), s) for s in labels]
    parsed.sort(key=lambda t: (t[0].p, t[0].pos, t[0].n_p))
    return [s for _, s in parsed]


def construction_coverage() -> dict[str, dict]:
    """For each reflective genus, every construction that certifies it."""
    cov: dict[str, dict] = {}

    def entry(label):
        return cov.setdefault(
            label, {"strongly_2": None, "strongly_2p": None, "mixed": [], "towers": []}
        )

    for label, model, k in STRONGLY_2_REFLECTIVE:
        entry(label)["strongly_2"] = {"model": model, "k": k}
    for label, model, k in STRONGLY_2P_REFLECTIVE:
        entry(label)["strongly_2p"] = {"model": model, "k": k}
    for label, model, k, cp, cusp in MIXED_REFLECTIVE:
        entry(label)["mixed"].append({"model": model, "k": k, "cp": cp, "cusp": cusp})
    for tower in towers.load_towers():
        entry(tower.base_genus)["towers"].append(
            {"tower": tower.name, "weight": tower.base_weight, "catalogued": tower.base_catalogued}
        )
        for step in tower.steps:
            entry(step.genus)["towers"].append(
                {
                    "tower": tower.name,
                    "weight": step.weight,
                    "catalogued": step.catalogued,
                    "decomposes_into": step.decomposes_into,
                }
            )
    return cov


def verify_construction(label: str, cov: dict, catalog=None) -> dict:
    """Re-verify every table row certifying one genus.

    2U + K models run through the full candidate check; U + U(p) + K models
    are certified by the towers and transfers instead (their multiplicity
    identities involve mirrors inside the rescaled plane, which the
    definite-part check deliberately does not model).
    """
    cat = catalog or cat_mod.default_catalog()
    g = parse_genus(label)
    results = {}

    def one(model: str, c1: int, cp: int, k: int, key: str):
        lat = cat.parse(model)
        if discforms.genus_symbol(lat, p=g.p) != g:
            results[key] = "genus-mismatch"
            return
        scales, definite = cat_mod.definite_part(model, cat)
        if sorted(scales) == [1, 1] and definite is not None:
            rep = reflcheck.check_candidate(definite, g.p, c1, cp, k)
            results[key] = "checked" if rep.passed else "check-failed"
        else:
            covered = any(
                t.from_genus == label and t.from_k == k for t in towers.load_transfers()
            ) or any(
                (t["weight"] == k) or (t.get("decomposes_into") and k in t["decomposes_into"])
                for t in cov["towers"]
            )
            results[key] = "tower-covered" if covered else "uncovered"

    if cov["strongly_2"]:
        one(cov["strongly_2"]["model"], 1, 0, cov["strongly_2"]["k"], "strongly_2")
    if cov["strongly_2p"]:
        one(cov["strongly_2p"]["model"], 0, 1, cov["strongly_2p"]["k"], "strongly_2p")
    for i, row in enumerate(cov["mixed"]):
        one(row["model"], 1, row["cp"], row["k"], f"mixed[{i}]")
    return results


def verdict_table(verify: bool = False, catalog=None) -> dict:
    """The complete classification across all primes and residue classes."""
    cat = catalog or cat_mod.default_catalog()
    cov = construction_coverage()
    table: dict = {"primes": {}, "symbolic": {}, "reflective": [], "verification": {}}
    mismatches = {}
    for p in (2, 3, 5, 7, 11, 19, 23):
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
    expected = reflective_genera()
    table["reflective"].sort(key=lambda s: (parse_genus(s).p, parse_genus(s).pos, parse_genus(s).n_p))
    table["count"] = len(table["reflective"])
    table["matches_construction_tables"] = table["reflective"] == expected
    if verify:
        for label in table["reflective"]:
            table["verification"][label] = verify_construction(label, cov[label], cat)
    return table


# -- class numbers of reflective root data --


_ADE_FULL = (
    [("A%d" % r, r, r + 1, r + 1, r * (r + 1)) for r in range(1, 25)]
    + [("D%d" % r, r, 2 * r - 2, 4, 2 * r * (r - 1)) for r in range(4, 25)]
    + [("E6", 6, 12, 3, 72), ("E7", 7, 18, 2, 126), ("E8", 8, 30, 1, 240)]
)  # (name, rank, coxeter, det, root count)


def _component_menu(c: Fraction, p: int, c1: int, cp: int, max_rank: int):
    """Irreducible components compatible with a common constant C.

    Items are (label, rank, short roots, long roots, det of the lattice the
    component generates); G2 components generate A2, long components X(p)
    generate the rescaled lattice.
    """
    items = []
    if p == 3 and c1 > 0 and cp > 0 and c == c1 * 3 + cp * 1:
        items.append(("G2", 2, 6, 6, 3))
    for name, rank, cox, det, count in _ADE_FULL:
        if rank > max_rank:
            continue
        if c1 > 0 and c == c1 * cox:
            items.append((name, rank, count, 0, det))
        if cp > 0 and c == Fraction(cp * cox, p):
            items.append((f"{name}({p})", rank, 0, count, det * p**rank))
    return items


def class_number_rootsystems(
    rank: int, p: int, c1: int, cp: int, k: int, max_c: int = 40
) -> list[dict]:
    """All reflective root data of the given rank, multiplicities, and weight.

    A root datum is a multiset of irreducible components sharing one
    constant C, whose total counts satisfy the counting identity; each datum
    reports the lattice generated by its components.
    """
    found = []
    for c_int in range(1, max_c + 1):
        c = Fraction(c_int)
        menu = _component_menu(c, p, c1, cp, rank)
        if not menu:
            continue

        def extend(start: int, remaining: int, chosen: tuple):
            if remaining == 0:
                a = sum(item[2] for item in chosen)
                b = sum(item[3] for item in chosen)
                if c == Fraction(c1 * a + cp * b + 2 * k, 24) - c1:
                    det = 1
                    for item in chosen:
                        det *= item[4]
                    names = sorted(item[0] for item in chosen)
                    found.append(
                        {
                            "c": c,
                            "components": names,
                            "count_short": a,
                            "count_long": b,
                            "det": det,
                        }
                    )
                return
            for i in range(start, len(menu)):
                if menu[i][1] <= remaining:
                    extend(i, remaining - menu[i][1], chosen + (menu[i],))

        extend(0, rank, ())
    found.sort(key=lambda d: (d["c"], d["components"]))
    return found


def _datum_lattice(datum: dict, p: int, catalog=None) -> Lattice:
    cat = catalog or cat_mod.default_catalog()
    parts = []
    for name in datum["components"]:
        if name == "G2":
            parts.append(cat.build("A2"))
        elif name.endswith(f"({p})"):
            parts.append(cat.build(name[: -len(f"({p})")]).rescaled(p))
        else:
            parts.append(cat.build(name))
    lat = parts[0]
    for extra in parts[1:]:
        lat = lat + extra
    return lat


def class_number(rank: int, p: int, c1: int, cp: int, k: int, n_p: int, catalog=None) -> int:
    """Number of classes of lattices carrying the given reflective data.

    Each admissible root datum generates a definite lattice; the classes are
    its even overlattices of determinant p^n_p and level p whose reflective
    root system is exactly the datum (glue vectors may create extra roots,
    in which case the overlattice belongs to a different datum), counted up
    to the short-vector fingerprint.
    """
    cat = catalog or cat_mod.default_catalog()
    target = p**n_p
    total = 0
    for datum in class_number_rootsystems(rank, p, c1, cp, k):
        if datum["det"] % target != 0 or not _is_square(datum["det"] // target):
            continue
        lat = _datum_lattice(datum, p, cat)
        for over in discforms.even_overlattices(lat, target, fingerprint_norm=2 * p):
            if over.level() != p:
                continue
            comps = roots.root_components(over, p)
            names = sorted(c.name for c in comps)
            if names != datum["components"]:
                continue
            if sum(c.count_short for c in comps) != datum["count_short"]:
                continue
            if sum(c.count_long for c in comps) != datum["count_long"]:
                continue
            total += 1
    return total
