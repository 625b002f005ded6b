"""Acceptance gate: the headline results, each printed as one pass/fail line.

Every assertion here is exact; there are no tolerances anywhere. The slowest
step is the overlattice census behind the class number, so the whole module
stays within a few minutes of CPU.
"""
from __future__ import annotations

from fractions import Fraction

from helpers import bernoulli_poly_3, box_count_norm, dual_rescale_genus, legendre
from test_classify import REFLECTIVE_55

from reflector import etaq
from reflector.catalog import default_catalog, definite_part, parse_lattice
from reflector.classify import (
    MIXED_REFLECTIVE,
    STRONGLY_2_REFLECTIVE,
    STRONGLY_2P_REFLECTIVE,
    apply_bounds,
    class_number,
    class_number_rootsystems,
    stored_cases_for,
    verdict_table,
)
from reflector.discforms import (
    DiscriminantForm,
    discriminant_form,
    even_overlattices,
    glue_overlattice,
    parse_genus,
)
from reflector.intmat import mat_vec, vec_dot
from reflector.lattices import Lattice
from reflector.reflcheck import check_candidate, family_cutoff, solve_candidates
from reflector.roots import _trivial_glue_roots, root_data, root_table
from reflector.towers import TOWERS, replay_tower, verify_all

CAT = default_catalog()


def gate(label: str, ok: bool) -> None:
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def _definite(expr):
    _, lat = definite_part(expr, CAT)
    return lat


def test_root_count_suite():
    """Classical norm-2 counts against a box sweep, and an empty short system."""
    ok = True
    for name, want in (("A2", 6), ("D4", 24), ("E7", 126), ("E8", 240)):
        lat = CAT.build(name)
        ok = ok and 2 * len(root_table(lat, 2)[0]) == want
        ok = ok and 2 * root_data(lat, 2).positive_short == want
        ok = ok and box_count_norm(lat.gram, 2) == want
    ok = ok and root_table(_definite("2U+E6v(3)"), 3)[0] == []
    gate("root counts 6/24/126/240 with box oracle, rescaled E6 has none", ok)


def test_construction_tables_pass_candidate_checks():
    """Every printed (k, multiplicity) on a 2U model satisfies all identities."""
    ok = True
    rows = []
    for label, model, k in STRONGLY_2_REFLECTIVE:
        rows.append((label, model, 1, 0, k))
    for label, model, k in STRONGLY_2P_REFLECTIVE:
        rows.append((label, model, 0, 1, k))
    for label, model, k, cp, _cusp in MIXED_REFLECTIVE:
        rows.append((label, model, 1, cp, k))
    checked = 0
    for label, model, c1, cp, k in rows:
        scales, lat = definite_part(model, CAT)
        if sorted(scales) != [1, 1]:
            continue
        g = parse_genus(label)
        rep = check_candidate(lat, g.p, c1, cp, k)
        ok = ok and rep.passed
        checked += 1
    ok = ok and checked >= 40

    rep = check_candidate(_definite("2U+E6v(3)+2A2"), 3, 1, 1, 12)
    ok = ok and rep.passed and rep.count_short == 12 and rep.count_long == 84
    ok = ok and rep.c == 4

    t8 = solve_candidates(_definite("2U+T8"), 5)
    ok = ok and t8.status == "ray"
    ok = ok and t8.cp == 9 * 5 * t8.c1 and t8.k == (165 - 9 * 5) * t8.c1
    ok = ok and (t8.c1, t8.cp, t8.k) == (1, 45, 120)
    gate("construction tables verified row by row, including the glued octad", ok)


def test_solved_families():
    """Unique rays with linear weights in p, empty systems, and cutoffs."""
    ok = True
    for p in (7, 11, 19, 23):
        res = solve_candidates(_definite(f"2U+L{p}"), p)
        ok = ok and res.status == "ray"
        ok = ok and res.cp == p * res.c1 and res.k == (35 - p) * res.c1
    for p in (7, 11):
        res = solve_candidates(_definite(f"2U+2L{p}"), p)
        ok = ok and res.status == "ray"
        ok = ok and res.cp == p * res.c1 and res.k == (34 - 2 * p) * res.c1
    base = CAT.build("E7").direct_sum(Lattice([[2 * 5]], name="A1(5)"))
    over = [glue_overlattice(base, discriminant_form(base), sub)
            for sub, _ in even_overlattices(base, 5, 5)]
    ok = ok and len(over) == 1
    res = solve_candidates(over[0], 5)
    ok = ok and res.status == "ray"
    ok = ok and res.cp == 9 * 5 * res.c1 and res.k == (165 - 9 * 5) * res.c1
    for expr, p in (("2U+E8+L7", 7), ("2U+A4+T4", 5)):
        res = solve_candidates(_definite(expr), p)
        ok = ok and res.status == "none"
    cutoffs = [family_cutoff(2, 2, 1, 2), family_cutoff(2, 2, 2, 4), family_cutoff(18, 2, 7, 8)]
    ok = ok and cutoffs == [23, 11, 11]
    gate("family solver: rays, empty systems, singular cutoffs 23/11/11", ok)


def test_eta_tower():
    """Principal part and images of the weight tower along even 2-ranks."""
    ok = True
    f = etaq.f_series(10)
    ok = ok and f.denom == 24 and f.coeffs[-24] == 1 and f.coeffs[0] == 8
    lead, s2, image = etaq.s_transform(-8, -8, 2)
    ok = ok and lead == 16 and s2 == 0
    ok = ok and image.denom == 48 and image.coeffs[-24] == 1 and image.coeffs[0] == 8
    want = {10: (8, 1), 8: (12, 2), 6: (20, 4), 4: (36, 8), 2: (68, 16)}
    for n2, pair in want.items():
        ok = ok and etaq.lift_weight(n2) == pair
    gate("symmetric eta tower: 16 q^(-1/2) + 128 + ..., weights 8/12/20/36/68", ok)


def test_pullback_ladders():
    """The towers replay from the tables: every step lands on a row or splits."""
    result = verify_all()
    ok = all(result["towers"].values()) and result["transfers_ok"] == [True] * 11
    ladders = {tower[0]: replay_tower(tower) for tower in TOWERS}
    weights = {name: [level["weight"] for level in levels] for name, levels in ladders.items()}
    ok = ok and weights["p2-pullback"] == [8, 32, 56, 80]
    ok = ok and weights["p3-pullback"] == [6, 12, 18, 24, 30, 36]
    ok = ok and weights["p3-short-root-ladder"] == [12, 15, 18]
    splits = [level["split"] for levels in ladders.values() for level in levels if level["split"]]
    ok = ok and splits == [(28, 28), (40, 40), (12, 12), (15, 15), (18, 18)]
    ok = ok and all(level["ok"] for levels in ladders.values() for level in levels)
    gate("pull-back towers replay; ladders 8..80, 6..36, 12 -> 15 -> 18; splits", ok)


def test_character_sum_elimination():
    """The cubic twisted Bernoulli number and the failing ratio at p = 19."""
    ok = True
    direct = 9 * sum(
        legendre(a, 3) * bernoulli_poly_3(Fraction(a, 3)) for a in range(1, 3)
    )
    ok = ok and direct == Fraction(2, 3)
    ok = ok and etaq.bernoulli_b3_psi(3) == Fraction(2, 3)
    ok = ok and etaq.obstruction_condition_holds(7, 28)
    ok = ok and etaq.obstruction_condition_holds(11, 24)
    ok = ok and etaq.obstruction_condition_holds(23, 12)
    ok = ok and not etaq.obstruction_condition_holds(19, 16)
    gate("twisted Bernoulli 2/3 via direct sum; ratio test eliminates p = 19", ok)


def test_classification_end_to_end():
    """Bounds reproduce the case lists; the survivor set is the frozen 55."""
    ok = True
    for p in (2, 3, 5, 7, 11, 19, 23):
        computed, _ = apply_bounds(p)
        ok = ok and {(g.pos, g.n_p) for g in computed} == set(stored_cases_for(p))
    vt = verdict_table(verify=True)
    ok = ok and vt["count"] == 55
    ok = ok and set(vt["reflective"]) == set(REFLECTIVE_55)
    ok = ok and vt["matches_construction_tables"] is True
    for res in vt["verification"].values():
        for status in res.values():
            ok = ok and status in ("checked", "tower-covered")
    gate("end-to-end classification: 55 surviving genera, all certified", ok)


def test_class_number_at_rank_ten():
    """Two root data, one even overlattice each: class number exactly two."""
    data = class_number_rootsystems(10, 3, 1, 1, 12)
    ok = len(data) == 2
    comps = sorted(tuple(d["components"]) for d in data)
    ok = ok and comps == [("A3", "D7(3)"), ("E6(3)", "G2", "G2")]
    for d in data:
        a, b = d["count_short"], d["count_long"]
        ok = ok and b == 7 * a and d["c"] * 3 == a
    ok = ok and class_number(10, 3, 1, 1, 12, 7) == 2
    gate("rank-10 class number: two genera, b = 7a and c = a/3 throughout", ok)


def test_structural_invariants():
    """Gauss sum octants, symbol involution, block orthogonality, ray scaling."""
    ok = True
    for name in ("A2", "D4", "E6", "E7", "E8", "A4", "A6", "D8", "T4", "T8", "L7", "L11", "L23"):
        lat = CAT.build(name)
        form = DiscriminantForm.from_lattice(lat)
        ok = ok and form.milgram_octant() == lat.signature_mod8()
    for expr in ("D8v(2)", "E6v(3)", "A4v(5)", "A6v(7)", "E8(2)"):
        lat = parse_lattice(expr, CAT)
        ok = ok and DiscriminantForm.from_lattice(lat).milgram_octant() == lat.signature_mod8()

    from reflector.classify import enumerate_genera

    for p in (3, 5, 7, 11, 19, 23):
        for g in enumerate_genera(p):
            ok = ok and dual_rescale_genus(dual_rescale_genus(g)) == g

    for expr, p in (("2U+T4", 5), ("2U+T8", 5), ("2U+L7", 7)):
        lat = _definite(expr)
        # roots as G v, where det(G) times the pairing is the adjugate
        short, long_ = _trivial_glue_roots(lat, p)
        for r in short:
            adj_r = mat_vec(lat.adjugate(), r)
            for s in long_:
                ok = ok and vec_dot(adj_r, s) == 0

    for t in (1, 2, 3, 7):
        rep = check_candidate(_definite("2U+T4"), 5, t, 5 * t, 30 * t)
        ok = ok and rep.passed
        bad = check_candidate(_definite("2U+T4"), 5, t, 5 * t, 30 * t + 1)
        ok = ok and not bad.passed
    gate("octant identity, symbol involution, block orthogonality, ray scaling", ok)
