"""End-to-end elimination: case lists, verdicts, and the surviving genera."""
from __future__ import annotations

import gc
from collections import Counter
from operator import mul

import pytest

from helpers import (
    actions_on_glue,
    carries_datum,
    glue_fingerprints,
    glue_overlattice_calls,
    isometry_generators,
    joined_pools,
    lattice_builds,
    part_sums_calls,
    root_data_by_fractions,
    short_vector_calls,
    split_calls,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reflector import classify as classify_mod
from reflector import cli, discforms, etaq, intmat, reflcheck, roots, towers
from reflector.catalog import Catalog, default_catalog, definite_part, e7_a1_overlattice
from reflector.classify import (
    CaseRecord,
    apply_bounds,
    class_number,
    class_number_rootsystems,
    classify,
    classify_symbolic,
    count_classes,
    enumerate_genera,
    reflective_genera,
    root_lattice_dets,
    spanning_root_lattice_exists,
    stored_cases_for,
    table_rows,
    verdict_table,
)
from reflector.discforms import existing_genus, parse_genus
from reflector.lattices import Lattice, direct_sum
from reflector.roots import root_components
from reflector.towers import verify_all

REFLECTIVE_55 = [
    "II_{6,2}(2_II^{-2})", "II_{6,2}(2_II^{-4})",
    "II_{10,2}(2_II^{+2})", "II_{10,2}(2_II^{+4})", "II_{10,2}(2_II^{+6})",
    "II_{14,2}(2_II^{-2})", "II_{14,2}(2_II^{-4})", "II_{14,2}(2_II^{-6})",
    "II_{14,2}(2_II^{-8})",
    "II_{18,2}(2_II^{+2})", "II_{18,2}(2_II^{+4})", "II_{18,2}(2_II^{+6})",
    "II_{18,2}(2_II^{+8})", "II_{18,2}(2_II^{+10})",
    "II_{22,2}(2_II^{-2})",
    "II_{4,2}(3^{-1})", "II_{4,2}(3^{+3})",
    "II_{6,2}(3^{+2})", "II_{6,2}(3^{-4})",
    "II_{8,2}(3^{+1})", "II_{8,2}(3^{-3})", "II_{8,2}(3^{+5})",
    "II_{10,2}(3^{-2})", "II_{10,2}(3^{+4})", "II_{10,2}(3^{-6})",
    "II_{12,2}(3^{-1})", "II_{12,2}(3^{+3})", "II_{12,2}(3^{-5})",
    "II_{12,2}(3^{+7})",
    "II_{14,2}(3^{+2})", "II_{14,2}(3^{-4})", "II_{14,2}(3^{+6})",
    "II_{14,2}(3^{-8})",
    "II_{20,2}(3^{-1})",
    "II_{6,2}(5^{+1})", "II_{6,2}(5^{-2})", "II_{6,2}(5^{+3})", "II_{6,2}(5^{-4})",
    "II_{10,2}(5^{-1})", "II_{10,2}(5^{+2})", "II_{10,2}(5^{+4})",
    "II_{10,2}(5^{+6})",
    "II_{4,2}(7^{+1})", "II_{4,2}(7^{-3})",
    "II_{6,2}(7^{+2})", "II_{6,2}(7^{-4})",
    "II_{8,2}(7^{-1})", "II_{8,2}(7^{+3})", "II_{8,2}(7^{-5})",
    "II_{4,2}(11^{-1})", "II_{4,2}(11^{+3})",
    "II_{6,2}(11^{+2})", "II_{6,2}(11^{-4})",
    "II_{4,2}(23^{+1})", "II_{4,2}(23^{-3})",
]

PER_PRIME_COUNTS = {2: 15, 3: 19, 5: 8, 7: 7, 11: 4, 19: 0, 23: 2}

ELIMINATED = {
    (5, 10, 3): "solve-empty",
    (5, 10, 5): "solve-empty",
    (5, 14, 1): "solve-empty",
    (5, 14, 2): "solve-empty",
    (7, 12, 1): "solve-empty",
    (11, 8, 1): "no-spanning-root-lattice",
    (11, 12, 1): "solve-empty",
    (19, 4, 1): "eisenstein-obstruction",
    (19, 4, 3): "split-transfer",
    (19, 6, 2): "solve-empty",
    (19, 8, 1): "no-spanning-root-lattice",
    (23, 6, 2): "solve-empty",
    (23, 8, 1): "no-spanning-root-lattice",
}


def test_survivor_list_is_frozen():
    assert len(REFLECTIVE_55) == 55
    assert reflective_genera() == sorted(
        REFLECTIVE_55, key=lambda s: _sort_key(s)
    )
    assert set(reflective_genera()) == set(REFLECTIVE_55)


def _sort_key(label):
    g = parse_genus(label)
    return (g.p, g.pos, g.n_p)


def test_enumerated_case_lists_match_storage():
    """Filtering the raw enumeration by the bounds lands on the stored lists."""
    for p in (2, 3, 5, 7, 11, 19, 23):
        computed, _ = apply_bounds(p)
        assert [(g.pos, g.n_p) for g in computed] == stored_cases_for(p), p
        enumerated = {(g.pos, g.n_p) for g in enumerate_genera(p)}
        assert set(stored_cases_for(p)) <= enumerated, p


def test_bound_mismatch_report_is_exact():
    _, report2 = apply_bounds(2)
    assert report2 == {
        "kept_despite_filter": [(22, 2)],
        "dropped_despite_filter": [],
    }
    _, report3 = apply_bounds(3)
    assert report3 == {
        "kept_despite_filter": [(20, 1)],
        "dropped_despite_filter": [(16, 1)],
    }
    for p in (5, 7, 11, 19, 23):
        _, rep = apply_bounds(p)
        assert rep == {"kept_despite_filter": [], "dropped_despite_filter": []}, p


def test_stored_case_shapes():
    for p, cases in (
        (2, 15),
        (3, 19),
        (5, 12),
        (7, 8),
        (11, 6),
        (19, 4),
        (23, 4),
    ):
        assert len(stored_cases_for(p)) == cases, p


def test_enumerated_genera_have_consistent_symbols():
    for p in (3, 5, 7, 11, 19, 23):
        for g in enumerate_genera(p):
            assert g.p == p
            assert g.neg == 2
            assert g.pos % 2 == 0
            assert 1 <= g.n_p <= (g.pos + 2) // 2
            assert g.eps in (1, -1)


def test_full_classification_verdicts():
    """Every stored case lands on the frozen verdict with the frozen reason."""
    for p in (2, 3, 5, 7, 11, 19, 23):
        records = classify(p)
        assert len(records) == len(stored_cases_for(p)), p
        for rec in records:
            key = (p, rec.n, rec.n_p)
            if key in ELIMINATED:
                assert rec.verdict == "NOT_REFLECTIVE", key
                assert rec.reason == ELIMINATED[key], key
            else:
                assert rec.verdict == "REFLECTIVE", key


def test_reflective_records_match_frozen_labels():
    got = []
    for p in (2, 3, 5, 7, 11, 19, 23):
        recs = [r for r in classify(p) if r.verdict == "REFLECTIVE"]
        assert len(recs) == PER_PRIME_COUNTS[p], p
        got.extend(r.genus for r in recs)
    assert set(got) == set(REFLECTIVE_55)


def test_verdict_table_summary():
    vt = verdict_table()
    assert vt["count"] == 55
    assert set(vt["reflective"]) == set(REFLECTIVE_55)
    assert vt["matches_construction_tables"] is True
    assert set(vt["bound_mismatches"]) == {2, 3}


def test_sample_prime_thirteen():
    """p = 13 realizes the residue class 1 mod 4 with all three case shapes."""
    recs = {(r.n, r.n_p): r for r in classify(13)}
    assert recs[(6, 1)].reason == "no-spanning-root-lattice"
    assert recs[(6, 2)].reason == "singular-weight-bound"
    assert recs[(10, 1)].reason == "singular-weight-bound"
    assert all(r.verdict == "NOT_REFLECTIVE" for r in recs.values())
    ray = recs[(10, 1)].certificate.get("ray")
    assert ray == (1, 117, 48)


def test_sample_prime_thirty_one():
    recs = {(r.n, r.n_p): r for r in classify(31)}
    assert recs[(4, 1)].reason == "singular-weight-bound"
    assert recs[(6, 2)].reason == "solve-empty"
    assert recs[(8, 1)].reason == "no-spanning-root-lattice"


def test_symbolic_classes_eliminate_everything():
    for name in ("p = 1 mod 4, p >= 13", "p = 3 mod 4, p > 23"):
        recs = classify_symbolic(name)
        assert len(recs) == 3, name
        assert all(r.verdict == "NOT_REFLECTIVE" for r in recs), name


def test_symbolic_reasons():
    recs = {(r.n, r.n_p): r for r in classify_symbolic("p = 1 mod 4, p >= 13")}
    assert recs[(6, 1)].reason == "no-spanning-root-lattice"
    assert recs[(6, 2)].reason == "singular-weight-bound"
    assert recs[(10, 1)].reason == "singular-weight-bound"
    recs3 = {(r.n, r.n_p): r for r in classify_symbolic("p = 3 mod 4, p > 23")}
    assert recs3[(4, 1)].reason == "singular-weight-bound"
    assert recs3[(8, 1)].reason == "no-spanning-root-lattice"


def test_symbolic_verdict_follows_the_cutoffs(monkeypatch):
    """A family cutoff at the class's least prime no longer eliminates the case."""
    monkeypatch.setattr(reflcheck, "family_cutoff", lambda *family: 31)
    recs = {(r.n, r.n_p): r for r in classify_symbolic("p = 3 mod 4, p > 23")}
    assert recs[(4, 1)].verdict == "REFLECTIVE"
    assert recs[(4, 1)].reason is None
    assert recs[(8, 1)].reason == "no-spanning-root-lattice"
    recs1 = {(r.n, r.n_p): r for r in classify_symbolic("p = 1 mod 4, p >= 13")}
    assert recs1[(6, 2)].verdict == recs1[(10, 1)].verdict == "REFLECTIVE"
    assert recs1[(6, 1)].reason == "no-spanning-root-lattice"


def test_symbolic_families_are_their_models_root_systems():
    """Each family (h1, h2, n1, rank) of a symbolic case is the root system of
    the class's model at the class's least prime, and the case's record
    reads exactly those families."""
    cat = default_catalog()
    for name, (least, cases) in classify_mod.SYMBOLIC_CLASSES.items():
        records = {(r.n, r.n_p): r for r in classify_symbolic(name)}
        for case, (model, families) in cases.items():
            if families:
                assert len(records[case].certificate["family_prime_cutoffs"]) == len(families)
            if model is None:  # no single lattice to compare with
                continue
            if model == "t8-overlattice":
                definite = e7_a1_overlattice(cat, least)
            else:
                _, definite = definite_part(model.format(p=least), cat)
            comps = root_components(definite, least)
            short = {c.count_short // c.rank for c in comps if c.count_short}
            long = {c.count_long // c.rank for c in comps if c.count_long}
            n1 = sum(c.rank for c in comps if c.count_short)
            for h1, h2, fam_n1, rank in families:
                assert ({h1}, {h2}) == (short, long), (name, case, model)
                assert (fam_n1, rank) == (n1, definite.rank), (name, case, model)


def test_reflective_records_ran_every_rule():
    """REFLECTIVE means no rule fired, down to the split transfer of rule 6."""
    for p in (2, 3, 5, 7, 11, 19, 23):
        for rec in classify(p):
            if rec.verdict == "REFLECTIVE":
                assert rec.reason is None, (p, rec.genus)
                assert {"splits_u_up", "companion"} <= set(rec.certificate), (p, rec.genus)


def test_first_rule_to_fire_is_recorded():
    """A model with no admissible multiplicities fires rule 3 before rule 4."""
    for p, case in ((29, (10, 1)), (43, (4, 1))):
        rec = {(r.n, r.n_p): r for r in classify(p)}[case]
        assert rec.reason == "solve-empty", p
        assert rec.certificate["solve_status"] == "none", p


def test_rule_five_computes_b3_psi_once():
    """The obstruction test at (19, 4, 1) reuses the B_{3,psi} its certificate records."""
    etaq.bernoulli_b3_psi.cache_clear()
    rec = {(r.n, r.n_p): r for r in classify(19)}[(4, 1)]
    assert rec.reason == "eisenstein-obstruction"
    assert rec.certificate["b3_psi"] == 66
    assert etaq.bernoulli_b3_psi.cache_info().misses == 1


def test_verdict_comes_from_the_model(monkeypatch):
    """Without its model, nothing eliminates II_{14,2}(5^{+1}).  No call keeps the
    case table: after a warm classify(5), removing the model flips the verdict, and
    restoring it flips the verdict back."""

    def record() -> CaseRecord:
        return {(r.n, r.n_p): r for r in classify(5)}[(14, 1)]

    assert record().verdict == "NOT_REFLECTIVE"
    with monkeypatch.context() as patch:
        patch.setitem(classify_mod.STORED_CASES[5], (14, 1), None)
        rec = record()
        assert rec.verdict == "REFLECTIVE"
        assert rec.reason is None
    assert record().verdict == "NOT_REFLECTIVE"


def test_root_lattice_determinant_menu():
    assert root_lattice_dets(4) == [4, 5, 8, 9, 12, 16]
    dets6 = root_lattice_dets(6)
    assert dets6[0] == 3 and 7 in dets6
    for d in dets6:
        assert max(_prime_factors(d)) <= 7


def test_root_lattice_determinants_are_a_new_list_per_call():
    """The menu is computed once per rank; a certificate that holds it shares it with no other."""
    first = root_lattice_dets(6)
    first.append(0)
    assert root_lattice_dets(6) == first[:-1]
    assert root_lattice_dets(0) == [1]


def test_warm_certify_pass_parses_no_label_and_expands_no_expression(monkeypatch):
    """After one verdict table and tower replay, a second pair parses no genus label
    and expands no expression into its terms."""
    verdict_table(verify=True)
    verify_all()
    expanded = []
    summands = Catalog.summands

    def counted(self, expr):
        expanded.append(expr)
        return summands(self, expr)

    monkeypatch.setattr(Catalog, "summands", counted)
    misses = parse_genus.cache_info().misses
    verdict_table(verify=True)
    verify_all()
    assert parse_genus.cache_info().misses == misses
    assert expanded == []


def test_warm_certify_caches_follow_the_tables_and_reduce_nothing_twice(monkeypatch):
    """On one catalog: a 2U row whose k is changed between two verified tables fails
    its check, and passes again once the change is undone, so no cache keeps a
    verdict that reads the tables.  A warm table and tower replay then build no
    root record (`roots.split_components`, `intmat.row_hermite_form`) and no
    solve result (`reflcheck.solve_components`), factorise nothing, format no genus
    label, and neither the replays nor `verify_construction` read a model or a genus
    off the catalog."""
    cat = Catalog()
    rows = [("STRONGLY_2_REFLECTIVE", "II_{6,2}(2_II^{-2})", "strongly_2"),
            ("MIXED_REFLECTIVE", "II_{6,2}(5^{-2})", "mixed[0]")]
    for name, label, key in rows:
        assert verdict_table(verify=True, catalog=cat)["verification"][label][key] == "checked"
        changed = [(g, m, k + 1, *rest) if g == label else (g, m, k, *rest)
                   for g, m, k, *rest in getattr(classify_mod, name)]
        with monkeypatch.context() as patch:
            patch.setattr(classify_mod, name, changed)
            verification = verdict_table(verify=True, catalog=cat)["verification"]
            assert verification[label][key] == "check-failed", label
        assert verdict_table(verify=True, catalog=cat)["verification"][label][key] == "checked"

    verify_all(cat)
    calls = Counter()
    for module, name in ((intmat, "row_hermite_form"), (discforms, "_factorize"),
                         (roots, "split_components"), (reflcheck, "solve_components"),
                         (discforms, "_format_label")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, inner=inner, name=name: (
            calls.update([name]) or inner(*args)))
    inside = []  # the replay or row check being run, innermost last

    def within(fn):
        def wrapped(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    for module, name in ((classify_mod, "verify_construction"), (towers, "replay_tower"),
                         (towers, "replay_transfer")):
        monkeypatch.setattr(module, name, within(getattr(module, name)))
    for holder, name in ((Catalog, "model_parts"), (discforms, "genus_symbol")):
        inner = getattr(holder, name)
        monkeypatch.setattr(holder, name, lambda *args, inner=inner, name=name, **kwargs: (
            inside and calls.update([name]) or inner(*args, **kwargs)))
    table = verdict_table(verify=True, catalog=cat)
    replay = verify_all(cat)
    assert table["count"] == 55 and all(replay["towers"].values())
    assert calls == Counter()


def test_a_certify_pass_computes_each_check_once(monkeypatch):
    """On a fresh catalog, one certified table and tower replay call the candidate
    check 77 times (each 2U row once, each of the 11 transfer targets once in
    `covered_rows` and once in `verify_all`) and compute it 56 times, once per
    distinct (K, p, c1, cp, k); a second such pass computes none."""
    check, calls, computed = reflcheck.check_candidate, [], []
    inner = check.__wrapped__
    (cell,) = [cell for cell in check.__closure__ if cell.cell_contents is inner]
    monkeypatch.setattr(cell, "cell_contents",
                        lambda lat, *args: computed.append((id(lat), *args)) or inner(lat, *args))
    monkeypatch.setattr(reflcheck, "check_candidate",
                        lambda *args: calls.append(args) or check(*args))
    cat = Catalog()
    for want in (56, 0):
        calls.clear()
        computed.clear()
        verdict_table(verify=True, catalog=cat)
        verify_all(cat)
        assert (len(calls), len(computed), len(set(computed))) == (77, want, want)


def _prime_factors(n):
    out, d = [], 2
    while n > 1:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out or [1]


def test_spanning_root_lattice_predicate():
    assert spanning_root_lattice_exists(6, 7, 1)
    assert not spanning_root_lattice_exists(6, 11, 1)
    assert not spanning_root_lattice_exists(2, 19, 1)
    assert spanning_root_lattice_exists(2, 3, 1)


def test_class_number_root_data():
    """Exactly two root data fit rank 10 at the fixed multiplicities and weight."""
    data = class_number_rootsystems(10, 3, 1, 1, 12)
    assert len(data) == 2
    by_components = {tuple(d["components"]): d for d in data}
    assert ("A3", "D7(3)") in by_components
    assert ("E6(3)", "G2", "G2") in by_components
    for d in data:
        assert set(d) == {"c", "components", "count_short", "count_long", "det"}
        assert d["c"] == 4
        assert d["count_short"] == 12
        assert d["count_long"] == 84
    assert by_components[("A3", "D7(3)")]["det"] == 34992
    assert by_components[("E6(3)", "G2", "G2")]["det"] == 19683


# 2U rows whose datum is B_n, C_n or F4 at p = 2, G2 at p = 3, or long roots
# alone at cp = 0 (C = 0), as (model, c1, cp)
OWN_DATUM_ROWS = [
    ("2U+D4", 1, 0), ("2U+D8", 1, 0), ("2U+2D4", 1, 0), ("2U+D8v(2)", 1, 0),
    ("2U+D4", 0, 1), ("2U+2D4", 0, 1), ("2U+D8v(2)", 0, 1),
    ("2U+E8+D4", 1, 8), ("2U+D8+D4", 1, 4), ("2U+D8v(2)+D4", 1, 1),
    ("2U+A2", 1, 0), ("2U+2A2", 1, 0), ("2U+3A2", 1, 0), ("2U+E6v(3)", 1, 0),
    ("2U+A2", 0, 1), ("2U+2A2", 0, 1), ("2U+3A2", 0, 1),
    ("2U+A4v(5)", 1, 0),
]


@pytest.mark.parametrize(
    "model, c1, cp", OWN_DATUM_ROWS, ids=[f"{m} ({a},{b})" for m, a, b in OWN_DATUM_ROWS]
)
def test_a_two_u_row_counts_its_own_datum(model, c1, cp):
    """The lattice K of a row 2U + K carries its own root datum, so its class
    number at the row's rank, prime, multiplicities, weight and p-rank is >= 1."""
    [(label, k)] = [(g, kk) for g, m, a, b, kk in table_rows() if (m, a, b) == (model, c1, cp)]
    genus = parse_genus(label)
    _, lat = definite_part(model)
    datum = sorted(c.name for c in root_components(lat, genus.p))
    data = class_number_rootsystems(lat.rank, genus.p, c1, cp, k)
    assert datum in [d["components"] for d in data]
    assert class_number(lat.rank, genus.p, c1, cp, k, genus.n_p) >= 1


def test_the_menu_reaches_constants_past_forty():
    """E8 at c1 = 2 has C = 2 h(E8) = 60; C has no upper limit."""
    assert ["E8"] in [d["components"] for d in class_number_rootsystems(8, 3, 2, 0, 504)]


# the 23 Niemeier root systems (Conway and Sloane, Sphere Packings, Lattices
# and Groups, ch. 16), as {component: multiplicity}
NIEMEIER = [
    {"D24": 1}, {"D16": 1, "E8": 1}, {"E8": 3}, {"A24": 1}, {"D12": 2}, {"A17": 1, "E7": 1},
    {"D10": 1, "E7": 2}, {"A15": 1, "D9": 1}, {"D8": 3}, {"A12": 2},
    {"A11": 1, "D7": 1, "E6": 1}, {"E6": 4}, {"A9": 2, "D6": 1}, {"D6": 4}, {"A8": 3},
    {"A7": 2, "D5": 2}, {"A6": 4}, {"A5": 4, "D4": 1}, {"D4": 6}, {"A4": 6}, {"A3": 8},
    {"A2": 12}, {"A1": 24},
]


def test_short_root_data_of_rank_24_are_the_niemeier_root_systems():
    """At (c1, cp, k) = (1, 0, 12) the data without long roots are the rank-24
    root systems whose components share one Coxeter number h = C."""
    data = class_number_rootsystems(24, 3, 1, 0, 12)
    got = sorted(d["components"] for d in data if d["count_long"] == 0)
    assert got == sorted(sorted(n for n, m in r.items() for _ in range(m)) for r in NIEMEIER)


@pytest.mark.parametrize("p, listed, nodes", [(3, 10493, 38986), (2, 12109, 46469)])
def test_root_datum_search_is_charged_by_node(monkeypatch, p, listed, nodes):
    """Every long-only datum of rank 24 is listed within the budget; the search
    visits `nodes` partial multisets, and one node fewer raises."""
    monkeypatch.setattr(discforms, "BUDGET", nodes)
    assert len(class_number_rootsystems(24, p, 1, 0, 12)) == listed
    monkeypatch.setattr(discforms, "BUDGET", nodes - 1)
    with pytest.raises(discforms.BudgetExceeded):
        class_number_rootsystems(24, p, 1, 0, 12)


@settings(max_examples=150, deadline=None)
@given(
    rank=st.integers(0, 12),
    p=st.sampled_from([2, 3, 5, 7, 11]),
    mults=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    k=st.integers(0, 60),
)
def test_integer_menus_match_the_fraction_search(rank, p, mults, k):
    """The search over the kept integer menus lists the data of a search over
    Fraction menus, and visits the same nodes: at a budget of that many it
    finishes, and at one fewer it raises."""
    c1, cp = mults
    want, nodes = root_data_by_fractions(rank, p, c1, cp, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discforms, "BUDGET", nodes)
        assert class_number_rootsystems(rank, p, c1, cp, k) == want
        if nodes:  # a rank-0 search has no menu and visits nothing
            patch.setattr(discforms, "BUDGET", nodes - 1)
            with pytest.raises(discforms.BudgetExceeded):
                class_number_rootsystems(rank, p, c1, cp, k)


@pytest.mark.parametrize(
    "c1, cp, n_p",
    [(1, 1, -1), (-1, 1, 3), (1, -2, 3), (0, 0, 3)],
    ids=["negative n_p", "negative c1", "negative cp", "both zero"],
)
def test_class_number_rejects_invalid_data(c1, cp, n_p):
    """A negative p-rank would make p^n_p a float; the multiplicities are the
    ones check_candidate rejects."""
    with pytest.raises(ValueError):
        class_number(6, 3, c1, cp, 24, n_p)
    if n_p >= 0:
        with pytest.raises(ValueError):
            class_number_rootsystems(6, 3, c1, cp, 24)


def test_class_number_rejects_a_negative_rank():
    """A negative rank has no root datum; it is an error, not class number 0."""
    with pytest.raises(ValueError, match="rank"):
        class_number(-4, 3, 1, 1, 12, 1)
    with pytest.raises(ValueError, match="rank"):
        class_number_rootsystems(-4, 3, 1, 1, 12)


@pytest.mark.parametrize("p", [1, 4, 9, -3, 0])
def test_class_number_rejects_a_non_prime(p):
    """p^n_p is a level only at a prime p: 1, 4, 9 and -3 returned 0, and 0 divided by zero."""
    with pytest.raises(ValueError, match="not prime"):
        class_number(4, p, 1, 1, 12, 1)
    with pytest.raises(ValueError, match="not prime"):
        class_number_rootsystems(4, p, 1, 1, 12)


def test_count_classes_rejects_a_genus_that_does_not_exist():
    """II_{2,0}(3^{+-99}) does not exist, so there is nothing to count; the census
    genera and the rank-10 one do."""
    with pytest.raises(ValueError, match="3\\^99"):
        count_classes(class_number_rootsystems(2, 3, 1, 1, 12), 2, 3, 99)
    for rank, p, n_p in [(8, 3, 6), (6, 3, 3), (6, 3, 5), (10, 3, 7)]:
        assert existing_genus(rank, 0, p, n_p) is not None


@pytest.mark.parametrize("rank, p, k, want",
                         [(8, 2, 252, 1), (8, 3, 252, 1), (16, 2, 132, 2), (16, 3, 132, 2)])
def test_a_unimodular_genus_counts_its_classes(rank, p, k, want):
    """At n_p = 0 the genus II_{rank,0}(p^{+0}) has level 1, whatever p: II_8 holds E8
    alone and II_16 holds E8+E8 and D16+ (Conway and Sloane, Sphere Packings, Lattices
    and Groups, ch. 16), each with C = 30 at (c1, cp) = (1, 0)."""
    assert class_number(rank, p, 1, 0, k, 0) == want


# the class numbers of the census workload, with their values
CENSUS = [((8, 3, 1, 1, 18, 6), 1), ((6, 3, 1, 1, 24, 3), 0), ((6, 3, 1, 1, 24, 5), 1)]


def test_a_warm_census_pass_enumerates_and_builds_nothing():
    """Once a catalog has seen the census, a pass over it again calls `short_vectors`,
    `glue_overlattice`, `roots.part_sums` and `roots.split_components` no more and
    constructs no `Lattice`: every glue group is decided on D(L), and each datum's
    lattice, with its terms' coset minima, its long roots and the root systems split
    for its glue, is the one the catalog keeps.  Nor does it concatenate a root
    class: the pools joined for A1+A1+A1+A5(3) at order 4, E6(3)+A2 at 3, E6(3) at 9
    and E6(3) at 3 hold 1, 2, 2 and 2 elements, where the walked pools hold 1, 782,
    242 and 242."""
    cat = Catalog()
    with split_calls() as cold:
        assert [class_number(*args, catalog=cat) for args, _ in CENSUS] == [n for _, n in CENSUS]
    with (short_vector_calls() as calls, glue_overlattice_calls() as built,
          part_sums_calls() as sums, lattice_builds() as lattices, joined_pools() as pools,
          split_calls() as splits):
        assert [class_number(*args, catalog=cat) for args, _ in CENSUS] == [n for _, n in CENSUS]
    assert not calls and not built and not sums and not lattices
    assert pools == [1, 2, 2, 2]
    assert len(cold) == 2 and not splits


def _long_root_classes(lat, p, sub) -> frozenset:
    """The classes c of D(L) that hold a dual vector of norm 2/p, with p c in H and c
    pairing to 0 with every element of H."""
    form = discforms.discriminant_form(lat)
    members = set(sub)
    return frozenset(
        c for c in discforms._glue_roots(lat, p)[1]
        if tuple(p * a % o for a, o in zip(c, form.orders)) in members
        and all(sum(map(mul, c, intmat.mat_vec(form.bnum, h))) % form.den == 0 for h in sub))


def test_a_cold_count_splits_once_per_set_of_long_root_classes():
    """A cold class number calls `roots.split_components` once per (datum lattice, set
    of long-root classes that a glue group keeps), not once per glue group: 2U+E6+3A2
    has 46 glue groups over 6 data and 6 such sets."""
    args = (12, 3, 1, 9, 30, 4)
    with split_calls() as calls:
        assert class_number(*args, catalog=Catalog()) == 6
    cat, table = Catalog(), classify_mod._component_table(12, 3)
    groups, sets = 0, set()
    for datum in class_number_rootsystems(*args[:5]):
        if datum["det"] % 3**4 or not classify_mod._is_square(datum["det"] // 3**4):
            continue
        expr = "+".join(table[c][1] for c in datum["components"])
        lat = cat.parse(expr)
        for sub in discforms.even_overlattices(lat, 3**4, 3):
            groups += 1
            sets.add((expr, _long_root_classes(lat, 3, sub)))
    assert (groups, len(sets)) == (46, 6)
    assert len(calls) == len(sets)


def test_a_cold_verdict_table_enumerates_each_gram_once():
    """A fresh catalog's certified verdict table and tower replay call `short_vectors`
    at most once per (Gram, bound): each term keeps its roots and its short dual
    vectors, and a model that is not joined from its parts reads them off its parts.

    The twins are the one exception: for a term X of determinant p, the term
    Xv(p) = p X^dual has X's adjugate as its Gram, so (adj X, 2) is enumerated
    exactly twice, once for the dual vectors of norm <= 2/p of X and once for
    the roots of Xv(p), each kept on its own lattice.
    """
    cat = Catalog()
    with short_vector_calls() as calls:
        verdict_table(verify=True, catalog=cat)
        verify_all(cat)
    counts = Counter((tuple(map(tuple, gram)), bound) for gram, bound in calls)
    terms = [lat for (fn, *_), lat in cat.memo.items() if fn is Catalog._term.__wrapped__]
    twins = {(t.gram, 2) for t in terms} & {(t.adjugate(), 2) for t in terms}
    assert len(twins) == 3 and all(counts[key] == 2 for key in twins)
    assert {key: n for key, n in counts.items() if n > 1 and key not in twins} == {}


def _kept_lattices(cat: Catalog) -> list:
    """The lattices a catalog keeps, alone or in a tuple, with their parts."""
    found = []
    for value in cat.memo.values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Lattice):
                found += [item, *item.parts]
    return found


def _is_kept_key(key) -> bool:
    """Whether a memo key is a (builder, *args) tuple of a library function."""
    return isinstance(key, tuple) and callable(key[0]) and key[0].__module__.startswith("reflector.")


def test_every_memo_key_comes_from_kept():
    """Every key in a catalog's memo and in the memos of its lattices is written by
    `lattices.kept`: for a freshly parsed twin term, and after a cold certified
    table and tower replay, on every lattice the catalog keeps."""
    cat = Catalog()
    twin = cat.parse("E6v(3)")
    assert all(map(_is_kept_key, twin.memo)), list(twin.memo)
    verdict_table(verify=True, catalog=cat)
    verify_all(cat)
    kept = _kept_lattices(cat)
    assert len(kept) > 50
    assert all(map(_is_kept_key, cat.memo))
    for lat in kept:
        assert all(map(_is_kept_key, lat.memo)), (lat, list(lat.memo))


def test_the_rank_ten_count_builds_only_the_glue_that_carries_a_datum():
    """A3 + D7(3) has two glue groups that carry its datum, in one O(L)-orbit, and
    E6(3) + 2G2 has one group: the count is 2, and no overlattice is built."""
    with glue_overlattice_calls() as built:
        assert class_number(10, 3, 1, 1, 12, 7) == 2
    assert not built
    (_, lat, glue), = [entry for entry in _datum_glue(RANK_TEN, Catalog())
                       if entry[0]["components"] == ["A3", "D7(3)"]]
    assert len(glue) == 2 and discforms.glue_orbits(lat, 3, glue) == 1


def test_a_wrong_glue_overlattice_is_an_arithmetic_error(monkeypatch, capsys, tmp_path):
    """The determinant and level of the E7 + A1(5) overlattice are checked with a
    raise, not an assert, so the check holds under `python -O`: when
    `glue_overlattice` returns the glued lattice itself, the overlattice raises
    ArithmeticError, and a CLI request that builds T8 on a fresh catalog exits 1
    with one line."""
    monkeypatch.setattr(discforms, "glue_overlattice", lambda lat, form, sub: lat)
    with pytest.raises(ArithmeticError, match="determinant and level 5"):
        e7_a1_overlattice(Catalog(), 5)
    path = tmp_path / "catalog.json"
    path.write_text('{"lattices": {}}')
    assert cli.main(["lattice", "--lattice", "T8", "--catalog", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: E7+A1(5) overlattice") and err.count("\n") == 1


RANK_TEN = (10, 3, 1, 1, 12, 7)

# requests (rank, p, c1, cp, k, n_p) and their class numbers: the 2U rows of the
# sweep whose count is above 1 or that meet a datum with two or more glue groups
# (2U+T4, 2U+2L7), and the rank-10 request
ORBIT_COUNTS = [
    ((12, 2, 1, 8, 144, 2), 2), ((12, 2, 1, 4, 80, 4), 2), ((12, 2, 1, 2, 48, 6), 3),
    ((12, 2, 1, 1, 32, 8), 2), ((16, 2, 1, 16, 68, 2), 6), ((16, 2, 1, 8, 36, 4), 11),
    ((8, 3, 1, 3, 36, 4), 2), ((10, 3, 1, 9, 60, 3), 2), ((10, 3, 1, 3, 24, 5), 3),
    ((10, 3, 1, 1, 12, 7), 2), ((12, 3, 1, 27, 84, 2), 3), ((12, 3, 1, 9, 30, 4), 6),
    ((18, 3, 1, 27, 48, 1), 6), ((4, 5, 1, 5, 30, 2), 1), ((8, 5, 1, 25, 52, 2), 2),
    ((8, 5, 1, 5, 12, 4), 4), ((4, 7, 1, 7, 20, 2), 1), ((6, 7, 1, 7, 12, 3), 2),
    ((4, 11, 1, 11, 12, 2), 2), (RANK_TEN, 2),
]


def _datum_glue(args, cat: Catalog) -> list[tuple[dict, Lattice, list]]:
    """(datum, L, the glue groups that carry it) for each root datum of a request whose
    determinant passes the filter of `count_classes`, read as it reads them."""
    rank, p, c1, cp, k, n_p = args
    target, level = p**n_p, p if n_p else 1
    table = classify_mod._component_table(rank, p)
    found = []
    for datum in class_number_rootsystems(rank, p, c1, cp, k):
        if datum["det"] % target or not classify_mod._is_square(datum["det"] // target):
            continue
        lat = cat.parse("+".join(table[c][1] for c in datum["components"]))
        glue = [sub for sub in discforms.even_overlattices(lat, target, level)
                if classify_mod._carries(discforms.glue_components(lat, p, sub), datum)]
        found.append((datum, lat, glue))
    return found


@pytest.mark.parametrize("args, want", ORBIT_COUNTS)
def test_a_class_number_counts_orbits_and_builds_no_overlattice(args, want, monkeypatch):
    """On a cold catalog each count is pinned, builds no overlattice, and its orbit
    step (`discforms.glue_orbits`) enumerates no vector and builds no `Lattice`;
    2U+2E8+A2 (18, 3, 1, 27, 48, 1), which the histograms took minutes on, gives 6."""
    inner, steps = discforms.glue_orbits, []

    def spied(lat, p, subs):
        with short_vector_calls() as calls, lattice_builds() as built:
            count = inner(lat, p, subs)
        steps.append((len(subs), calls, built))
        return count

    monkeypatch.setattr(discforms, "glue_orbits", spied)
    with glue_overlattice_calls() as overlattices:
        assert class_number(*args, catalog=Catalog()) == want
    assert not overlattices
    assert all(not calls and not built for _, calls, built in steps)


@pytest.mark.parametrize("args", [args for args, _ in CENSUS + ORBIT_COUNTS])
def test_each_isometry_generator_preserves_the_gram_and_the_dual(args):
    """Every n x n generator g of O(L) that the oracle `isometry_generators` builds,
    for every datum lattice L of these requests, has g^T G g = G, and its action
    G g G^-1 on Z^n / G Z^n is integral.  None is a reflection in a basis vector of
    norm 2, which fixes D(L) pointwise."""
    for _, lat, _ in _datum_glue(args, default_catalog()):
        gram, det, n = [list(row) for row in lat.gram], lat.det(), lat.rank
        for g in isometry_generators(lat):
            assert intmat.mat_mul(intmat.mat_mul(intmat.transpose(g), gram), g) == gram
            action = intmat.mat_mul(intmat.mat_mul(gram, g), lat.adjugate())
            assert not any(x % det for row in action for x in row)
            moved = [a for a in range(n) if g[a] != [int(a == b) for b in range(n)]]
            assert not (len(moved) == 1 and gram[moved[0]][moved[0]] == 2
                        and g[moved[0]][moved[0]] == -1), (lat.name, moved)


@pytest.mark.parametrize("args", [args for args, _ in CENSUS + ORBIT_COUNTS])
def test_each_glue_action_preserves_the_form(args):
    """Every kept action A of O(L) on D(L), for every datum lattice L of these requests,
    is a square matrix on the Smith coordinates, is not the identity nor kept twice,
    and preserves q and b on the generators, in integers: (A^T bnum A)_ij = bnum_ij
    mod den, and mod 2 den on the diagonal.  The actions are the distinct
    non-identity images of the n x n generators of O(L) (`isometry_generators`)."""
    for _, lat, _ in _datum_glue(args, default_catalog()):
        form, actions = discforms.discriminant_form(lat), discforms.glue_actions(lat)
        size, den = len(form.orders), form.den
        assert len(set(actions)) == len(actions)
        for a in actions:
            assert len(a) == size and all(len(row) == size for row in a)
            assert a != tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
            moved = intmat.mat_mul(intmat.mat_mul(intmat.transpose(a), form.bnum), a)
            assert all((x - y) % (den * (1 + (i == j))) == 0
                       for i, (row, old) in enumerate(zip(moved, form.bnum))
                       for j, (x, y) in enumerate(zip(row, old))), lat.name
        assert set(actions) == actions_on_glue(lat, isometry_generators(lat)), lat.name


def _square_matrices(value, n: int) -> list:
    """The n x n integer matrices in a kept value, found through its tuples, lists and
    dicts."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (tuple, list)):
        return []
    if len(value) == n and all(isinstance(row, (tuple, list)) and len(row) == n
                               and all(type(x) is int for x in row) for row in value):
        return [value]
    return [m for item in value for m in _square_matrices(item, n)]


def test_no_datum_lattice_keeps_a_matrix_of_its_rank():
    """After a cold count of 2U+E8+2D4's datum, which reaches `glue_actions` on data
    with two or more glue groups, no datum lattice's memo holds a matrix of its own
    rank: O(L) is kept as its actions on D(L) alone."""
    cat, args = Catalog(), (16, 2, 1, 8, 36, 4)
    assert class_number(*args, catalog=cat) == 11
    data = [lat for _, lat, _ in _datum_glue(args, cat)]
    assert sum((discforms.glue_actions.__wrapped__,) in lat.memo for lat in data) > 1
    for lat in data:
        assert not _square_matrices(list(lat.memo.values()), lat.rank), lat.name


@pytest.mark.parametrize("args", [args for args, _ in ORBIT_COUNTS if args[0] <= 12])
def test_the_orbits_refine_the_histograms(args):
    """The histogram of the vectors of norm <= 2p of an overlattice is an isometry
    invariant (`glue_fingerprints`): each datum with two or more glue groups has at
    least as many orbits as histograms, as many on every such request of rank <= 12,
    and no generator moves a group to another histogram (`glue_orbits` raises
    ArithmeticError on a list that an image leaves)."""
    for _, lat, glue in _datum_glue(args, default_catalog()):
        if len(glue) < 2:
            continue
        p = args[1]
        classes = glue_fingerprints(lat, p, glue)
        assert discforms.glue_orbits(lat, p, glue) == len(classes)
        assert all(discforms.glue_orbits(lat, p, subs) == 1 for subs in classes.values())


# (8, 2, 1, 1, 28, 6) has a root-free glue group of level 2 that carries no datum
@pytest.mark.parametrize(
    "args", [(10, 3, 1, 1, 12, 7), (8, 2, 1, 1, 28, 6)] + [args for args, _ in CENSUS])
def test_the_glue_that_carries_a_datum_is_the_glue_whose_overlattice_carries_it(args):
    """The datum test on D(L) keeps the glue groups whose built overlattice
    carries the datum (`carries_datum`)."""
    rank, p, c1, cp, k, n_p = args
    spans = {c.name: span for r in range(1, rank + 1) for c, span, _ in roots.component_types(r, p)}
    for datum in class_number_rootsystems(rank, p, c1, cp, k):
        expr = "+".join(spans[c] for c in datum["components"])
        lat = direct_sum([summand[3] for summand in default_catalog().summands(expr)])
        form = discforms.discriminant_form(lat)
        for sub in discforms.even_overlattices(lat, p**n_p, p):
            over = discforms.glue_overlattice(lat, form, sub)
            assert classify_mod._carries(discforms.glue_components(lat, p, sub), datum) == (
                carries_datum(over, p, datum)), (datum["components"], sub)


def test_class_number_leaves_no_garbage_cycle():
    """Without the cycle collector, a census class number frees everything it made."""
    gc.collect()
    gc.disable()
    try:
        count = class_number(6, 3, 1, 1, 24, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert count == 1


def test_class_number_intermediate_relations():
    """The counting identity pins b = 7a and c = a/3 for these parameters."""
    data = class_number_rootsystems(10, 3, 1, 1, 12)
    for d in data:
        a, b = d["count_short"], d["count_long"]
        assert b == 7 * a
        assert d["c"] == a // 3
