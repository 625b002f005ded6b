"""Candidate verification and multiplicity solving on construction models."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import check_candidate_entrywise, root_sums_by_enumeration
from reflector import discforms, roots
from reflector.catalog import default_catalog, definite_part, e7_a1_overlattice
from reflector.classify import table_rows
from reflector.discforms import parse_genus
from reflector.reflcheck import (
    check_candidate,
    family_cutoff,
    solve_candidates,
    solve_components,
)

CAT = default_catalog()


def _definite(expr):
    _, lat = definite_part(expr, CAT)
    return lat


CHECK_ROWS = [
    ("2U+D4", 2, 1, 0, 72),
    ("2U+D4", 2, 0, 1, 24),
    ("2U+D4", 2, 1, 1, 96),
    ("2U+D8", 2, 1, 0, 124),
    ("2U+D8", 2, 0, 1, 4),
    ("2U+D8v(2)", 2, 1, 0, 28),
    ("2U+A2", 3, 1, 0, 45),
    ("2U+A2", 3, 0, 1, 9),
    ("2U+E6", 3, 1, 0, 120),
    ("2U+E6v(3)", 3, 1, 0, 12),
    ("2U+E6v(3)", 3, 0, 1, 12),
    ("2U+A4", 5, 1, 0, 62),
    ("2U+A4v(5)", 5, 0, 1, 2),
    ("2U+A6", 7, 1, 0, 75),
    ("2U+T4", 5, 1, 5, 30),
    ("2U+L7", 7, 1, 7, 28),
    ("2U+E8+D4", 2, 1, 8, 144),
    ("2U+E6+A2", 3, 1, 9, 90),
    ("2U+E6v(3)+2A2", 3, 1, 1, 12),
    ("2U+T8", 5, 1, 45, 120),
    ("2U+2L7", 7, 1, 7, 20),
    ("2U+L11", 11, 1, 11, 24),
    ("2U+L23", 23, 1, 23, 12),
]


def test_candidate_rows_pass_all_identities():
    for expr, p, c1, cp, k in CHECK_ROWS:
        rep = check_candidate(_definite(expr), p, c1, cp, k)
        assert rep.passed, (expr, k, rep.checks)
        assert rep.checks["matrix_identity"] is True
        assert rep.checks["counting_identity"] is True
        assert rep.checks["singular_bound"] is True


def test_derived_quantities_on_the_rank_ten_triple():
    """The rank 10 model with rescaled E6 and two A2 blocks at weight 12."""
    rep = check_candidate(_definite("2U+E6v(3)+2A2"), 3, 1, 1, 12)
    assert rep.passed
    assert rep.count_short == 12
    assert rep.count_long == 84
    assert rep.c == 4
    assert rep.span_short == 4
    assert rep.rank == 10


def test_derived_quantities_on_the_glued_octad():
    rep = check_candidate(_definite("2U+T8"), 5, 1, 45, 120)
    assert rep.passed
    assert rep.count_short == 126
    assert rep.count_long == 2
    assert rep.c == 18


def test_wrong_weight_fails():
    rep = check_candidate(_definite("2U+D4"), 2, 1, 1, 97)
    assert not rep.passed


def test_matrix_identity_fails_across_parts_with_different_constants():
    """E8 (C = 30) and A2 (C = 3) each pass alone; their sum has no one C, and its
    report carries the C of its first part."""
    for expr, c in (("2U+E8+A2", 30), ("2U+A2+E8", 3)):
        rep = check_candidate(_definite(expr), 3, 1, 0, 12)
        assert rep.checks["matrix_identity"] is False and rep.c == c, expr
    for expr, c in (("E8", 30), ("A2", 3)):
        rep = check_candidate(CAT.build(expr), 3, 1, 0, 12)
        assert rep.checks["matrix_identity"] is True, expr
        assert rep.c == c, expr


def test_wrong_multiplicity_fails():
    rep = check_candidate(_definite("2U+T4"), 5, 1, 4, 30)
    assert not rep.passed


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6))
def test_check_is_invariant_under_ray_scaling(t):
    """All identities are linear in (c1, cp, k), so scaling preserves passing."""
    rep = check_candidate(_definite("2U+T4"), 5, t, 5 * t, 30 * t)
    assert rep.passed
    bad = check_candidate(_definite("2U+T4"), 5, t, 5 * t, 30 * t + 1)
    assert not bad.passed


TWO_U_ROWS = [
    (model, parse_genus(label).p, c1, cp, k)
    for label, model, c1, cp, k in table_rows()
    if model.startswith("2U+")
]
PERTURBATIONS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0)]


def test_every_row_and_its_perturbations_match_the_entrywise_check():
    """check_candidate, which tests each block's identity as at most 3 integer
    relations, gives the report of the entrywise check on all 55 2U rows, at the
    row's own (c1, cp, k), at five shifted triples and at twice the triple."""
    matrix_true = 0
    for expr, p, c1, cp, k in TWO_U_ROWS:
        lat = _definite(expr)
        triples = [(c1 + a, cp + b, k + d) for a, b, d in PERTURBATIONS]
        for triple in triples + [(2 * c1, 2 * cp, 2 * k)]:
            rep = check_candidate(lat, p, *triple)
            assert rep == check_candidate_entrywise(lat, p, *triple), (expr, triple)
            matrix_true += rep.checks["matrix_identity"]
    assert 0 < matrix_true < 7 * len(TWO_U_ROWS)


@pytest.mark.parametrize("expr, p", [("T4", 5), ("T8", 5), ("L7", 7), ("L11", 11), ("L23", 23)])
def test_five_blocks_have_root_sums_that_are_not_multiples_of_the_gram(expr, p):
    """On these blocks S1 and S2 are not both multiples of G, so the identity is not
    one scalar per block; it still reduces to at most 3 relations."""
    lat = CAT.build(expr)
    s1, s2 = root_sums_by_enumeration(lat, p)
    g = lat.gram

    def multiple_of_g(s):
        return all(x * g[0][0] == s[0][0] * y for sr, gr in zip(s, g) for x, y in zip(sr, gr))

    assert not (multiple_of_g(s1) and multiple_of_g(s2))
    assert 1 <= len(roots.root_data(lat, p).relations) <= 3


ORACLE_TERMS = ["A1", "A2", "D4", "E6", "E8", "A4", "A6", "T4", "T8", "L7", "L11", "L23",
                "A1(2)", "D4(2)", "A2(3)", "E6v(3)", "A4v(5)", "A6v(7)", "D8v(2)"]


@st.composite
def _candidates(draw):
    """A sum of 1-3 catalog terms at a prime that need not be its level, with the
    solver's ray (or (1, p, 24) when there is none), shifted by -1, 0 or 1."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 23]))
    expr = "+".join(draw(st.lists(st.sampled_from(ORACLE_TERMS), min_size=1, max_size=3)))
    lat = CAT.parse(expr)
    res = solve_candidates(lat, p)
    base = (res.c1, res.cp, res.k) if res.status == "ray" else (1, p, 24)
    c1, cp, k = (x + draw(st.integers(-1, 1)) for x in base)
    assume(c1 >= 0 and cp >= 0 and c1 + cp > 0)
    return expr, p, c1, cp, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_candidates())
@example(("T4", 5, 1, 5, 30))
@example(("T8", 5, 1, 45, 120))
@example(("L7+L7", 7, 1, 7, 20))
@example(("L11", 11, 1, 11, 24))
@example(("L23", 23, 1, 23, 12))
@example(("A2+A4", 3, 1, 1, 12))
@example(("E8+A2", 3, 1, 0, 12))
def test_check_candidate_matches_the_entrywise_check(case):
    expr, p, c1, cp, k = case
    lat = CAT.parse(expr)
    assert check_candidate(lat, p, c1, cp, k) == check_candidate_entrywise(lat, p, c1, cp, k)


SOLVE_RAYS = [
    ("2U+2E8+D4", 2, (1, 8, 24)),
    ("2U+2E8+A2", 3, (1, 27, 48)),
    ("2U+L7", 7, (1, 7, 28)),
    ("2U+L11", 11, (1, 11, 24)),
    ("2U+L19", 19, (1, 19, 16)),
    ("2U+L23", 23, (1, 23, 12)),
    ("2U+2L7", 7, (1, 7, 20)),
    ("2U+2L11", 11, (1, 11, 12)),
    ("2U+T8", 5, (1, 45, 120)),
]


def test_solver_finds_unique_rays():
    for expr, p, (c1, cp, k) in SOLVE_RAYS:
        res = solve_candidates(_definite(expr), p)
        assert res.status == "ray", expr
        assert (res.c1, res.cp, res.k) == (c1, cp, k), expr


def test_solver_ray_formulas_scale_with_the_prime():
    """One short plus one long orbit forces cp = p c1 and a linear weight in p."""
    for p, expr in ((7, "2U+L7"), (11, "2U+L11"), (19, "2U+L19"), (23, "2U+L23")):
        res = solve_candidates(_definite(expr), p)
        assert res.cp == p * res.c1
        assert res.k == (35 - p) * res.c1
    for p, expr in ((7, "2U+2L7"), (11, "2U+2L11")):
        res = solve_candidates(_definite(expr), p)
        assert res.cp == p * res.c1
        assert res.k == (34 - 2 * p) * res.c1


SOLVE_EMPTY = [
    ("2U+E8+T4", 5, "component equations admit only the zero solution"),
    ("2U+A4+T4", 5, "component equations admit only the zero solution"),
    ("2U+E8+L7", 7, "component equations admit only the zero solution"),
    ("2U+E8+L11", 11, "component equations admit only the zero solution"),
    ("2U+E8+A4", 5, "forced weight 0 is not a positive integer"),
    ("2U+2L19", 19, "forced weight -4 is not a positive integer"),
]


def test_solver_reports_empty_systems():
    for expr, p, reason in SOLVE_EMPTY:
        res = solve_candidates(_definite(expr), p)
        assert res.status == "none", expr
        assert res.reason == reason, expr


def test_solver_underdetermined_single_component():
    """One component gives one equation in (c1, cp), leaving a weight functional."""
    res = solve_candidates(_definite("2U+D4"), 2)
    assert res.status == "underdetermined"
    assert res.k_coeffs == (Fraction(72), Fraction(24))
    res3 = solve_candidates(_definite("2U+A2"), 3)
    assert res3.status == "underdetermined"
    assert res3.k_coeffs == (Fraction(45), Fraction(9))


FAMILY_CUTOFFS = [
    ((2, 2, 1, 2), (35, -1), 23),
    ((2, 2, 2, 4), (34, -2), 11),
    ((3, 3, 2, 4), (45, -3), 11),
    ((18, 2, 7, 8), (165, -9), 11),
]


def test_symbolic_families_and_singular_cutoffs():
    """A family's weight k(P) = a + bP meets the singular bound up to its cutoff prime."""
    for family, _, cutoff in FAMILY_CUTOFFS:
        assert family_cutoff(*family) == cutoff


# family -> (residue of its primes mod 4, its model's definite part at p)
FAMILY_MODELS = {
    (2, 2, 1, 2): (3, lambda p: _definite(f"2U+L{p}")),
    (2, 2, 2, 4): (3, lambda p: _definite(f"2U+2L{p}")),
    (18, 2, 7, 8): (1, lambda p: e7_a1_overlattice(CAT, p)),
}


def test_family_specializations_match_concrete_solver():
    """At every prime 5 <= p < 200 of a family's residue class, the concrete
    solver on the family's model gives a ray whose weight meets the singular
    bound exactly when p is at most the family's cutoff; a ray is the
    family's (cp, k) = ((h1/h2) p, a + bp) times c1."""
    for (h1, h2, n1, rank), (k0, k1), _ in FAMILY_CUTOFFS:
        if (h1, h2, n1, rank) not in FAMILY_MODELS:
            continue
        residue, model = FAMILY_MODELS[(h1, h2, n1, rank)]
        cutoff = family_cutoff(h1, h2, n1, rank)
        for p in range(5, 200):
            if p % 4 != residue or not discforms.is_prime(p):
                continue
            lat = model(p)
            data = roots.root_data(lat, p)
            res = solve_components(data.components, lat.rank)
            meets = False
            if res.status == "ray":
                assert (data.span_short, lat.rank) == (n1, rank), p
                assert h2 * res.cp == h1 * p * res.c1, p
                assert res.k == (k0 + k1 * p) * res.c1, p
                bound = Fraction(n1 * res.c1 + (rank - n1) * res.cp, 2)
                meets = res.k >= bound
            assert meets == (p <= cutoff), ((h1, h2, n1, rank), p)
