"""Named lattice catalog: determinants, levels, and the model expression grammar."""
from __future__ import annotations

import pytest

from helpers import lattice_builds
from reflector import discforms, roots
from reflector.catalog import (
    Catalog,
    default_catalog,
    definite_part,
    e7_a1_overlattice,
    model_parts,
    normalize_expr,
    parse_lattice,
)

CAT = default_catalog()

BASE_TABLE = {
    "U": (2, -1, 1),
    "A2": (2, 3, 3),
    "D4": (4, 4, 2),
    "E6": (6, 3, 3),
    "E7": (7, 2, 4),
    "E8": (8, 1, 1),
    "A4": (4, 5, 5),
    "A6": (6, 7, 7),
    "D8": (8, 4, 2),
    "T4": (4, 25, 5),
    "T8": (8, 5, 5),
    "L7": (2, 7, 7),
    "L11": (2, 11, 11),
    "L23": (2, 23, 23),
}

SCALED_TABLE = {
    "D8v(2)": (8, 64, 2),
    "E6v(3)": (6, 243, 3),
    "A4v(5)": (4, 125, 5),
    "A6v(7)": (6, 16807, 7),
    "E8(2)": (8, 256, 2),
    "A2(3)": (2, 27, 9),
    "U(5)": (2, -25, 5),
}


def test_base_lattice_invariants():
    for name, (rank, det, level) in BASE_TABLE.items():
        lat = CAT.build(name)
        assert lat.rank == rank, name
        assert lat.det() == det, name
        assert lat.level() == level, name


def test_scaled_and_dual_forms_via_parser():
    for name, (rank, det, level) in SCALED_TABLE.items():
        lat = parse_lattice(name, CAT)
        assert lat.rank == rank, name
        assert lat.det() == det, name
        assert lat.level() == level, name


def test_definite_blocks_are_positive_definite():
    for name in BASE_TABLE:
        if name == "U":
            continue
        assert CAT.build(name).is_positive_definite(), name


def test_t4_shape():
    """The level 5 quaternary block of determinant 25 with no norm 2 vectors beyond A2."""
    t4 = CAT.build("T4")
    assert t4.rank == 4
    assert t4.det() == 25
    assert t4.level() == 5
    assert t4.is_positive_definite()


def test_parse_counts_and_sums():
    lat = parse_lattice("2U+D4", CAT)
    assert lat.rank == 8
    assert lat.signature() == (6, 2)
    assert lat.det() == 4


def test_parse_scaled_term_inside_sum():
    lat = parse_lattice("2U+D8v(2)", CAT)
    assert lat.rank == 12
    assert lat.det() == 64
    assert lat.level() == 2


def test_parse_scaled_hyperbolic_plane():
    lat = parse_lattice("U+U(3)+2A2", CAT)
    assert lat.rank == 8
    assert lat.signature() == (6, 2)
    assert lat.det() == 81


def test_normalize_expr_is_stable():
    norm = normalize_expr("U + U(3) + A2+A2")
    assert norm == normalize_expr(norm)
    assert " " not in norm


def test_definite_part_strips_hyperbolic_planes():
    scales, lat = definite_part("2U+E6v(3)+2A2", CAT)
    assert scales == [1, 1]
    assert lat.rank == 10
    assert lat.is_positive_definite()
    scales5, lat5 = definite_part("U+U(5)+T4", CAT)
    assert scales5 == [1, 5]
    assert lat5.rank == 4
    for expr in ("2U+E6v(3)+2A2", "U+U(5)+T4", "2U+E8v", "U"):
        assert model_parts(expr, CAT) == (parse_lattice(expr, CAT), *definite_part(expr, CAT))


def test_parse_returns_a_lone_summand_as_is(monkeypatch):
    """A one-term expression named as its summand is that summand, not a second build."""
    cat = Catalog()
    summands = cat.summands("E6(3)")
    monkeypatch.setattr(cat, "summands", lambda expr: summands)
    assert cat.parse("E6(3)") is summands[0][3]
    assert cat.parse(" E6(3) ") is summands[0][3]
    # E8v is a summand named E8v(1), so it is rebuilt under the name E8v
    for expr in ("E6(3)", "E6v(3)", "U(5)", "E8v", "2A2"):
        assert parse_lattice(expr, CAT).name == normalize_expr(expr)


def test_unknown_name_rejected():
    with pytest.raises((KeyError, ValueError)):
        parse_lattice("2U+Z9", CAT)


def test_t8_builds_are_independent():
    """A built T8 cannot be changed, and every build, also through the parser, is equal."""
    cat = Catalog()
    first = cat.build("T8")
    before = hash(first)
    with pytest.raises(TypeError):
        first.gram[0][0] = 4
    with pytest.raises(AttributeError):
        first.name = "changed"
    with pytest.raises(AttributeError):
        first.colour = "red"
    with pytest.raises(AttributeError):
        del first.name
    assert first.name == "T8" and hash(first) == before
    again = cat.build("T8")
    assert again == first and again.name == "T8"
    _, definite = definite_part("2U+T8", cat)
    assert definite == first


def test_e7_a1_overlattice_is_built_once_per_catalog():
    """Same catalog and p give the same lattice; a fresh catalog builds its own; T8 is its Gram."""
    cat = Catalog()
    over = e7_a1_overlattice(cat, 5)
    assert e7_a1_overlattice(cat, 5) is over
    assert cat.build("T8").gram == over.gram
    fresh = Catalog()
    again = e7_a1_overlattice(fresh, 5)
    assert again is not over and again == over
    assert e7_a1_overlattice(cat, 13) is not over
    assert e7_a1_overlattice(cat, 13) is e7_a1_overlattice(cat, 13)


def test_each_term_is_built_once_per_catalog():
    """A catalog hands out one lattice per term, through build and the parser alike."""
    cat = Catalog()
    assert cat.build("E8") is cat.build("E8")
    assert cat.parse("E6v(3)") is cat.parse("E6v(3)")
    summands = cat.summands("2U+E6v(3)+2A2+U(3)")
    assert summands[0][3] is summands[1][3] is cat.build("U")
    assert summands[2][3] is cat.parse("E6v(3)")
    assert summands[3][3] is summands[4][3] is cat.build("A2")
    assert summands[5][3] is cat.parse("U(3)")


def test_catalogs_share_no_terms():
    """A catalog whose U is overridden builds its own U and its own sums with it."""
    plain = Catalog()
    odd = Catalog(extra={"U": [[0, 2], [2, 0]]})
    assert plain.build("U").det() == -1
    assert odd.build("U").det() == -4
    assert plain.build("U").det() == -1
    assert plain.parse("2U+A2").det() == 3
    assert odd.parse("2U+A2").det() == 48
    assert odd.parse("U(3)").gram == ((0, 6), (6, 0))
    assert plain.parse("U(3)").gram == ((0, 3), (3, 0))


def test_each_model_is_assembled_once_per_catalog():
    """parse, model_parts and definite_part hand out the one entry a catalog keeps per
    normalised expression; a second catalog assembles its own."""
    cat = Catalog()
    parts = cat.model_parts("2U+E6v(3)+2A2")
    assert cat.model_parts("2U + E6v(3)+2A2") is parts
    assert model_parts("2U+E6v(3)+2A2", cat) is parts
    assert cat.parse("2U+E6v(3)+2A2") is parts[0]
    assert cat.parse("2U+E6v(3)+2A2") is cat.parse("2U+E6v(3)+2A2")
    scales, definite = definite_part("2U+E6v(3)+2A2", cat)
    assert scales is parts[1] and definite is parts[2]
    other = Catalog().model_parts("2U+E6v(3)+2A2")
    assert other == parts
    assert all(mine is not theirs for mine, theirs in zip(other[::2], parts[::2]))
    with lattice_builds() as built:
        cat.parse("2U+E6v(3)+2A2")
        definite_part("2U+E6v(3)+2A2", cat)
    assert built == []


def test_a_user_catalog_assembles_its_own_models():
    """With T4 overridden, U+U(5)+T4 is built from the override, not read from the
    default catalog's entry."""
    shared = default_catalog().parse("U+U(5)+T4")
    a4v5 = default_catalog().build("A4").dual_rescaled(5)
    user = Catalog(extra={"T4": [list(row) for row in a4v5.gram]})
    own = user.parse("U+U(5)+T4")
    assert own is not shared and own.gram != shared.gram
    _, definite = definite_part("U+U(5)+T4", user)
    assert definite.gram == a4v5.gram
    assert definite_part("U+U(5)+T4")[1].gram == CAT.build("T4").gram


def test_an_oversized_expression_is_refused_before_its_gram(monkeypatch):
    """A total rank r with r^2 > discforms.BUDGET raises before any Gram is built, and
    the refused expression is not kept.  Its terms are built beforehand, so any
    lattice built inside would be the refused one."""
    cat = Catalog()
    cat.build("A1"), cat.build("A2")
    monkeypatch.setattr(discforms, "BUDGET", 15)
    for expr in ("4A1", "2A1+A2", "A4"):
        with lattice_builds() as built, pytest.raises(discforms.BudgetExceeded):
            cat.parse(expr)
        assert built == [], expr
        assert (Catalog._model.__wrapped__, expr) not in cat.memo
    assert cat.parse("3A1").rank == 3
    monkeypatch.undo()
    assert cat.parse("4A1").rank == 4


def test_catalog_grams_span_the_ade_table():
    """Each ADE name of rank <= 12 builds the lattice whose roots are that one type.

    At a prime not dividing the determinant there are no long roots, so the
    root system is the norm-2 one: a single component with rank * Coxeter
    number roots, on a lattice with the table's determinant.
    """
    for rank in range(1, 13):
        for t in roots.ade_types(rank):
            lat = CAT.build(t.name)
            p = next(q for q in (2, 3, 5, 7, 11, 13) if t.det % q)
            comps = roots.root_components(lat, p)
            assert [(c.name, c.rank, c.count_short, c.count_long) for c in comps] == [
                (t.name, rank, t.count, 0)
            ], t.name
            assert lat.det() == t.det, t.name
