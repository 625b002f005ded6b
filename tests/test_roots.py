"""Root enumeration and component recognition, checked against a box sweep
and against a union-find over all pairs of roots."""
from __future__ import annotations

import gc
from fractions import Fraction

import pytest
from helpers import (
    box_count_norm,
    box_vectors_by_norm,
    in_random_basis,
    pairwise_root_components,
    short_vector_calls,
    signed_roots,
    span_rank,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflector import discforms, roots
from reflector.catalog import Catalog, default_catalog, definite_part, parse_lattice
from reflector.intmat import mat_vec
from reflector.lattices import Lattice, direct_sum
from reflector.reflcheck import check_candidate
from reflector.roots import (
    _trivial_glue_roots,
    component_types,
    root_components,
    root_data,
    root_table,
    short_vectors,
)

CAT = default_catalog()


def first_nonzero_positive(vectors):
    return [v for v in vectors if next(c for c in v if c) > 0]


def through_g(lat, signed):
    """Vectors v of L listed with both signs, as their dual coordinates G v, the first
    nonzero coordinate positive, sorted."""
    return sorted(first_nonzero_positive([mat_vec(lat.gram, v) for v in signed]))


def table_roots(lat, p):
    """R1+ and R2+ of lat at p as the root tables give them, as G v, sorted."""
    r1, r2 = _trivial_glue_roots(lat, p)
    return sorted(r1), sorted(r2)


def test_norm2_counts_match_box_sweep():
    """Classical counts 6, 24, 126, 240 recovered two independent ways."""
    for name, want in (("A2", 6), ("D4", 24), ("E7", 126), ("E8", 240)):
        lat = CAT.build(name)
        assert 2 * len(root_table(lat, 2)[0]) == want, name
        assert 2 * root_data(lat, 2).positive_short == want, name
        assert box_count_norm(lat.gram, 2) == want, name


def test_short_vector_enumerator_against_box_sweep():
    for name in ("A2", "D4", "A4", "T4", "L7"):
        lat = CAT.build(name)
        table = short_vectors(lat.gram, 6)
        for norm in (2, 4, 6):
            mine = 2 * len(table.get(norm, []))
            assert mine == box_count_norm(lat.gram, norm), (name, norm)


def test_rescaled_root_lattice_has_no_short_roots():
    _, lat = definite_part("2U+E6v(3)", CAT)
    assert root_table(lat, 3)[0] == []
    assert root_data(lat, 3).positive_short == 0


def test_long_roots_have_divisible_inner_products():
    """Norm 2p roots must pair with the whole lattice in multiples of p: a long root
    G r of the table is G times a vector r of L, of norm 2p, with G r = 0 mod p."""
    for expr, p in (("2U+T4", 5), ("2U+L7", 7), ("2U+A2", 3)):
        _, lat = definite_part(expr, CAT)
        long_ = table_roots(lat, p)[1]
        assert long_
        for u in long_:
            scaled = mat_vec(lat.adjugate(), u)
            assert all(x % lat.det() == 0 for x in scaled)
            r = [x // lat.det() for x in scaled]
            assert lat.norm(r) == 2 * p
            assert all(x % p == 0 for x in u)


COMPONENT_TABLE = [
    ("2U+D4", 2, [("F4", 24, 24)]),
    ("2U+D8", 2, [("C8", 112, 16)]),
    ("2U+D8v(2)", 2, [("B8", 16, 112)]),
    ("2U+E8(2)", 2, [("E8(2)", 0, 240)]),
    ("2U+A2", 3, [("G2", 6, 6)]),
    ("2U+E6", 3, [("E6", 72, 0)]),
    ("2U+E6v(3)", 3, [("E6(3)", 0, 72)]),
    ("2U+A4", 5, [("A4", 20, 0)]),
    ("2U+T4", 5, [("A2", 6, 0), ("A2(5)", 0, 6)]),
    ("2U+T8", 5, [("E7", 126, 0), ("A1(5)", 0, 2)]),
    ("2U+A6v(7)", 7, [("A6(7)", 0, 42)]),
    ("2U+L7", 7, [("A1", 2, 0), ("A1(7)", 0, 2)]),
]


def test_component_recognition_table():
    """Short and long root systems decompose into the expected named pieces."""
    for expr, p, want in COMPONENT_TABLE:
        _, lat = definite_part(expr, CAT)
        comps = root_components(lat, p)
        got = sorted((c.name, c.count_short, c.count_long) for c in comps)
        assert got == sorted(want), expr


def test_odd_rescaled_dual_still_gives_long_roots():
    """2A1 has level 4, and 2 G^-1 = I_2 is integral but odd: its norm-2 vectors
    (+-1, +-1) are reflective norm-4 roots, which join the short roots into B2."""
    lat = Lattice([[2, 0], [0, 2]])
    assert table_roots(lat, 2)[1] == [[2, -2], [2, 2]]
    assert signed_roots(lat, 2)[1] == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    assert through_g(lat, signed_roots(lat, 2)[1]) == [[2, -2], [2, 2]]
    comps = root_components(lat, 2)
    assert [(c.name, c.count_short, c.count_long) for c in comps] == [("B2", 4, 4)]
    assert comps == pairwise_root_components(lat, 2)


def box_long_roots(lat, p: int) -> list[list[int]]:
    """The vectors s of norm 2p with G s = 0 mod p, both signs, sorted, by box sweep."""
    return [s for s in box_vectors_by_norm(lat.gram, 2 * p).get(2 * p, [])
            if not any(x % p for x in mat_vec(lat.gram, s))]


def test_long_roots_off_level_p_are_found():
    """D4(2) + 2A1(2) has level 8, where 2 G^-1 is not integral; its long roots at
    p = 2 are the 12 positive roots of D4(2) and one per A1(2), 14 in all."""
    lat = definite_part("D4(2)+2A1(2)", CAT)[1]
    assert lat.level() == 8
    r1, r2 = table_roots(lat, 2)
    assert (r1, len(r2)) == ([], 14)
    box = box_long_roots(lat, 2)
    assert signed_roots(lat, 2)[1] == box and through_g(lat, box) == r2
    got = [(c.name, c.count_long) for c in root_components(lat, 2)]
    assert got == [("A1(2)", 2), ("A1(2)", 2), ("D4(2)", 24)]
    assert root_components(lat, 2) == pairwise_root_components(lat, 2)


def test_long_roots_of_level_4_glue_agree_with_glue_components():
    """The 9 root-free index-2 glue groups of level 4 on D4(2) + D4(2) each give a
    D8(2) with 56 positive long roots at p = 2, as the box sweep finds them and
    as `discforms.glue_components` reads them off D(L) with no overlattice built."""
    lat = parse_lattice("D4(2)+D4(2)", CAT)
    form = discforms.discriminant_form(lat)
    glue = discforms.even_overlattices(lat, 4**5, 4)
    assert len(glue) == 9
    for i, (sub, gens) in enumerate(glue):
        over = discforms.glue_overlattice(lat, form, sub)
        assert over.level() == 4
        r1, r2 = table_roots(over, 2)
        assert (r1, len(r2)) == ([], 56)
        assert through_g(over, signed_roots(over, 2)[1]) == r2
        if i == 0:  # one box sweep of a rank-8 overlattice is enough
            assert signed_roots(over, 2)[1] == box_long_roots(over, 2)
        comps = root_components(over, 2)
        assert [(c.name, c.count_long) for c in comps] == [("D8(2)", 112)]
        classes = discforms.long_root_classes(lat, 2, sub, gens)
        assert tuple(comps) == discforms.glue_components(lat, 2, classes)


# the classical Coxeter numbers (Bourbaki, Lie groups, ch. VI, planches)
COXETER_NUMBERS = {
    "A1": 2,
    "A2": 3,
    "A4": 5,
    "G2": 6,
    "D4": 6,
    "F4": 12,
    "E6": 12,
    "B8": 16,
    "C8": 16,
    "E7": 18,
    "E8": 30,
}


def table_entry(name: str, p: int):
    """The `component_types` entry named `name` at p, as (component, span, det)."""
    rank = int(name.split("(")[0][1:])
    return next(e for e in component_types(rank, p) if e[0].name == name)


def test_component_counts_are_coxeter_consistent():
    """Within one component, count_short + count_long = rank * coxeter number,
    and the component is its table entry."""
    for expr, p in (("2U+D4", 2), ("2U+A2", 3), ("2U+D8", 2), ("2U+D8v(2)", 2)):
        _, lat = definite_part(expr, CAT)
        for c in root_components(lat, p):
            assert c == table_entry(c.name, p)[0]
            assert c.count_short + c.count_long == c.rank * COXETER_NUMBERS[c.name]


def test_coxeter_numbers():
    """(short + long) / rank of each table entry is its Coxeter number; the
    non-simply laced ones live at p = 2 (B, C, F) and p = 3 (G)."""
    for name, h in COXETER_NUMBERS.items():
        comp, _, _ = table_entry(name, 3 if name == "G2" else 2)
        assert Fraction(comp.count_short + comp.count_long, comp.rank) == h, name


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_each_component_name_has_one_rank_and_root_counts(p):
    """At each p, a `component_types` name of rank <= 26 fixes its rank, short count
    and long count, so a list of components is pinned by its names alone."""
    counts = {}
    for rank in range(1, 27):
        for comp, _, _ in component_types(rank, p):
            counts.setdefault(comp.name, set()).add(
                (comp.rank, comp.count_short, comp.count_long))
    assert all(len(seen) == 1 for seen in counts.values())


def test_no_span_is_written_d3():
    """C3 spans A3, written so and built from the A3 Gram, not as D3, the catalog's
    relabelled A3, so two isometric parts of a datum lattice have one Gram and the
    isometry generators swap them; no span of rank <= 26 at p <= 23 is D3."""
    (span,) = [span for comp, span, _ in component_types(3, 2) if comp.name == "C3"]
    assert span == "A3" and CAT.parse(span).gram == CAT.build("A3").gram
    assert all(span != "D3" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
               for rank in range(1, 27) for _, span, _ in component_types(rank, p))


def test_span_rank_of_full_root_systems():
    """The positive roots span the lattice, and so do the simple roots."""
    for expr, p, full_rank in (("2U+D4", 2, 4), ("2U+T4", 5, 4), ("2U+L7", 7, 2)):
        _, lat = definite_part(expr, CAT)
        short, long_ = table_roots(lat, p)  # G is invertible, so G v spans as v does
        assert span_rank(short + long_) == full_rank, expr
        assert sum(c.rank for c in root_components(lat, p)) == full_rank, expr


def test_half_orbit_convention():
    """short_vectors keeps one representative per +-x pair."""
    lat = CAT.build("A2")
    reps = short_vectors(lat.gram, 2)[2]
    assert len(reps) == 3
    seen = {tuple(v) for v in reps}
    for v in reps:
        assert tuple(-x for x in v) not in seen


def test_short_vectors_leave_no_garbage_cycle():
    """Without the cycle collector, one call frees everything it made but its result."""
    gram = CAT.build("E8").gram
    gc.collect()
    gc.disable()
    try:
        table = short_vectors(gram, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sum(map(len, table.values())) == (240 + 2160) // 2


@st.composite
def positive_definite_grams(draw, n_max: int = 6, entry: int = 2):
    """Grams k*I + B B^T, which are positive definite for k >= 1."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, 3))
    row = st.lists(st.integers(-entry, entry), min_size=n, max_size=n)
    b = draw(st.lists(row, min_size=n, max_size=n))
    return [
        [k * (i == j) + sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(positive_definite_grams(), st.integers(0, 8))
def test_short_vectors_equal_box_sweep_lists(gram, max_norm):
    """The enumerator lists exactly the box sweep's first-nonzero-positive
    vectors, in sorted order."""
    want = {
        norm: first_nonzero_positive(vecs)
        for norm, vecs in box_vectors_by_norm(gram, max_norm).items()
    }
    assert short_vectors(gram, max_norm) == want


@settings(max_examples=30, deadline=None)
@given(positive_definite_grams(n_max=4), st.integers(0, 8))
def test_short_vectors_reject_indefinite_grams(gram, max_norm):
    """A hyperbolic plane summand makes the Gram indefinite, at any norm bound."""
    n = len(gram)
    indefinite = [row + [0, 0] for row in gram] + [[0] * n + [0, 1], [0] * n + [1, 0]]
    with pytest.raises(ValueError):
        short_vectors(indefinite, max_norm)


# catalog pieces for random direct sums; half the draws take only pieces of
# level dividing p, the only sums with long roots and so with mixed components
SUM_PIECES = (
    "A1", "A2", "A3", "A4", "A6", "D4", "D5", "D8", "E6", "E7", "E8",
    "A2v(3)", "A4v(5)", "A6v(7)", "D4v(2)", "D8v(2)", "E6v(3)", "T4", "L7", "L11",
    "A1(2)", "A2(3)", "D4(5)", "E8(7)",
)
LEVEL_P_PIECES = {
    2: ("D4", "D8", "D12", "D4v(2)", "D8v(2)", "D12v(2)", "E8", "E8(2)"),
    3: ("A2", "E6", "A2v(3)", "E6v(3)", "E8", "E8(3)"),
    5: ("A4", "A4v(5)", "T4", "E8", "E8(5)"),
    7: ("A6", "A6v(7)", "L7", "E8", "E8(7)"),
}
MAX_SUM_RANK = 12


@st.composite
def catalog_sums(draw):
    """(lattice, p): a direct sum of catalog pieces in a random basis.

    The lexicographic order on the new coordinates cuts the root system
    along random hyperplanes.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    menu = LEVEL_P_PIECES[p] if draw(st.booleans()) else SUM_PIECES
    terms = draw(st.lists(st.sampled_from(menu), min_size=1, max_size=3))
    parts, rank = [], 0
    for term in terms:
        piece = parse_lattice(term, CAT)
        if rank + piece.rank > MAX_SUM_RANK:
            break
        parts.append(term)
        rank += piece.rank
    return Lattice(in_random_basis(draw, parse_lattice("+".join(parts), CAT).gram)), p


def _model(expr: str, p: int):
    return definite_part(expr, CAT)[1], p


@settings(max_examples=60, deadline=None)
@given(catalog_sums())
@example(_model("D4+E8", 2))  # F4 + E8
@example(_model("D8+E8(2)", 2))  # C8 + E8(2)
@example(_model("D8v(2)", 2))  # B8
@example(_model("A2+E6v(3)", 3))  # G2 + E6(3)
@example(_model("T4+A4v(5)", 5))  # A2 + A2(5) + A4(5)
@example(_model("L7+A6", 7))  # A1 + A1(7) + A6
def test_simple_root_split_matches_pairwise_oracle(model):
    """Components from simple roots equal components from all pairs of roots,
    and the positive roots give the counts and the span rank n1."""
    lat, p = model
    try:
        want = pairwise_root_components(lat, p)
    except ValueError:
        with pytest.raises(ValueError):
            root_components(lat, p)
        return
    got = root_components(lat, p)
    assert got == want
    for c in got:  # name, counts, alpha and beta are those of a table entry
        assert c in [t for t, _, _ in component_types(c.rank, p)]
    r1, r2 = table_roots(lat, p)
    assert sum(c.count_short for c in got) == 2 * len(r1)
    assert sum(c.count_long for c in got) == 2 * len(r2)
    s1, s2 = signed_roots(lat, p)
    assert (r1, r2) == (through_g(lat, s1), through_g(lat, s2))
    report = check_candidate(lat, p, 1, 1, 0)
    assert report.span_short == span_rank(s1)
    assert (report.count_short, report.count_long) == (len(s1), len(s2))


# -- root data joined from the parts of a sum --

ADDITIVE_PRIMES = (2, 3, 5, 7, 11, 23)


def _level_pieces(p: int) -> tuple[str, ...]:
    """A_n, D_n, E_n, their v(p) and (p) forms, and L_p: the terms of level 1 or p."""
    names = [f"A{n}" for n in range(1, MAX_SUM_RANK + 1)]
    names += [f"D{n}" for n in range(4, MAX_SUM_RANK + 1)] + ["E6", "E7", "E8"]
    names += [f"L{p}"] if p % 4 == 3 else []
    out = []
    for name in names:
        for term in (name, f"{name}v({p})", f"{name}({p})"):
            try:
                lat = CAT.summands(term)[0][3]
            except ValueError:  # a dual that is not integral or not even
                continue
            if lat.level() in (1, p):
                out.append(term)
    return tuple(out)


LEVEL_PIECES = {p: _level_pieces(p) for p in ADDITIVE_PRIMES}


def _sum_of(terms, cat=CAT) -> Lattice:
    """The terms as the parts of one sum, even a single term."""
    return direct_sum([s[3] for s in cat.summands("+".join(terms))], name="sum")


@st.composite
def level_p_sums(draw):
    """(terms, p): 1-4 catalog pieces of level 1 or p, of total rank <= 12."""
    p = draw(st.sampled_from(ADDITIVE_PRIMES))
    terms, rank = [], 0
    for term in draw(st.lists(st.sampled_from(LEVEL_PIECES[p]), min_size=1, max_size=4)):
        piece = CAT.summands(term)[0][3]
        if rank + piece.rank <= MAX_SUM_RANK:
            terms.append(term)
            rank += piece.rank
    return terms, p


@settings(max_examples=40, deadline=None)
@given(level_p_sums())
@example((["E8", "D4"], 2))  # E8 + F4
@example((["D4", "D4v(2)", "E8(2)"], 2))
@example((["A2", "E6v(3)", "A2v(3)"], 3))  # G2 + E6(3) + A2(3)
@example((["A4", "A4v(5)"], 5))
@example((["L7", "A6", "L7"], 7))
@example((["A10"], 11))
@example((["L23", "E8(23)"], 23))
def test_root_data_of_a_sum_joins_its_parts(model):
    """On a sum of level-1-or-p pieces the joined record equals the whole-Gram record:
    counts, components, n1, the first block's entries, the relations and the Coxeter
    pair; once the parts are known, nothing is enumerated and no root of the sum
    is read."""
    terms, p = model
    lat = _sum_of(terms)
    for part in lat.parts:
        root_data(part, p)
    blocks = []
    inner = roots._trivial_glue_roots
    with pytest.MonkeyPatch.context() as patch, short_vector_calls() as calls:
        patch.setattr(roots, "_trivial_glue_roots",
                      lambda block, p: blocks.append(block) or inner(block, p))
        joined = root_data(lat, p)
    assert not calls and not blocks
    assert root_data(Lattice(lat.gram), p) == joined, terms
    assert sum(c.count_short for c in joined.components) == 2 * joined.positive_short
    assert sum(c.count_long for c in joined.components) == 2 * joined.positive_long


MULTIPLICITIES = [(c1, cp) for c1 in range(4) for cp in range(4) if c1 or cp]


@settings(max_examples=40, deadline=None)
@given(level_p_sums(), st.sampled_from(MULTIPLICITIES), st.integers(0, 150))
@example((["A2", "E8"], 3), (1, 0), 45)  # C = 3 on A2 and 30 on E8
@example((["E8", "A2"], 3), (1, 0), 180)
@example((["E6", "A2"], 3), (1, 9), 90)  # 2U+E6+A2, where the identity holds
@example((["D4", "E8", "D4"], 2), (1, 8), 144)
@example((["A4", "A4v(5)"], 5), (0, 1), 2)
def test_check_candidate_by_blocks_equals_the_whole_gram(model, mult, k):
    """The identity tested block by block gives the report of the one-block whole Gram
    in every field but the name, also where the parts' constants differ."""
    terms, p = model
    lat = _sum_of(terms)
    got = check_candidate(lat, p, *mult, k)
    want = check_candidate(Lattice(lat.gram), p, *mult, k)
    assert got.lattice == "sum" and want.lattice == ""
    assert got._replace(lattice="") == want, (terms, p, mult, k)


@st.composite
def any_level_sums(draw):
    """(terms, p): 1-4 catalog terms of total rank <= 12, of any level at p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    menu = SUM_PIECES + LEVEL_P_PIECES[p] + ("D4(2)", "A1(2)", "A1(3)", "A1(5)", "A1(7)")
    terms, rank = [], 0
    for term in draw(st.lists(st.sampled_from(menu), min_size=1, max_size=4)):
        piece = CAT.summands(term)[0][3]
        if rank + piece.rank <= MAX_SUM_RANK:
            terms.append(term)
            rank += piece.rank
    return terms, p


@settings(max_examples=40, deadline=None)
@given(any_level_sums())
@example((["D4(2)", "A1(2)", "A1(2)"], 2))  # level 8: 14 long roots, none joined
@example((["A1"] * 8, 2))  # level 4: B8, its long roots across two parts
@example((["A2", "A1"], 5))
@example((["D4", "E8(2)"], 2))  # joined: F4 + E8(2)
@example((["A4", "A4v(5)"], 5))
def test_root_data_are_the_glue_components_at_the_trivial_group(model):
    """The root data of a sum, joined from its parts or read off their root tables, are
    the components that `glue_components` reads off D(L) at H = {0}, with the same
    short and long counts."""
    terms, p = model
    lat = _sum_of(terms)
    zero = (0,) * len(discforms.discriminant_form(lat).orders)
    try:
        data = root_data(lat, p)
    except ValueError:
        with pytest.raises(ValueError):
            discforms.glue_components(lat, p, discforms.long_root_classes(lat, p, (zero,), ()))
        return
    comps = discforms.glue_components(lat, p, discforms.long_root_classes(lat, p, (zero,), ()))
    assert data.components == tuple(comps), (terms, p)
    assert sum(c.count_short for c in comps) == 2 * data.positive_short
    assert sum(c.count_long for c in comps) == 2 * data.positive_long


@pytest.mark.parametrize("terms, p", [(["A2", "A1"], 5), (["D4", "A2"], 3)])
def test_a_part_of_another_level_takes_the_whole_gram(terms, p, monkeypatch):
    """A2 + A1 has parts of level 3 and 4, D4 + A2 of level 2 and 3: not joined, but read
    off the parts' root tables as one block on the whole Gram, so once the parts are
    known nothing is enumerated; still equal to the record of the whole Gram."""
    lat = _sum_of(terms, Catalog())
    assert any(part.level() not in (1, p) for part in lat.parts)
    for part in lat.parts:
        root_data(part, p)
    blocks = []
    inner = roots._trivial_glue_roots
    monkeypatch.setattr(roots, "_trivial_glue_roots",
                        lambda block, p: blocks.append(block) or inner(block, p))
    with short_vector_calls() as calls:
        got = root_data(lat, p)
    assert not calls
    assert len(blocks) == 1 and blocks[0] is lat
    assert got == root_data(Lattice(lat.gram), p)


def test_a_part_of_rank_zero_adds_no_block():
    """A catalog file may name a lattice of rank 0.  In front of A2 it adds nothing to
    the joined record, whose first block is still A2's."""
    lat = direct_sum([Lattice(()), CAT.build("A2")])
    assert root_data(lat, 3) == root_data(Lattice(lat.gram), 3)
    assert root_data(lat, 3).first == (2, 6, 18)


def test_root_data_are_enumerated_once_per_term_and_prime():
    """A second call on a term, or a call on a new sum of known terms, enumerates nothing."""
    cat = Catalog()
    e8 = cat.build("E8")
    first = root_data(e8, 3)
    root_data(cat.build("A2"), 3)
    with short_vector_calls() as calls:
        assert root_data(e8, 3) is first
        _, definite = definite_part("2U+E8+A2", cat)
        assert root_data(definite, 3).positive_short == 120 + 3
        root_data(cat.parse("E8+2A2"), 3)
        root_components(definite_part("2U+2A2+E8", cat)[1], 3)
    assert not calls
    with short_vector_calls() as calls:
        root_data(e8, 5)
    assert not calls  # a new prime with the same bound 2 det // p = 0 as p = 3
    with short_vector_calls() as calls:
        root_data(e8, 2)
    assert calls == [(e8.adjugate(), 1)]  # a new bound: the dual vectors of norm <= 2/2
