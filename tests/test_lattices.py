"""Lattice wrapper invariants: determinant, signature, level, duals, sums."""
from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from helpers import dual_level, dual_rescaled_gram, fraction_inverse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflector import discforms, intmat, reflcheck, roots
from reflector.catalog import default_catalog
from reflector.lattices import Lattice, direct_sum, kept

U = Lattice([[0, 1], [1, 0]], name="U")
A2 = Lattice([[2, -1], [-1, 2]], name="A2")


def test_rank_det_signature_of_basic_blocks():
    assert U.rank == 2 and U.det() == -1 and U.signature() == (1, 1)
    assert A2.rank == 2 and A2.det() == 3 and A2.signature() == (2, 0)


def test_level_is_smallest_dual_denominator_clearer():
    """N is minimal with N q(x) even integral on the dual: N(U)=1, N(A2)=3."""
    assert U.level() == 1
    assert A2.level() == 3
    assert A2.rescaled(2).level() == 6


def test_dual_gram_inverse_relation():
    """G adj(G) = det(G) I in integers, on a leaf and on a sum, whose adjugate is
    read off its parts; adj(G) / det(G) is the Fraction inverse."""
    assert A2.adjugate() == ((2, 1), (1, 2))
    for lat in (A2, direct_sum([A2, U])):
        det, n = lat.det(), lat.rank
        assert intmat.mat_mul(lat.gram, lat.adjugate()) == [
            [det * (i == j) for j in range(n)] for i in range(n)]
    assert fraction_inverse(A2.gram) == [[Fraction(x, 3) for x in row] for row in A2.adjugate()]


def test_rescaled_multiplies_gram_and_det():
    a23 = A2.rescaled(3)
    assert a23.gram == ((6, -3), (-3, 6))
    assert a23.det() == 27
    assert a23.level() == 9


def test_dual_rescaled_has_reciprocal_discriminant_shape():
    """L'(n) for A2(3)' rescaled by 3 gives the other 3-elementary form of rank 2."""
    d = A2.dual_rescaled(3)
    assert d.det() == 3
    assert d.level() == 3
    assert d.gram != A2.gram or d.norm([1, 0]) == 2


def test_direct_sum_concatenates_blocks():
    s = direct_sum([U, A2])
    assert s.rank == 4
    assert s.det() == U.det() * A2.det()
    assert s.signature() == (3, 1)
    assert s.gram[0][2] == 0 and s.gram[3][1] == 0


def test_direct_sum_equals_the_block_diagonal_lattice():
    """A sum keeps its parts, but equality and hashing see only the Gram and the name."""
    cat = default_catalog()
    parts = [U, cat.build("E8"), A2.rescaled(3), cat.parse("A4v(5)")]
    grams = [part.gram for part in parts]
    for name in (None, "U+E8+A2(3)+A4v(5)"):
        summed = direct_sum(parts, name=name)
        plain = Lattice(intmat.block_diagonal(grams), name=name)
        assert summed.parts == tuple(parts) and plain.parts == ()
        assert summed == plain and hash(summed) == hash(plain)
        assert summed.det() == plain.det() and summed.level() == plain.level()
    assert direct_sum([A2]) is A2 and direct_sum([A2], name="A2") is A2
    renamed = direct_sum([A2], name="B")
    assert renamed.name == "B" and renamed.gram == A2.gram and renamed.det() == 3


def test_parts_must_add_up_to_the_gram():
    with pytest.raises(ValueError, match="parts"):
        Lattice(((2, -1), (-1, 2)), parts=(U,))


def test_norm_and_inner_products():
    assert A2.norm([1, 0]) == 2
    assert A2.norm([1, 1]) == 2
    assert A2.inner([1, 0], [0, 1]) == -1


def test_signature_mod8_of_unimodular_sum():
    e8_like = direct_sum([U, U])
    assert e8_like.signature_mod8() == 0
    assert A2.signature_mod8() == 2


def test_positive_definite_predicate():
    assert A2.is_positive_definite()
    assert not U.is_positive_definite()


def test_nonsymmetric_gram_rejected():
    with pytest.raises(ValueError):
        Lattice([[2, 1], [0, 2]])


def test_odd_diagonal_rejected():
    with pytest.raises(ValueError):
        Lattice([[1, 0], [0, 2]])


@st.composite
def even_grams(draw, n_max: int = 6, entry: int = 3):
    """Nondegenerate even Grams A + A^T of rank <= n_max, definite or indefinite."""
    n = draw(st.integers(1, n_max))
    row = st.lists(st.integers(-entry, entry), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=n, max_size=n))
    gram = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    assume(intmat.determinant(gram) != 0)
    return gram


@settings(max_examples=150, deadline=None)
@given(even_grams(), st.integers(1, 12))
def test_integer_dual_data_matches_fraction_inverse(gram, m):
    """level() and dual_rescaled(m), read off the integer adjugate, agree with G^-1 over Q."""
    lat = Lattice(gram)
    assert lat.level() == dual_level(gram)
    for scale in (m, lat.level(), abs(lat.det())):
        want = dual_rescaled_gram(gram, scale)
        if want is None:
            with pytest.raises(ValueError):
                lat.dual_rescaled(scale)
        else:
            assert lat.dual_rescaled(scale).gram == tuple(map(tuple, want))


# catalog terms a sum can draw: U and its rescalings, ADE lattices rescaled
# or dualised at their level, the level-p planes L<p> and T4
_BASES = ["U", "A1", "A2", "A3", "A4", "A6", "D4", "D5", "D8", "E6", "E7", "E8",
          "L3", "L7", "L11", "T4"]


@st.composite
def catalog_terms(draw) -> str:
    base = draw(st.sampled_from(_BASES))
    kind = draw(st.sampled_from(["plain", "scaled", "dual"]))
    if kind == "scaled":
        return f"{base}({draw(st.integers(1, 7))})"
    if kind == "dual" and base != "U":
        return f"{base}v({default_catalog().build(base).level()})"
    return base


@settings(max_examples=60, deadline=None)
@given(st.lists(catalog_terms(), min_size=2, max_size=5), st.integers(1, 4))
def test_sum_invariants_match_the_full_gram(terms, cut):
    """det, adjugate, signature and level of a sum, read off its parts, equal the
    same invariants computed on the whole block-diagonal Gram; also for a sum
    of sums."""
    cat = default_catalog()
    whole = cat.parse("+".join(terms))
    cut = min(cut, len(terms) - 1)
    nested = direct_sum([cat.parse("+".join(terms[:cut])), cat.parse("+".join(terms[cut:]))])
    assert whole.parts and nested.gram == whole.gram
    for lat in (whole, nested):
        adj, det = intmat.adjugate(lat.gram)
        pos, neg, zero = intmat.signature(lat.gram)
        assert lat.det() == det == intmat.determinant(lat.gram)
        assert lat.adjugate() == tuple(map(tuple, adj))
        assert lat.signature() == (pos, neg) and zero == 0
        assert lat.level() == dual_level(lat.gram)


def test_kept_builds_once_per_owner_function_and_arguments():
    """A kept function runs once per (owner, function, arguments) and hands out the
    value it built; another owner, function or argument builds its own."""
    calls = []

    @kept
    def scaled(lat, m):
        calls.append(("scaled", lat.name, m))
        return lat.rescaled(m)

    @kept
    def rescaled_dual(lat, m):
        calls.append(("dual", lat.name, m))
        return lat.dual_rescaled(m)

    a2, u = Lattice(A2.gram, name="A2"), Lattice(U.gram, name="U")
    assert scaled(a2, 3) is scaled(a2, 3)
    assert scaled(a2, 3) != scaled(a2, 2) and scaled(u, 3) is not scaled(a2, 3)
    assert rescaled_dual(a2, 3).gram == a2.adjugate()
    assert rescaled_dual(a2, 3) is rescaled_dual(a2, 3)
    assert calls == [("scaled", "A2", 3), ("scaled", "A2", 2), ("scaled", "U", 3),
                     ("dual", "A2", 3)]


def test_a_kept_build_that_raises_keeps_nothing():
    """A build that raises leaves the owner's memo as it was, so the next call builds."""
    tries = []

    @kept
    def flaky(lat):
        tries.append(len(tries))
        if len(tries) == 1:
            raise ArithmeticError("first try")
        return len(tries)

    a2 = Lattice(A2.gram, name="A2")
    with pytest.raises(ArithmeticError):
        flaky(a2)
    assert a2.memo == {}
    assert flaky(a2) == 2 and flaky(a2) == 2 and tries == [0, 1]
    # so `solve_candidates`, which refuses a lattice that is not definite, refuses it at
    # every call
    hyperbolic = direct_sum([U, A2])
    for _ in range(2):
        with pytest.raises(ValueError, match="positive definite"):
            reflcheck.solve_candidates(hyperbolic, 3)
    assert hyperbolic.memo == {}


def test_equal_lattices_keep_separate_values():
    """Equality ignores the parts, so a sum and the same Gram and name built without
    parts are equal; each keeps its own values, read off its own parts."""

    @kept
    def part_count(lat):
        return len(lat.parts)

    summed = direct_sum([A2, U], name="A2+U")
    alone = Lattice(summed.gram, name="A2+U")
    assert summed == alone and hash(summed) == hash(alone)
    assert (part_count(summed), part_count(alone)) == (2, 0)
    assert discforms.discriminant_form(summed) is not discforms.discriminant_form(alone)


def test_a_worked_sum_is_freed_by_its_reference_count():
    """No memo refers back to its lattice: a fresh sum put through the root data,
    a candidate check, the solve result, the discriminant form, the glue search and
    the glue components is freed with the cycle collector off.  The root data, the
    check and the solver keep one record each: at p, at (p, c1, cp, k) and at p."""
    cat = default_catalog()
    lat = direct_sum([cat.parse("E6(3)"), cat.parse("A2")])
    gc.collect()
    gc.disable()
    try:
        roots.root_data(lat, 3)
        reflcheck.check_candidate(lat, 3, 1, 1, 12)
        reflcheck.solve_candidates(lat, 3)
        assert set(lat.memo) == {(roots.root_data.__wrapped__, 3),
                                 (reflcheck.check_candidate.__wrapped__, 3, 1, 1, 12),
                                 (reflcheck.solve_candidates.__wrapped__, 3)}
        discforms.discriminant_form(lat)
        glue = discforms.even_overlattices(lat, 3**6, 3)
        components = [discforms.glue_components(lat, 3, sub) for sub in glue]
        gone = weakref.ref(lat)
        del lat
        assert gone() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(glue) == len(components) > 0
