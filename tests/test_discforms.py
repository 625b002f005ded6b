"""Finite quadratic modules: Gauss sums, genus symbols, splittings, overlattices."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import cyclotomic, gauss_exponents, poly_divmod, q_values
from reflector.catalog import default_catalog, definite_part, parse_lattice
from reflector.discforms import (
    DiscriminantForm,
    _crt_layout,
    _vanishes_at_root,
    dual_rescale_genus,
    even_overlattices,
    genus_symbol,
    isotropic_subgroups,
    milgram_formula,
    candidate_form,
    parse_genus,
    splits_u_up,
)
from reflector.lattices import Lattice

CAT = default_catalog()

CATALOG_NAMES = [
    "A2", "D4", "E6", "E7", "E8", "A4", "A6", "D8", "T4", "T8", "L7", "L11", "L23",
]


def test_gauss_sum_octant_equals_signature_on_catalog():
    """The eighth root of unity from the Gauss sum matches the signature mod 8."""
    for name in CATALOG_NAMES:
        lat = CAT.build(name)
        form = DiscriminantForm.from_lattice(lat)
        assert form.milgram_octant() == lat.signature_mod8(), name


def test_gauss_sum_octant_on_scaled_and_dual_blocks():
    for expr in ("D8v(2)", "E6v(3)", "A4v(5)", "A6v(7)", "E8(2)", "A2(3)"):
        lat = parse_lattice(expr, CAT)
        form = DiscriminantForm.from_lattice(lat)
        assert form.milgram_octant() == lat.signature_mod8(), expr


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_gauss_sum_octant_on_random_even_lattices(b):
    """2 B^T B is always even and positive semidefinite; skip the degenerate ones."""
    n = len(b)
    gram = [
        [2 * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    try:
        lat = Lattice(gram)
    except ValueError:
        return
    form = DiscriminantForm.from_lattice(lat)
    assert form.milgram_octant() == lat.signature_mod8()


def test_gauss_sum_octant_at_large_levels():
    """Cyclic forms of level 38088 and 120120 (M = lcm(8, level) with many prime factors)."""
    for n in (19044, 30030):
        lat = Lattice([[n]])
        assert DiscriminantForm.from_lattice(lat).milgram_octant() == lat.signature_mod8() == 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 72).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(-3, 3), min_size=m, max_size=m),
            st.booleans(),
        )
    )
)
def test_zero_test_at_roots_of_unity_matches_cyclotomic_division(args):
    """v(zeta_m) = 0 exactly when Phi_m divides v; half the draws are multiples of Phi_m."""
    m, coeffs, multiple = args
    if multiple:
        phi = cyclotomic(m)
        wrapped = [0] * m
        for i, a in enumerate(coeffs):
            for j, b in enumerate(phi):
                wrapped[(i + j) % m] += a * b
        coeffs = wrapped
    pos, axes = _crt_layout(m)
    laid_out = [0] * m
    for n, c in enumerate(coeffs):
        laid_out[pos[n]] = c
    _, rem = poly_divmod(coeffs, cyclotomic(m))
    assert _vanishes_at_root(laid_out, axes) == (not any(rem))
    if multiple:
        assert _vanishes_at_root(laid_out, axes)


def _random_even_lattice_form(b):
    n = len(b)
    gram = [
        [2 * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    try:
        return DiscriminantForm.from_lattice(Lattice(gram))
    except ValueError:
        return None


def _block_sum_form(blocks):
    form = DiscriminantForm.trivial()
    for p, n_p, eps in blocks:
        if p == 2 and n_p % 2:
            n_p += 1
        form = form.direct_sum(candidate_form(p, n_p, eps))
    return form


FORMS = st.one_of(
    st.integers(1, 3)
    .flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    .map(_random_even_lattice_form),
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2), st.sampled_from([1, -1])),
        min_size=1,
        max_size=3,
    ).map(_block_sum_form),
)


@settings(max_examples=60, deadline=None)
@given(FORMS)
def test_value_counts_match_per_element_enumeration(form):
    """count_norm at every value and the Gauss-sum exponents, against one Fraction q(x) per element."""
    assume(form is not None and form.order() <= 1000)
    values = q_values(form.orders, form.bilinear)
    assert sum(values.values()) == form.order()
    for target, count in values.items():
        assert form.count_norm(target) == count - (1 if target == 0 else 0)
    for absent in (Fraction(1, 2 * form.order() + 1), Fraction(3, 2) + Fraction(1, 997)):
        if absent not in values:
            assert form.count_norm(absent) == 0
    m = lcm(8, form.level())
    assert form._gauss_vector(m) == gauss_exponents(form.orders, form.bilinear, m)


def test_form_orders_multiply_in_direct_sums():
    a = DiscriminantForm.from_lattice(CAT.build("A2"))
    b = DiscriminantForm.from_lattice(CAT.build("D4"))
    assert a.direct_sum(b).order() == a.order() * b.order()


def test_norm_value_census_on_small_forms():
    """D(A2) splits as the zero class plus two nonzero classes of norm 2/3."""
    form = DiscriminantForm.from_lattice(CAT.build("A2"))
    assert form.order() == 3
    assert form.count_norm(Fraction(0)) == 0
    assert form.count_norm(Fraction(2, 3)) == 2
    d4 = DiscriminantForm.from_lattice(CAT.build("D4"))
    assert d4.order() == 4
    assert d4.count_norm(Fraction(1)) == 3


EPS_ANCHORS = [
    ("2U+A2", 3, 1, -1),
    ("2U+E6", 3, 1, 1),
    ("2U+A4", 5, 1, 1),
    ("2U+T8", 5, 1, -1),
    ("2U+T4", 5, 2, -1),
    ("2U+A6", 7, 1, -1),
    ("2U+L7", 7, 1, 1),
    ("2U+L11", 11, 1, -1),
    ("2U+L23", 23, 1, 1),
]


def test_sign_conventions_against_anchor_lattices():
    """The quadratic character of each anchor block fixes the symbol signs."""
    for expr, p, n_p, eps in EPS_ANCHORS:
        g = genus_symbol(parse_lattice(expr, CAT), p)
        assert g.p == p and g.n_p == n_p, expr
        assert g.eps == eps, expr


GENUS_LABELS = [
    ("2U+D4", 2, "II_{6,2}(2_II^{-2})"),
    ("2U+T8", 5, "II_{10,2}(5^{-1})"),
    ("U+U(3)+2A2", 3, "II_{6,2}(3^{-4})"),
    ("2U+E6v(3)", 3, "II_{8,2}(3^{+5})"),
    ("U+U(23)+L23", 23, "II_{4,2}(23^{-3})"),
    ("2U+2E8+D4", 2, "II_{22,2}(2_II^{-2})"),
    ("2U+E8+A2", 3, "II_{12,2}(3^{-1})"),
    ("U+U(7)+2L7", 7, "II_{6,2}(7^{-4})"),
]


def test_genus_labels_of_model_lattices():
    for expr, p, label in GENUS_LABELS:
        assert genus_symbol(parse_lattice(expr, CAT), p).label() == label, expr


def test_parse_genus_round_trips_all_case_labels():
    from reflector.classify import enumerate_genera

    for p in (2, 3, 5, 7, 11, 19, 23):
        for g in enumerate_genera(p):
            assert parse_genus(g.label()) == g


def test_dual_rescale_is_an_involution():
    """p^{+n_p} inside rank n+2 pairs with the complementary symbol, twice is identity."""
    for p in (3, 5, 7, 11, 19, 23):
        from reflector.classify import enumerate_genera

        for g in enumerate_genera(p):
            gg = dual_rescale_genus(g)
            assert dual_rescale_genus(gg) == g
            assert gg.p == g.p
            assert gg.n_p == g.pos + 2 - g.n_p


def test_dual_rescale_fixed_point_labels():
    g = parse_genus("II_{4,2}(3^{+3})")
    assert dual_rescale_genus(g) == g
    g2 = parse_genus("II_{12,2}(3^{+7})")
    assert dual_rescale_genus(g2).label() == "II_{12,2}(3^{+7})"


SPLIT_CASES = [
    ("II_{22,2}(2_II^{+4})", False),
    ("II_{22,2}(2_II^{-2})", False),
    ("II_{18,2}(2_II^{+10})", True),
    ("II_{14,2}(2_II^{-8})", True),
    ("II_{12,2}(3^{+7})", True),
    ("II_{20,2}(3^{-1})", False),
    ("II_{4,2}(19^{+3})", True),
    ("II_{6,2}(5^{+3})", True),
]


def test_scaled_hyperbolic_splitting_predicate():
    for label, want in SPLIT_CASES:
        assert splits_u_up(parse_genus(label)) is want, label


def test_split_predicate_agrees_with_explicit_models():
    """Models written with a U(p) factor must land in genera the predicate accepts."""
    for expr, p in (
        ("U+U(3)+A2", 3),
        ("U+U(3)+2A2", 3),
        ("U+U(5)+T4", 5),
        ("U+U(7)+L7", 7),
        ("U+U(11)+L11", 11),
        ("U+U(23)+L23", 23),
    ):
        g = genus_symbol(parse_lattice(expr, CAT), p)
        assert splits_u_up(g), expr


def test_candidate_form_matches_model_discriminants():
    """Building the form from the symbol or from a model lattice gives the same counts.

    Hyperbolic plane factors do not change the discriminant module, so the
    comparison is restricted to models with unscaled planes only.
    """
    for expr, p, label in GENUS_LABELS:
        if p == 2:
            continue
        scales, definite = definite_part(expr, CAT)
        if scales != [1, 1]:
            continue
        g = parse_genus(label)
        built = candidate_form(p, g.n_p, g.eps)
        concrete = DiscriminantForm.from_lattice(definite)
        assert built.order() == concrete.order(), label
        target = Fraction(2, p)
        assert built.count_norm(target) == concrete.count_norm(target), label


def test_octant_formula_against_gauss_sums():
    """The closed-form octant agrees with summing the Gauss sum, odd p."""
    for p in (3, 5, 7, 11):
        for n_p in (1, 2, 3):
            for eps in (1, -1):
                form = candidate_form(p, n_p, eps)
                assert milgram_formula(p, n_p, eps) == form.milgram_octant(), (
                    p,
                    n_p,
                    eps,
                )


def _e7_a1_5() -> Lattice:
    return CAT.build("E7").direct_sum(Lattice([[10]], name="A1(5)"))


def test_even_overlattice_search_finds_the_index_two_glue():
    """E7 + A1(5) sits inside a unique even lattice of determinant 5."""
    found = even_overlattices(_e7_a1_5(), 5)
    assert len(found) == 1
    over = found[0]
    assert over.det() == 5
    assert over.level() == 5
    assert over.is_positive_definite()


def test_even_overlattice_search_rejects_impossible_targets():
    assert even_overlattices(_e7_a1_5(), 7) == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.sampled_from([1, -1]))
def test_isotropic_lines_of_elementary_abelian_forms(p, n_p, eps):
    """Order-p isotropic subgroups are lines: (nonzero isotropic elements) / (p - 1)."""
    assume(p != 2 or n_p % 2 == 0)  # level-2 forms of even type have even rank
    form = candidate_form(p, n_p, eps)
    lines = isotropic_subgroups(form, order=p)
    assert len(lines) * (p - 1) == form.count_norm(0)
    assert all(len(line) == p for line in lines)
