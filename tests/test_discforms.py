"""Finite quadratic modules: Gauss sums, genus symbols, splittings, overlattices."""
from __future__ import annotations

import ast
import gc
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from operator import mul
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    actions_on_glue,
    box_vectors_by_norm,
    cyclotomic,
    dual_pairing,
    dual_rescale_genus,
    eps_by_gauss_sum,
    eps_by_jordan,
    gauss_exponents,
    genera_by_octant,
    glue_fingerprints,
    glue_level_by_hermite,
    genus_rejection,
    greedy_generators,
    in_random_basis,
    isometry_generators,
    isotropic_elements,
    isotropic_pool,
    isotropic_subgroups_by_closure,
    legendre,
    part_sums_calls,
    poly_divmod,
    q_values,
    root_classes_by_dual_enumeration,
    search_budget,
    short_vector_calls,
    smith_calls,
    splits_u_up_by_cases,
    totally_singular_spaces,
    walk_calls,
    witt_index,
)
from reflector import discforms, intmat, lattices
from reflector.catalog import Catalog, default_catalog, definite_part, parse_lattice
from reflector.discforms import (
    BudgetExceeded,
    DiscriminantForm,
    GenusNotRepresentable,
    GenusSymbol,
    _crt_layout,
    _vanishes_at_root,
    even_overlattices,
    genus_symbol,
    glue_components,
    glue_level,
    glue_overlattice,
    is_prime,
    isotropic_subgroups,
    long_root_classes,
    milgram_formula,
    candidate_form,
    elementary_count_norm,
    parse_genus,
    root_free_pool,
    splits_u_up,
)
from reflector.lattices import Lattice
from reflector.roots import root_components, short_vectors

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


def _lattice_case(lat):
    """The Smith presentation of D(L), and the Gram of its generators read off L."""
    form = DiscriminantForm.from_lattice(lat)
    return form, dual_pairing(lat, form)


def _random_even_lattice_case(b):
    n = len(b)
    gram = [
        [2 * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    try:
        return _lattice_case(Lattice(gram))
    except ValueError:
        return None


def _block_sum_form(blocks):
    form = DiscriminantForm.trivial()
    for p, n_p, eps in blocks:
        if p == 2 and n_p % 2:
            n_p += 1
        form = form.direct_sum(candidate_form(p, n_p, eps))
    return form


def _block_sum_gram(blocks):
    """The Fraction Gram of `_block_sum_form(blocks)`, assembled from the standard
    blocks: at odd p, n_p blocks <2a/p>, a = 1 but for the last, a nonresidue when
    eps chi_p(2)^n_p = -1; at p = 2, u = [[0, 1/2], [1/2, 0]] with the last one
    v = [[1, 1/2], [1/2, 1]] when eps = -1."""
    half = Fraction(1, 2)
    grams = []
    for p, n_p, eps in blocks:
        if p == 2:
            n_p += n_p % 2
            u, v = [[0, half], [half, 0]], [[1, half], [half, 1]]
            grams += [u] * (n_p // 2 - 1) + [v if eps == -1 else u]
        else:
            last = 1 if eps * legendre(2, p) ** n_p == 1 else next(
                a for a in range(2, p) if legendre(a, p) == -1)
            grams += [[[Fraction(2 * a, p)]] for a in [1] * (n_p - 1) + [last]]
    k = sum(map(len, grams))
    gram = []
    for g in grams:
        left = len(gram)
        gram += [[0] * left + row + [0] * (k - left - len(g)) for row in g]
    return gram


def _block_sum_case(blocks):
    return _block_sum_form(blocks), _block_sum_gram(blocks)


# (form, the Fraction Gram of its generators, built apart from the form) pairs
FORMS = st.one_of(
    st.integers(1, 3)
    .flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    .map(_random_even_lattice_case),
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2), st.sampled_from([1, -1])),
        min_size=1,
        max_size=3,
    ).map(_block_sum_case),
)


@settings(max_examples=60, deadline=None)
@given(FORMS)
def test_value_counts_match_per_element_enumeration(case):
    """count_norm at every value and the Gauss-sum exponents, against one Fraction q(x) per element."""
    assume(case is not None and case[0].order() <= 1000)
    form, gram = case
    values = q_values(form.orders, gram)
    assert sum(values.values()) == form.order()
    for target, count in values.items():
        assert form.count_norm(target) == count - (1 if target == 0 else 0)
    for absent in (Fraction(1, 2 * form.order() + 1), Fraction(3, 2) + Fraction(1, 997)):
        if absent not in values:
            assert form.count_norm(absent) == 0
    m = lcm(8, form.level())
    assert form._gauss_vector(m) == gauss_exponents(form.orders, gram, m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(FORMS)
@example(_lattice_case(parse_lattice("A1+A1+A1+A5(3)", CAT)))
@example(_lattice_case(parse_lattice("A4(5)+A4", CAT)))
@example(_lattice_case(parse_lattice("E6(3)", CAT)))
def test_isotropic_pool_matches_per_element_filter(case):
    """For every divisor m of the exponent, the walked pool is, in order, the nonzero
    elements of order dividing m with q(x) = 0, one Fraction q(x) per element.

    The examples mix orders on one form: (3, 6, 6, 6, 18), (5, 5, 5, 5, 25) and
    (3, 3, 3, 3, 3, 9).
    """
    assume(case is not None and case[0].order() <= 16000)
    form, gram = case
    isotropic = isotropic_elements(form.orders, gram)
    exponent = lcm(*form.orders)
    for m in (d for d in range(1, exponent + 1) if exponent % d == 0):
        assert isotropic_pool(form, m) == [x for x, o in isotropic if m % o == 0], m


def test_value_walk_and_pool_leave_no_garbage_cycle():
    """Without the cycle collector, the value walk and the subgroup search on a fresh
    form free everything they made."""
    lat = parse_lattice("E6(3)", CAT)
    gc.collect()
    gc.disable()
    try:
        form = DiscriminantForm.from_lattice(lat)
        octant = form.milgram_octant()
        subgroups = isotropic_subgroups(form, 9, isotropic_pool(form, 9))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert octant == 6 and len(subgroups) == 400


def test_value_walk_is_refused_past_its_cap(monkeypatch):
    """|D| above BUDGET raises BudgetExceeded before the walk; |D| at it is walked."""
    big = candidate_form(7, 8, 1)  # 7^8 = 5,764,801 elements
    start = perf_counter()
    for read in (big.milgram_octant, lambda: big.count_norm(Fraction(2, 7))):
        with pytest.raises(BudgetExceeded, match="^value walk: 5764801 operations passed"):
            read()
    assert perf_counter() - start < 1
    monkeypatch.setattr(discforms, "BUDGET", 3**7)
    assert DiscriminantForm.from_lattice(parse_lattice("E6(3)", CAT)).milgram_octant() == 6
    monkeypatch.setattr(discforms, "BUDGET", 3**7 - 1)
    with pytest.raises(BudgetExceeded):
        DiscriminantForm.from_lattice(parse_lattice("E6(3)", CAT)).milgram_octant()


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


# pieces of level 1 or p, so every sum of them has level 1 or p
PRIME_LEVEL_PIECES = {
    2: ("U", "U(2)", "D4", "D8", "D8v(2)", "E8", "E8(2)"),
    3: ("U", "U(3)", "A2", "A2v(3)", "E6", "E6v(3)", "E8", "E8(3)"),
    5: ("U", "U(5)", "A4", "A4v(5)", "T4", "T8"),
    7: ("U", "U(7)", "A6", "A6v(7)", "L7"),
    11: ("U", "U(11)", "L11", "L11v(11)"),
    23: ("U", "U(23)", "L23", "L23v(23)"),
}


@st.composite
def prime_level_sums(draw):
    """(lattice, p): a sum of level-p catalog pieces in a random basis.

    The rank is capped at 12 and |det| at 3^8, which keeps the Gauss-sum
    oracle's walk over the discriminant group short.
    """
    p = draw(st.sampled_from(sorted(PRIME_LEVEL_PIECES)))
    terms = draw(st.lists(st.sampled_from(PRIME_LEVEL_PIECES[p]), min_size=1, max_size=4))
    parts, rank, det = [], 0, 1
    for term in terms:
        piece = parse_lattice(term, CAT)
        if rank + piece.rank > 12 or det * abs(piece.det()) > 3**8:
            continue
        parts.append(term)
        rank += piece.rank
        det *= abs(piece.det())
    assume(parts)
    return Lattice(in_random_basis(draw, parse_lattice("+".join(parts), CAT).gram, 2)), p


@settings(max_examples=60, deadline=None)
@given(prime_level_sums())
@example((parse_lattice("U+U(3)+2A2", CAT), 3))
@example((parse_lattice("U+U(23)+L23", CAT), 23))
@example((parse_lattice("U+E8", CAT), 5))
def test_closed_form_genus_symbol_matches_gauss_sum_and_jordan_routes(case):
    """The symbol read off level, determinant and signature has the sign that
    the Gauss sum of D(L) and (at odd p) a p-adic Jordan splitting give."""
    lat, p = case
    g = genus_symbol(lat, p)
    assert (g.pos, g.neg) == lat.signature()
    assert p**g.n_p == abs(lat.det())
    assert g.eps == eps_by_gauss_sum(lat, p)
    if p != 2:
        assert g.eps == eps_by_jordan(lat, p)


class _Invariants:
    """Stands in for a lattice whose level, determinant and signature disagree."""

    def __init__(self, level, det, signature):
        self.level = lambda: level
        self.det = lambda: det
        self.signature = lambda: signature


def test_genus_symbol_raises_off_prime_level():
    with pytest.raises(ValueError, match="level 15"):
        genus_symbol(parse_lattice("A2+A4", CAT), 3)
    with pytest.raises(ValueError, match="15 is not prime"):
        genus_symbol(parse_lattice("A2+A4", CAT))
    # a true lattice of level 3 has |det| a power of 3; the check guards the
    # level and the determinant, computed apart, against each other
    with pytest.raises(ValueError, match="not a power of 3"):
        genus_symbol(_Invariants(3, 6, (2, 0)), 3)
    with pytest.raises(GenusNotRepresentable):
        genus_symbol(_Invariants(3, 3, (3, 0)), 3)


def test_genus_symbol_reads_n_p_off_a_huge_determinant():
    """n_p is the number of times p divides det, found without factorising det: at
    p = 10^18 + 3 the determinant of 2U + E8(p) has 146 digits."""
    p = 10**18 + 3
    assert genus_symbol(parse_lattice(f"2U+E8({p})", CAT), p).label() == (
        f"II_{{10,2}}({p}^{{+8}})"
    )
    with pytest.raises(ValueError, match="not a power of 3"):
        genus_symbol(_Invariants(3, 3**40 * 2, (2, 0)), 3)
    with pytest.raises(ValueError, match="not a power of 3"):
        genus_symbol(_Invariants(3, 0, (2, 0)), 3)


def _sieve(n: int) -> list[bool]:
    """Eratosthenes: entry m says whether m < n is prime."""
    flags = [False, False] + [True] * (n - 2)
    for d in range(2, isqrt(n - 1) + 1):
        if flags[d]:
            flags[d * d::d] = [False] * len(range(d * d, n, d))
    return flags


def test_is_prime_agrees_with_a_sieve_below_ten_to_the_fifth():
    assert [is_prime(n) for n in range(10**5)] == _sieve(10**5)


def test_is_prime_agrees_with_trial_division_across_two_to_the_twenty():
    """The Miller-Rabin branch starts at 2^20; every n near it is checked."""
    for n in range(2**20 - 1000, 2**20 + 3000):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, isqrt(n) + 1))), n


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, False),  # to every prime base up to 23
        (318665857834031151167461, False),  # to every prime base up to 37
        (149491 * 747451 * 34233211, False),  # the factors of the one above 10^18
        (2**61 - 1, True),
        (10**18 + 3, True),
        (10**18 + 9, True),
        (discforms.MR_LIMIT - 2, False),  # divisible by 17
        (discforms.MR_LIMIT - 168, True),  # the largest prime below the bound
    ],
)
def test_is_prime_on_strong_pseudoprimes_and_large_primes(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_beyond_its_proven_bound():
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(discforms.MR_LIMIT)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(2**89 - 1)


def test_unimodular_lattice_with_a_prime_has_the_trivial_symbol():
    assert genus_symbol(CAT.build("E8"), 3).label() == "II_{8,0}(3^{+0})"
    with pytest.raises(ValueError, match="pass p"):
        genus_symbol(CAT.build("E8"))


def test_closed_form_counts_match_the_value_walk(monkeypatch):
    """elementary_count_norm equals count_norm on candidate_form at every value k/p,
    k < 2p, and at one value of another denominator; 1,152 values in all.  The
    largest form, of 13^6 elements, is walked under a budget raised to its size."""
    monkeypatch.setattr(discforms, "BUDGET", 13**6)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n_p in range(9 if p <= 3 else 7):
            for eps in (1, -1):
                try:
                    form = candidate_form(p, n_p, eps)
                except GenusNotRepresentable:
                    with pytest.raises(GenusNotRepresentable):
                        elementary_count_norm(p, n_p, eps, Fraction(2, p))
                    continue
                for t in [Fraction(k, p) for k in range(2 * p)] + [Fraction(1, p + 2)]:
                    assert elementary_count_norm(p, n_p, eps, t) == form.count_norm(t), (
                        p, n_p, eps, t,
                    )
                    checked += 1
    assert checked == 1152


def test_parse_genus_round_trips_all_case_labels():
    from reflector.classify import enumerate_genera

    for p in (2, 3, 5, 7, 11, 19, 23):
        for g in enumerate_genera(p):
            assert parse_genus(g.label()) == g


PRIMES_BELOW_60 = [p for p in range(60) if is_prime(p)]


def test_existence_rule_agrees_with_its_conditions_one_by_one():
    """29,376 symbols: every prime p < 60, pos <= 26, neg in {0, 2}, 0 <= n_p <=
    pos + neg + 1 and both signs.  `parse_genus` accepts exactly the symbols
    that `genus_rejection` accepts, and rejects the others with its message;
    on every genus that exists, `splits_u_up` agrees with `splits_u_up_by_cases`."""
    checked, accepted, split = 0, 0, 0
    for p in PRIMES_BELOW_60:
        for pos in range(27):
            for neg in (0, 2):
                for n_p in range(pos + neg + 2):
                    for eps in (1, -1):
                        g = GenusSymbol(pos, neg, p, n_p, eps)
                        label, want = g.label(), genus_rejection(g)
                        checked += 1
                        if want is not None:
                            with pytest.raises(ValueError) as exc:
                                parse_genus(label)
                            assert str(exc.value) == f"no genus {label!r}: {want}"
                            continue
                        assert parse_genus(label) == g
                        assert splits_u_up(g) is splits_u_up_by_cases(g), label
                        accepted += 1
                        split += splits_u_up(g)
    assert (checked, accepted, split) == (29376, 3370, 2495)


def test_enumerated_genera_agree_with_the_octant_oracle():
    from reflector.classify import enumerate_genera

    for p in PRIMES_BELOW_60:
        assert enumerate_genera(p) == genera_by_octant(p), p


def test_transfer_replaces_u_p_by_u():
    """U + U(p) + K and 2U + K have the same signature; D(U(p)) leaves the form."""
    for expr, p in (("U+U(3)+2A2", 3), ("U+U(5)+T4", 5), ("U+U(7)+L7", 7), ("U+U(2)+D4", 2)):
        g = genus_symbol(parse_lattice(expr, CAT), p)
        assert g.transfer() == genus_symbol(parse_lattice(expr.replace(f"U({p})", "U"), CAT), p)


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
    # II_{22,2}(2_II^{+4}) does not exist (octant 0, signature 4), so parse_genus rejects it
    (GenusSymbol(22, 2, 2, 4, 1), False),
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
        g = label if isinstance(label, GenusSymbol) else parse_genus(label)
        assert splits_u_up(g) is want, label


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
    found = even_overlattices(_e7_a1_5(), 5, 5)
    assert len(found) == 1
    over = glue_overlattice(_e7_a1_5(), discforms.discriminant_form(_e7_a1_5()), found[0][0])
    assert over.det() == 5
    assert over.level() == 5
    assert over.is_positive_definite()


def test_even_overlattice_search_rejects_impossible_targets():
    assert even_overlattices(_e7_a1_5(), 7, 7) == []


def test_glue_overlattice_refuses_a_subgroup_that_is_not_isotropic():
    """D(A2) = Z/3 has q = 2/3 on its generator, so the whole group glues no
    integral overlattice; the checks raise, so they hold under `python -O` too.
    A form without `gens` cannot place its glue vectors."""
    a2 = CAT.parse("A2")
    with pytest.raises(ArithmeticError):
        glue_overlattice(a2, discforms.discriminant_form(a2), ((0,), (1,), (2,)))
    with pytest.raises(ValueError):
        glue_overlattice(a2, candidate_form(3, 1, 1), ((0,),))


def test_element_of_refuses_a_form_without_coords():
    """A form built from blocks carries no Smith rows, so it cannot place a vector of
    Z^n / G Z^n; that raises ValueError, under `python -O` too, as a glue
    overlattice does for `gens`."""
    with pytest.raises(ValueError, match="coords"):
        candidate_form(3, 1, 1).element_of([1])
    a2 = CAT.parse("A2")
    assert discforms.discriminant_form(a2).element_of([1, 0]) in ((1,), (2,))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.sampled_from([1, -1]))
def test_isotropic_lines_of_elementary_abelian_forms(p, n_p, eps):
    """Order-p isotropic subgroups are lines: (nonzero isotropic elements) / (p - 1).
    At every order p^k they are the totally singular k-spaces, counted in closed form
    from the Witt index."""
    assume(p != 2 or n_p % 2 == 0)  # level-2 forms of even type have even rank
    form = candidate_form(p, n_p, eps)
    lines = isotropic_subgroups(form, p, isotropic_pool(form, p))
    assert len(lines) * (p - 1) == form.count_norm(0)
    assert all(len(line) == p for line, _ in lines)
    disc = prod(form.bnum[i][i] // 2 for i in range(n_p))  # the blocks <2 a_i / p>
    w = witt_index(p, n_p, eps, disc)
    for k in range(n_p + 1):
        found = isotropic_subgroups(form, p**k, isotropic_pool(form, p**k))
        assert len(found) == totally_singular_spaces(p, n_p, w, k), k


# small definite sums whose discriminant groups are not elementary abelian:
# E6(3) gives (3, 3, 3, 3, 3, 9), A1(2) gives 4, A2(3) gives (3, 9)
ISOTROPIC_SEARCH_EXPRS = [
    "E6(3)", "E6v(3)", "A2(3)", "A2(9)", "A1(2)", "2A1(2)", "A1(4)", "A3(2)", "D4(2)",
    "D4(3)", "A3+A1(2)", "A2+A2(3)", "A1(2)+A2(3)", "2A2+A1(2)", "D4+A2(3)",
]

# (form, the Fraction Gram of its generators, built apart from the form) pairs
ISOTROPIC_SEARCH_FORMS = st.one_of(
    st.sampled_from(ISOTROPIC_SEARCH_EXPRS).map(lambda e: _lattice_case(parse_lattice(e, CAT))),
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.sampled_from([1, -1])),
        min_size=1,
        max_size=3,
    ).map(_block_sum_case),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ISOTROPIC_SEARCH_FORMS, st.sampled_from([1, 2, 3, 4, 6, 8, 9]))
@example(_lattice_case(parse_lattice("E6(3)", CAT)), 9)
@example(_lattice_case(parse_lattice("2A1(2)", CAT)), 4)
@example(_block_sum_case([(2, 4, 1), (2, 2, 1), (2, 4, 1)]), 8)
def test_isotropic_subgroups_match_closure_oracle(case, order):
    """The orthogonality test on generators finds the subgroups that testing q on every element finds.

    Both searches count operations alike and run on one budget, so they
    return the same list or both raise BudgetExceeded.
    """
    form, gram = case
    assume(form.order() <= 3**8)
    assume(prod(gcd(o, order) for o in form.orders) <= 3**7)

    def outcome(search, *args):
        try:
            return search(*args)
        except BudgetExceeded:
            return BudgetExceeded

    def elements(form, order, pool):
        return [sub for sub, _ in isotropic_subgroups(form, order, pool)]

    want = outcome(isotropic_subgroups_by_closure, form.orders, gram, order, 10**5)
    with search_budget(10**5):
        assert outcome(elements, form, order, isotropic_pool(form, order)) == want


@pytest.mark.parametrize("expr, order, pool", [("4D4", 4, root_free_pool), ("E6(3)", 9, None)])
def test_the_search_extends_each_subgroup_by_its_next_greedy_generator(
        expr, order, pool, monkeypatch):
    """Every closure <S, x> the search builds has x after the last greedy generator
    of S, so each subgroup is built from its greedy prefix alone and none twice,
    whatever the order of the pool it is given; the generators handed out with each
    subgroup are its greedy generators, as brute-force spans find them."""
    lat = Catalog().parse(expr)
    form = discforms.discriminant_form(lat)
    pool = pool(lat, order) if pool else isotropic_pool(form, order)
    closure, calls = discforms._closure, []

    def recorded(base, new, orders):
        calls.append((base, new))
        return closure(base, new, orders)

    monkeypatch.setattr(discforms, "_closure", recorded)
    found = isotropic_subgroups(form, order, pool=pool[::-1])
    monkeypatch.undo()
    assert found and calls
    for base, new in calls:
        assert len(base) == 1 or new > greedy_generators(sorted(base), form.orders)[-1]
    assert all(list(gens) == greedy_generators(sub, form.orders) for sub, gens in found)
    assert isotropic_subgroups(form, order, pool=pool) == found


# (expression, glue orders); None takes every order m with m^2 dividing |D|.
# The 2-adic sums have levels 2, 4 and 8 among their overlattices, so there
# q(x)/2, not b, decides the level; E6(3)+A2 is the census datum E6(3)+G2.
GLUE_LEVEL_CASES = [
    ("D4(2)+2A1(2)", None),
    ("4A1(2)", None),
    ("D4(2)+D4(2)", [2]),
    ("E7+A1(2)", None),
    ("E6(3)+A2", [3]),
    ("2A2(3)+A2", None),
    ("A4(5)+A4", [5, 25]),
]


@pytest.mark.parametrize("expr, orders", GLUE_LEVEL_CASES, ids=[c[0] for c in GLUE_LEVEL_CASES])
def test_glue_level_is_the_level_of_the_built_overlattice(expr, orders):
    """The level of H^perp / H read off the glue group is the built overlattice's level."""
    lat = parse_lattice(expr, CAT)
    form = DiscriminantForm.from_lattice(lat)
    size = form.order()
    if orders is None:
        orders = [m for m in range(2, isqrt(size) + 1) if size % (m * m) == 0]
    levels = set()
    for m in orders:
        for sub, gens in isotropic_subgroups(form, m, isotropic_pool(form, m)):
            over = glue_overlattice(lat, form, sub)
            assert glue_level(form, sub, gens) == over.level(), (expr, sub)
            assert abs(over.det()) * m * m == size
            levels.add(over.level())
    if expr != "E7+A1(2)":  # its discriminant form (2, 4) has no isotropic glue
        assert levels


def _norm_2_count(lat: Lattice) -> int:
    return len(short_vectors(lat.gram, 2).get(2, []))


# p is the prime each case is taken at; only the level and the target enter the
# filter.  Several cases keep no overlattice: all of their glue adds roots.
LEVEL_FILTER_CASES = [
    ("E6(3)+A2", 3, 3, 3**6),
    ("2A2(3)+A2", 3, 3, 3**3),
    ("4A2", 3, 3, 3**2),
    ("E7+A1(5)", 5, 5, 5),
    ("A4(5)+A4", 5, 5, 5**4),
    ("D4(2)+2A1(2)", 2, 8, 2**8),
    ("D4(2)+D4(2)", 2, 4, 2**10),
    ("4A1(2)", 2, 2, 2**2),
    ("E6(3)", 3, 3, 3**3),
    ("E6(3)", 3, 3, 3**5),
    ("E6(3)+A2+A2", 3, 3, 3**7),
    ("A3+D7(3)", 3, 3, 3**7),
]


@pytest.mark.parametrize("expr, p, level, target", LEVEL_FILTER_CASES)
def test_level_filter_equals_filtering_the_built_overlattices(expr, p, level, target):
    """One overlattice per glue group of the index, in search order, kept when its
    built level is `level` and it has no norm-2 vector that L lacks."""
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)  # the presentation the search walks
    m = isqrt(abs(lat.det()) // target)
    built = [glue_overlattice(lat, form, sub)
             for sub, _ in isotropic_subgroups(form, m, isotropic_pool(form, m))]
    at_level = [over for over in built if over.level() == level]
    assert at_level
    roots_of_lat = _norm_2_count(lat)
    want = [over for over in at_level if _norm_2_count(over) == roots_of_lat]
    got = [glue_overlattice(lat, form, sub) for sub, _ in even_overlattices(lat, target, level)]
    assert got == want


# the level-filter cases of level p; 8A1, the span of the B8 datum at p = 2;
# D8+D8 and 6A2, where glue must leave classes of norm 2/p out of H^perp to kill
# long roots; and 3D4+D8, whose 81 groups keep 54 distinct sets of long-root
# classes with two root systems between them (27 C8+3C4 and 54 D8+F4+2C4), so
# later groups read splits kept for other sets.  `root_components` reads long
# roots only at level 1 or p.
GLUE_ROOT_CASES = [case for case in LEVEL_FILTER_CASES if case[1] == case[2]]
GLUE_ROOT_CASES += [("8A1", 2, 2, 2**6), ("D8+D8", 2, 2, 2**2), ("6A2", 3, 3, 3**4),
                    ("3D4+D8", 2, 2, 2**6)]


@pytest.mark.parametrize("expr, p, level, target", GLUE_ROOT_CASES)
def test_glue_components_are_those_of_the_built_overlattice(expr, p, level, target):
    """The root system read off D(L) for each glue group is `root_components` of
    the overlattice the group glues."""
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)
    for sub, gens in even_overlattices(lat, target, level):
        over = glue_overlattice(lat, form, sub)
        classes = long_root_classes(lat, p, sub, gens)
        assert glue_components(lat, p, classes) == tuple(root_components(over, p)), sub


@pytest.mark.parametrize("expr, p, level, target", [c for c in LEVEL_FILTER_CASES if c[1] != c[2]])
def test_glue_components_find_the_long_roots_at_other_levels(expr, p, level, target):
    """At levels 4 and 8, where a class c in H^perp can have p c outside H, the long
    roots read off D(L) are the vectors v of norm 2p of the built overlattice with
    (v, M) in pZ, found by a box sweep."""
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)
    for sub, gens in even_overlattices(lat, target, level):
        gram = [list(row) for row in glue_overlattice(lat, form, sub).gram]
        want = [v for v in box_vectors_by_norm(gram, 2 * p).get(2 * p, [])
                if all(sum(map(mul, row, v)) % p == 0 for row in gram)]
        comps = glue_components(lat, p, long_root_classes(lat, p, sub, gens))
        assert sum(c.count_long for c in comps) == len(want), sub


def test_the_long_roots_of_8a1_glue_are_split_across_two_parts():
    """The 56 positive long roots of the B8 glue of 8A1 each sit in two A1 parts.

    A dual vector of one A1 has norm c^2 / 2, never 2/p = 1, so only a sum
    of two parts reaches it: the pieces of the long roots must be joined
    across the parts of L.
    """
    lat = parse_lattice("8A1", CAT)
    [(sub, gens)] = even_overlattices(lat, 2**6, 2)
    assert [c.name for c in glue_components(lat, 2, long_root_classes(lat, 2, sub, gens))] == [
        "B8"]
    _, long_by_class = discforms._glue_roots(lat, 2)
    long_ = [v for vecs in long_by_class.values() for v in vecs]
    assert len(long_) == 56
    assert all(sum(1 for a in v if a) == 2 for v in long_)  # each A1 is one coordinate


# terms at p whose sums often glue to level p: lattices of determinant a power of
# p, their rescalings by p, and A1, whose dual vectors of norm 1/2 join across parts
GLUE_ROOT_TERMS = {
    2: ["A1", "D4", "E7", "A1(2)", "D4(2)"],
    3: ["A2", "E6", "A1(3)", "A2(3)", "E6(3)"],
    5: ["A1", "A4", "A1(5)", "A4(5)"],
    7: ["A1", "A6", "L7", "A1(7)"],
}


@st.composite
def glue_root_sums(draw):
    """(expression, p) for a sum of 1-5 terms at p = 2, 3, 5 or 7, with |det| <= 3^8."""
    p = draw(st.sampled_from(sorted(GLUE_ROOT_TERMS)))
    terms, det = [], 1
    for term in draw(st.lists(st.sampled_from(GLUE_ROOT_TERMS[p]), min_size=1, max_size=5)):
        term_det = CAT.parse(term).det()
        if det * term_det <= 3**8:  # every single term fits
            terms.append(term)
            det *= term_det
    return "+".join(terms), p


@settings(max_examples=30, deadline=None, derandomize=True)
@given(glue_root_sums())
@example(("A1+A1+A1+A1+A1+A1+A1+A1", 2))
@example(("A2(3)+A2+A1(3)", 3))
@example(("A4(5)+A4", 5))
def test_glue_components_match_the_built_overlattice_on_small_sums(case):
    """On every root-free glue group of level p and every index, D(L) and the built
    overlattice give one root system."""
    expr, p = case
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)
    det = lat.det()
    for m in range(1, isqrt(det) + 1):
        if det % (m * m):
            continue
        try:
            glue = even_overlattices(lat, det // (m * m), p)
        except BudgetExceeded:
            continue
        for sub, gens in glue:
            over = glue_overlattice(lat, form, sub)
            classes = long_root_classes(lat, p, sub, gens)
            assert glue_components(lat, p, classes) == tuple(root_components(over, p)), (m, sub)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(glue_root_sums())
@example(("D4+D4+A1+A1", 2))
@example(("A1+A1+A1+A5(3)", 3))
@example(("E6(3)", 3))
@example(("A6(7)", 7))
def test_glue_level_matches_the_hermite_oracle_on_small_sums(case):
    """On every isotropic subgroup of every index whose search passes a budget of
    2 10^5, `glue_level` gives the level that a Hermite basis of H^perp gives, and
    `even_overlattices` at level p is the root-free search filtered by that level, in
    order.  The examples hold a 2-group (D4+D4+A1+A1), the mixed form of
    A1+A1+A1+A5(3), of orders 2, 3 and 18, and factors Z/9 (E6(3)) and Z/49 (A6(7))."""
    expr, p = case
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)
    det = lat.det()
    with search_budget(2 * 10**5):
        for m in range(2, isqrt(det) + 1):
            if det % (m * m):
                continue
            try:
                discforms._pool_scan(form, m)  # before a pool is walked
                subs = isotropic_subgroups(form, m, isotropic_pool(form, m))
                glue = isotropic_subgroups(form, m, root_free_pool(lat, m))
            except BudgetExceeded:
                continue
            assert [glue_level(form, sub, gens) for sub, gens in subs] == [
                glue_level_by_hermite(form, sub) for sub, _ in subs], (expr, m)
            assert even_overlattices(lat, det // (m * m), p) == [
                found for found in glue if glue_level_by_hermite(form, found[0]) == p]


def test_glue_level_runs_no_hermite_form(monkeypatch):
    """`glue_level` reads the level of the census glue and of every order-4 glue group
    of D4+D4+A1+A1 with `intmat.row_hermite_form` made to raise."""
    cases = [("E6(3)+A2", 3), ("E6(3)", 3), ("E6(3)", 9), ("A1+A1+A1+A5(3)", 4),
             ("D4+D4+A1+A1", 4)]
    groups = []
    for expr, m in cases:
        form = discforms.discriminant_form(parse_lattice(expr, CAT))
        groups += [(form, found) for found in isotropic_subgroups(form, m, isotropic_pool(form, m))]
    want = [glue_level_by_hermite(form, sub) for form, (sub, _) in groups]

    def refuse(rows):
        raise AssertionError("glue_level ran a Hermite form")

    monkeypatch.setattr(intmat, "row_hermite_form", refuse)
    assert len(groups) > 5 and [glue_level(form, *found) for form, found in groups] == want


def _filtered_pool(lat, order):
    """The walked pool of D(L) without the root classes that the norm-2 vectors of the
    whole dual of L find, in order."""
    form = discforms.discriminant_form(lat)
    classes = root_classes_by_dual_enumeration(lat, form, order)
    return [x for x in isotropic_pool(form, order) if x not in classes]


def _filtered_glue(lat, order, level):
    """The glue groups of the search over the filtered pool, kept at `level`."""
    form = discforms.discriminant_form(lat)
    found = isotropic_subgroups(form, order, pool=_filtered_pool(lat, order))
    return [pair for pair in found if glue_level(form, *pair) == level]


def _assert_root_free_pool_is_filtered(lat, order, level):
    """`root_free_pool` against the filtered pool, and `even_overlattices` against the
    search over it; returns the pool."""
    pool = root_free_pool(lat, order)
    assert pool == _filtered_pool(lat, order) == root_free_pool(lat, order)
    target = lat.det() // (order * order)
    assert even_overlattices(lat, target, level) == _filtered_glue(lat, order, level)
    return pool


@settings(max_examples=30, deadline=None, derandomize=True)
@given(glue_root_sums())
@example(("A4(5)+A4", 5))
def test_the_root_free_pool_is_the_filtered_pool_on_small_sums(case):
    """At every index whose pool passes the budget check, the join that skips root
    classes gives the walked pool without them, in order, and the same glue groups."""
    expr, p = case
    lat = parse_lattice(expr, CAT)
    det = lat.det()
    for m in range(2, isqrt(det) + 1):
        if det % (m * m) == 0:
            try:
                _assert_root_free_pool_is_filtered(lat, m, p)
            except BudgetExceeded:
                continue


# (expression, order, root-free pool size): the census searches, the two rank-10
# datum lattices (A3 + D7(3) glues at order 4), and a sum of sums
ROOT_FREE_POOLS = [
    ("E6(3)+A2", 3, 2), ("E6(3)", 3, 2), ("E6(3)", 9, 2), ("A1+A1+A1+A5(3)", 4, 1),
    ("A3+D7(3)", 3, 0), ("A3+D7(3)", 4, 5), ("E6(3)+A2+A2", 3, 578), (("E6(3)+A2", "A2"), 3, 578),
]


@pytest.mark.parametrize(
    "expr, order, size", ROOT_FREE_POOLS,
    ids=lambda v: "+".join(f"({t})" for t in v) if isinstance(v, tuple) else None)
@pytest.mark.parametrize("plain_first", [False, True])
def test_the_root_free_pool_is_the_filtered_pool(expr, order, size, plain_first):
    """On a fresh catalog, whether or not the plain pool of the whole form is walked
    first, the root-free pool is the filtered pool."""
    cat = Catalog()
    if isinstance(expr, tuple):
        lat = lattices.direct_sum([cat.parse(part) for part in expr], name="sum")
    else:
        lat = cat.parse(expr)
    if plain_first:
        isotropic_pool(discforms.discriminant_form(lat), order)
    assert len(_assert_root_free_pool_is_filtered(lat, order, 3)) == size


def test_d8_d8_glues_to_both_unimodular_lattices():
    """D8 + D8 has six unimodular glue groups: four give E8 + E8 and two give D16+.

    Each adds norm-2 vectors, so `even_overlattices` returns none of them.
    """
    lat = parse_lattice("D8+D8", CAT)
    form = DiscriminantForm.from_lattice(lat)
    subs = [sub for sub, gens in isotropic_subgroups(form, 4, isotropic_pool(form, 4))
            if glue_level(form, sub, gens) == 1]
    assert len(subs) == 6
    found = [glue_overlattice(lat, form, sub) for sub in subs]
    names = [sorted(c.name for c in root_components(over, 2)) for over in found]
    assert names.count(["E8", "E8"]) == 4
    assert names.count(["D16"]) == 2
    assert even_overlattices(lat, 1, 1) == []


def test_the_d8_d8_glue_falls_into_two_orbits():
    """O(D8 + D8) puts the six unimodular glue groups into two orbits, E8 + E8 and
    D16+: the diagram automorphism of each D8 swaps its two spinor classes, and the
    swap of the two D8's mixes them."""
    lat = parse_lattice("D8+D8", CAT)
    form = discforms.discriminant_form(lat)
    glue = {sub: long_root_classes(lat, 2, sub, gens)
            for sub, gens in isotropic_subgroups(form, 4, isotropic_pool(form, 4))
            if glue_level(form, sub, gens) == 1}
    assert len(glue) == 6
    assert discforms.glue_orbits(lat, 2, glue) == 2
    assert set(discforms.glue_actions(lat)) == actions_on_glue(lat, isometry_generators(lat))


def test_a_part_with_trivial_glue_is_not_searched(monkeypatch):
    """D(E8) = 0, so O(E8 + E8) acts on D = 0 as the identity: it keeps no action and
    charges no basis permutation search."""
    inner, charged = discforms.charge, []

    def spied(spent, what):
        charged.append(what)
        return inner(spent, what)

    monkeypatch.setattr(discforms, "charge", spied)
    assert discforms.glue_actions(Catalog().parse("E8+E8")) == ()
    assert "basis permutation search" not in charged


@pytest.mark.parametrize("expr, order, groups, orbits", [
    ("A4(2)", 2, 5, 1), ("A3(3)", 3, 4, 1), ("A1(2)+A3(2)", 2, 7, 2), ("A1(2)+A3(2)", 4, 3, 1)])
def test_the_reflections_of_a_rescaled_root_lattice_act_on_its_glue(expr, order, groups, orbits):
    """The Weyl group of X(m) moves the classes of D(X(m)), so the basis reflections
    are needed: without them these isotropic groups fall into 3, 2, 5 and 3 orbits.
    The orbits are as many as the histograms of the built overlattices
    (`glue_fingerprints`); at p = 7 these lattices have no long-root class, so no
    group is dropped.  The kept actions are the images of the n x n generators."""
    lat = parse_lattice(expr, CAT)
    form = discforms.discriminant_form(lat)
    glue = {sub: long_root_classes(lat, 7, sub, gens)
            for sub, gens in isotropic_subgroups(form, order, isotropic_pool(form, order))}
    assert len(glue) == groups and not discforms._glue_roots(lat, 7)[1]
    assert discforms.glue_orbits(lat, 7, glue) == orbits == len(glue_fingerprints(lat, 7, glue))
    assert set(discforms.glue_actions(lat)) == actions_on_glue(lat, isometry_generators(lat))


# the blocks (p, n_p, eps) that `ISOTROPIC_SEARCH_FORMS` sums
SEARCH_BLOCKS = [(p, n_p, eps) for p in (2, 3, 5) for n_p in range(1, 5) for eps in (1, -1)]


def _within_search_bounds(form, order):
    """|D| <= 3^8, and at most 3^7 elements of order dividing `order`."""
    return form.order() <= 3**8 and prod(gcd(o, order) for o in form.orders) <= 3**7


@cache
def _isotropic_pieces(q):
    """The expressions and blocks of `ISOTROPIC_SEARCH_FORMS` with a nonzero
    isotropic element of prime order q."""
    pieces = [DiscriminantForm.from_lattice(parse_lattice(e, CAT)) for e in ISOTROPIC_SEARCH_EXPRS]
    pieces += [_block_sum_form([block]) for block in SEARCH_BLOCKS]
    return [form for form in pieces if isotropic_subgroups(form, q, isotropic_pool(form, q))]


@st.composite
def avoid_search_cases(draw):
    """(form, order, full search) within the search bounds, with a nonzero subgroup.

    The form is a piece with a nonzero isotropic element of the prime q
    dividing the drawn order m, plus up to two blocks that keep it within
    the bounds at m.  When the order-m search finds nothing or passes the
    budget, the order is q instead: an order-q search tries each element of
    the pool once, and it finds the piece's isotropic element.  So no draw
    is rejected.
    """
    order = draw(st.sampled_from([2, 3, 4, 8, 9]))
    q = 2 if order % 2 == 0 else 3
    form = draw(st.sampled_from(_isotropic_pieces(q)))
    for _ in range(draw(st.integers(0, 2))):
        sums = [form.direct_sum(_block_sum_form([block])) for block in SEARCH_BLOCKS]
        sums = [s for s in sums if _within_search_bounds(s, order)]
        if not sums:
            break
        form = draw(st.sampled_from(sums))
    with search_budget(10**5):
        try:
            full = isotropic_subgroups(form, order, isotropic_pool(form, order))
        except BudgetExceeded:
            full = []
        if not full:
            order, full = q, isotropic_subgroups(form, q, isotropic_pool(form, q))
    return form, order, full


@settings(max_examples=30, deadline=None, derandomize=True)
@given(avoid_search_cases(), st.data())
def test_avoided_elements_drop_exactly_the_subgroups_that_meet_them(case, data):
    """The search over the walked pool without a set returns the full search's
    subgroups that miss it, in order."""
    form, order, full = case
    elements = sorted({x for sub, _ in full for x in sub if any(x)})
    avoid = frozenset(data.draw(st.lists(st.sampled_from(elements), max_size=4)))
    want = [found for found in full if avoid.isdisjoint(found[0])]
    pool = [x for x in isotropic_pool(form, order) if x not in avoid]
    with search_budget(10**5):
        assert isotropic_subgroups(form, order, pool) == want


# -- root classes from per-part coset minima --

MAX_ROOT_CLASS_RANK = 10


def _root_class_pieces() -> tuple[str, ...]:
    """A_n, D_n, E_n, their (p) and v(p) forms at p = 2, 3, 5, 7, and L7, L11,
    each of |det| below 10^6."""
    names = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
    terms = ["L7", "L11"] + [
        term
        for name in names
        for term in [name] + [f"{name}{dual}({p})" for p in (2, 3, 5, 7) for dual in ("", "v")]
    ]
    out = []
    for term in terms:
        try:
            lat = CAT.summands(term)[0][3]
        except ValueError:  # a dual that is not integral or not even
            continue
        if lat.det() < 10**6:
            out.append(term)
    return tuple(out)


ROOT_CLASS_PIECES = _root_class_pieces()


@st.composite
def root_class_cases(draw):
    """(expression, order): 1-4 catalog pieces of total rank <= 10 and |det| below
    10^6, so that the whole-dual oracle runs in well under a second, and an order
    in {2, 3, 4, 5, 9} that shares a prime with det when one does."""
    terms, rank, det = [], 0, 1
    for term in draw(st.lists(st.sampled_from(ROOT_CLASS_PIECES), min_size=1, max_size=4)):
        piece = CAT.summands(term)[0][3]
        if rank + piece.rank <= MAX_ROOT_CLASS_RANK and det * piece.det() < 10**6:
            terms.append(term)
            rank += piece.rank
            det *= piece.det()
    orders = [m for m in (2, 3, 4, 5, 9) if gcd(m, det) > 1] or [2, 3, 4, 5, 9]
    return "+".join(terms), draw(st.sampled_from(orders))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(root_class_cases())
@example(("E6(3)+A2", 3))
@example(("3A1+A5(3)", 4))
@example(("E6(3)", 9))
@example(("E7+A1(5)", 5))
def test_root_classes_match_whole_dual_enumeration(case):
    """Adding up the coset minima of the parts leaves out of the walked pool exactly
    the classes that the norm-2 vectors of the whole dual find."""
    expr, order = case
    lat = parse_lattice(expr, CAT)
    assert root_free_pool(lat, order) == _filtered_pool(lat, order)


def test_root_classes_enumerate_each_term_once():
    """Once a term's coset table is kept, a sum of known terms enumerates no vector."""
    cat = Catalog()
    first = root_free_pool(cat.parse("E6(3)+A2"), 3)
    glue = even_overlattices(cat.parse("E7+A1(5)"), 5, 5)  # order 2: E7's table
    assert len(first) == 2 and len(glue) == 1
    with short_vector_calls() as calls:
        assert root_free_pool(cat.parse("E6(3)+A2"), 3) == first
        assert root_free_pool(cat.parse("E6(3)"), 9)
        assert root_free_pool(cat.parse("A2+E6(3)+A2"), 3)
        assert even_overlattices(cat.parse("E7+A1(5)"), 5, 5) == glue
    assert not calls


def test_a_sum_of_warm_terms_runs_no_smith_form_and_maps_no_class(monkeypatch):
    """D(L) of a sum is the sum of its terms' kept forms, and its root-free pool is
    joined from the terms' kept minima: no Smith form and no `element_of`."""
    lat = Catalog().parse("A2+E6(3)+A2")
    for part in lat.parts:
        root_free_pool(part, 3)
    mapped, inner = [], DiscriminantForm.element_of
    monkeypatch.setattr(DiscriminantForm, "element_of", lambda *a: mapped.append(a) or inner(*a))
    with smith_calls() as calls:
        assert even_overlattices(lat, 3**5, 3) == []  # every glue group of order 9 adds roots
        assert len(even_overlattices(lat, 3**7, 3)) == 1
        assert len(root_free_pool(lat, 3)) == 578
    assert not calls and not mapped


def test_a_cold_glue_search_builds_no_root_class_set():
    """On a fresh catalog, the glue searches of E6(3)+A2 at index 3 and of A3+D7(3)
    at index 4 call `roots.part_sums` not once: no set of root classes is built."""
    cat = Catalog()
    with part_sums_calls() as sums:
        assert len(even_overlattices(cat.parse("E6(3)+A2"), 3**6, 3)) == 1
        assert len(even_overlattices(cat.parse("A3+D7(3)"), 3**7, 3)) == 2
    assert sums == []


# terms of coprime, unimodular and prime-power determinant; `nested_sums` sums them
SUM_TERMS = [
    "E8", "A1", "A2", "L3", "L7", "A3", "D4", "E6", "E7", "A4",
    "A1(2)", "A1(3)", "A2(2)", "A2(3)", "D4(2)", "E6(3)",
]


def _nested_sum(groups) -> Lattice:
    """The sum of the groups, each group one term or the sum of its terms."""
    parts = [lattices.direct_sum([CAT.parse(t) for t in group]) for group in groups]
    return lattices.direct_sum(parts, name="sum")


def _sum_case(groups):
    """The part-by-part form of the sum, and the Gram of its generators read off the sum."""
    lat = _nested_sum(groups)
    form = discforms.discriminant_form(lat)
    return form, dual_pairing(lat, form)


@st.composite
def nested_sums(draw):
    """1-3 groups of 1-2 terms, kept while |D| stays at most 3^8."""
    groups, det = [], 1
    for drawn in draw(st.lists(st.lists(st.sampled_from(SUM_TERMS), min_size=1, max_size=2),
                               min_size=1, max_size=3)):
        group = []
        for term in drawn:
            term_det = abs(CAT.parse(term).det())
            if det * term_det <= 3**8:
                group.append(term)
                det *= term_det
        if group:
            groups.append(tuple(group))
    return tuple(groups)


def _glue_grams(lat: Lattice, form: DiscriminantForm, m: int):
    """The sorted Grams of the overlattices that the order-m isotropic subgroups glue."""
    try:
        with search_budget(2 * 10**4):
            subs = isotropic_subgroups(form, m, isotropic_pool(form, m))
    except BudgetExceeded:
        return "budget"
    return sorted(glue_overlattice(lat, form, sub).gram for sub, _ in subs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nested_sums())
@example((("E8",), ("A1", "A2")))
@example((("L3", "L7"),))
@example((("A1", "A2"), ("E6(3)",), ("E8",)))
@example((("A2(3)", "A2"), ("A1(2)", "A1(2)")))
def test_a_sum_presented_part_by_part_agrees_with_its_smith_form(groups):
    """`discriminant_form` of a sum (the parts' forms, part by part) and the Smith form
    of its whole Gram have the same order, level, octant and value counts, and glue
    the same overlattices at every order whose pool has at most 3^7 elements."""
    lat = _nested_sum(groups)
    by_parts, smith = discforms.discriminant_form(lat), DiscriminantForm.from_lattice(lat)
    order, level = smith.order(), smith.level()
    assert (by_parts.order(), by_parts.level()) == (order, level)
    assert by_parts.milgram_octant() == smith.milgram_octant()
    for value in (Fraction(2 * j, level) for j in range(level)):
        assert by_parts.count_norm(value) == smith.count_norm(value), value
    for m in range(2, isqrt(order) + 1):
        if order % (m * m) == 0 and prod(gcd(o, m) for o in smith.orders) <= 3**7:
            assert _glue_grams(lat, by_parts, m) == _glue_grams(lat, smith, m), (groups, m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nested_sums())
@example((("A1", "A1"), ("A1", "A5(3)")))  # terms of orders 2 and (3, 3, 3, 3, 18)
@example((("E6(3)",), ("A2",)))  # den 9 next to den 3
@example((("A3",), ("D7(3)",)))  # orders 4 and (3, 3, 3, 3, 3, 12)
@example((("E6(3)", "A1"),))  # at m = 3 and 9, A1 adds only its zero
@example((("D7(3)",),))  # not a sum: the Smith presentation of one term
def test_pool_of_a_sum_is_the_walk_of_its_whole_box(groups):
    """The pool of a sum's part-by-part form, one walk of its whole box, is, in order
    and for every divisor m of the exponent, the nonzero elements of order dividing m with
    q(x) = 0, one Fraction q(x) per element of the whole form."""
    form, gram = _sum_case(groups)
    isotropic = isotropic_elements(form.orders, gram)
    exponent = lcm(*form.orders)
    for m in (d for d in range(1, exponent + 1) if exponent % d == 0):
        assert isotropic_pool(form, m) == [x for x, o in isotropic if m % o == 0], (groups, m)


@st.composite
def even_lattice_cases(draw):
    """A form of a random even lattice of rank 1-4, definite or not, or None when
    its Gram is singular."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    try:
        return _lattice_case(Lattice(gram))
    except ValueError:
        return None


def _candidate_case(p, n_p, eps):
    n_p += n_p % 2 if p == 2 else 0
    return candidate_form(p, n_p, eps), _block_sum_gram([(p, n_p, eps)])


PRESENTED_TERMS = CATALOG_NAMES + SUM_TERMS + ["U", "U(2)", "U(5)", "D8v(2)", "E6v(3)"]


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.sampled_from(PRESENTED_TERMS).map(lambda t: _lattice_case(parse_lattice(t, CAT))),
    even_lattice_cases(),
    nested_sums().map(_sum_case),
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.sampled_from([1, -1]))
    .map(lambda args: _candidate_case(*args)),
))
@example(_lattice_case(parse_lattice("D4", CAT)))  # B has denominator 2, det 4
@example(_lattice_case(Lattice([[2, 3], [3, 2]])))  # det -5
@example(_lattice_case(parse_lattice("U(2)", CAT)))  # det -4
@example(_sum_case((("A1", "A2"),)))  # den 2 next to den 3
@example(_sum_case((("E6(3)",), ("A2",))))  # den 9 next to den 3
@example(_candidate_case(2, 4, -1))
@example(_candidate_case(7, 3, -1))
def test_a_form_is_presented_by_an_integer_gram_in_lowest_terms(case):
    """den and every entry of bnum are ints, den > 0, gcd(den, bnum) = 1, and bnum / den
    is the Gram of the generators built apart from the form: read off the lattice by
    `dual_pairing`, or assembled from the standard blocks."""
    assume(case is not None)
    form, gram = case
    entries = [x for row in form.bnum for x in row]
    assert type(form.den) is int and all(type(x) is int for x in entries)
    assert form.den > 0 and gcd(form.den, *entries) == 1
    assert [[Fraction(x, form.den) for x in row] for row in form.bnum] == gram


def test_a_sum_of_joined_terms_walks_nothing():
    """Once its terms keep their value groups at 3, the glue search of a fresh sum at
    index 3 joins its pool from them: no walk, and the glue groups glue the
    overlattices that the search over the Smith presentation, with the walked pool
    less the whole-dual oracle's root classes, glues."""
    cat = Catalog()
    lat = cat.parse("A2+E6(3)+A2")
    for part in lat.parts:
        root_free_pool(part, 3)
    with walk_calls() as calls:
        subs = even_overlattices(lat, 3**7, 3)
    assert not calls
    smith = DiscriminantForm.from_lattice(lat)
    classes = root_classes_by_dual_enumeration(lat, smith, 3)
    pool = [x for x in isotropic_pool(smith, 3) if x not in classes]
    want = [sub for sub, gens in isotropic_subgroups(smith, 3, pool=pool)
            if glue_level(smith, sub, gens) == 3]
    form = discforms.discriminant_form(lat)
    assert len(subs) == len(want) == 1
    assert (sorted(glue_overlattice(lat, form, sub).gram for sub, _ in subs)
            == sorted(glue_overlattice(lat, smith, sub).gram for sub in want))


def test_a_form_walks_each_torsion_box_once():
    """A lattice keeps its value groups per torsion box: D(E6(3)) has orders
    (3, 3, 3, 3, 3, 9), so m = 27 has the box of m = 9 and walks nothing."""
    lat = Catalog().parse("E6(3)")
    form = discforms.discriminant_form(lat)
    with walk_calls() as calls:
        pools = [root_free_pool(lat, m) for m in (3, 9, 27, 3, 9)]
    assert calls == [discforms._torsion_box(form.orders, m) for m in (3, 9)]
    assert pools[2] == pools[1] == pools[4] and pools[0] == pools[3]


def test_pool_scan_is_charged_to_the_budget(monkeypatch):
    """D(A1(2)^12) has 2^24 elements of order dividing 1024: the scan alone passes the
    budget, so the glue search of index 1024 is refused before its pool is built."""
    lat = Catalog().parse("12A1(2)")
    start = perf_counter()
    with walk_calls() as calls, pytest.raises(BudgetExceeded, match="^pool scan: 16777216 "):
        even_overlattices(lat, 2**4, 2)
    assert perf_counter() - start < 5 and not calls
    # an anisotropic form tries no (subgroup, element) pair, yet its scan is charged
    form = candidate_form(3, 1, 1)
    monkeypatch.setattr(discforms, "BUDGET", 3)
    assert isotropic_subgroups(form, 3, []) == []
    monkeypatch.setattr(discforms, "BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        isotropic_subgroups(form, 3, [])


def _named(node, name: str) -> bool:
    """Whether a syntax tree node is the name, or the attribute, `name`."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _budget_sites(node, module: str, scope: str | None = None) -> list[tuple]:
    """(site, module, enclosing function) for each read of `BUDGET` and each
    construction or raise of `BudgetExceeded` under a syntax tree node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    sites = []
    if _named(node, "BUDGET") and isinstance(node.ctx, ast.Load):
        sites.append(("reads BUDGET", module, scope))
    if (isinstance(node, ast.Call) and _named(node.func, "BudgetExceeded")
            or isinstance(node, ast.Raise) and _named(node.exc, "BudgetExceeded")):
        sites.append(("builds BudgetExceeded", module, scope))
    for child in ast.iter_child_nodes(node):
        sites += _budget_sites(child, module, scope)
    return sites


def test_only_charge_reads_the_budget_or_builds_budget_exceeded():
    """In the library, `BUDGET` is read and `BudgetExceeded` built only inside
    `discforms.charge`, so every budgeted search goes through the one charge point
    and no search can grow a cap of its own."""
    sites = []
    for path in sorted(Path(discforms.__file__).parent.glob("*.py")):
        sites += _budget_sites(ast.parse(path.read_text(), str(path)), path.stem)
    assert sorted(sites) == [("builds BudgetExceeded", "discforms", "charge"),
                             ("reads BUDGET", "discforms", "charge"),
                             ("reads BUDGET", "discforms", "charge")]


@pytest.mark.parametrize(
    "label",
    [
        "II_{4,2}(3^{+9})",  # p-rank above the rank
        "II_{4,2}(3^{+1})",  # octant 6, signature 2
        "II_{5,2}(3^{+1})",  # odd rank
        "II_{22,2}(2_II^{+4})",  # octant 0, signature 4
        "II_{6,2}(2_II^{-3})",  # odd 2-rank of an even form
        "II_{4,2}(9^{-1})",  # not a prime
    ],
)
def test_parse_genus_rejects_genera_that_do_not_exist(label):
    with pytest.raises(ValueError, match="no genus"):
        parse_genus(label)
