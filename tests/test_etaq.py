"""Series expansions, lifting weights, and the twisted Bernoulli obstruction."""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from helpers import bernoulli_poly_3, euler_product_naive, legendre
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflector import etaq

MAX_TERMS = 60
DS = [1, 2, 3, 5, 7, 11, 23]


@cache
def _naive_factor(r: int) -> tuple[Fraction, ...]:
    """prod (1 - q^m)^r to MAX_TERMS terms; its first n entries are the n-term product."""
    return tuple(euler_product_naive(r, MAX_TERMS))


def naive_eta_quotient(factors: dict, terms: int) -> tuple[dict[Fraction, Fraction], Fraction]:
    """prod_d eta(d tau)^r as {exponent: Fraction coefficient} and its precision.

    Each factor is q^(r d/24) times the naive Euler product in q^d, known
    below exponent terms*d + r d/24.  The product is known below the least
    of (precision of one factor + leading exponents of all the others).
    A partial product drops the terms that the leading exponents of the
    factors still to come would push past that precision.
    """
    factors = {Fraction(d): r for d, r in factors.items()}
    leads = [r * d / 24 for d, r in factors.items()]
    precs = [terms * d + lead for d, lead in zip(factors, leads)]
    precision = min(p + sum(leads) - lead for p, lead in zip(precs, leads))
    product = {Fraction(0): Fraction(1)}
    for i, (d, r) in enumerate(factors.items()):
        cut = precision - sum(leads[i + 1:])
        factor = {n * d + leads[i]: c for n, c in enumerate(_naive_factor(r)[:terms])}
        out: dict[Fraction, Fraction] = {}
        for e1, c1 in product.items():
            for e2, c2 in factor.items():
                if e1 + e2 < cut:
                    out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        product = out
    return {e: c for e, c in product.items() if c}, precision


def assert_matches_oracle(series: etaq.PuiseuxSeries, factors: dict, terms: int) -> None:
    assert all(type(c) is int for c in series.coeffs.values())
    want, precision = naive_eta_quotient(factors, terms)
    assert series.precision == precision
    assert dict(series.terms()) == want


def test_euler_factor_coefficients_against_naive_product():
    """eta(tau)^r is q^(r/24) times prod (1 - q^m)^r, termwise the naive product."""
    for power in (1, 2, 24, -1, -8, -24):
        series = etaq.eta_quotient({1: power}, 12)
        oracle = euler_product_naive(power, 12)
        shifted = {n + Fraction(power, 24): c for n, c in enumerate(oracle) if c}
        assert dict(series.terms()) == shifted, power
        assert series.precision == 12 + Fraction(power, 24), power


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(DS + [Fraction(1, d) for d in DS[1:]]),
        st.integers(-24, 24),
        min_size=1,
        max_size=5,  # keeps the naive Fraction product of the oracle to seconds
    ),
    st.integers(1, MAX_TERMS),
)
def test_eta_quotient_is_the_integral_naive_product(factors, terms):
    """Integer coefficients, equal to the Fraction product of naive Euler factors."""
    assert_matches_oracle(etaq.eta_quotient(factors, terms), factors, terms)


@pytest.mark.parametrize("p, k0", [(2, 8), (3, 6), (5, 4), (7, 3), (11, 2), (23, 1)])
def test_singular_weight_inputs(p, k0):
    """eta(tau)^-k0 eta(p tau)^-k0, with k0 (p + 1) = 24, is q^-1 + k0 + O(q)."""
    series = etaq.eta_quotient({1: -k0, p: -k0}, 2)
    assert series.terms() == [(-1, 1), (0, k0)]
    assert series.precision == 1
    assert str(series) == f"1*q^(-1) + {k0} + O(q^(1))"


def test_eta_quotient_input_checks():
    for terms in (0, -1):
        with pytest.raises(ValueError):
            etaq.eta_quotient({1: -8, 2: -8}, terms)
    for factors in ({}, {0: 1}, {-1: 2}, {1: 2, 0: 0}):
        with pytest.raises(ValueError):
            etaq.eta_quotient(factors, 12)


def test_s_transform_against_naive_product():
    for terms in range(1, MAX_TERMS + 1):
        scalar, sqrt2_power, series = etaq.s_transform(-8, -8, 2, terms)
        assert (scalar, sqrt2_power) == (16, 0)
        assert_matches_oracle(series, {1: -8, Fraction(1, 2): -8}, terms)


def test_base_series_principal_part_and_constant():
    f = etaq.f_series(10)
    coeffs = {e: c for e, c in f.coeffs.items()}
    assert f.denom == 24
    assert coeffs[-24] == 1
    assert coeffs[0] == 8


def test_base_series_known_expansion():
    f = etaq.f_series(12)
    want = {0: 1, 1: 8, 2: 52, 3: 256, 4: 1122, 5: 4352, 6: 15640, 7: 52224}
    for n, c in want.items():
        assert f.coeffs[24 * (n - 1)] == c, n


def test_fricke_image_scales_by_sixteen():
    """Under tau -> -1/(2 tau) the series picks up 16 and a half-integral grid."""
    lead, sqrt2_power, series = etaq.s_transform(-8, -8, 2)
    assert lead == 16
    assert sqrt2_power == 0
    assert series.denom == 48
    f = etaq.f_series(10)
    for exp, c in f.coeffs.items():
        assert series.coeffs.get(exp) == c, exp


def test_lift_weights_along_the_even_tower():
    want = {10: (8, 1), 8: (12, 2), 6: (20, 4), 4: (36, 8), 2: (68, 16)}
    for n2, pair in want.items():
        assert etaq.lift_weight(n2) == pair, n2


def test_twisted_bernoulli_against_direct_sum():
    """B_{3,psi} = p^2 sum psi(a) B_3(a/p) with psi the quadratic character."""
    for p in (3, 7, 11, 19, 23):
        direct = p * p * sum(
            legendre(a, p) * bernoulli_poly_3(Fraction(a, p)) for a in range(1, p)
        )
        assert etaq.bernoulli_b3_psi(p) == direct, p


def test_twisted_bernoulli_pinned_values():
    want = {3: Fraction(2, 3), 7: Fraction(48, 7), 11: 18, 19: 66, 23: 144}
    for p, val in want.items():
        assert etaq.bernoulli_b3_psi(p) == val, p


def test_cubic_bernoulli_polynomial():
    assert etaq.bernoulli_b3(Fraction(0)) == 0
    assert etaq.bernoulli_b3(Fraction(1, 3)) == Fraction(1, 27)
    assert etaq.bernoulli_b3(Fraction(1, 2)) == 0
    for x in (Fraction(1, 5), Fraction(2, 7), Fraction(3, 4)):
        assert etaq.bernoulli_b3(x) == bernoulli_poly_3(x)


def test_obstruction_condition_table():
    """The ratio test passes on surviving weights and fails exactly at p = 19."""
    assert etaq.obstruction_condition_holds(7, 28)
    assert etaq.obstruction_condition_holds(11, 24)
    assert etaq.obstruction_condition_holds(23, 12)
    assert not etaq.obstruction_condition_holds(19, 16)


def test_counting_window_emptiness():
    assert not etaq.window_is_empty(4, 19)
    assert etaq.window_is_empty(6, 23)
    assert etaq.window_is_empty(12, 7)
    lo, hi = etaq.riemann_roch_window(6, 23)
    assert lo > hi
    lo19, hi19 = etaq.riemann_roch_window(4, 19)
    assert lo19 <= hi19


def test_window_consistency_between_predicate_and_bounds():
    for n in (4, 6, 8, 10, 12):
        for p in (3, 5, 7, 11, 19, 23):
            lo, hi = etaq.riemann_roch_window(n, p)
            assert etaq.window_is_empty(n, p) == (lo > hi), (n, p)


def test_eta_quotient_symmetric_pair():
    """eta(tau)^-8 eta(2 tau)^-8 has integer coefficients with leading term 1."""
    series = etaq.eta_quotient({1: -8, 2: -8}, 8)
    exps = sorted(series.coeffs)
    assert exps[0] == -24
    assert series.coeffs[exps[0]] == 1
    for c in series.coeffs.values():
        assert c == int(c)
