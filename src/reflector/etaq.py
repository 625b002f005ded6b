"""Eta quotients, their cusp expansions, and weight data for liftings.

An eta quotient prod_d eta(d tau)^{r_d} is expanded exactly, in integers,
by the recurrence that its logarithmic derivative gives (see
`eta_quotient`); d may be a fraction such as 1/p, so the exponents are
rational and the result is a Puiseux series in q.  The level-2 input
function eta(tau)^-8 eta(2tau)^-8 and its image under tau -> -1/tau are
two such quotients; only the scalar of the transform is rational.  The
same module holds the arithmetic consequences used by the classification:
the weights of the liftings produced from the input function, the
dimension window coming from Riemann-Roch on the modular curve, and the
twisted Bernoulli number B_{3,psi} whose value decides whether a candidate
obstruction space is actually trivial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm

from .discforms import legendre


class PuiseuxSeries:
    """Finite q-expansion with exponents key/denom, trusted below precision.

    The coefficients are integers: every series here is a product of eta
    factors, whose expansions are integral.
    """

    def __init__(self, denom: int, coeffs: dict[int, int], precision: Fraction):
        self.denom = denom
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.precision = Fraction(precision)

    def terms(self) -> list[tuple[Fraction, int]]:
        return [(Fraction(k, self.denom), v) for k, v in sorted(self.coeffs.items())]

    def __str__(self) -> str:
        parts = []
        for e, v in self.terms():
            if e == 0:
                parts.append(f"{v}")
            else:
                parts.append(f"{v}*q^({e})")
        parts.append(f"O(q^({self.precision}))")
        return " + ".join(parts)


def eta_quotient(factors: dict, terms: int) -> PuiseuxSeries:
    """Expansion of prod_d eta(d*tau)^{r_d}; d may be a Fraction like 1/p.

    In x = q^(1/denom) the quotient is x^lead * g with
    g = prod_d prod_{n>=1} (1 - x^(s_d n))^{r_d} and s_d = d*denom.  Taking
    x g'/g gives k g_k = -sum_{j=1..k} c_j g_{k-j}, where
    c_j = sum_{s_d | j} r_d s_d sigma(j/s_d); g has integer coefficients,
    so the division is exact.  g lives on multiples of t = gcd(s_d), so
    the recurrence steps in units of t.  The expansion is known below
    sum_d r_d d/24 + terms * min(d): each factor eta(d tau)^{r_d} is taken
    to `terms` terms, factors with r_d = 0 included.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    factors = {Fraction(d): r for d, r in factors.items()}
    if not factors or min(factors) <= 0:
        raise ValueError("need at least one eta factor, each eta(d tau) with d > 0")
    denom = lcm(*(24 * d.denominator for d in factors))
    steps = {int(d * denom): r for d, r in factors.items()}
    t = reduce(gcd, steps)
    lead = sum(r * s for s, r in steps.items()) // 24
    n = terms * min(steps) // t
    sigma = [0] * n
    for a in range(1, n):
        for b in range(a, n, a):
            sigma[b] += a
    c = [0] * n
    for s, r in steps.items():
        s //= t
        for j in range(s, n, s):
            c[j] += r * s * sigma[j // s]
    support = [(j, cj) for j, cj in enumerate(c) if cj]
    g = [1] + [0] * (n - 1)
    for k in range(1, n):
        g[k] = -sum(cj * g[k - j] for j, cj in support if j <= k) // k
    coeffs = {lead + k * t: v for k, v in enumerate(g)}
    return PuiseuxSeries(denom, coeffs, Fraction(lead + terms * min(steps), denom))


def f_series(terms: int = 12) -> PuiseuxSeries:
    """The input function eta(tau)^-8 eta(2tau)^-8 = q^-1 + 8 + O(q)."""
    return eta_quotient({1: -8, 2: -8}, terms)


def s_transform(a: int, b: int, p: int, terms: int = 12):
    """Image of eta(tau)^a eta(p tau)^b under tau -> -1/tau in weight (a+b)/2.

    Returns (scalar, sqrtp_power, series) with the transform equal to
    scalar * p^(sqrtp_power/2) * series; the weight must be an even integer
    so the eighth root of unity degenerates to a sign.
    """
    if (a + b) % 2:
        raise ValueError("half-integral weight transform not supported")
    w = (a + b) // 2
    if w % 2:
        raise ValueError("odd weight would introduce a factor of i")
    sign = 1 if w % 4 == 0 else -1
    e = (-b) % 2
    scalar = Fraction(sign) * Fraction(p) ** ((-b - e) // 2)
    series = eta_quotient({1: a, Fraction(1, p): b}, terms)
    return scalar, e, series


def lift_weight(n_p: int) -> tuple[int, int]:
    """Weight and long-root multiplicity of the lifting at level 2.

    The input function produces, for each even 2 <= n_p <= 10, a reflective
    form of multiplicities (1, c2) with c2 = 2^((10 - n_p)/2) and weight
    (8 + 8 c2)/2.
    """
    if n_p not in (2, 4, 6, 8, 10):
        raise ValueError(f"no lifting for n_p = {n_p}")
    c2 = 2 ** ((10 - n_p) // 2)
    return (8 + 8 * c2) // 2, c2


def riemann_roch_window(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Exponent window [-2, (p+1)(2-n)/24] for principal parts of inputs.

    The window is empty exactly when n > 2 + 48/(p+1), which is the second
    elimination bound on the signature.
    """
    return Fraction(-2), Fraction((p + 1) * (2 - n), 24)


def window_is_empty(n: int, p: int) -> bool:
    lo, hi = riemann_roch_window(n, p)
    return hi < lo


def bernoulli_b3(x: Fraction) -> Fraction:
    x = Fraction(x)
    return x**3 - Fraction(3, 2) * x**2 + x / 2


@cache
def bernoulli_b3_psi(p: int) -> Fraction:
    """Twisted Bernoulli number B_{3,psi} for the quadratic character mod p.

    Defined for p = 3 mod 4, where the character is odd and the third
    twisted Bernoulli number is the first interesting one.  Cached per p,
    so the obstruction test reuses the value a certificate records.
    """
    if p % 4 != 3:
        raise ValueError("the quadratic character mod p is odd only for p = 3 mod 4")
    total = sum(legendre(a, p) * bernoulli_b3(Fraction(a, p)) for a in range(1, p))
    return p * p * total


def obstruction_condition_holds(p: int, k: int) -> bool:
    """Whether the rank-2 candidate at the prime p passes the Eisenstein test.

    The candidate ray survives only when (3/k)(p+1)^2 / B_{3,psi} equals 1
    exactly; the identity holds at p = 7, 11, 23 and fails at p = 19.
    """
    b = bernoulli_b3_psi(p)
    return Fraction(3, k) * (p + 1) ** 2 / b == 1
