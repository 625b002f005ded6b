"""Eta quotients, their cusp expansions, and weight data for liftings.

The level-2 input function eta(tau)^-8 eta(2tau)^-8 and its image under
tau -> -1/tau are expanded exactly as Puiseux series in q with integer
coefficients and rational exponents; only the scalar of the transform is
rational.  The same module holds the arithmetic consequences used by the
classification: the weights of the liftings produced from the input
function, the dimension window coming from Riemann-Roch on the modular
curve, and the twisted Bernoulli number B_{3,psi} whose value decides
whether a candidate obstruction space is actually trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .discforms import legendre


@dataclass
class PuiseuxSeries:
    """Finite q-expansion with exponents key/denom, trusted below precision.

    The coefficients are integers: every series here is a product of eta
    factors, whose expansions are integral.
    """

    denom: int
    coeffs: dict[int, int]
    precision: Fraction

    def __post_init__(self) -> None:
        self.coeffs = {k: v for k, v in self.coeffs.items() if v}
        self.precision = Fraction(self.precision)

    def leading_exponent(self) -> Fraction:
        if not self.coeffs:
            return self.precision
        return Fraction(min(self.coeffs), self.denom)

    def terms(self) -> list[tuple[Fraction, int]]:
        return [(Fraction(k, self.denom), v) for k, v in sorted(self.coeffs.items())]

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        d = lcm(self.denom, other.denom)
        s1 = d // self.denom
        s2 = d // other.denom
        prec = min(
            self.precision + other.leading_exponent(),
            other.precision + self.leading_exponent(),
        )
        out: dict[int, int] = {}
        cut = -(-prec * d // 1)  # the integer ceiling: key < prec*d iff key < cut
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = k1 * s1 + k2 * s2
                if key < cut:
                    out[key] = out.get(key, 0) + v1 * v2
        return PuiseuxSeries(d, out, prec)

    def __str__(self) -> str:
        parts = []
        for e, v in self.terms():
            if e == 0:
                parts.append(f"{v}")
            else:
                parts.append(f"{v}*q^({e})")
        parts.append(f"O(q^({self.precision}))")
        return " + ".join(parts)


def euler_factor_coeffs(r: int, terms: int) -> list[int]:
    """Coefficients of prod_n (1 - x^n)^r up to x^(terms-1).

    The base product phi is Euler's pentagonal series, whose constant term
    is 1, so its inverse and all powers have integer coefficients.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    phi = [1] + [0] * (terms - 1)
    k = 1
    while (k * (3 * k - 1)) // 2 < terms:
        sign = -1 if k % 2 else 1
        phi[(k * (3 * k - 1)) // 2] += sign
        e2 = (k * (3 * k + 1)) // 2
        if e2 < terms:
            phi[e2] += sign
        k += 1

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * terms
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j >= terms:
                        break
                    if y:
                        out[i + j] += x * y
        return out

    def inverse(a: list[int]) -> list[int]:
        """Inverse of a series with a[0] = 1: inv[n] = -sum_{j>=1} a[j] inv[n-j]."""
        support = [(j, c) for j, c in enumerate(a) if j and c]
        inv = [1] + [0] * (terms - 1)
        for n in range(1, terms):
            inv[n] = -sum(c * inv[n - j] for j, c in support if j <= n)
        return inv

    base = phi if r >= 0 else inverse(phi)
    e = abs(r)
    result = [1] + [0] * (terms - 1)
    acc = base
    while e:
        if e & 1:
            result = mul(result, acc)
        e >>= 1
        if e:
            acc = mul(acc, acc)
    return result


def eta_quotient(factors: dict, terms: int) -> PuiseuxSeries:
    """Expansion of prod_d eta(d*tau)^{r_d}; d may be a Fraction like 1/p."""
    denom = 24
    for d in factors:
        denom = lcm(denom, 24 * Fraction(d).denominator)
    series = PuiseuxSeries(denom, {0: 1}, Fraction(10**9))
    for d, r in sorted(factors.items(), key=lambda t: Fraction(t[0])):
        d = Fraction(d)
        # q^(n d + r d/24) sits at key n*step + offset; denom makes both integral
        step, offset = d * denom, r * d * denom / 24
        assert step.denominator == offset.denominator == 1
        coeffs = euler_factor_coeffs(r, terms)
        fac = {n * int(step) + int(offset): v for n, v in enumerate(coeffs)}
        series = series * PuiseuxSeries(denom, fac, terms * d + r * d / 24)
    return series


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
