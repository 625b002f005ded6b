"""Multiplicity identities for reflective forms on hyperbolic-plus-definite models.

All functions here see only the positive definite part K of a model
2U + K or U + U(p) + K; the hyperbolic summands contribute no roots.  For
multiplicities (c1, cp) on the two root classes and a proposed weight k,
the constraints are:

  * matrix identity: c1 * sum_{r in R1} (Gr)(Gr)^T + (cp/p^2) * sum_{s in R2}
    (Gs)(Gs)^T = 2C G for a scalar C;
  * counting identity: C = (c1 |R1| + cp |R2| + 2k) / 24 - c1;
  * singular bound: k >= (n1 c1 + (rank - n1) cp) / 2 where n1 is the rank
    of the span of R1;
  * for p >= 5 with both classes present, the same constants expressed
    through Coxeter numbers h1, h2 of the short and long subsystems.

solve_candidates inverts the per-component equations c1 alpha + cp beta = C
to find which multiplicities are admissible at all, and solve_family does
the same symbolically in the prime for one-parameter model families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import discforms, intmat, roots
from .lattices import Lattice


@dataclass
class CheckReport:
    lattice: str
    p: int
    c1: int
    cp: int
    k: int
    passed: bool
    c: Fraction
    count_short: int
    count_long: int
    span_short: int
    rank: int
    checks: dict[str, bool | None] = field(default_factory=dict)


def _root_sum_matrix(gram, vectors) -> list[list[int]]:
    """sum_v (Gv)(Gv)^T = G (sum_v v v^T) G over the given vectors, in integers.

    Roots have few nonzero coordinates, so the outer products are summed on
    the coordinates and multiplied by G once at the end.
    """
    n = len(gram)
    total = [[0] * n for _ in range(n)]
    for v in vectors:
        nonzero = [(i, x) for i, x in enumerate(v) if x]
        for i, x in nonzero:
            row = total[i]
            for j, y in nonzero:
                row[j] += x * y
    if not vectors:  # also the rank-0 case, where mat_mul has no columns to read
        return total
    return intmat.mat_mul(intmat.mat_mul(gram, total), gram)


def check_candidate(lat: Lattice, p: int, c1: int, cp: int, k: int) -> CheckReport:
    """Verify one (c1, cp, k) triple on the definite part of a model."""
    if c1 < 0 or cp < 0 or (c1 == 0 and cp == 0):
        raise ValueError("multiplicities must be nonnegative and not both zero")
    if not lat.is_positive_definite():
        raise ValueError("check_candidate expects the positive definite part of the model")
    r1, r2 = roots.reflective_roots(lat, p)
    n = lat.rank
    g = lat.gram

    # p^2 times the weighted root sum c1 S1 + (cp/p^2) S2, so it stays integral
    s1 = _root_sum_matrix(g, r1)
    s2 = _root_sum_matrix(g, r2)
    s = [[p * p * c1 * x + cp * y for x, y in zip(row1, row2)] for row1, row2 in zip(s1, s2)]

    # s = 2 C p^2 G, with 2 C p^2 = s[0][0] / g[0][0]
    c = Fraction(s[0][0], 2 * p * p * g[0][0]) if n else Fraction(0)
    matrix_ok = all(s[i][j] * g[0][0] == s[0][0] * g[i][j] for i in range(n) for j in range(n))

    counting_ok = c == Fraction(c1 * len(r1) + cp * len(r2) + 2 * k, 24) - c1

    n1 = roots.span_rank(r1)
    bound = Fraction(n1 * c1 + (n - n1) * cp, 2)
    singular_ok = Fraction(k) >= bound

    coxeter_ok: bool | None = None
    if p >= 5 and r1 and r2 and c1 > 0 and cp > 0:
        comps = roots.root_components(lat, p)
        shorts = [cc for cc in comps if cc.count_long == 0]
        longs = [cc for cc in comps if cc.count_short == 0]
        if len(shorts) + len(longs) != len(comps):
            coxeter_ok = False
        else:
            h1s = {roots.coxeter_number(cc.name) for cc in shorts}
            h2s = {roots.coxeter_number(cc.name) for cc in longs}
            if len(h1s) != 1 or len(h2s) != 1:
                coxeter_ok = False
            else:
                h1, h2 = h1s.pop(), h2s.pop()
                k_formula = c1 * (
                    12 * (h1 + 1)
                    + Fraction((p - 1) * n1 * h1, 2)
                    - Fraction(n * p * h1, 2)
                )
                coxeter_ok = (
                    c == c1 * h1
                    and c == Fraction(cp * h2, p)
                    and Fraction(k) == k_formula
                )

    checks = {
        "matrix_identity": matrix_ok,
        "counting_identity": counting_ok,
        "singular_bound": singular_ok,
        "coxeter_identity": coxeter_ok,
    }
    passed = all(v for v in checks.values() if v is not None)
    return CheckReport(
        lattice=lat.name or "",
        p=p,
        c1=c1,
        cp=cp,
        k=k,
        passed=passed,
        c=c,
        count_short=len(r1),
        count_long=len(r2),
        span_short=n1,
        rank=n,
        checks=checks,
    )


@dataclass
class SolveResult:
    status: str  # "none", "ray", or "underdetermined"
    reason: str = ""
    c1: int | None = None
    cp: int | None = None
    k: int | None = None
    c: Fraction | None = None
    k_coeffs: tuple[Fraction, Fraction] | None = None
    count_short: int = 0
    count_long: int = 0


def solve_candidates(lat: Lattice, p: int) -> SolveResult:
    """Determine all multiplicities compatible with the component equations.

    Returns a primitive ray when the equations pin (c1 : cp), coefficient
    polynomials k = k1 c1 + kp cp when every component imposes the same
    equation, and status "none" (with a reason) when no admissible positive
    solution exists.
    """
    if not lat.is_positive_definite():
        raise ValueError("solve_candidates expects the positive definite part of the model")
    comps = roots.root_components(lat, p)
    n_short = sum(cc.count_short for cc in comps)
    n_long = sum(cc.count_long for cc in comps)
    if not comps:
        return SolveResult(
            status="underdetermined",
            reason="no roots: only c1 contributes, k = 12 c1",
            k_coeffs=(Fraction(12), Fraction(0)),
        )
    if sum(cc.rank for cc in comps) < lat.rank:
        return SolveResult(
            status="none",
            reason="roots do not span the lattice",
            count_short=n_short,
            count_long=n_long,
        )
    a0, b0 = comps[0].alpha, comps[0].beta
    rows = [(cc.alpha - a0, cc.beta - b0) for cc in comps[1:]]
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        k1 = 12 * (a0 + 1) - Fraction(n_short, 2)
        kp = 12 * b0 - Fraction(n_long, 2)
        return SolveResult(
            status="underdetermined",
            reason="all components impose the same equation",
            k_coeffs=(k1, kp),
            count_short=n_short,
            count_long=n_long,
        )
    a, b = rows[0]
    x, y = b, -a
    if any(r[0] * x + r[1] * y != 0 for r in rows[1:]):
        return SolveResult(
            status="none",
            reason="component equations admit only the zero solution",
            count_short=n_short,
            count_long=n_long,
        )
    den = x.denominator * y.denominator
    xi = int(x * den)
    yi = int(y * den)
    g = gcd(xi, yi)
    xi, yi = xi // g, yi // g
    if xi < 0 or (xi == 0 and yi < 0):
        xi, yi = -xi, -yi
    if xi < 0 or yi < 0:
        return SolveResult(
            status="none",
            reason="multiplicities would have opposite signs",
            count_short=n_short,
            count_long=n_long,
        )
    c = xi * a0 + yi * b0
    k = 12 * (c + xi) - Fraction(xi * n_short + yi * n_long, 2)
    if k.denominator != 1 or k <= 0:
        return SolveResult(
            status="none",
            reason=f"forced weight {k} is not a positive integer",
            count_short=n_short,
            count_long=n_long,
        )
    return SolveResult(
        status="ray",
        c1=xi,
        cp=yi,
        k=int(k),
        c=c,
        count_short=n_short,
        count_long=n_long,
    )


@dataclass(frozen=True)
class LinPoly:
    """Affine function a + b*P of a symbolic prime P, with exact coefficients."""

    const: Fraction
    coeff: Fraction

    def __call__(self, prime: int) -> Fraction:
        return self.const + self.coeff * prime

    def __str__(self) -> str:
        return f"{self.const} + {self.coeff}*P"


@dataclass(frozen=True)
class FamilySolution:
    """Symbolic multiplicity solution for a one-parameter family of models.

    The family fixes c1 = 1, Coxeter numbers h1 (short) and h2 (long), the
    short span n1 and the total rank; the prime stays symbolic.
    """

    h1: int
    h2: int
    n1: int
    rank: int
    cp: LinPoly
    k: LinPoly
    singular_bound: LinPoly


def solve_family(h1: int, h2: int, n1: int, rank: int) -> FamilySolution:
    cp = LinPoly(Fraction(0), Fraction(h1, h2))
    k = LinPoly(
        Fraction(12 * (h1 + 1)) - Fraction(n1 * h1, 2),
        Fraction(h1 * (n1 - rank), 2),
    )
    bound = LinPoly(
        Fraction(n1, 2),
        Fraction((rank - n1) * h1, 2 * h2),
    )
    return FamilySolution(h1=h1, h2=h2, n1=n1, rank=rank, cp=cp, k=k, singular_bound=bound)


def singular_filter(family: FamilySolution) -> int | None:
    """Largest prime where the family's weight meets the singular bound.

    The difference k(P) - bound(P) is affine with negative slope for every
    family in scope, so admissibility is a cutoff in P; primes above the
    returned value are eliminated.
    """
    diff_const = family.k.const - family.singular_bound.const
    diff_coeff = family.k.coeff - family.singular_bound.coeff
    if diff_coeff >= 0:
        raise ValueError("family bound does not decrease in the prime")
    limit = diff_const / (-diff_coeff)
    p_max = int(limit)  # floor for positive rationals
    best = None
    for q in range(2, p_max + 1):
        if discforms.is_prime(q):
            best = q
    return best
