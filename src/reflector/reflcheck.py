"""Multiplicity identities for reflective forms on hyperbolic-plus-definite models.

All functions here see only the positive definite part K of a model
2U + K or U + U(p) + K; the hyperbolic summands contribute no roots.  They
read the reflective root system of K from its one record, `roots.root_data`,
which is kept on K and, for a sum of catalog terms of level 1 or p, joined
from the terms: the positive roots R1+ (norm 2) and R2+ (norm 2p), giving
the root counts |R1| = 2 |R1+| and |R2| = 2 |R2+|; the components; n1, the
rank of the span of R1; the Coxeter pair; and the root sums
S1 = sum_{R1+} (Gr)(Gr)^T and S2 = sum_{R2+} (Gs)(Gs)^T, reduced to the
record's `first` entries and `relations`.  For multiplicities (c1, cp) on
the two root classes and a proposed weight k, the constraints are:

  * matrix identity: c1 S1 + (cp/p^2) S2 = C G for one scalar C.  Both
    sides are block diagonal over the blocks of the root data, so it is
    checked on every block, with C read off the first; a sum whose parts
    have different constants fails (each +- pair gives the same outer
    product, so this is half the identity over R1 and R2).  Times g00 p^2 it
    is linear in (c1 g00, cp g00, s00), where g00 and s00 = p^2 c1 S1_00 +
    cp S2_00 are the first block's top-left entries, one integer row per
    entry.  The record keeps those rows as their row Hermite form, at most
    3 rows with the same null space, so a check applies at most 3 integer
    relations.  C is not one scalar per block for T4 and T8 at p = 5, L7,
    L11 and L23 (their S1 and S2 are not multiples of G), so no scalar
    shortcut replaces the relations;
  * counting identity: C = (c1 |R1| + cp |R2| + 2k) / 24 - c1;
  * singular bound: k >= (n1 c1 + (rank - n1) cp) / 2;
  * for p >= 5 with both classes present, the same constants expressed
    through Coxeter numbers h1, h2 of the short and long subsystems:
    C = c1 h1 = cp h2 / p and k = c1 (12 (h1 + 1) + ((p - 1) n1 - rank p) h1 / 2).

A check reads the record once, so it is a few integer products and
comparisons; only the reported C is a Fraction.  It depends on nothing but
K's root data and its arguments, so its report is kept on K through
`lattices.kept`, once per (p, c1, cp, k): a table row's check, the check of
a transfer target that is the same 2U + K row, and the CLI's `check` share
one computation, and a changed weight is a new key.

solve_components inverts the per-component equations c1 alpha + cp beta = C
to find which multiplicities are admissible at all; `solve_candidates`
keeps its result on the lattice, once per (lattice, p), as a frozen
`SolveResult` that every caller shares.  family_cutoff does the same
symbolically in the prime for one-parameter model families.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple

from . import discforms, roots
from .lattices import Lattice, kept


class CheckReport(NamedTuple):
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
    checks: dict[str, bool | None]


def check_multiplicities(c1: int, cp: int) -> None:
    if c1 < 0 or cp < 0 or (c1 == 0 and cp == 0):
        raise ValueError("multiplicities must be nonnegative and not both zero")


@kept
def check_candidate(lat: Lattice, p: int, c1: int, cp: int, k: int) -> CheckReport:
    """Verify one (c1, cp, k) triple on the definite part of a model, in integers;
    kept on lat once per (p, c1, cp, k), and a call that raises keeps nothing."""
    check_multiplicities(c1, cp)
    if not lat.is_positive_definite():
        raise ValueError("check_candidate expects the positive definite part of the model")
    short, long_, _, n1, first, relations, coxeter = roots.root_data(lat, p)
    n_short, n_long, n = 2 * short, 2 * long_, lat.rank

    # s = p^2 c1 S1 + cp S2 = C p^2 G on every block, with C p^2 = s00 / g00 read
    # off the first; g00 s - s00 G = 0 is the relations applied to (c1 g00, cp g00, s00)
    g00, s1_00, s2_00 = first
    s00 = p * p * c1 * s1_00 + cp * s2_00
    matrix_ok = all(a * c1 * g00 + b * cp * g00 + d * s00 == 0 for a, b, d in relations)

    # C = s00 / (p^2 g00) against (c1 |R1| + cp |R2| + 2k) / 24 - c1
    counting_ok = 24 * s00 == p * p * g00 * (c1 * n_short + cp * n_long + 2 * k - 24 * c1)

    singular_ok = 2 * k >= n1 * c1 + (n - n1) * cp

    # C = c1 h1 = cp h2 / p and k = c1 (12 (h1 + 1) + ((p - 1) n1 - n p) h1 / 2)
    coxeter_ok: bool | None = None
    if p >= 5 and n_short and n_long and c1 > 0 and cp > 0:
        coxeter_ok = coxeter is not None
        if coxeter_ok:
            h1, h2 = coxeter
            coxeter_ok = (
                s00 == p * p * g00 * c1 * h1
                and s00 == p * g00 * cp * h2
                and 2 * k == c1 * (24 * (h1 + 1) + ((p - 1) * n1 - n * p) * h1)
            )

    checks = {
        "matrix_identity": matrix_ok,
        "counting_identity": counting_ok,
        "singular_bound": singular_ok,
        "coxeter_identity": coxeter_ok,
    }
    passed = all(v for v in checks.values() if v is not None)
    # by position, in the order of the fields: keywords take twice as long to bind
    return CheckReport(lat.name or "", p, c1, cp, k, passed, Fraction(s00, p * p * g00),
                       n_short, n_long, n1, n, checks)


class SolveResult(NamedTuple):
    status: str  # "none", "ray", or "underdetermined"
    reason: str = ""
    c1: int | None = None
    cp: int | None = None
    k: int | None = None
    c: Fraction | None = None
    k_coeffs: tuple[Fraction, Fraction] | None = None
    count_short: int = 0
    count_long: int = 0


@kept
def solve_candidates(lat: Lattice, p: int) -> SolveResult:
    """`solve_components` on the root components of a positive definite lattice,
    computed once per (lattice, p) and kept on lat; a lattice that is not definite
    keeps nothing and raises at every call."""
    if not lat.is_positive_definite():
        raise ValueError("solve_candidates expects the positive definite part of the model")
    return solve_components(roots.root_data(lat, p).components, lat.rank)


def solve_components(comps: Sequence[roots.RootComponent], rank: int) -> SolveResult:
    """Determine all multiplicities compatible with the component equations.

    `comps` are the root components of a positive definite lattice of the
    given rank.  Returns a primitive ray when the equations pin (c1 : cp),
    coefficient polynomials k = k1 c1 + kp cp when every component imposes
    the same equation, and status "none" (with a reason) when no admissible
    positive solution exists.
    """
    n_short = sum(cc.count_short for cc in comps)
    n_long = sum(cc.count_long for cc in comps)
    if not comps:
        return SolveResult(
            status="underdetermined",
            reason="no roots: only c1 contributes, k = 12 c1",
            k_coeffs=(Fraction(12), Fraction(0)),
        )
    if sum(cc.rank for cc in comps) < rank:
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


@cache
def family_cutoff(h1: int, h2: int, n1: int, rank: int) -> int | None:
    """Largest prime where a one-parameter family of models meets the singular bound.

    The family fixes c1 = 1, the Coxeter numbers h1 (short) and h2 (long),
    the short span n1 and the rank, and leaves the prime P symbolic.  Then
    cp = (h1/h2) P, the weight is k(P) = 12 (h1 + 1) - n1 h1/2 + h1 (n1 - rank) P/2
    and the singular bound is (n1 + (rank - n1) cp)/2, so k(P) - bound(P) is
    affine in P.  Its slope is negative for every family in scope, so the
    family survives exactly up to the root; primes above the returned value
    are eliminated.
    """
    const = 12 * (h1 + 1) - Fraction(n1 * (h1 + 1), 2)
    slope = Fraction(h1 * (n1 - rank) * (h2 + 1), 2 * h2)
    if slope >= 0:
        raise ValueError("family bound does not decrease in the prime")
    return next((q for q in range(const // -slope, 1, -1) if discforms.is_prime(q)), None)
