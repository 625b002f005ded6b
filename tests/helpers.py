"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: vector
counts and lists come from a flat coordinate-box sweep in numpy integer
arithmetic, power series come from naive polynomial products, Bernoulli
numbers come from the Akiyama-Tanigawa scheme, values of a discriminant form
come from one Fraction product per element, and vanishing at a root of unity
comes from long division by the cyclotomic polynomial.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import isqrt

import numpy as np


def _box_sweep(gram: list[list[int]], max_norm: int):
    """Yield (left, right, norms) blocks covering every vector of norm <= max_norm.

    The coordinate box comes from the dual-diagonal bound: if G is positive
    definite and x'Gx <= t, then x_i^2 <= t * (G^{-1})_{ii}.  The sweep splits
    the coordinates into two halves and broadcasts the cross terms, so the
    only arithmetic is exact int64 matrix multiplication; norms[i, j] is the
    norm of the vector left[i] followed by right[j].
    """
    n = len(gram)
    g = np.array(gram, dtype=np.int64)
    inv_diag = np.diag(np.linalg.inv(np.array(gram, dtype=float)))
    bounds = [isqrt(int(max_norm * d) + 1) + 1 for d in inv_diag]
    half = n // 2
    left = _box_vectors(bounds[:half])
    right = _box_vectors(bounds[half:])
    a = g[:half, :half]
    b = g[:half, half:]
    c = g[half:, half:]
    norm_right = np.einsum("ij,jk,ik->i", right, c, right)
    chunk = max(1, (1 << 22) // max(1, len(right)))
    for start in range(0, len(left), chunk):
        piece = left[start : start + chunk]
        norm_left = np.einsum("ij,jk,ik->i", piece, a, piece)
        cross = piece @ b @ right.T
        yield piece, right, norm_left[:, None] + 2 * cross + norm_right[None, :]


def box_count_norm(gram: list[list[int]], target: int) -> int:
    """Count integer vectors of squared norm ``target`` by brute box sweep."""
    return sum(int(np.count_nonzero(norms == target)) for _, _, norms in _box_sweep(gram, target))


def box_vectors_by_norm(gram: list[list[int]], max_norm: int) -> dict[int, list[list[int]]]:
    """All nonzero vectors of norm <= max_norm, both signs, sorted, keyed by norm."""
    out: dict[int, list[list[int]]] = {}
    for left, right, norms in _box_sweep(gram, max_norm):
        for i, j in zip(*np.nonzero((norms > 0) & (norms <= max_norm))):
            vec = [int(x) for x in left[i]] + [int(x) for x in right[j]]
            out.setdefault(int(norms[i, j]), []).append(vec)
    return {norm: sorted(out[norm]) for norm in sorted(out)}


def _box_vectors(bounds: list[int]) -> np.ndarray:
    """All integer vectors with |x_i| <= bounds[i], as an int64 array."""
    if not bounds:
        return np.zeros((1, 0), dtype=np.int64)
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer polynomials truncated to n coefficients."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def euler_product_naive(power: int, n: int) -> list[Fraction]:
    """Coefficients of prod_{m>=1} (1 - q^m)^power by direct expansion.

    Negative powers go through the geometric series of each factor, so the
    whole thing stays a finite polynomial product up to order n.
    """
    series = [1] + [0] * (n - 1)
    for m in range(1, n):
        if power >= 0:
            factor = [0] * n
            factor[0] = 1
            if m < n:
                factor[m] = -1
            block = [1] + [0] * (n - 1)
            for _ in range(power):
                block = poly_mul(block, factor, n)
        else:
            inv = [0] * n
            for j in range(0, n, m):
                inv[j] = 1
            block = [1] + [0] * (n - 1)
            for _ in range(-power):
                block = poly_mul(block, inv, n)
        series = poly_mul(series, block, n)
    return [Fraction(c) for c in series]


def bernoulli_numbers(count: int) -> list[Fraction]:
    """First Bernoulli numbers (B_1 = -1/2) via the Akiyama-Tanigawa scheme."""
    out: list[Fraction] = []
    row: list[Fraction] = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    signed = list(out)
    if count > 1:
        signed[1] = -signed[1]
    return signed


def bernoulli_poly_3(x: Fraction) -> Fraction:
    """Third Bernoulli polynomial evaluated at x, built from B_0..B_3."""
    b = bernoulli_numbers(4)
    from math import comb

    return sum(
        Fraction(comb(3, k)) * b[k] * x ** (3 - k) for k in range(4)
    )


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def q_values(orders: tuple[int, ...], bilinear) -> Counter:
    """Multiset of q(x) = x^T B x mod 2 over all elements, one Fraction sum each."""
    k = len(orders)
    out: Counter = Counter()
    for x in itertools.product(*(range(o) for o in orders)):
        q = sum(Fraction(bilinear[i][j]) * x[i] * x[j] for i in range(k) for j in range(k))
        out[q % 2] += 1
    return out


def gauss_exponents(orders: tuple[int, ...], bilinear, m: int) -> list[int]:
    """vec[e] = number of elements with q(x) m / 2 = e mod m."""
    vec = [0] * m
    for q, count in q_values(orders, bilinear).items():
        e = q * m / 2
        assert e.denominator == 1
        vec[int(e) % m] += count
    return vec


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder by a monic integer polynomial (low degree first)."""
    assert b and b[-1] == 1
    rem = a[:]
    deg_b = len(b) - 1
    quot = [0] * max(1, len(a) - deg_b)
    for i in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[i]
        if c:
            quot[i - deg_b] = c
            for j, y in enumerate(b):
                rem[i - deg_b + j] -= c * y
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _mobius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial, as prod_{d | m} (x^d - 1)^mu(m/d)."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d == 0 and _mobius(m // d):
            factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            if _mobius(m // d) == 1:
                num = _poly_mul(num, factor)
            else:
                den = _poly_mul(den, factor)
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot
