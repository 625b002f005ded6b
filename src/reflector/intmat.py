"""Exact integer and rational matrix arithmetic.

Everything in this package reduces to linear algebra over Z and Q, and all of
it must be reproducible bit for bit, so matrices are plain lists of lists of
int or Fraction and every routine here is exact.  The module provides the
normal forms (Smith, Hermite), congruence diagonalization, and, by
fraction-free Bareiss elimination on integer matrices, determinants, ranks,
inverses (integer adjugate over integer determinant), the integer-scaled
LDL split that drives the short-vector enumerator, and the inertia of a
symmetric integer matrix (symmetric elimination by congruence).  Rationals
appear only where the answer is rational: the entries of an inverse, the
congruence diagonalization with its p-adic pivots (the Jordan route of the
genus symbol) and the valuations of those pivots.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]
FracMatrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    bt = transpose(b)
    return [[sum(a[i][t] * bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def scalar_mul(c, a):
    return [[c * x for x in row] for row in a]


def frac_matrix(a) -> FracMatrix:
    return [[Fraction(x) for x in row] for row in a]


def int_matrix(a) -> Matrix:
    """Cast a rational matrix with integer entries back to int, or raise."""
    out = []
    for row in a:
        new = []
        for x in row:
            if not isinstance(x, int):
                f = Fraction(x)
                if f.denominator != 1:
                    raise ValueError(f"entry {x} is not an integer")
                x = f.numerator
            new.append(x)
        out.append(new)
    return out


def is_integral(a) -> bool:
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def _bareiss(a: Matrix, pivot_cols: int, full: bool = False) -> tuple[Matrix, int, int]:
    """Fraction-free elimination (Bareiss) on a copy of an integer matrix.

    Pivots are taken in the first `pivot_cols` columns, one per row, with a
    row swap where the diagonal entry vanishes; a column without a pivot is
    skipped.  After each step every live entry is a minor of the input, so
    the division by the previous pivot is exact.  With `full`, rows above
    the pivot are cleared too (Gauss-Jordan), which leaves the last pivot on
    the whole diagonal.  Returns (matrix, rank, sign of the row permutation).
    """
    m = [list(row) for row in a]
    rows = len(m)
    rank, prev, sign = 0, 1, 1
    for col in range(pivot_cols):
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        piv = top[col]
        for r in range(0 if full else rank + 1, rows):
            if r == rank:
                continue
            row = m[r]
            f = row[col]
            if f:
                m[r] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif prev != 1 or piv != 1:
                m[r] = [piv * x // prev for x in row]
        prev = piv
        rank += 1
    return m, rank, sign


def determinant(a: Matrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m, rank, sign = _bareiss(a, n)
    return sign * m[n - 1][n - 1] if rank == n else 0


def invert(a: Matrix) -> FracMatrix:
    """Exact inverse adj(a) / det(a) of an integer matrix; raises on singular input.

    Fraction-free Gauss-Jordan on [a | I] ends at [det I | adj], up to the
    sign of the row swaps, so the only rational step is the final division.
    """
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, rank, _ = _bareiss(aug, n, full=True)
    if rank < n:
        raise ValueError("matrix is singular")
    det = m[n - 1][n - 1] if n else 1
    return [[Fraction(x, det) for x in row[n:]] for row in m]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (u, d, v) with u*a*v = d diagonal, u and v unimodular.

    The diagonal entries are nonnegative and each divides the next.
    """
    m, n = len(a), len(a[0])
    d = copy_matrix(a)
    u = identity(m)
    v = identity(n)

    def row_op(i, j, c):  # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col i += c * col j
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # choose the smallest nonzero entry of the trailing block as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] % d[t][t] != 0:
                dirty = True
            row_op(i, t, -(d[i][t] // d[t][t]))
        for j in range(t + 1, n):
            if d[t][j] % d[t][t] != 0:
                dirty = True
            col_op(j, t, -(d[t][j] // d[t][t]))
        if dirty and (any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n))):
            continue
        # pivot must divide the whole trailing block for the divisibility chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def row_hermite_form(a: Matrix) -> Matrix:
    """Row-style Hermite normal form with zero rows dropped.

    The returned rows are a canonical basis (over Z) of the row space of the
    input: echelon shape, positive pivots, entries above each pivot reduced
    into [0, pivot).
    """
    rows = [row[:] for row in a if any(row)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(rows[i][c]))
            base = live[0]
            for i in live[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[base])]
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        rows[r], rows[live[0]] = rows[live[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for j in range(r):
            q = rows[j][c] // rows[r][c]
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], rows[r])]
        r += 1
    rows = [row for row in rows[:r] if any(row)]
    return rows


def p_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def congruent_diagonal(g, p: int | None = None) -> tuple[FracMatrix, list[Fraction]]:
    """Diagonalize a symmetric rational matrix by congruence: b*g*bt = diag.

    Returns (b, diag).  With p set, pivots are chosen with minimal p-adic
    valuation, which keeps the transform p-integral and makes the diagonal a
    valid p-adic Jordan splitting for odd p.
    """
    n = len(g)
    m = frac_matrix(g)
    b = frac_matrix(identity(n))

    def apply_row(i, j, c):  # row i += c row j, and same on columns, and on b
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[i] += c * row[j]
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        b[i], b[j] = b[j], b[i]

    for t in range(n):
        entries = [(i, j) for i in range(t, n) for j in range(t, i + 1) if m[i][j] != 0]
        if not entries:
            break
        if p is None:
            key = lambda ij: (ij[0] != ij[1], abs(m[ij[0]][ij[1]]))
        else:
            key = lambda ij: (p_valuation(m[ij[0]][ij[1]], p), ij[0] != ij[1])
        i, j = min(entries, key=key)
        if i != j:
            # pull the off-diagonal pivot onto the diagonal first
            apply_row(i, j, 1)
            if m[i][i] == 0:
                raise ArithmeticError("could not realize pivot on the diagonal")
        if i != t:
            swap(t, i)
        for r in range(t + 1, n):
            if m[r][t] != 0:
                apply_row(r, t, -m[r][t] / m[t][t])
    diag = [m[i][i] for i in range(n)]
    return b, diag


def signature(g: Matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero count) of a symmetric integer matrix.

    Symmetric elimination by congruence in integers.  A step on the pivot a
    scales each remaining row and column by a instead of dividing by it,
    which keeps their signs by Sylvester's law of inertia, and then divides
    the remaining block by the previous pivot: that division is exact
    (Bareiss), every live entry being a minor of the input, and flips the
    signs of the block exactly when the previous pivot is negative, so the
    pivot of the true Schur complement has the sign of a times the previous
    pivot.  When the live diagonal vanishes but the block does not, adding
    row and column j to row and column i puts 2 g_ij on the diagonal.
    """
    m = [list(row) for row in g]
    live = list(range(len(m)))
    prev, pos, neg = 1, 0, 0
    while live:
        t = next((i for i in live if m[i][i]), None)
        if t is None:
            pair = next(((i, j) for i in live for j in live if i < j and m[i][j]), None)
            if pair is None:
                break
            t, j = pair
            for k in live:
                m[t][k] += m[j][k]
            for k in live:
                m[k][t] += m[k][j]
        a = m[t][t]
        if (a > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        live.remove(t)
        top = m[t]
        for r in live:
            row = m[r]
            f = row[t]
            for s in live:
                row[s] = (a * row[s] - f * top[s]) // prev
        prev = a
    return pos, neg, len(m) - pos - neg


def matrix_rank(a: Matrix) -> int:
    """Rank over Q of an integer matrix, by Bareiss elimination."""
    if not a:
        return 0
    return _bareiss(a, len(a[0]))[1]


def scaled_ldl(g: Matrix) -> tuple[list[int], Matrix]:
    """Integer data of the LDL split of a positive definite integer matrix.

    Symmetric Bareiss elimination without pivoting.  Returns (minors, m):
    minors[i] is the leading principal minor of size i + 1, and m[i][j] for
    j > i is minors[i] * l[i][j] in the notation of `ldl_decomposition`.
    Raises ValueError when g is not positive definite, which by Sylvester's
    criterion is when some leading minor is not positive.
    """
    n = len(g)
    m = [list(row) for row in g]
    prev = 1
    for k in range(n):
        top = m[k]
        piv = top[k]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(k + 1, n):
            row = m[i]
            f = top[i]
            for j in range(i, n):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
    return [m[i][i] for i in range(n)], m


def ldl_decomposition(g: Matrix) -> tuple[list[Fraction], FracMatrix]:
    """Split a positive definite symmetric matrix as sum-of-squares data.

    Returns (d, l) such that  x^t g x = sum_i d[i] * (x_i + sum_{j>i} l[i][j] x_j)^2,
    read off `scaled_ldl`: d[i] is a ratio of consecutive leading minors.
    Raises ValueError when g is not positive definite.
    """
    n = len(g)
    minors, m = scaled_ldl(g)
    dets = [1] + minors
    d = [Fraction(dets[i + 1], dets[i]) for i in range(n)]
    l = [[Fraction(m[i][j], dets[i + 1]) if j > i else Fraction(0) for j in range(n)]
         for i in range(n)]
    return d, l
