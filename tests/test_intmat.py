"""Exact integer matrix kernel: normal forms, inverses, and diagonalization."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reflector import intmat


def square_int_matrices(n_max: int = 4, entry: int = 6):
    """Strategy producing small square integer matrices."""
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-entry, entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def symmetric_from(a: list[list[int]]) -> list[list[int]]:
    """Symmetrize a square matrix as a + a^T, which is always even on the diagonal."""
    n = len(a)
    return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


def test_smith_normal_form_diagonal_and_transforms():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = intmat.smith_normal_form(a)
    prod = intmat.mat_mul(intmat.mat_mul(u, a), v)
    assert prod == d
    assert d[0][0] == 2 and d[1][1] == 2 and abs(d[2][2]) == 156
    assert abs(round(intmat.determinant(u))) == 1
    assert abs(round(intmat.determinant(v))) == 1


@settings(max_examples=60, deadline=None)
@given(square_int_matrices())
def test_smith_normal_form_properties(a):
    """u a v is diagonal with a divisibility chain and unimodular transforms."""
    u, d, v = intmat.smith_normal_form(a)
    assert intmat.mat_mul(intmat.mat_mul(u, a), v) == d
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(n)]
    for i in range(n - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    assert abs(round(intmat.determinant(u))) == 1
    assert abs(round(intmat.determinant(v))) == 1


@settings(max_examples=60, deadline=None)
@given(square_int_matrices())
def test_hermite_form_is_canonical(a):
    """Row-reducing twice changes nothing, and unimodular row mixes do not either."""
    h = intmat.row_hermite_form(a)
    assert intmat.row_hermite_form(h) == h
    mixed = [list(row) for row in a]
    if len(mixed) >= 2:
        mixed[0] = [x + 3 * y for x, y in zip(mixed[0], mixed[1])]
    assert intmat.row_hermite_form(mixed) == h


@settings(max_examples=60, deadline=None)
@given(square_int_matrices())
def test_determinant_matches_smith_diagonal(a):
    _, d, _ = intmat.smith_normal_form(a)
    prod = Fraction(1)
    for i in range(len(a)):
        prod *= d[i][i]
    assert abs(intmat.determinant(a)) == abs(prod)


@settings(max_examples=40, deadline=None)
@given(square_int_matrices(n_max=4, entry=4))
def test_invert_gives_exact_inverse(a):
    det = intmat.determinant(a)
    if det == 0:
        return
    inv = intmat.invert(a)
    prod = intmat.mat_mul(a, inv)
    assert prod == [
        [Fraction(1) if i == j else Fraction(0) for j in range(len(a))]
        for i in range(len(a))
    ]


@settings(max_examples=40, deadline=None)
@given(square_int_matrices(n_max=4, entry=4))
def test_congruent_diagonal_is_congruent(a):
    """The rational congruence r g r^T really diagonalizes the symmetrized input."""
    g = symmetric_from(a)
    r, diag = intmat.congruent_diagonal(g)
    rg = intmat.mat_mul(r, intmat.frac_matrix(g))
    rgr = intmat.mat_mul(rg, intmat.transpose(r))
    for i in range(len(g)):
        for j in range(len(g)):
            expect = diag[i] if i == j else Fraction(0)
            assert rgr[i][j] == expect


@settings(max_examples=40, deadline=None)
@given(square_int_matrices(n_max=4, entry=4))
def test_signature_counts_match_rank(a):
    g = symmetric_from(a)
    pos, neg, zero = intmat.signature(g)
    assert pos + neg + zero == len(g)
    assert pos + neg == intmat.matrix_rank(g)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
def test_rank_of_rectangular_matrices_matches_smith(a):
    """Rank over Q is the number of nonzero Smith invariants, for any shape."""
    _, d, _ = intmat.smith_normal_form(a)
    nonzero = sum(1 for i in range(min(len(a), len(a[0]))) if d[i][i])
    assert intmat.matrix_rank(a) == nonzero


@st.composite
def symmetric_int_matrices(draw, n_max: int = 8):
    """B^T D B for k <= n rows B and a diagonal D of mixed signs: singular when
    k < n or D has zeros, indefinite when D has both signs; half the draws
    get a zero diagonal, which needs an off-diagonal pivot."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(0, n))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))
    d = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    g = [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    return g


@settings(max_examples=150, deadline=None)
@given(symmetric_int_matrices())
def test_integer_signature_matches_rational_congruence(g):
    """The integer inertia equals the sign count of the Fraction congruence diagonal."""
    _, diag = intmat.congruent_diagonal(g)
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    assert intmat.signature(g) == (pos, neg, len(g) - pos - neg)


def test_signature_on_known_forms():
    assert intmat.signature([[2, -1], [-1, 2]]) == (2, 0, 0)
    assert intmat.signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert intmat.signature([[0, 0], [0, -2]]) == (0, 1, 1)


def test_ldl_reproduces_positive_definite_gram():
    """The sum-of-squares data d, l satisfies x^t g x = sum d_i (x_i + sum l_ij x_j)^2."""
    g = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    diag, lin = intmat.ldl_decomposition(g)
    assert all(d > 0 for d in diag)
    n = len(g)
    for x in ([1, 0, 0], [1, 1, 0], [2, -1, 3], [0, 1, 1]):
        forms = [
            x[i] + sum(lin[i][j] * x[j] for j in range(i + 1, n))
            for i in range(n)
        ]
        assert sum(diag[i] * forms[i] ** 2 for i in range(n)) == intmat.vec_dot(
            x, intmat.mat_vec(g, x)
        )


def test_ldl_rejects_indefinite_input():
    g = [[0, 1], [1, 0]]
    try:
        intmat.ldl_decomposition(g)
    except ValueError:
        pass
    else:
        raise AssertionError("hyperbolic plane accepted as positive definite")
