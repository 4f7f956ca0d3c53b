"""Property tests: the exact layer against sympy on random small rational matrices."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from symslice.exact import (
    RatMatrix,
    adjugate_coefficients,
    charpoly,
    inverse,
    kernel_basis,
    pfaffian,
    rank,
    solve,
    solve_unique,
)

# derandomized, so every tier-1 run draws the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, rows=None, cols=None):
    r = draw(st.integers(1, 5)) if rows is None else rows
    c = draw(st.integers(1, 5)) if cols is None else cols
    # sparse draws make rank deficiency and repeated eigenvalues common
    values = st.one_of(st.just(Fraction(0)), entries)
    return RatMatrix([[draw(values) for _ in range(c)] for _ in range(r)], cols=c)


@st.composite
def square_matrices(draw, max_n=5):
    return draw(matrices(rows=(n := draw(st.integers(1, max_n))), cols=n))


def to_sympy(m: RatMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator)
    )


def from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@SETTINGS
@given(square_matrices())
def test_charpoly_matches_sympy(m):
    t = sympy.Symbol("t")
    expected = [from_sympy(c) for c in to_sympy(m).charpoly(t).all_coeffs()]
    assert list(charpoly(m)) == expected[::-1]


@SETTINGS
@given(square_matrices())
def test_adjugate_coefficients_match_sympy(m):
    t = sympy.Symbol("t")
    n = m.rows

    def over_qq_t(x):
        return DomainMatrix.from_Matrix(x).convert_to(sympy.QQ[t])

    shifted = over_qq_t(t * sympy.eye(n) - to_sympy(m))
    adj = over_qq_t(
        sum((to_sympy(c) * t**k for k, c in enumerate(adjugate_coefficients(m))), sympy.zeros(n, n))
    )
    assert adj == shifted.adjugate()
    char = sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for k, c in enumerate(charpoly(m)))
    assert shifted * adj == over_qq_t(char * sympy.eye(n))


@SETTINGS
@given(st.integers(1, 5), st.integers(0, 5), st.integers(1, 5), st.data())
def test_product_matches_sympy(r, k, c, data):
    # k = 0 multiplies through an empty inner dimension
    a = data.draw(matrices(rows=r, cols=k))
    b = data.draw(matrices(rows=k, cols=c))
    prod = a * b
    assert prod.shape == (r, c)
    expected = to_sympy(a) * to_sympy(b)
    assert prod == RatMatrix(
        [[from_sympy(expected[i, j]) for j in range(c)] for i in range(r)], cols=c
    )


@SETTINGS
@given(matrices())
def test_rank_and_kernel_match_sympy(m):
    s = to_sympy(m)
    assert rank(m) == s.rank()
    # both take the free coordinate 1 and the other free coordinates 0
    expected = [[from_sympy(x) for x in v] for v in s.nullspace()]
    assert [[v[i, 0] for i in range(m.cols)] for v in kernel_basis(m)] == expected


@SETTINGS
@given(matrices(), st.data())
def test_solve_matches_sympy(a, data):
    if data.draw(st.booleans()):
        x0 = [data.draw(entries) for _ in range(a.cols)]
        b = [sum(a[i, j] * x0[j] for j in range(a.cols)) for i in range(a.rows)]
    else:
        b = [data.draw(entries) for _ in range(a.rows)]
    got = solve(a, b)
    try:
        sol, params = to_sympy(a).gauss_jordan_solve(
            sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in b])
        )
    except ValueError:
        assert got is None
        return
    # the particular solution with every free parameter 0
    expected = [from_sympy(x) for x in sol.subs({p: 0 for p in params})]
    assert got == expected


@st.composite
def systems(draw):
    """(a, b) for a x = b with 1 to 3 right-hand columns, half of them
    consistent by construction."""
    a = draw(matrices())
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = a * draw(matrices(rows=a.cols, cols=k))
    else:
        b = draw(matrices(rows=a.rows, cols=k))
    return a, b


@SETTINGS
@given(systems())
# a unique solution, a rank-deficient a, and an inconsistent second column
@example((RatMatrix([[1, 2], [0, 1], [1, 0]]), RatMatrix([[3, 1], [1, 0], [1, 1]])))
@example((RatMatrix([[1, 2], [2, 4], [0, 0]]), RatMatrix([[1], [2], [0]])))
@example((RatMatrix([[1, 0], [0, 1], [1, 1]]), RatMatrix([[1, 1], [1, 1], [2, 3]])))
def test_solve_unique_matches_sympy(system):
    a, b = system
    got = solve_unique(a, b)
    s = to_sympy(a)
    if s.rank() < a.cols:
        assert got is None
        return
    try:
        sol, params = s.gauss_jordan_solve(to_sympy(b))
    except ValueError:
        assert got is None
        return
    assert not params
    assert got == RatMatrix(
        [[from_sympy(sol[i, j]) for j in range(b.cols)] for i in range(a.cols)], cols=b.cols
    )


@SETTINGS
@given(square_matrices(max_n=4))
def test_inverse_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        try:
            inverse(m)
        except ValueError:
            return
        raise AssertionError("inverse of a singular matrix")
    expected = s.inv()
    assert inverse(m) == RatMatrix(
        [[from_sympy(expected[i, j]) for j in range(m.cols)] for i in range(m.rows)], cols=m.cols
    )


def _pfaffian_by_expansion(a):
    """Expansion along the first row: Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without 0, j)."""
    n = a.rows
    if n == 0:
        return sympy.Integer(1)
    total = sympy.Integer(0)
    for j in range(1, n):
        if a[0, j]:
            keep = [k for k in range(1, n) if k != j]
            total += (-1) ** (j + 1) * a[0, j] * _pfaffian_by_expansion(a.extract(keep, keep))
    return total


@SETTINGS
@given(st.sampled_from([2, 4, 6]), st.data())
def test_pfaffian_matches_sympy(n, data):
    upper = {
        (i, j): data.draw(st.one_of(st.just(Fraction(0)), entries))
        for i in range(n)
        for j in range(i + 1, n)
    }
    m = RatMatrix(
        [
            [upper[i, j] if i < j else -upper[j, i] if i > j else Fraction(0) for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )
    s = to_sympy(m)
    pf = pfaffian(m)
    assert pf == from_sympy(_pfaffian_by_expansion(s))
    assert pf * pf == from_sympy(s.det())
