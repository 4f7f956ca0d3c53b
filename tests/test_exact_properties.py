"""Property tests: the exact layer against sympy on random small rational matrices."""

import math
from fractions import Fraction
from itertools import chain, islice
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import reference
from reference import hstack, vec, vstack
from symslice.exact import (
    MAX_DIGITS,
    _forward,
    RatMatrix,
    bareiss_det,
    block_diag,
    charpoly,
    faddeev_leverrier,
    hessenberg_charpoly,
    integer_rows,
    inverse,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    pfaffian,
    rank,
    solve,
    solve_unique,
    spans_equal,
)
from symslice.matspace import cayley
from symslice.pairs import make_pair
from symslice.slice import _leading, _split_charpoly

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
def sparse_matrices(draw, rows=None, cols=None):
    """Up to 24 x 24 with at most 15 % of the entries nonzero, as sparse
    as the ad systems of the slice construction."""
    r = draw(st.integers(1, 24)) if rows is None else rows
    c = draw(st.integers(1, 24)) if cols is None else cols
    k = draw(st.integers(0, 15 * r * c // 100))
    cells = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))
    m = [[0] * c for _ in range(r)]
    for i, j in draw(st.sets(cells, min_size=k, max_size=k)):
        m[i][j] = draw(entries.filter(bool))
    return RatMatrix(m, cols=c)


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


def assert_lowest_terms(m: RatMatrix):
    """Integer rows over one positive denominator prime to all of them."""
    num, den = integer_rows(m)
    assert type(den) is int and den > 0
    assert len(num) == m.rows and all(len(row) == m.cols for row in num)
    assert all(type(x) is int for x in chain.from_iterable(num))
    assert math.gcd(den, *chain.from_iterable(num)) == 1


def assert_entries_match(m: RatMatrix, s: sympy.Matrix):
    """row(i) and m[i, j] are Fractions equal to the sympy entries."""
    assert m.shape == s.shape
    for i in range(m.rows):
        expected = tuple(from_sympy(s[i, j]) for j in range(m.cols))
        assert all(type(x) is Fraction for x in m.row(i))
        assert m.row(i) == expected
        assert all(type(m[i, j]) is Fraction for j in range(m.cols))
        assert [m[i, j] for j in range(m.cols)] == list(expected)


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_operations_stay_in_lowest_terms(r, c, k, data):
    a = data.draw(matrices(rows=r, cols=c))
    b = data.draw(matrices(rows=r, cols=c))
    w = data.draw(matrices(rows=c, cols=k))
    x = data.draw(st.one_of(st.just(Fraction(0)), entries, st.integers(-3, 3)))
    r0, r1 = sorted(data.draw(st.integers(0, r)) for _ in range(2))
    c0, c1 = sorted(data.draw(st.integers(0, c)) for _ in range(2))
    sa, sb, sw = to_sympy(a), to_sympy(b), to_sympy(w)
    sx = sympy.Rational(x.numerator, x.denominator)
    results = [
        (a + b, sa + sb),
        (a - b, sa - sb),
        (-a, -sa),
        (x * a, sx * sa),
        (a * x, sa * sx),
        (a * w, sa * sw),
        (a.transpose(), sa.T),
        (a.submatrix(r0, r1, c0, c1), sa[r0:r1, c0:c1]),
        (hstack([a, b]), sympy.Matrix.hstack(sa, sb)),
        (vstack([a, b]), sympy.Matrix.vstack(sa, sb)),
        (
            block_diag(a, w),
            sympy.Matrix.vstack(
                sympy.Matrix.hstack(sa, sympy.zeros(r, k)),
                sympy.Matrix.hstack(sympy.zeros(c, c), sw),
            ),
        ),
    ]
    for got, expected in results:
        assert_lowest_terms(got)
        assert_entries_match(got, expected)


@SETTINGS
@given(matrices())
def test_equal_matrices_built_by_different_routes_are_equal(m):
    rows = [list(m.row(i)) for i in range(m.rows)]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * 2 * d) for x in row] for row in rows]
    routes = [
        RatMatrix(rows, cols=m.cols),
        RatMatrix([[str(x) for x in row] for row in rows], cols=m.cols),
        # the int rows of 2 d m over 2 d, and over -2 d with the signs flipped
        RatMatrix.from_ints(scaled, cols=m.cols, den=2 * d),
        RatMatrix.from_ints([[-x for x in row] for row in scaled], cols=m.cols, den=-2 * d),
        m * RatMatrix.identity(m.cols),
        (2 * m) * (Fraction(1, 2) * RatMatrix.identity(m.cols)),
        (m + m) - m,
    ]
    if d == 1:
        routes.append(RatMatrix([[int(x) for x in row] for row in rows], cols=m.cols))
    for other in routes:
        assert_lowest_terms(other)
        assert other == m
        assert hash(other) == hash(m)
    assert RatMatrix.zeros(2, 3) == 0 * RatMatrix([[1, 2, 3], [4, 5, 6]])
    assert integer_rows(RatMatrix.zeros(2, 3))[1] == 1


@SETTINGS
@given(square_matrices())
def test_charpoly_matches_sympy(m):
    t = sympy.Symbol("t")
    expected = [from_sympy(c) for c in to_sympy(m).charpoly(t).all_coeffs()]
    assert list(charpoly(m)) == expected[::-1]


def sympy_adjugate_steps(m: RatMatrix) -> list[RatMatrix]:
    """M_1, ..., M_n with adj(tI - m) = sum_k t^(n-k) M_k, from sympy's adjugate."""
    t, n = sympy.Symbol("t"), m.rows
    shifted = DomainMatrix.from_Matrix(t * sympy.eye(n) - to_sympy(m)).convert_to(sympy.QQ[t])
    adj = [[sympy.Poly(x, t) for x in row] for row in shifted.adjugate().to_Matrix().tolist()]
    return [
        RatMatrix([[from_sympy(x.coeff_monomial(t ** (n - k))) for x in row] for row in adj])
        for k in range(1, n + 1)
    ]


@SETTINGS
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_faddeev_leverrier_steps_are_the_leading_coefficients(rows):
    # a caller that stops after k steps has c_(n-1), ..., c_(n-k) of charpoly
    # and M_1, ..., M_k of sympy's adj(tI - m); the rows are not mutated
    n = len(rows)
    m = RatMatrix(rows, cols=n)
    copy = [row[:] for row in rows]
    cs, adj = charpoly(m), sympy_adjugate_steps(m) if n else []
    for k in range(n + 1):
        steps = list(islice(faddeev_leverrier(rows), k))
        assert [c for c, _ in steps] == [cs[n - j] for j in range(1, k + 1)]
        assert [RatMatrix(mk) for _, mk in steps] == adj[:k]
    assert len(list(faddeev_leverrier(rows))) == n
    assert rows == copy


@st.composite
def shaped_rows(draw):
    """(kind, rows): square integer rows up to 8 x 8, upper Hessenberg
    with some zero subdiagonal entries, dense, or split into even- and
    odd-indexed Hessenberg blocks with nothing between them, as on sp."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["hessenberg", "dense", "split"]))
    keep = {
        "hessenberg": lambda i, j: i <= j + 1,
        "dense": lambda i, j: True,
        "split": lambda i, j: (i + j) % 2 == 0 and i <= j + 2,
    }[kind]
    value = st.integers(-30, 30)
    rows = [[draw(value) if keep(i, j) else 0 for j in range(n)] for i in range(n)]
    if kind == "hessenberg" and n > 1:
        # a zero subdiagonal entry cuts the recurrence's products short
        for i in draw(st.sets(st.integers(1, n - 1))):
            rows[i][i - 1] = 0
    return kind, rows


@settings(SETTINGS, max_examples=150)
@given(shaped_rows(), st.integers(1, 12))
@example(("hessenberg", [[1, 2, 3], [0, 4, 5], [0, 6, 7]]), 1)
@example(("hessenberg", [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 9, 1], [0, 0, 2, 3]]), 2)
@example(("hessenberg", [[0, 0], [0, 0]]), 1)
@example(("dense", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 5)
@example(("dense", [[0, 0, 0], [0, 0, 0], [1, 0, 0]]), 1)
@example(("split", [[2, 0, 1, 0], [0, 3, 0, 1], [4, 0, 5, 0], [0, 6, 0, 7]]), 3)
@example(("split", [[7]]), 2)
def test_slice_evaluator_matches_sympy(shaped, den):
    # the Hessenberg recurrence on one block or on the two sp blocks, or
    # the Faddeev-LeVerrier fallback, gives sympy's charpoly of rows / den,
    # and to any depth the first steps of Faddeev-LeVerrier
    kind, rows = shaped
    n, copy = len(rows), [row[:] for row in rows]
    if kind == "split":
        assert _split_charpoly(rows, n) is not None
    elif kind == "hessenberg":
        assert hessenberg_charpoly(rows, n) is not None
    elif any(rows[i][j] for i in range(n) for j in range(i - 1)):
        assert hessenberg_charpoly(rows, n) is None
    t = sympy.Symbol("t")
    want = sympy.Matrix(rows).charpoly(t).all_coeffs()[1:]
    steps = [c for c, _ in faddeev_leverrier(rows)]
    for last in range(n + 1):
        got = _leading(rows, den, last)
        assert [Fraction(c, d) for c, d in got] == [
            from_sympy(w) / den**k for k, w in enumerate(want[:last], start=1)
        ]
        assert [c for c, _ in _leading(rows, 1, last)] == steps[:last]
        if kind == "split":
            assert _split_charpoly(rows, last) == steps[:last]
    assert rows == copy


@st.composite
def det_rows(draw):
    """Square integer rows up to 8 x 8, often sparse, and often singular
    by one row drawn as a combination of two others."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.just(0), st.integers(-30, 30))
    rows = [[draw(value) for _ in range(n)] for _ in range(n)]
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(SETTINGS, max_examples=150)
@given(det_rows())
# a zero leading pivot that a row swap fixes, one that appears after a
# step, a zero column, a singular pair of rows, 1 x 1 and 0 x 0
@example([[0, 2, 3], [0, 4, 5], [6, 7, 8]])
@example([[1, 2, 3], [2, 4, 5], [3, 7, 1]])
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, 1]])
@example([[1, 2], [2, 4]])
@example([[0]])
@example([[-7]])
@example([])
def test_bareiss_det_matches_sympy(rows):
    copy = [row[:] for row in rows]
    assert bareiss_det(rows) == (sympy.Matrix(rows).det() if rows else 1)
    assert rows == copy


@SETTINGS
@given(square_matrices())
def test_adjugate_coefficients_match_sympy(m):
    # the steps M_k over the integer rows a of m = a / den, each over
    # den^(k - 1), are the coefficients of adj(tI - m) = sum_k t^(n-k) M_k
    t = sympy.Symbol("t")
    n = m.rows
    a, den = integer_rows(m)

    def over_qq_t(x):
        return DomainMatrix.from_Matrix(x).convert_to(sympy.QQ[t])

    shifted = over_qq_t(t * sympy.eye(n) - to_sympy(m))
    steps = enumerate(faddeev_leverrier(a), start=1)
    adj = over_qq_t(
        sum((to_sympy(RatMatrix(mk)) / den ** (k - 1) * t ** (n - k) for k, (_, mk) in steps),
            sympy.zeros(n, n))
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


# half the draws sparse, so twice the examples
@settings(SETTINGS, max_examples=120)
@given(st.one_of(matrices(), sparse_matrices()))
# zero, no rows, no columns
@example(RatMatrix.zeros(2, 3))
@example(RatMatrix.zeros(0, 3))
@example(RatMatrix.zeros(2, 0))
# a column with no pivot before a pivot column, first and after a step
@example(RatMatrix([[0, 1], [0, 2]]))
@example(RatMatrix([[1, 2, 0], [2, 4, 1], [3, 6, 1]]))
# negative pivots, the second divided by the first
@example(RatMatrix([[-2, 1, 3], [1, -3, 1], [1, 1, -5]]))
@example(RatMatrix([[Fraction(-1, 2), 3], [Fraction(5, 3), -7], [1, 1]]))
# rows with a common content factor, before and after a step
@example(RatMatrix([[6, 4, 2, 8], [9, 6, 3, 12], [3, 9, 6, 0]]))
# a pivot that divides none of the entries it clears, above and below
@example(RatMatrix([[0, 5, 7, 1], [4, 6, 1, 2], [6, 9, 3, 5]]))
# a negative pivot in every column
@example(RatMatrix([[-3, 2, 1], [5, -7, 4], [2, -5, 5]]))
# entries above 2**64, integral and in a denominator
@example(RatMatrix([[2**70 + 1, 3, 2**65], [2**66, Fraction(5, 2**67 + 3), 1], [1, 1, 1]]))
@example(RatMatrix([[2**64 + 1, 2**65 + 2, 7], [2**64 + 3, 2**65 + 6, 2**80]]))
# duplicate rows, and zero rows between the others
@example(RatMatrix([[0, 2, 0, 1], [3, 0, 0, 0], [0, 2, 0, 1], [0, 2, 0, 1]]))
@example(RatMatrix([[0, 0, 0], [1, 0, 2], [0, 0, 0], [0, 3, 0], [0, 0, 0]]))
# the first pivot after four empty columns, the second after one more
@example(RatMatrix([[0, 0, 0, 0, 5, 0, 1], [0, 0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 3, 0, 0]]))
# a leading column whose other rows all cancel against its pivot row
@example(RatMatrix([[2, 0, 4, 0], [1, 0, 2, 0], [0, 1, 0, 1], [-3, 0, -6, 0]]))
def test_rank_and_kernel_match_sympy(m):
    s = to_sympy(m)
    assert rank(m) == s.rank()
    # both take the free coordinate 1 and the other free coordinates 0
    expected = [[from_sympy(x) for x in v] for v in s.nullspace()]
    assert [[v[i, 0] for i in range(m.cols)] for v in kernel_basis(m)] == expected



@SETTINGS
@given(st.one_of(matrices(), sparse_matrices()))
# entries above 2**64, where the choice of pivot rows sets their growth
@example(RatMatrix([[0, 2**70 + 1, 3], [2**66, 5, 1], [2**65, 2**64 + 1, 7], [1, 0, 0]]))
def test_forward_pass_is_the_dense_one(m):
    # the same pivot rows and the same integers, only zeros skipped
    rows, pivots = _forward(m._num, m.cols)
    dense, dense_pivots = reference.dense_forward(m._num, m.cols)
    assert pivots == dense_pivots and len(rows) == len(dense)
    echelon = [[row.get(j, 0) for j in range(m.cols)] for row in rows[: len(pivots)]]
    assert echelon == dense[: len(pivots)]

@st.composite
def vector_systems(draw, kind=matrices):
    """(a, b) for a x = b, a drawn from kind, with one right-hand column,
    half of them consistent by construction."""
    a = draw(kind())
    if draw(st.booleans()):
        x0 = [draw(entries) for _ in range(a.cols)]
        b = [sum(a[i, j] * x0[j] for j in range(a.cols)) for i in range(a.rows)]
    else:
        b = [draw(entries) for _ in range(a.rows)]
    return a, b


# half the draws sparse, so twice the examples
@settings(SETTINGS, max_examples=120)
@given(st.one_of(vector_systems(), vector_systems(sparse_matrices)))
# rows with a common content factor, consistent and not
@example((RatMatrix([[6, 4, 2], [9, 6, 3], [3, 9, 6]]), [2, 3, 1]))
@example((RatMatrix([[6, 4, 2], [9, 6, 3], [3, 9, 6]]), [2, 4, 1]))
# a pivot that divides none of the entries it clears
@example((RatMatrix([[4, 6, 1], [6, 5, 2], [10, 3, 5]]), [Fraction(1, 3), 7, -2]))
# negative pivots, with a free column
@example((RatMatrix([[-3, 2, 1, 4], [5, -7, 4, -1]]), [-1, Fraction(5, 2)]))
# entries above 2**64 on both sides
@example(
    (
        RatMatrix([[2**70 + 1, 3], [2**66, Fraction(5, 2**67 + 3)]]),
        [2**65, Fraction(1, 2**64 + 1)],
    )
)
# a row nonzero only in the right-hand column
@example((RatMatrix([[0, 1, 0], [0, 0, 0], [2, 0, 1]]), [1, 3, 1]))
# duplicate rows and zero rows, consistent and not
@example((RatMatrix([[0, 2, 1], [0, 0, 0], [0, 2, 1], [3, 0, 0]]), [1, 0, 1, 2]))
@example((RatMatrix([[0, 2, 1], [0, 0, 0], [0, 2, 1], [3, 0, 0]]), [1, 0, 2, 2]))
# the first pivot after three empty columns
@example((RatMatrix([[0, 0, 0, 4, 1], [0, 0, 0, 0, 3]]), [5, Fraction(1, 2)]))
# a leading column whose other rows all cancel, with their right-hand sides
@example((RatMatrix([[2, 4, 0], [1, 2, 0], [-3, -6, 0], [0, 0, 1]]), [2, 1, -3, 7]))
# no columns, against zero and nonzero right-hand sides
@example((RatMatrix.zeros(2, 0), [0, 0]))
@example((RatMatrix.zeros(2, 0), [0, 1]))
def test_solve_matches_sympy(system):
    a, b = system
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
def systems(draw, kind=matrices):
    """(a, b) for a x = b, a and b drawn from kind, with 1 to 3
    right-hand columns, half of them consistent by construction."""
    a = draw(kind())
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = a * draw(kind(rows=a.cols, cols=k))
    else:
        b = draw(kind(rows=a.rows, cols=k))
    return a, b


# half the draws sparse, so twice the examples
@settings(SETTINGS, max_examples=120)
@given(st.one_of(systems(), systems(sparse_matrices)))
# a unique solution, a rank-deficient a, and an inconsistent second column
@example((RatMatrix([[1, 2], [0, 1], [1, 0]]), RatMatrix([[3, 1], [1, 0], [1, 1]])))
@example((RatMatrix([[1, 2], [2, 4], [0, 0]]), RatMatrix([[1], [2], [0]])))
@example((RatMatrix([[1, 0], [0, 1], [1, 1]]), RatMatrix([[1, 1], [1, 1], [2, 3]])))
# a square rank-deficient a
@example((RatMatrix([[1, 2], [2, 4]]), RatMatrix([[1], [2]])))
# overdetermined: consistent, then inconsistent
@example((RatMatrix([[2, 0], [0, 3], [1, 1]]), RatMatrix([[2], [3], [2]])))
@example((RatMatrix([[2, 0], [0, 3], [1, 1]]), RatMatrix([[2], [3], [3]])))
# a negative final pivot (det = -2), with rational entries on both sides
@example((RatMatrix([[1, 2], [3, 4]]), RatMatrix([[Fraction(1, 3), 1], [1, Fraction(-5, 2)]])))
@example((RatMatrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]]), RatMatrix([[1], [0]])))
# a pivot found below a zero
@example((RatMatrix([[0, 1], [1, 0], [0, 0]]), RatMatrix([[1], [2], [0]])))
# zero-width b, with a of full column rank and rank-deficient
@example((RatMatrix([[1, 2], [3, 4]]), RatMatrix.zeros(2, 0)))
@example((RatMatrix([[1, 2], [2, 4]]), RatMatrix.zeros(2, 0)))
# 0 x 0 a, and a with no columns against zero and nonzero b
@example((RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 2)))
@example((RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 1)))
@example((RatMatrix.zeros(2, 0), RatMatrix([[0], [1]])))
# a row nonzero only in a right-hand column
@example((RatMatrix([[1, 0], [0, 0], [0, 1]]), RatMatrix([[1, 0], [0, 2], [3, 0]])))
# duplicate rows and a zero row, consistent
@example((RatMatrix([[0, 2], [0, 2], [0, 0], [3, 0]]), RatMatrix([[1], [1], [0], [2]])))
# a leading column whose other rows all cancel, one column's rows with it
@example((RatMatrix([[2, 0], [-4, 0], [0, 5]]), RatMatrix([[1, 2], [-2, -4], [0, 1]])))
def test_solve_unique_matches_sympy(system):
    a, b = system
    got = solve_unique(a, b)
    if got is not None:
        assert_lowest_terms(got)
    s = to_sympy(a)
    if s.rank() < a.cols:
        assert got is None
        return
    if a.cols == 0 or b.cols == 0:
        # sympy solves no empty system: X is a.cols x b.cols, and with no
        # unknowns it exists exactly when b = 0
        assert got == (RatMatrix.zeros(a.cols, b.cols) if b.is_zero() else None)
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
# a negative final pivot, a row swap, a singular matrix, and 0 x 0
@example(RatMatrix([[1, 2], [3, 4]]))
@example(RatMatrix([[0, 1, 0], [Fraction(1, 2), 0, 0], [0, 0, -3]]))
@example(RatMatrix([[1, 2], [2, 4]]))
@example(RatMatrix.zeros(0, 0))
def test_inverse_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        try:
            inverse(m)
        except ValueError:
            return
        raise AssertionError("inverse of a singular matrix")
    expected = s.inv()
    assert_lowest_terms(inverse(m))
    assert inverse(m) == RatMatrix(
        [[from_sympy(expected[i, j]) for j in range(m.cols)] for i in range(m.rows)], cols=m.cols
    )


def test_a_singular_system_is_refused_before_back_substitution():
    # the forward pass alone decides that X is not unique; a unique X
    # still runs the back-substitution (the sympy properties above check
    # its values)
    singular = [
        (RatMatrix([[1, 2], [2, 4]]), RatMatrix.identity(2)),
        (RatMatrix([[0, 0], [0, 0]]), RatMatrix([[1], [0]])),
        # full column rank, but an extra row left over: inconsistent
        (RatMatrix([[1, 0], [0, 1], [1, 1]]), RatMatrix([[1], [1], [3]])),
        (RatMatrix([[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]), RatMatrix.identity(3)),
    ]
    pair = make_pair("o", 1, 1)
    with mock.patch("symslice.exact._back_substitute", side_effect=AssertionError):
        for a, b in singular:
            assert solve_unique(a, b) is None
        with pytest.raises(ValueError, match="singular"):
            inverse(singular[0][0])
        # I + S = 0
        with pytest.raises(ValueError, match="singular"):
            cayley(pair, -RatMatrix.identity(2))
        with pytest.raises(AssertionError):
            inverse(RatMatrix([[1, 2], [3, 4]]))
    assert inverse(RatMatrix([[1, 2], [3, 4]])) == RatMatrix(
        [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    )


@st.composite
def matrix_lists(draw):
    """Two lists of same-shape matrices: mostly scaled and summed draws
    from a small pool, so the spans often agree while the denominators
    differ, with zero matrices and repeats among them."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = draw(st.lists(matrices(rows=r, cols=c), min_size=1, max_size=3))
    scalars = st.fractions(min_value=-6, max_value=6, max_denominator=9)
    term = st.tuples(scalars, st.sampled_from(pool), scalars, st.sampled_from(pool))
    element = st.one_of(
        st.sampled_from(pool),
        st.just(RatMatrix.zeros(r, c)),
        term.map(lambda t: t[0] * t[1] + t[2] * t[3]),
        matrices(rows=r, cols=c),
    )
    a = draw(st.lists(element, max_size=4))
    b = draw(st.lists(element, max_size=4))
    if a and draw(st.booleans()):
        b = b + a[:1]
    return a, b


def _stacked_rank(mats) -> int:
    if not mats:
        return 0
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in vec(m)]
                         for m in mats]).rank()


@SETTINGS
@given(matrix_lists())
@example(([], []))
@example(([RatMatrix.zeros(2, 2)], []))
# the same line with different denominators, repeated, and a second line
@example(
    (
        [RatMatrix([[Fraction(1, 2), Fraction(1, 3)]])] * 2,
        [RatMatrix([[Fraction(3, 5), Fraction(2, 5)]]), RatMatrix.zeros(1, 2)],
    )
)
@example(([RatMatrix([[Fraction(1, 2), Fraction(1, 3)]])], [RatMatrix([[Fraction(1, 2), 1]])]))
def test_spans_equal_matches_sympy(lists):
    a, b = lists
    ra, rb, rab = (_stacked_rank(m) for m in (a, b, a + b))
    assert spans_equal(a, b) == (ra == rb == rab)
    assert spans_equal(b, a) == spans_equal(a, b)


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


# every shape of token the integer reader takes, and neighbours of them
# that go to Fraction's parser: signs, leading zeros, underscores, Unicode
# digits (Arabic-Indic, Devanagari; a superscript is no decimal digit),
# decimals, exponents, malformed ratios and tokens at the digit bound
_EDGE_TOKENS = [
    "1/-2", "1/+2", "1/0", "0/0", "/3", "3/", "+", "-", "1__0", "_1", "1_", "nan", "inf",
    "-0", "+007", "007/010", "1_000/3_0", "\u0663/\u096a", "-\u0661\u0660", "\u00b2",
    "0.5", "-2.5e-3", "1E+2", ".5", "5.", "1/2/3", "--1", "+-1", "0x10", "1/ 2", "1e10001",
    "9" * MAX_DIGITS, "-" + "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1),
    "1/" + "9" * MAX_DIGITS, "1/" + "9" * (MAX_DIGITS + 1), "1_" + "0" * (MAX_DIGITS - 1),
]
_TOKENS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.tuples(st.integers(-(10**40), 10**40), st.integers(0, 10**40)).map("%d/%d".__mod__),
    st.sampled_from(_EDGE_TOKENS),
    st.text(alphabet="0123456789+-/_.eE\u0663\u096a\u00b2", min_size=1, max_size=6),
)


@st.composite
def matrix_tokens(draw):
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return r, c, draw(st.lists(_TOKENS, min_size=r * c, max_size=r * c))


@settings(SETTINGS, max_examples=400)
@given(matrix_tokens())
# unreduced entries over different denominators
@example((2, 2, ["6/4", "-10/15", "0/7", "+14/7"]))
def test_matrix_text_reads_as_the_fraction_parser(shape):
    r, c, toks = shape
    text = f"{r} {c}\n" + "".join(" ".join(toks[i * c : (i + 1) * c]) + "\n" for i in range(r))
    try:
        expected = reference.matrix_from_text(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            matrix_from_text(text)
        assert str(refused.value) == str(exc)
        return
    got = matrix_from_text(text)
    assert_lowest_terms(got)
    assert got == expected


@st.composite
def fractional_matrices(draw):
    """Integer rows over a denominator d >= 2 that stays d in lowest terms."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    den = draw(st.integers(2, 10**30))
    value = st.one_of(st.just(0), st.integers(-(10**40), 10**40))
    rows = [[draw(value) for _ in range(c)] for _ in range(r)]
    assume(math.gcd(den, *chain.from_iterable(rows)) == 1)
    return RatMatrix.from_ints(rows, c, den)


@SETTINGS
@given(fractional_matrices())
@example(RatMatrix([[Fraction(-7, 3), 0], [Fraction(6, 4), -1]]))
def test_matrix_text_writes_as_the_fraction_writer(m):
    assert integer_rows(m)[1] != 1
    text = matrix_to_text(m)
    assert text == reference.matrix_to_text(m)
    assert matrix_from_text(text) == m
