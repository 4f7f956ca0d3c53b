import random
from fractions import Fraction

import pytest

from symslice.exact import (
    MAX_EXPONENT,
    Poly,
    RatMatrix,
    charpoly,
    integer_rows,
    inverse,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    modular_rank,
    nilpotency_index,
    pfaffian,
    rank,
    rational_from_text,
    solve,
    spans_equal,
)


def F(a, b=1):
    return Fraction(a, b)


def test_kernel_of_zero_map():
    basis = kernel_basis(RatMatrix.zeros(2, 2))
    assert [tuple(v[i, 0] for i in range(2)) for v in basis] == [(1, 0), (0, 1)]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_of_proportional_rows():
    basis = kernel_basis(RatMatrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    assert (basis[0][0, 0], basis[0][1, 0]) == (-2, 1)


def test_solve_identity():
    assert solve(RatMatrix.identity(2), [F(3), F(-1, 2)]) == [F(3), F(-1, 2)]


def test_solve_inconsistent_returns_none():
    assert solve(RatMatrix([[1, 1], [1, 1]]), [1, 2]) is None


def test_solve_pivot_only_particular_solution():
    assert solve(RatMatrix([[1, 2], [2, 4]]), [1, 2]) == [F(1), F(0)]


def test_solve_exactness_on_random_systems():
    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = RatMatrix(
            [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        )
        x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum((a[i, j] * x[j] for j in range(n)), F(0)) for i in range(m)]
        got = solve(a, b)
        assert got is not None
        assert all(
            sum((a[i, j] * got[j] for j in range(n)), F(0)) == b[i] for i in range(m)
        )


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = RatMatrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
        assert rank(a) + len(kernel_basis(a)) == n


def test_charpoly_zero_and_identity():
    assert charpoly(RatMatrix.zeros(2, 2)).coeffs == (0, 0, 1)
    assert charpoly(RatMatrix.identity(2)).coeffs == (1, -2, 1)


def test_charpoly_two_by_two_cofactor():
    # det(tI - M) for M = [[0,5],[1,0]] is t^2 - 5 by direct expansion
    assert charpoly(RatMatrix([[0, 5], [1, 0]])).coeffs == (-5, 0, 1)


def _random_unimodular(rng, n):
    m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = F(rng.randint(-3, 3))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return RatMatrix(m)


def test_charpoly_similarity_invariance():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = RatMatrix(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        g = _random_unimodular(rng, n)
        assert charpoly(g * m * inverse(g)).coeffs == charpoly(m).coeffs


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly(RatMatrix.zeros(2, 3))


def test_inverse_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 10:
        n = rng.randint(1, 5)
        m = RatMatrix(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        try:
            minv = inverse(m)
        except ValueError:
            continue
        assert m * minv == RatMatrix.identity(n)
        done += 1


def test_nilpotency_index_examples():
    assert nilpotency_index(RatMatrix.zeros(4, 4)) == 1
    assert nilpotency_index(RatMatrix.identity(4)) is None
    e = RatMatrix([[0, 0, 1], [0, 0, 0], [0, 1, 0]])
    # direct powers as the oracle
    assert not (e * e).is_zero()
    assert (e * e * e).is_zero()
    assert nilpotency_index(e) == 3


def test_pfaffian_small_cases():
    assert pfaffian(RatMatrix([[0, 3], [-3, 0]])) == 3
    m = RatMatrix([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    # Pf = a12 a34 - a13 a24 + a14 a23
    assert pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_squares_to_determinant():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice((2, 4, 6))
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[i][j] = F(rng.randint(-4, 4), rng.randint(1, 3))
                entries[j][i] = -entries[i][j]
        m = RatMatrix(entries)
        det = charpoly(m).coeffs[0] * (-1) ** n
        assert pfaffian(m) ** 2 == det


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError):
        pfaffian(RatMatrix.identity(2))


def test_matrix_text_roundtrip():
    m = RatMatrix([[F(1, 2), F(-3)], [F(0), F(7, 5)]])
    text = matrix_to_text(m)
    assert text.splitlines()[0] == "2 2"
    assert matrix_from_text(text) == m


def test_matrix_text_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_from_text("2 2 1 2 3")
    with pytest.raises(ValueError):
        matrix_from_text("x y 1 2 3 4")
    with pytest.raises(ValueError):
        matrix_from_text("1 1 1/0")
    for bad in ("nan", "inf", "-inf", "0x10"):
        with pytest.raises(ValueError):
            matrix_from_text(f"1 1 {bad}")


def test_matrix_text_entries_are_exact_literals():
    m = matrix_from_text("2 2\n3 -1/3\n0.1 2.5e-3\n")
    assert m == RatMatrix([[F(3), F(-1, 3)], [F(1, 10), F(1, 400)]])


def test_exponent_literals_are_bounded():
    assert MAX_EXPONENT == 10_000
    assert rational_from_text("1e10000") == 10**10000
    assert rational_from_text("-2.5E-1_0000") == F(-25, 10**10001)
    assert rational_from_text("1e+0010000") == 10**10000
    for bad in ("1e10001", "1e-10001", "1E+10000000", "1e" + "9" * 5000, "0.5e1_0001"):
        with pytest.raises(ValueError, match="exponent"):
            rational_from_text(bad)
        with pytest.raises(ValueError, match="exponent"):
            matrix_from_text(f"1 1 {bad}")


def test_integer_rows_clear_the_least_common_denominator():
    ints, den = integer_rows(RatMatrix([[F(1, 2), F(-1, 3)], [F(0), F(5)]]))
    assert (ints, den) == ([[3, -2], [0, 30]], 6)


def test_modular_rank_is_a_lower_bound_equal_for_a_large_prime():
    big = 2**61 - 1
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        assert modular_rank(rows, big) == rank(RatMatrix(rows))
        assert modular_rank(rows, 3) <= rank(RatMatrix(rows))
    assert modular_rank([[big, 0], [0, 2 * big]], big) == 0
    assert modular_rank([[1, 1], [1, 1 + big]], big) == 1
    assert modular_rank([[1, 1], [1, 4]], 3) == 1 < rank(RatMatrix([[1, 1], [1, 4]]))
    assert modular_rank([], big) == 0


def test_poly_must_be_monic():
    with pytest.raises(ValueError):
        Poly((1, 2))
    p = Poly((F(-5), F(0), F(1)))
    assert p.degree == 2 and p(3) == 4


def test_spans_equal():
    a = [RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 1], [0, 0]])]
    b = [RatMatrix([[1, 1], [0, 0]]), RatMatrix([[1, -1], [0, 0]])]
    c = [RatMatrix([[1, 0], [0, 0]])]
    assert spans_equal(a, b)
    assert not spans_equal(a, c)
    assert spans_equal([], [])
