import random
import sys
import time
from fractions import Fraction

import pytest

from symslice import exact
from symslice.exact import (
    MAX_DIGITS,
    MAX_EXPONENT,
    RatMatrix,
    charpoly,
    integer_rows,
    inverse,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    nilpotency_index,
    pfaffian,
    rank,
    rational_from_text,
    solve,
    spans_equal,
    unlimited_int_text,
)
from symslice.matspace import cayley
from symslice.nilpotent import centralizer, regular_nilpotent
from symslice.pairs import Family, combine, make_pair
from symslice.sl2 import complete_triple


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
    assert charpoly(RatMatrix.zeros(2, 2)) == (0, 0, 1)
    assert charpoly(RatMatrix.identity(2)) == (1, -2, 1)


def test_charpoly_two_by_two_cofactor():
    # det(tI - M) for M = [[0,5],[1,0]] is t^2 - 5 by direct expansion
    assert charpoly(RatMatrix([[0, 5], [1, 0]])) == (-5, 0, 1)


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
        assert charpoly(g * m * inverse(g)) == charpoly(m)


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
        det = charpoly(m)[0] * (-1) ** n
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


def test_unreduced_entries_are_reduced_one_by_one():
    # 3m/2m with a different 1000-digit m per entry: over the lcm of the
    # unreduced denominators the rows would have some 256000 digits each
    rng = random.Random(30)
    ms = [rng.randrange(10**999, 10**1000) for _ in range(256)]
    rows = [" ".join(f"{3 * m}/{2 * m}" for m in ms[16 * i : 16 * i + 16]) for i in range(16)]
    text = "16 16\n" + "\n".join(rows) + "\n"
    start = time.perf_counter()
    m = matrix_from_text(text)
    elapsed = time.perf_counter() - start
    assert m == RatMatrix.from_ints([[3] * 16 for _ in range(16)], den=2)
    assert elapsed < 1.0


def test_matrix_text_rows_are_bounded_by_the_text():
    # a matrix without columns still has a line per row, so a row count
    # beyond the text's length is refused before any row is built
    assert matrix_from_text(matrix_to_text(RatMatrix.zeros(3, 0))).shape == (3, 0)
    assert matrix_from_text("0 7").shape == (0, 7)
    with pytest.raises(ValueError, match="shorter than its row count"):
        matrix_from_text("9" * 4000 + " 0")
    # at the edge: as many rows as characters, and one more
    assert matrix_from_text("4 0\n").shape == (4, 0)
    with pytest.raises(ValueError, match="shorter than its row count"):
        matrix_from_text("5 0\n")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter without the limit"
)
def test_the_int_text_limit_comes_back():
    # the limit is process-wide: lifted for a writer or a block only,
    # and restored on the way out, an exception included
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert matrix_to_text(RatMatrix([[10**5000]])) == "1 1\n1" + "0" * 5000 + "\n"
        big = RatMatrix.from_ints([[10**5000, 1]], den=3)
        assert matrix_to_text(big) == "1 2\n1" + "0" * 5000 + "/3 1/3\n"
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(RuntimeError):
            with unlimited_int_text():
                assert sys.get_int_max_str_digits() == 0
                raise RuntimeError
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter without the limit"
)
def test_repr_writes_entries_beyond_the_int_text_limit():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        m = RatMatrix([[F(-(10**5000), 3), 0], [0, 1]])
        assert repr(m) == "RatMatrix([[-1" + "0" * 5000 + "/3, 0], [0, 1]])"
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


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


def test_unicode_digit_exponents_are_bounded():
    # Fraction reads every Unicode decimal digit, so the bound must too
    assert rational_from_text("1e\u0661\u0660") == 10**10
    with pytest.raises(ValueError, match="exponent"):
        rational_from_text("1e\u0661" + "\u0660" * 7)


def test_digit_literals_are_bounded():
    assert MAX_DIGITS == 4300
    most = "9" * MAX_DIGITS
    assert rational_from_text(most) == 10**MAX_DIGITS - 1
    assert rational_from_text(f"-{most}/{most}") == -1
    assert rational_from_text(f"{most}.{most}") == F(10 ** (2 * MAX_DIGITS) - 1, 10**MAX_DIGITS)
    one_more = "1" + "_0" * MAX_DIGITS
    assert rational_from_text(one_more[:-2]) == 10 ** (MAX_DIGITS - 1)
    for bad in (
        "9" * (MAX_DIGITS + 1),
        f"-1/{'3' * (MAX_DIGITS + 1)}",
        f"0.{'1' * (MAX_DIGITS + 1)}",
        one_more,
        "\u0661" * (MAX_DIGITS + 1),
    ):
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            rational_from_text(bad)
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            matrix_from_text(f"1 1 {bad}")
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        matrix_from_text(f"{'0' * MAX_DIGITS}1 1 5")


def test_string_entries_and_right_hand_sides_are_bounded_literals():
    # RatMatrix entries and solve's right-hand entries given as text meet
    # the same bounds as matrix text
    assert RatMatrix([["1e10000"]]) == RatMatrix([[10**10000]])
    assert solve(RatMatrix([[1]]), ["1e10000"]) == [10**10000]
    for bad in ("1e10001", "7" * (MAX_DIGITS + 1)):
        with pytest.raises(ValueError):
            RatMatrix([[bad]])
        with pytest.raises(ValueError):
            solve(RatMatrix([[1]]), [bad])
    assert RatMatrix([["-1/3", "0.25"]]) == RatMatrix([[F(-1, 3), F(1, 4)]])


def test_an_explicit_column_count_must_match_the_rows():
    for build in (RatMatrix, RatMatrix.from_ints):
        assert build([[1, 2]], cols=2).shape == (1, 2)
        for cols in (1, 3):
            with pytest.raises(ValueError):
                build([[1, 2]], cols=cols)
        assert build([], cols=3).shape == (0, 3)
        with pytest.raises(ValueError):
            build([])


def test_integer_rows_clear_the_least_common_denominator():
    ints, den = integer_rows(RatMatrix([[F(1, 2), F(-1, 3)], [F(0), F(5)]]))
    assert (ints, den) == ([[3, -2], [0, 30]], 6)


def test_spans_equal():
    a = [RatMatrix([[1, 0], [0, 0]]), RatMatrix([[0, 1], [0, 0]])]
    b = [RatMatrix([[1, 1], [0, 0]]), RatMatrix([[1, -1], [0, 0]])]
    c = [RatMatrix([[1, 0], [0, 0]])]
    assert spans_equal(a, b)
    assert not spans_equal(a, c)
    assert spans_equal([], [])


def test_every_elimination_step_changes_its_row(monkeypatch):
    # the elimination hands the row step only rows that have the pivot
    # column: on the sparse systems of the slice construction and of a
    # Cayley draw, no call may return its row as it was
    changed = []
    step = exact._combine

    def counted(row, prow, p, c):
        out = step(row, prow, p, c)
        changed.append(out != row)
        return out

    monkeypatch.setattr(exact, "_combine", counted)
    gl = make_pair(Family.GL, 8, 8)
    e = regular_nilpotent(gl)
    o33 = make_pair(Family.ORTH, 3, 3)
    s = combine(o33.n, o33.plus_support, [(-1) ** i * (i % 4 + 2) for i in range(6)])
    for run in (lambda: centralizer(gl, e), lambda: complete_triple(gl, e), lambda: cayley(o33, s)):
        changed.clear()
        run()
        assert changed and all(changed)
