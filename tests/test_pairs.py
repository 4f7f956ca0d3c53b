import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import block_diag, form, lincomb, vec
from symslice.cli import report_cases
from symslice.exact import RatMatrix, inverse, kernel_basis, rank
from symslice.nilpotent import regular_nilpotent
from symslice.pairs import (
    MAX_SIZE,
    ConstraintViolation,
    Family,
    _form_entries,
    ad_rows,
    adjoint,
    apply_theta,
    bracket,
    check_constraints,
    combine,
    in_algebra,
    in_eigenspace,
    make_pair,
)


def exchange(r):
    """Antidiagonal matrix of ones."""
    return RatMatrix.from_ints([[int(i + j == r - 1) for j in range(r)] for i in range(r)], cols=r)


def signed_exchange(r):
    """Antidiagonal with alternating signs, +1 in the top right corner."""
    return RatMatrix.from_ints(
        [[(-1) ** i if i + j == r - 1 else 0 for j in range(r)] for i in range(r)], cols=r
    )


SMALL = [
    (Family.GL, 2, 1),
    (Family.GL, 2, 2),
    (Family.GL, 3, 2),
    (Family.ORTH, 1, 1),
    (Family.ORTH, 2, 1),
    (Family.ORTH, 2, 2),
    (Family.ORTH, 3, 3),
    (Family.SP, 2, 2),
    (Family.SP, 4, 2),
]


def test_make_pair_examples():
    p = make_pair(Family.GL, 2, 1)
    assert p.n == 3 and p.rank_theta == 1
    p = make_pair(Family.SP, 4, 2)
    assert p.n == 6 and p.rank_theta == 1


@pytest.mark.parametrize(
    "family,p,q",
    [
        (Family.SP, 3, 2),
        (Family.SP, 4, 3),
        (Family.ORTH, 4, 2),
        (Family.GL, 1, 2),
        (Family.GL, 2, 0),
    ],
)
def test_make_pair_rejects(family, p, q):
    with pytest.raises(ConstraintViolation):
        make_pair(family, p, q)


@pytest.mark.parametrize(
    "family,p,q",
    [
        (Family.GL, 1000, 1000),
        (Family.GL, MAX_SIZE // 2 + 1, MAX_SIZE // 2),
        (Family.ORTH, MAX_SIZE // 2 + 1, MAX_SIZE // 2),
        (Family.SP, MAX_SIZE // 2 + 2, MAX_SIZE // 2),
    ],
)
def test_make_pair_rejects_oversized(family, p, q):
    with pytest.raises(ConstraintViolation, match=f"p \\+ q must be at most {MAX_SIZE}"):
        make_pair(family, p, q)


def test_size_bound_admits_the_largest_pairs():
    half = MAX_SIZE // 2
    for fam, p, q in [(Family.GL, half, half), (Family.ORTH, half, half), (Family.SP, half, half)]:
        assert check_constraints(fam, p, q) is fam


def test_make_pair_at_the_size_bound():
    h = MAX_SIZE // 2
    # (dim g(1), dim g(-1)); g(1) is gl(p) + gl(q), o(p) + o(q) or sp(p) + sp(q)
    dims = {
        Family.GL: (2 * h * h, 2 * h * h),
        Family.ORTH: (h * (h - 1), h * h),
        Family.SP: (h * (h + 1), h * h),
    }
    for fam, (dim_plus, dim_minus) in dims.items():
        pr = make_pair(fam, h, h)
        assert len(pr.basis_plus) == dim_plus
        assert len(pr.basis_minus) == dim_minus
        assert all(in_eigenspace(pr, b, +1) for b in pr.basis_plus)
        assert all(in_eigenspace(pr, b, -1) for b in pr.basis_minus)


def test_family_accepts_cli_tags():
    assert make_pair("o", 2, 1).family is Family.ORTH


def test_rank_theta_table():
    assert make_pair(Family.GL, 5, 3).rank_theta == 3
    assert make_pair(Family.ORTH, 4, 4).rank_theta == 4
    assert make_pair(Family.SP, 6, 4).rank_theta == 2


def test_forms_match_hand_built_blocks():
    p = make_pair(Family.ORTH, 3, 2)
    assert form(p) == block_diag(exchange(3), -1 * exchange(2))
    sp = make_pair(Family.SP, 4, 2)
    assert form(sp) == block_diag(signed_exchange(4), signed_exchange(2))
    # symplectic form is skew, orthogonal form is symmetric
    assert form(sp).transpose() == -1 * form(sp)
    assert form(p).transpose() == form(p)


def test_form_entries_are_signed_permutations():
    # adjoint and in_algebra read v_i / v_j as v_i * v_j, true only for +-1;
    # the form they define is the one assembled from exchange blocks
    for f, p, q in report_cases(8, 16, 8):
        fam = Family(f)
        entries = _form_entries(fam, p, q)
        if fam is Family.GL:
            assert entries is None
            continue
        assert sorted(k for k, _ in entries) == list(range(p + q))
        assert all(type(v) is int and v in (1, -1) for _, v in entries)
        if fam is Family.ORTH:
            hand = block_diag(exchange(p), -1 * exchange(q))
        else:
            hand = block_diag(signed_exchange(p), signed_exchange(q))
        assert form(make_pair(fam, p, q)) == hand


def test_involution_squares_to_identity():
    for fam, p, q in SMALL:
        pr = make_pair(fam, p, q)
        m = RatMatrix([[pr.n * i + j + 1 for j in range(pr.n)] for i in range(pr.n)])
        assert apply_theta(pr, apply_theta(pr, m)) == m
        if pr.form_entries is not None:
            assert adjoint(pr, adjoint(pr, m)) == m


def test_apply_theta_block_structure():
    pr = make_pair(Family.GL, 2, 1)
    diag = RatMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    anti = RatMatrix([[0, 0, 1], [0, 0, 2], [3, 4, 0]])
    assert apply_theta(pr, diag) == diag
    assert apply_theta(pr, anti) == -1 * anti
    sig = block_diag(RatMatrix.identity(2), -1 * RatMatrix.identity(1))
    assert apply_theta(pr, sig) == sig
    assert apply_theta(pr, apply_theta(pr, anti)) == anti


def test_in_algebra_examples():
    pr = make_pair(Family.ORTH, 2, 1)
    e = RatMatrix([[0, 0, 1], [0, 0, 0], [0, 1, 0]])
    # independent check with a hand-built form
    j = block_diag(exchange(2), -1 * exchange(1))
    assert j * e.transpose() * j == -1 * e  # j is its own inverse here
    assert in_algebra(pr, e)
    assert not in_algebra(pr, RatMatrix.identity(3))
    assert in_algebra(pr, RatMatrix.zeros(3, 3))


# Every valid (family, p, q) with n = p + q <= 8.
UP_TO_8 = [
    (fam, p, q)
    for fam in Family
    for p in range(1, 8)
    for q in range(1, p + 1)
    if p + q <= 8
    and not (fam is Family.ORTH and p - q > 1)
    and not (fam is Family.SP and (p % 2 or q % 2))
]


def _random_matrix(rng, n):
    return RatMatrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("family,p,q", UP_TO_8)
def test_index_maps_match_dense_products(family, p, q):
    """adjoint, apply_theta and in_eigenspace against their dense definitions."""
    pr = make_pair(family, p, q)
    n = pr.n
    sig = block_diag(RatMatrix.identity(p), -1 * RatMatrix.identity(q))
    rng = random.Random(100 * p + q)
    samples = [_random_matrix(rng, n) for _ in range(3)]
    # theta-odd, but for o and sp not in g: only the form condition fails
    samples.append(samples[0] - sig * samples[0] * sig)
    for basis in (pr.basis_plus + pr.basis_minus, pr.basis_plus, pr.basis_minus):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        samples.append(lincomb(coeffs, basis, n, n))
    seen = set()
    for x in samples:
        assert apply_theta(pr, x) == sig * x * sig
        j = form(pr)
        if j is None:
            in_g = True
            with pytest.raises(ValueError):
                adjoint(pr, x)
        else:
            dense_adjoint = j * x.transpose() * inverse(j)
            assert adjoint(pr, x) == dense_adjoint
            in_g = dense_adjoint == -1 * x
        for sign in (1, -1):
            dense = in_g and sig * x * sig == sign * x
            assert in_eigenspace(pr, x, sign) == dense
            seen.add((sign, dense))
    # members and non-members of both eigenspaces were exercised
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


def test_eigenspace_dimensions():
    assert len(make_pair(Family.GL, 1, 1).basis_minus) == 2
    assert len(make_pair(Family.ORTH, 2, 1).basis_minus) == 2
    assert len(make_pair(Family.SP, 2, 2).basis_minus) == 4
    for fam, p, q in SMALL:
        pr = make_pair(fam, p, q)
        expected = 2 * p * q if fam is Family.GL else p * q
        assert len(pr.basis_minus) == expected


def test_eigenspace_bases_have_right_eigenvalue():
    for fam, p, q in SMALL:
        pr = make_pair(fam, p, q)
        assert all(in_eigenspace(pr, b, +1) for b in pr.basis_plus)
        assert all(in_eigenspace(pr, b, -1) for b in pr.basis_minus)


def test_eigenspace_dims_add_up():
    dim_g = {
        Family.GL: lambda n: n * n,
        Family.ORTH: lambda n: n * (n - 1) // 2,
        Family.SP: lambda n: n * (n + 1) // 2,
    }
    for fam, p, q in SMALL:
        pr = make_pair(fam, p, q)
        both = pr.basis_plus + pr.basis_minus
        assert len(both) == dim_g[fam](pr.n)
        # independent, so together a basis of g
        assert rank(RatMatrix([list(vec(b)) for b in both])) == len(both)


def test_theta_preserves_algebra():
    for fam, p, q in SMALL:
        pr = make_pair(fam, p, q)
        basis_g = pr.basis_plus + pr.basis_minus
        assert all(in_algebra(pr, apply_theta(pr, b)) for b in basis_g)


def test_grading_of_bracket():
    for fam, p, q in [(Family.GL, 2, 1), (Family.ORTH, 2, 2), (Family.SP, 2, 2)]:
        pr = make_pair(fam, p, q)
        for x, y in itertools.product(pr.basis_plus, pr.basis_minus):
            assert in_eigenspace(pr, bracket(x, y), -1)
        for x, y in itertools.product(pr.basis_minus, pr.basis_minus):
            assert in_eigenspace(pr, bracket(x, y), +1)


def test_minus_basis_is_block_antidiagonal():
    for fam, p, q in SMALL:
        if fam is Family.GL:
            continue
        pr = make_pair(fam, p, q)
        for b in pr.basis_minus:
            assert all(b[i, j] == 0 for i in range(p) for j in range(p))
            assert all(b[i, j] == 0 for i in range(p, pr.n) for j in range(p, pr.n))


def test_bracket_basics():
    x = RatMatrix([[0, 1], [0, 0]])
    y = RatMatrix([[0, 0], [1, 0]])
    h = RatMatrix([[1, 0], [0, -1]])
    assert bracket(x, x).is_zero()
    assert bracket(x, y) == h
    assert bracket(RatMatrix.identity(2), x).is_zero()
    with pytest.raises(ValueError):
        bracket(x, RatMatrix.identity(3))


def _dense_ad_rows(x, basis):
    """vec([x, b_j]) as column j, one dense bracket per basis matrix."""
    cols = [vec(bracket(x, b)) for b in basis]
    rows = {i: [col[i] for col in cols] for i in range(x.rows * x.cols)}
    return {i: row for i, row in rows.items() if any(row)}


@pytest.mark.parametrize("family,p,q", UP_TO_8)
def test_ad_rows_match_dense_brackets(family, p, q):
    pr = make_pair(family, p, q)
    n = pr.n
    rng = random.Random(7 * p + q)
    xs = [regular_nilpotent(pr), _random_matrix(rng, n)]
    for basis in (pr.basis_plus, pr.basis_minus):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in basis]
        xs.append(lincomb(coeffs, basis, n, n))
    for basis, support in ((pr.basis_plus, pr.plus_support), (pr.basis_minus, pr.minus_support)):
        # the support is the basis matrix
        for b, terms in zip(basis, support):
            assert {(k, l): c for k, l, c in terms} == {
                (k, l): b[k, l] for k in range(n) for l in range(n) if b[k, l]
            }
        for x in xs:
            rows = ad_rows(pr, [x.row(i) for i in range(n)], support)
            assert rows == _dense_ad_rows(x, basis)
            assert list(rows) == sorted(rows)
        # integer entries, as `nilpotent._ad_system` passes them
        e = regular_nilpotent(pr)
        int_rows = [[int(a) for a in e.row(i)] for i in range(n)]
        assert ad_rows(pr, int_rows, support) == _dense_ad_rows(e, basis)
    # an empty support gives a zero column
    padded = ad_rows(pr, [xs[1].row(i) for i in range(n)], ((),) + pr.minus_support)
    assert all(row[0] == 0 for row in padded.values())
    assert {i: row[1:] for i, row in padded.items()} == _dense_ad_rows(xs[1], pr.basis_minus)


def _dense_eigenspace_basis(pr, sign):
    """The eigenspace as the kernel of the stacked dense conditions on
    vec(X): X + J X^t J^-1 = 0 and theta(X) = sign * X."""
    n, p = pr.n, pr.p
    rows = []
    for i in range(n):
        for j in range(n):
            if pr.form_entries is not None:
                (k_i, v_i), (k_j, v_j) = pr.form_entries[i], pr.form_entries[j]
                row = [Fraction(0)] * (n * n)
                row[i * n + j] += 1
                row[k_j * n + k_i] += v_i * v_j
                rows.append(row)
            c = (1 if (i < p) == (j < p) else -1) - sign
            if c:
                row = [Fraction(0)] * (n * n)
                row[i * n + j] = Fraction(c)
                rows.append(row)
    vecs = kernel_basis(RatMatrix(rows, cols=n * n))
    return tuple(
        RatMatrix([[v[i * n + j, 0] for j in range(n)] for i in range(n)], cols=n) for v in vecs
    )


def _support(b):
    return tuple((k, l, b[k, l]) for k in range(b.rows) for l in range(b.cols) if b[k, l])


REFERENCE_CASES = [(Family(f), p, q) for f, p, q in report_cases(8, 16, 8)] + [
    (Family.GL, 9, 1),
    (Family.ORTH, 5, 4),
    (Family.SP, 6, 2),
]


@pytest.mark.parametrize("family,p,q", REFERENCE_CASES)
def test_eigenspace_bases_match_dense_kernel(family, p, q):
    """The index-map bases are the canonical kernel bases of the dense solve."""
    pr = make_pair(family, p, q)
    for sign, basis, support in (
        (1, pr.basis_plus, pr.plus_support),
        (-1, pr.basis_minus, pr.minus_support),
    ):
        dense = _dense_eigenspace_basis(pr, sign)
        assert basis == dense
        assert support == tuple(_support(b) for b in dense)
        assert all(type(c) is int for terms in support for _, _, c in terms)


@functools.cache
def _grid_pairs():
    return [make_pair(Family(f), p, q) for f, p, q in report_cases(8, 16, 8)]


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_combine_matches_dense_lincomb(seed):
    # every acceptance-grid pair, coefficients with zeros among them
    rng = random.Random(seed)
    for pr in _grid_pairs():
        n = pr.n
        for basis, support in ((pr.basis_plus, pr.plus_support),
                               (pr.basis_minus, pr.minus_support)):
            coeffs = [
                rng.choice((0, Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
                for _ in support
            ]
            assert combine(n, support, coeffs) == lincomb(coeffs, basis, n, n)
            assert combine(n, support, coeffs[: len(coeffs) // 2]) == lincomb(
                coeffs[: len(coeffs) // 2], basis, n, n
            )
