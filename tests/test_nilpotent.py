import logging
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from symslice.cli import build_case, report_cases
from symslice import nilpotent
from symslice.exact import (
    RatMatrix,
    block_antidiag,
    integer_rows,
    inverse,
    kernel_basis,
    nilpotency_index,
    rank,
    spans_equal,
)
from reference import hstack, lincomb, shift_power, vec, vstack
from symslice.matspace import GroupElement, act, cayley, from_matrix_space, random_group_element
from symslice.nilpotent import (
    _PRIME,
    _ad_system,
    centralizer,
    closed_form_centralizer,
    is_relatively_regular,
    make_witness,
    regular_nilpotent,
)
from symslice.pairs import (
    MAX_SIZE,
    ConstraintViolation,
    Family,
    MembershipError,
    bracket,
    in_eigenspace,
    make_pair,
)
from symslice.slice import slice_point

CASES = [
    (Family.GL, 2, 1),
    (Family.GL, 3, 3),
    (Family.GL, 4, 2),
    (Family.ORTH, 1, 1),
    (Family.ORTH, 2, 1),
    (Family.ORTH, 2, 2),
    (Family.ORTH, 3, 3),
    (Family.ORTH, 4, 4),
    (Family.SP, 2, 2),
    (Family.SP, 4, 2),
    (Family.SP, 4, 4),
]


def _block_assembled_nilpotent(pair):
    """The representative assembled case by case from identity, zero and
    shift blocks: the reference for the index formulas of
    `regular_nilpotent`."""
    p, q = pair.p, pair.q
    if pair.family is Family.GL:
        if p > q:
            a = vstack([RatMatrix.identity(q), RatMatrix.zeros(p - q, q)])
            b = hstack(
                [RatMatrix.zeros(q, 1), RatMatrix.identity(q), RatMatrix.zeros(q, p - q - 1)]
            )
        else:
            a = RatMatrix.identity(q)
            b = shift_power(q, 1)
        return block_antidiag(a, b)
    if pair.family is Family.SP:
        if p > q:
            r = (p - q) // 2
            a = vstack(
                [RatMatrix.zeros(r - 1, q), RatMatrix.identity(q), RatMatrix.zeros(r + 1, q)]
            )
        else:
            a = shift_power(q, 1)
    elif p == q + 1:
        a = vstack([RatMatrix.identity(q), RatMatrix.zeros(1, q)])
    else:
        # the identity with its first ceil(q/2) ones moved one column right;
        # a one moved past the last column falls off, so q = 1 gives 0
        rows = [[Fraction(0)] * q for _ in range(q)]
        for i in range(q):
            if i >= (q + 1) // 2:
                rows[i][i] = Fraction(1)
            elif i + 1 < q:
                rows[i][i + 1] = Fraction(1)
        a = RatMatrix(rows, cols=q)
    return from_matrix_space(pair, a)


def test_index_formulas_match_the_block_assembly():
    pairs = []
    for fam in Family:
        for p in range(1, MAX_SIZE):
            for q in range(1, min(p, MAX_SIZE - p) + 1):
                try:
                    pairs.append(make_pair(fam, p, q))
                except ConstraintViolation:
                    pass
    assert len(pairs) == 351
    for pair in pairs:
        assert regular_nilpotent(pair) == _block_assembled_nilpotent(pair), pair


def test_frozen_representatives():
    assert regular_nilpotent(make_pair(Family.GL, 2, 1)) == RatMatrix(
        [[0, 0, 1], [0, 0, 0], [0, 1, 0]]
    )
    assert regular_nilpotent(make_pair(Family.ORTH, 2, 1)) == RatMatrix(
        [[0, 0, 1], [0, 0, 0], [0, 1, 0]]
    )
    e = regular_nilpotent(make_pair(Family.SP, 4, 2))
    assert e.submatrix(0, 4, 4, 6) == RatMatrix([[1, 0], [0, 1], [0, 0], [0, 0]])
    assert e.submatrix(4, 6, 0, 4) == RatMatrix([[0, 0, -1, 0], [0, 0, 0, -1]])


def test_construction_properties():
    for fam, p, q in CASES:
        pair = make_pair(fam, p, q)
        e = regular_nilpotent(pair)
        assert in_eigenspace(pair, e, -1)
        assert nilpotency_index(e) is not None
        assert len(centralizer(pair, e)) == pair.rank_theta


def test_degenerate_orthogonal_case_returns_zero():
    pair = make_pair(Family.ORTH, 1, 1)
    e = regular_nilpotent(pair)
    assert e.is_zero()
    assert nilpotency_index(e) == 1
    assert is_relatively_regular(pair, e)


def test_centralizer_of_zero_is_everything():
    pair = make_pair(Family.GL, 2, 1)
    assert len(centralizer(pair, RatMatrix.zeros(3, 3))) == len(pair.basis_minus)


def test_centralizer_elements_commute_and_live_in_minus():
    from symslice.pairs import bracket

    for fam, p, q in CASES:
        pair = make_pair(fam, p, q)
        e = regular_nilpotent(pair)
        for z in centralizer(pair, e):
            assert in_eigenspace(pair, z, -1)
            assert bracket(e, z).is_zero()


def test_relative_regularity_examples():
    pair = make_pair(Family.GL, 2, 1)
    assert is_relatively_regular(pair, regular_nilpotent(pair))
    assert not is_relatively_regular(pair, RatMatrix.zeros(3, 3))
    with pytest.raises(MembershipError):
        is_relatively_regular(pair, RatMatrix.identity(3))


def test_closed_form_gl21_is_the_nilpotent_itself():
    pair = make_pair(Family.GL, 2, 1)
    closed = closed_form_centralizer(pair)
    assert closed == [regular_nilpotent(pair)]


def test_closed_form_sp22_spans_line_through_e():
    pair = make_pair(Family.SP, 2, 2)
    closed = closed_form_centralizer(pair)
    assert len(closed) == 1
    assert spans_equal(closed, [regular_nilpotent(pair)])


def test_closed_form_orth33_has_dimension_three():
    pair = make_pair(Family.ORTH, 3, 3)
    assert len(closed_form_centralizer(pair)) == 3


def test_closed_form_matches_computed_span():
    # every allowed pair with p + q <= 20
    pairs = []
    for fam in Family:
        for p in range(1, 20):
            for q in range(1, min(p, 20 - p) + 1):
                try:
                    pairs.append(make_pair(fam, p, q))
                except ConstraintViolation:
                    pass
    assert len(pairs) == 144
    for pair in pairs:
        computed = centralizer(pair, regular_nilpotent(pair))
        assert spans_equal(computed, closed_form_centralizer(pair)), pair


def test_centralizer_dim_is_conjugation_covariant():
    rng = random.Random(21)
    for fam, p, q in [(Family.GL, 3, 2), (Family.ORTH, 3, 2), (Family.SP, 4, 2)]:
        pair = make_pair(fam, p, q)
        e = regular_nilpotent(pair)
        for _ in range(3):
            g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
            assert len(centralizer(pair, act(pair, g, e))) == len(centralizer(pair, e))


def test_centralizer_dim_at_least_rank():
    rng = random.Random(31)
    for fam, p, q in [(Family.GL, 3, 2), (Family.ORTH, 3, 3), (Family.SP, 4, 4)]:
        pair = make_pair(fam, p, q)
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in pair.basis_minus]
            x = lincomb(coeffs, pair.basis_minus, pair.n, pair.n)
            assert len(centralizer(pair, x)) >= pair.rank_theta


def test_make_witness():
    w = make_witness(make_pair(Family.ORTH, 3, 3))
    assert w.centralizer_dim == 3 == len(w.centralizer_basis)
    assert w.nilp_index == 5


# The acceptance grid (GL p <= 8, O p + q <= 16, Sp p <= 8) and its part with n <= 8.
GRID = [(Family(f), p, q) for f, p, q in report_cases(8, 16, 8)]
SMALL_GRID = [(f, p, q) for f, p, q in GRID if p + q <= 8]


def _reference_system(pair, x):
    """ad_x in the g(-1) basis, one dense bracket per basis matrix, all n^2 rows."""
    cols = [vec(bracket(x, b)) for b in pair.basis_minus]
    return [[col[i] for col in cols] for i in range(pair.n * pair.n)]


def _reference_centralizer(pair, x):
    vectors = kernel_basis(RatMatrix(_reference_system(pair, x), cols=len(pair.basis_minus)))
    return [
        lincomb([v[j, 0] for j in range(v.rows)], pair.basis_minus, pair.n, pair.n)
        for v in vectors
    ]


def _sympy_regular(pair, x):
    rows = [[QQ(a.numerator, a.denominator) for a in row] for row in _reference_system(pair, x)]
    r = DomainMatrix(rows, (len(rows), len(pair.basis_minus)), QQ).rank()
    return len(pair.basis_minus) - r == pair.rank_theta


def _grid_elements(fam, p, q, rng):
    """Sums of one to three basis matrices, a slice point and a conjugated one."""
    case = build_case(fam, p, q)
    pair = case.pair
    basis = pair.basis_minus
    out = []
    for k in (1, 2, 3):
        picks = rng.sample(range(len(basis)), min(k, len(basis)))
        coeffs = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in picks]
        out.append(lincomb(coeffs, [basis[i] for i in picks], pair.n, pair.n))
    if case.slc is not None:
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(case.slc.dim)]
        x = slice_point(case.slc, coords)
        g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
        out += [x, act(pair, g, x)]
    return pair, out


def test_regularity_matches_exact_kernel_and_sympy():
    rng = random.Random(41)
    seen = set()
    for fam, p, q in SMALL_GRID:
        pair, xs = _grid_elements(fam, p, q, rng)
        for x in xs:
            got = is_relatively_regular(pair, x)
            assert got == (len(centralizer(pair, x)) == pair.rank_theta), (fam, p, q, x)
            assert got == _sympy_regular(pair, x), (fam, p, q, x)
            seen.add(got)
    assert seen == {True, False}


def _cayley_element(pair, rng):
    """(I - s)(I + s)^-1 for a random integer s in g(1): a group element
    whose entries have denominators, for every family."""
    while True:
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in pair.basis_plus]
        try:
            g = cayley(pair, lincomb(coeffs, pair.basis_plus, pair.n, pair.n))
        except ValueError:
            continue
        return GroupElement(g=g, g_inv=inverse(g))


def test_sparse_system_matches_bracket_reference_on_grid_witnesses():
    for fam, p, q in GRID:
        case = build_case(fam, p, q)
        expected = _reference_centralizer(case.pair, case.witness.e)
        assert list(case.witness.centralizer_basis) == expected, (fam, p, q)
    # inputs with denominators: Cayley-conjugated basis matrices, slice
    # points at fractional coordinates and their Cayley conjugates
    rng = random.Random(43)
    for fam, p, q in SMALL_GRID:
        case = build_case(fam, p, q)
        pair = case.pair
        g = _cayley_element(pair, rng)
        xs = [act(pair, g, rng.choice(pair.basis_minus))]
        if case.slc is not None:
            dim = case.slc.dim
            coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(dim)]
            x = slice_point(case.slc, coords)
            xs += [x, act(pair, g, x)]
        for x in xs:
            assert centralizer(pair, x) == _reference_centralizer(pair, x), (fam, p, q, x)


def test_regularity_vanishing_mod_p_falls_back_to_exact(caplog):
    for fam, p, q in CASES:
        pair = make_pair(fam, p, q)
        if len(pair.basis_minus) == pair.rank_theta:
            continue  # o(1,1): every element is regular, the empty system certifies it
        x = _PRIME * regular_nilpotent(pair)
        assert all(a % _PRIME == 0 for i in range(x.rows) for a in x.row(i))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="symslice.nilpotent"):
            assert is_relatively_regular(pair, x)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "regularity by exact fallback"
        ]


def test_regularity_logs_which_path_decided(caplog):
    pair = make_pair(Family.ORTH, 3, 3)
    with caplog.at_level(logging.DEBUG, logger="symslice.nilpotent"):
        assert is_relatively_regular(pair, regular_nilpotent(pair))
        assert not is_relatively_regular(pair, RatMatrix.zeros(6, 6))
    fast, slow = [r.getMessage() for r in caplog.records]
    # e has Jordan type (5, 1): two invariant factors, commutant dim 5 + 3
    assert fast == (
        "regular by Krylov-chain certificate: seeds 2, commutant bound 8, centralizer dim 3"
    )
    assert slow == "regularity by exact fallback: ad system 0 x 9, centralizer dim 9"


# ---------------------------------------------------------------------------
# The Krylov-chain certificate.
# ---------------------------------------------------------------------------


def _conjugated_slice_points(case, rng, count):
    pair = case.pair
    out = []
    for _ in range(count):
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(case.slc.dim)]
        g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
        out.append(act(pair, g, slice_point(case.slc, coords)))
    return out


def _certificate_inputs(case, rng, slices):
    """(kind, x): conjugated slice points, every g(-1) basis matrix, sums
    of one to three of them, e, f and 0."""
    pair = case.pair
    basis = pair.basis_minus
    out = [("basis", b) for b in basis]
    for k in (1, 2, 3):
        picks = rng.sample(range(len(basis)), min(k, len(basis)))
        coeffs = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in picks]
        out.append(("sum", lincomb(coeffs, [basis[i] for i in picks], pair.n, pair.n)))
    out += [("e", case.witness.e), ("zero", RatMatrix.zeros(pair.n, pair.n))]
    if case.slc is not None:
        out.append(("f", case.triple.f))
        out += [("slice", x) for x in _conjugated_slice_points(case, rng, slices)]
    return out


def _exact_centralizer_dim(pair, x):
    dim = len(pair.minus_support)
    return dim - rank(RatMatrix.from_ints(_ad_system(pair, x), cols=dim))


@pytest.mark.parametrize("large", [False, True], ids=["grid", "12x12"])
def test_krylov_bound_is_never_below_the_exact_dimension_and_certifies_regular_inputs(large):
    if large:
        cases = [(fam, 12, 12) for fam in Family]
    else:
        cases = [(f, p, q) for f, p, q in GRID if p + q <= 10]
    rng = random.Random(47)
    certified = set()
    for fam, p, q in cases:
        case = build_case(fam, p, q)
        pair = case.pair
        for kind, x in _certificate_inputs(case, rng, 1 if large else 2):
            bound = nilpotent._krylov_bound(pair, integer_rows(x)[0])[0]
            if kind == "slice":
                # every point of the Kostant-Rallis slice is regular, and so
                # is each conjugate: the bound must certify it
                assert bound == pair.rank_theta, (fam, p, q, kind)
                certified.add(fam)
                if large:
                    continue  # one exact rank of a dense 12 x 12 point takes ~20 s
            exact = _exact_centralizer_dim(pair, x)
            assert bound >= exact, (fam, p, q, kind)
            if exact == pair.rank_theta:
                assert bound == exact, (fam, p, q, kind)
                certified.add(fam)
            if fam is Family.GL:
                # z_g(x) = C(x) on gl: the bound is exact where the chains
                # find every d_i, as they do on every input here
                assert bound == exact, (fam, p, q, kind)
    assert certified == set(Family)


# floor(n/2) = rank theta: the pair shapes whose regular points are cyclic
_CYCLIC_SHAPES = ("gl(q,q)", "gl(q+1,q)", "o(q,q)", "o(q+1,q)")


def _shape(fam, p, q):
    if fam is Family.SP or p - q > 1:
        return None
    return f"{fam.value}(q{'+1' if p > q else ''},q)"


def _odd_powers_rank(pair, x):
    """The exact rank of x, x^3, ... below n: all lie in z(x), so this is
    a lower bound on dim z(x) without the ad_x system."""
    powers, y, x2 = [], x, x * x
    for _ in range(pair.n // 2):
        assert in_eigenspace(pair, y, -1) and bracket(x, y).is_zero()
        powers.append(y)
        y = y * x2
    return rank(RatMatrix([list(vec(z)) for z in powers]))


@pytest.mark.parametrize("large", [False, True], ids=["grid", "12x12"])
def test_cyclic_certificate_agrees_with_exact_kernel(large):
    """The cyclic case of the Krylov-chain certificate: the first seed's
    chain spans Q^n (one seed, commutant bound n).  It happens on every
    conjugated slice point of the four cyclic shapes and on no other, and
    wherever it happens the bound is rank theta and exact."""
    if large:
        cases = [(Family.GL, 12, 12), (Family.ORTH, 12, 12)]
    else:
        cases = [(f, p, q) for f, p, q in GRID if p + q <= 10]
    rng = random.Random(47)
    slices = []
    for fam, p, q in cases:
        case = build_case(fam, p, q)
        pair = case.pair
        shape = _shape(fam, p, q)
        for kind, x in _certificate_inputs(case, rng, 1 if large else 2):
            bound, seeds, c = nilpotent._krylov_bound(pair, integer_rows(x)[0])
            cyclic = c == pair.n
            assert cyclic == (seeds == 1), (fam, p, q, kind)
            if kind == "slice":
                slices.append((shape, cyclic))
            if not cyclic:
                continue
            # never for sp or gl(p,q) with p >= q + 2
            assert shape in _CYCLIC_SHAPES, (fam, p, q, kind)
            assert bound == pair.rank_theta, (fam, p, q, kind)
            if large:
                # lower bound = upper bound: dim z(x) = floor(n/2) exactly
                assert _odd_powers_rank(pair, x) == bound, (fam, p, q, kind)
            else:
                assert _exact_centralizer_dim(pair, x) == bound, (fam, p, q, kind)
    # every conjugated slice point of the four shapes, and no other
    assert slices
    assert all(cyclic == (shape is not None) for shape, cyclic in slices)
    if not large:
        assert {shape for shape, _ in slices} >= set(_CYCLIC_SHAPES)
