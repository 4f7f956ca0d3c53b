import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import lincomb, vec
from symslice import cli
from symslice.cli import build_case, report_cases
from symslice.exact import (
    MAX_DIGITS,
    RatMatrix,
    _matmul,
    charpoly,
    faddeev_leverrier,
    hessenberg_charpoly,
    integer_rows,
    inverse,
    kernel_basis,
    pfaffian,
    rank,
    solve,
)
from symslice.matspace import act, random_group_element
from symslice.nilpotent import make_witness, regular_nilpotent
from symslice.pairs import Family, MembershipError, bracket, make_pair
from symslice.sl2 import complete_triple
from symslice.slice import (
    InvariantVector,
    KostantSlice,
    NotFound,
    SliceDimensionError,
    _Block,
    _graded_solve_pairs,
    _invariant_degree,
    _invariants_of_rows,
    _jacobian,
    _leading,
    _point_rows,
    _slice_invariants,
    _split_charpoly,
    invariant_length,
    invariant_values,
    invariants,
    invariants_from_json,
    invariants_to_json,
    invert_on_slice,
    jacobian_rank_at,
    make_slice,
    slice_point,
)


def build(fam, p, q):
    pair = make_pair(fam, p, q)
    triple = complete_triple(pair, regular_nilpotent(pair))
    return pair, make_slice(pair, triple)


def test_gl11_slice_is_span_of_e():
    pair, slc = build(Family.GL, 1, 1)
    assert slc.dim == 1
    assert slc.slice_basis == (RatMatrix([[0, 1], [0, 0]]),)
    assert slice_point(slc, [Fraction(0)]) == slc.triple.f
    assert slice_point(slc, [Fraction(5)]) == RatMatrix([[0, 5], [1, 0]])


def test_slice_dimensions_match_rank():
    assert build(Family.SP, 2, 2)[1].dim == 1
    assert build(Family.ORTH, 3, 2)[1].dim == 2


def test_slice_point_is_affine():
    pair, slc = build(Family.GL, 3, 2)
    rng = random.Random(2)
    a = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(slc.dim)]
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(slc.dim)]
    lhs = slice_point(slc, a) + slice_point(slc, b) - slc.triple.f
    assert lhs == slice_point(slc, [x + y for x, y in zip(a, b)])


def test_slice_point_injective():
    pair, slc = build(Family.ORTH, 3, 2)
    rng = random.Random(3)
    coord_set = set()
    points = set()
    for _ in range(10):
        coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(slc.dim))
        coord_set.add(coords)
        points.add(slice_point(slc, coords))
    assert len(points) == len(coord_set)


def test_invariants_examples():
    pair, slc = build(Family.GL, 1, 1)
    assert invariants(pair, RatMatrix.zeros(2, 2)).values == (0, 0)
    assert invariants(pair, RatMatrix([[0, 5], [1, 0]])).values == (-5, 0)
    with pytest.raises(MembershipError):
        invariants(pair, RatMatrix.identity(2))


def test_invariants_conjugation_invariance():
    rng = random.Random(5)
    pair, slc = build(Family.SP, 4, 2)
    for _ in range(5):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(slc.dim)]
        x = slice_point(slc, coords)
        g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
        assert invariants(pair, act(pair, g, x)) == invariants(pair, x)


def test_invariant_length_is_augmented_only_for_orth_square():
    assert invariant_length(make_pair(Family.GL, 2, 2)) == 4
    assert invariant_length(make_pair(Family.ORTH, 2, 1)) == 3
    assert invariant_length(make_pair(Family.ORTH, 2, 2)) == 5
    assert invariant_length(make_pair(Family.SP, 2, 2)) == 4


def test_invert_gl11():
    pair, slc = build(Family.GL, 1, 1)
    coords = invert_on_slice(slc, InvariantVector((Fraction(-5), Fraction(0))))
    assert coords == [Fraction(5)]


def test_invert_base_point_roundtrip():
    pair, slc = build(Family.ORTH, 3, 2)
    target = invariants(pair, slc.triple.f)
    assert invert_on_slice(slc, target) == [Fraction(0)] * slc.dim


def test_invert_random_roundtrips():
    # o(3,3), o(4,4) and o(5,5) cover the odd and even Pfaffian classes,
    # o(4,4) with its 2 x 2 block
    rng = random.Random(8)
    cases = [
        (Family.GL, 3, 2),
        (Family.GL, 2, 2),
        (Family.GL, 4, 4),
        (Family.ORTH, 3, 3),
        (Family.ORTH, 4, 4),
        (Family.ORTH, 5, 5),
        (Family.SP, 4, 4),
    ]
    for fam, p, q in cases:
        pair, slc = build(fam, p, q)
        for height in (10, 10**3, 10**7, 10**9):
            for _ in range(5):
                coords = [
                    Fraction(rng.randint(-height, height), rng.randint(1, 10))
                    for _ in range(slc.dim)
                ]
                target = invariants(pair, slice_point(slc, coords))
                assert invert_on_slice(slc, target) == coords


def test_invert_unreachable_target_raises_not_found():
    pair, slc = build(Family.GL, 1, 1)
    # on this slice the trace coefficient is identically zero, so no point
    # has invariants (0, 1)
    with pytest.raises(NotFound):
        invert_on_slice(slc, InvariantVector((Fraction(0), Fraction(1))))
    # o(4,4) pairs its degree-4 class with the Pfaffian, so the determinant
    # is never solved for: raising it by 1 leaves only the final check
    pair, slc = build(Family.ORTH, 4, 4)
    values = list(invariants(pair, slice_point(slc, [1, -2, 3, Fraction(1, 2)])).values)
    values[0] += 1
    with pytest.raises(NotFound):
        invert_on_slice(slc, InvariantVector(values))


def test_jacobian_rank_gl11_everywhere():
    pair, slc = build(Family.GL, 1, 1)
    for c in (0, 3, -7):
        assert jacobian_rank_at(slc, [Fraction(c)]) == 1


def test_jacobian_rank_generic_points():
    rng = random.Random(13)
    for fam, p, q in [(Family.GL, 3, 2), (Family.ORTH, 2, 2), (Family.SP, 4, 2)]:
        pair, slc = build(fam, p, q)
        for _ in range(3):
            coords = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(slc.dim)
            ]
            assert jacobian_rank_at(slc, coords) == pair.rank_theta


def test_pfaffian_value_is_c0_of_the_upper_block():
    # the trailing o(q,q) value, c_0 of the upper-right block, against the
    # congruence-elimination Pfaffian of X J
    rng = random.Random(10)
    for q in [*range(1, 9), 16]:
        pair = make_pair(Family.ORTH, q, q)
        n, basis = pair.n, pair.basis_minus
        points = []
        for sparse in (False, False, True, True) if q < 16 else (False,):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in basis]
            if sparse:
                for i in rng.sample(range(len(basis)), (len(basis) + 1) // 2):
                    coeffs[i] = Fraction(0)
            points.append(lincomb(coeffs, basis, n, n))
        if 2 <= q <= 8:
            slc = build_case("o", q, q).slc
            points.append(slice_point(slc, [0] * slc.dim))
        for x in points:
            assert invariant_values(pair, x)[-1] == pfaffian(x * pair.form)


# every family, p > q included, with p + q <= 10
INVARIANT_CASES = [c for c in report_cases(6, 10, 6) if c[1] + c[2] <= 10]


@st.composite
def minus_points(draw):
    """A case and a point of its g(-1), often sparse."""
    case = draw(st.sampled_from(INVARIANT_CASES))
    pair = make_pair(*case)
    value = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=5))
    coeffs = draw(st.lists(value, min_size=len(pair.basis_minus), max_size=len(pair.basis_minus)))
    return case, lincomb(coeffs, pair.basis_minus, pair.n, pair.n)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(point=minus_points())
@example(point=(("gl", 3, 1), RatMatrix.zeros(4, 4)))
@example(point=(("o", 2, 2), RatMatrix.zeros(4, 4)))
@example(point=(("gl", 3, 2), build_case("gl", 3, 2).triple.f))
@example(point=(("o", 3, 3), build_case("o", 3, 3).triple.f))
@example(point=(("sp", 4, 2), build_case("sp", 4, 2).triple.f))
def test_invariant_values_match_charpoly(point):
    # read off B A, against the full n x n characteristic polynomial and
    # the congruence-elimination Pfaffian of X J
    case, x = point
    pair = make_pair(*case)
    want = charpoly(x)[:-1]
    if case[0] == "o" and case[1] == case[2]:
        want += (pfaffian(x * pair.form),)
    assert invariant_values(pair, x) == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(point=minus_points(), data=st.data())
@example(point=(("gl", 3, 1), RatMatrix.zeros(4, 4)), data=None)
@example(point=(("o", 2, 2), RatMatrix.zeros(4, 4)), data=None)
@example(point=(("gl", 4, 2), build_case("gl", 4, 2).triple.e), data=None)
@example(point=(("o", 3, 3), build_case("o", 3, 3).triple.e), data=None)
@example(point=(("sp", 4, 2), build_case("sp", 4, 2).triple.e), data=None)
@example(point=(("gl", 3, 2), build_case("gl", 3, 2).triple.f), data=None)
@example(point=(("o", 4, 4), build_case("o", 4, 4).triple.f), data=None)
@example(point=(("sp", 6, 4), build_case("sp", 6, 4).triple.f), data=None)
def test_invariants_at_is_invariant_values_at_the_named_indices(point, data):
    # single indices, each degree's indices, and shuffled index lists
    case, x = point
    pair = make_pair(*case)
    full = invariant_values(pair, x)
    length = invariant_length(pair)
    named = [[m] for m in range(length)]
    for k in {_invariant_degree(pair, m) for m in range(length)}:
        named.append([m for m in range(length) if _invariant_degree(pair, m) == k])
    if data is not None:
        named.append(data.draw(st.permutations(range(length))))
        named.append(data.draw(st.lists(st.integers(0, length - 1), max_size=length)))
    # each value comes as an integer pair (c, d) for c / d
    for idx in [*named, range(length)]:
        pairs = _invariants_of_rows(pair, *integer_rows(x), idx)
        assert tuple(Fraction(c, d) for c, d in pairs) == tuple(full[m] for m in idx)


def _sampled_derivative_weights(n):
    """Weights w with sum_j w_j * t_j^m = delta_{m,1} over nodes t_j = 0..n."""
    vt = RatMatrix([[Fraction(t) ** m for t in range(n + 1)] for m in range(n + 1)])
    return solve(vt, [Fraction(int(m == 1)) for m in range(n + 1)])


def _sampled_values(pair, x):
    """The invariants without B A: the full n x n characteristic
    polynomial and, on o(q,q), the congruence-elimination Pfaffian of X J."""
    values = charpoly(x)[: pair.n]
    if invariant_length(pair) > pair.n:
        values += (pfaffian(x * pair.form),)
    return values


def _sampled_jacobian(slc, coords):
    """Reference: every invariant interpolated along each coordinate line
    at n + 1 points and differentiated by Vandermonde weights."""
    n = slc.pair.n
    weights = _sampled_derivative_weights(n)
    cols = []
    for i in range(slc.dim):
        samples = []
        for t in range(n + 1):
            shifted = list(coords)
            shifted[i] += t
            samples.append(_sampled_values(slc.pair, slice_point(slc, shifted)))
        values = zip(*samples)
        cols.append([sum(w * s for w, s in zip(weights, vals)) for vals in values])
    return RatMatrix([list(row) for row in zip(*cols)], cols=slc.dim)


GRID_UP_TO_8 = [c for c in report_cases(8, 16, 8) if c[1] + c[2] <= 8 and c != ("o", 1, 1)]


@pytest.mark.parametrize(
    "case",
    GRID_UP_TO_8 + [("gl", 6, 6), ("o", 6, 6), ("sp", 6, 6), ("gl", 7, 5), ("o", 7, 6)],
    ids=lambda c: "%s%d%d" % c,
)
def test_jacobian_matches_line_sampling(case):
    slc = build_case(*case).slc
    rng = random.Random(repr(case))
    points = [[Fraction(0)] * slc.dim] + [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(slc.dim)]
        for _ in range(3)
    ]
    if case[0] == "o" and case[1] == case[2]:
        # coordinates 0 give the nilpotent f, where the Pfaffian vanishes
        assert invariant_values(slc.pair, slice_point(slc, points[0]))[-1] == 0
    for coords in points:
        assert _jacobian(slc, coords) == _sampled_jacobian(slc, coords)


GRID_UP_TO_10 = [c for c in report_cases(8, 16, 8) if c[1] + c[2] <= 10 and c != ("o", 1, 1)]


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_slice_point_matches_dense_lincomb(seed):
    # every acceptance-grid case with a slice, coordinates with zeros among them
    rng = random.Random(seed)
    for case in report_cases(8, 16, 8):
        slc = build_case(*case).slc
        if slc is None:
            continue
        n = slc.pair.n
        coords = [
            rng.choice((Fraction(0), Fraction(rng.randint(-99, 99), rng.randint(1, 10))))
            for _ in range(slc.dim)
        ]
        dense = lincomb((1, *coords), (slc.triple.f, *slc.slice_basis), n, n)
        assert slice_point(slc, coords) == dense


def _reference_eigenbasis(slc):
    """(weights, to_seed): an eigenbasis of ad h on the slice directions
    in seed coordinates, lightest first, from one solve per direction."""
    n, d, basis = slc.pair.n, slc.dim, slc.slice_basis
    stacked = RatMatrix([list(r) for r in zip(*(vec(b) for b in basis))], cols=d)
    ad_cols = [solve(stacked, vec(bracket(slc.triple.h, b))) for b in basis]
    ad = RatMatrix([[c[i] for c in ad_cols] for i in range(d)], cols=d)
    weights, eigvecs = [], []
    for w in range(0, 2 * n, 2):
        for v in kernel_basis(ad - w * RatMatrix.identity(d)):
            weights.append(w)
            eigvecs.append([v[i, 0] for i in range(d)])
    assert len(eigvecs) == d
    return weights, RatMatrix([[v[i] for v in eigvecs] for i in range(d)], cols=d)


def _reference_blocks(slc):
    """The graded blocks built system by system and without
    `invariant_values`: per class a rank and an inverse of the rows and
    columns of the Jacobian at f (`_jacobian`, which
    `test_jacobian_matches_line_sampling` checks against the sampled
    characteristic polynomial) in graded coordinates, where every
    invariant is its linear part."""
    pair, d = slc.pair, slc.dim
    weights, to_seed = _reference_eigenbasis(slc)
    linear = _jacobian(slc, [Fraction(0)] * d) * to_seed
    blocks = []
    for w in sorted(set(weights)):
        cls = [j for j in range(d) if weights[j] == w]
        invs = [
            m
            for m in range(invariant_length(pair))
            if 2 * _invariant_degree(pair, m) == w + 2 and any(linear[m, j] for j in cls)
        ]
        lin = RatMatrix([[linear[m, j] for j in cls] for m in invs], cols=len(cls))
        assert len(invs) == len(cls) and rank(lin) == len(cls)
        directions = RatMatrix([[to_seed[i, j] for j in cls] for i in range(d)], cols=len(cls))
        blocks.append(_Block(tuple(invs), directions * inverse(lin)))
    return tuple(blocks)


@pytest.mark.parametrize(
    "case",
    GRID_UP_TO_10 + [("gl", 16, 16), ("o", 16, 16), ("sp", 16, 16)],
    ids=lambda c: "%s%d%d" % c,
)
def test_graded_tables_match_system_by_system_reference(case):
    slc = build_case(*case).slc
    assert slc._blocks == _reference_blocks(slc)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "case",
    [("gl", 3, 2), ("o", 2, 2), ("o", 3, 3), ("o", 4, 3), ("sp", 4, 2), ("sp", 4, 4)],
    ids=lambda c: "%s%d%d" % c,
)
def test_slices_at_a_conjugated_nilpotent(case, seed):
    # at g e g^-1 the denominators of f and of the basis matrices differ
    # (o(4,3), seed 1: 1545, 500580, 35226, 792585), so the slice's terms
    # only combine right over their common denominator
    pair = make_pair(*case)
    g = random_group_element(pair, seed, height=3)
    slc = make_slice(pair, complete_triple(pair, act(pair, g, regular_nilpotent(pair))))
    n, d = pair.n, slc.dim
    rng = random.Random(repr((case, seed)))
    points = [
        [Fraction(0)] * d,
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)],
        *([Fraction(int(i == j)) for j in range(d)] for i in range(d)),
    ]
    for coords in points:
        x = slice_point(slc, coords)
        assert x == lincomb((1, *coords), (slc.triple.f, *slc.slice_basis), n, n)
        assert invert_on_slice(slc, invariants(pair, x)) == coords
        assert _jacobian(slc, coords) == _sampled_jacobian(slc, coords)
    assert slc._blocks == _reference_blocks(slc)


@pytest.mark.parametrize("case", GRID_UP_TO_10, ids=lambda c: "%s%d%d" % c)
def test_invariants_are_weighted_homogeneous_on_the_slice(case):
    # with [h, G_j] = w_j G_j, scaling each graded u_j by t^((w_j + 2) / 2)
    # scales an invariant of degree k by t^k: the premise of solving
    # class by class
    slc = build_case(*case).slc
    pair, n, d = slc.pair, slc.pair.n, slc.dim
    weights, to_seed = _reference_eigenbasis(slc)
    graded = [lincomb([to_seed[i, j] for i in range(d)], slc.slice_basis, n, n) for j in range(d)]
    for w, g in zip(weights, graded):
        assert bracket(slc.triple.h, g) == w * g
    rng = random.Random(repr(case))
    for t in (2, -3):
        u = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        scaled = [c * t ** ((w + 2) // 2) for c, w in zip(u, weights)]
        at_u = invariant_values(pair, slc.triple.f + lincomb(u, graded, n, n))
        at_scaled = invariant_values(pair, slc.triple.f + lincomb(scaled, graded, n, n))
        for m in range(invariant_length(pair)):
            assert at_scaled[m] == t ** _invariant_degree(pair, m) * at_u[m]


@pytest.mark.parametrize("case", GRID_UP_TO_10, ids=lambda c: "%s%d%d" % c)
def test_graded_solve_is_the_candidate_invert_on_slice_checks(case):
    slc = build_case(*case).slc
    pair = slc.pair
    rng = random.Random(repr(case))
    for _ in range(3):
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(slc.dim)]
        g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
        target = invariants(pair, act(pair, g, slice_point(slc, coords)))
        assert invert_on_slice(slc, target) == coords
    # a target no slice point has: the graded solve's candidate is unchecked
    values = list(invariants(pair, slc.triple.f).values)
    values[0] += 1
    target = InvariantVector(values)
    num, den = _graded_solve_pairs(slc, [v.as_integer_ratio() for v in target.values])
    candidate = [Fraction(x, den) for x in num]
    if invariant_values(pair, slice_point(slc, candidate)) != target.values:
        with pytest.raises(NotFound):
            invert_on_slice(slc, target)
    else:
        assert invert_on_slice(slc, target) == candidate
    with pytest.raises(ValueError, match="invariant values"):
        invert_on_slice(slc, InvariantVector(values[:-1]))


@pytest.mark.parametrize("case", GRID_UP_TO_10, ids=lambda c: "%s%d%d" % c)
def test_the_integer_core_matches_the_fraction_reference(case):
    # the core gives the same lowest terms on the target's reduced pairs,
    # on the unreduced pairs of the point's integer rows and on those
    # pairs scaled by a different prime each
    slc = build_case(*case).slc
    pair = slc.pair
    indices = range(invariant_length(pair))
    rng = random.Random(repr(case))
    for _ in range(3):
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(slc.dim)]
        target = invariants(pair, slice_point(slc, coords))
        assert reference.graded_solve(slc, target) == coords
        num, den = integer_rows(slice_point(slc, coords))
        pairs = _invariants_of_rows(pair, num, den, indices)
        got, gden = _graded_solve_pairs(slc, pairs)
        assert [Fraction(x, gden) for x in got] == coords
        assert math.gcd(gden, *got) == 1
        reduced = [v.as_integer_ratio() for v in target.values]
        assert _graded_solve_pairs(slc, reduced) == (got, gden)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        scaled = [(k * c, k * d) for k, (c, d) in zip(primes, pairs)]
        assert _graded_solve_pairs(slc, scaled) == (got, gden)
        # each invariant moved by one in turn: targets the reference solve
        # reads the same way, on or off the image
        for m in indices:
            values = list(target.values)
            values[m] += 1
            off = InvariantVector(values)
            num, den = _graded_solve_pairs(slc, [v.as_integer_ratio() for v in off.values])
            assert [Fraction(x, den) for x in num] == reference.graded_solve(slc, off)


GRID_UP_TO_8 = [c for c in GRID_UP_TO_10 if c[1] + c[2] <= 8]


@pytest.mark.parametrize("height", [10, 10**6])
@pytest.mark.parametrize("case", GRID_UP_TO_8, ids=lambda c: "%s%d%d" % c)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_graded_solve_matches_the_fraction_reference(case, height, data):
    # the integer-row solve against the Fraction-per-entry solve it
    # replaced, on slice points and on targets moved off the image
    slc = build_case(*case).slc
    pair, n = slc.pair, slc.pair.n
    value = st.fractions(-height, height, max_denominator=height)
    coords = data.draw(st.lists(value, min_size=slc.dim, max_size=slc.dim))
    target = invariants(pair, slice_point(slc, coords))
    assert invert_on_slice(slc, target) == reference.invert(slc, target) == coords
    # c_(n-1) = -tr X is 0 on g(-1); c_0 is free only on gl(q, q)
    moved = [n - 1] if case[0] == "gl" and case[1] == case[2] else [n - 1, 0]
    for m in moved:
        values = list(target.values)
        values[m] += 1
        off = InvariantVector(values)
        num, den = _graded_solve_pairs(slc, [v.as_integer_ratio() for v in off.values])
        assert [Fraction(x, den) for x in num] == reference.graded_solve(slc, off)
        with pytest.raises(NotFound):
            reference.invert(slc, off)
        with pytest.raises(NotFound, match="must be"):
            invert_on_slice(slc, off)
        # the final exact check refuses it on its own
        with mock.patch("symslice.slice._broken_relation", return_value=None):
            with pytest.raises(NotFound, match="no slice point has these invariants$"):
                invert_on_slice(slc, off)


def test_slice_directions_not_stable_under_ad_h_are_refused():
    pair, slc = build(Family.GL, 1, 1)
    # [h, e + f] = 2e - 2f leaves the span of e + f
    bent = KostantSlice(pair, slc.triple, (slc.triple.e + slc.triple.f,))
    with pytest.raises(SliceDimensionError, match="ad h does not preserve"):
        bent._blocks


def test_weight_class_without_as_many_invariants_is_refused():
    # two weight-2 directions, and one invariant of degree 2 to solve for them
    pair, slc = build(Family.GL, 2, 2)
    two = tuple(b for b in pair.basis_minus if bracket(slc.triple.h, b) == 2 * b)[:2]
    bent = KostantSlice(pair, slc.triple, two)
    with pytest.raises(SliceDimensionError, match=r"at f \(1\) do not solve for the 2 slice"):
        bent._blocks


def test_dependent_slice_directions_are_refused():
    pair, slc = build(Family.ORTH, 4, 4)
    e = slc.triple.e
    e3 = e * e * e
    # e^3 twice: four directions spanning three
    bent = KostantSlice(pair, slc.triple, (e, e3, e3, e3 * e * e))
    with pytest.raises(SliceDimensionError):
        bent._blocks


# every grid case with a triple, and the square cases at 12
FAST_PATH_CASES = [c for c in report_cases(8, 16, 8) if c != ("o", 1, 1)] + [
    ("gl", 12, 12),
    ("o", 12, 12),
    ("sp", 12, 12),
]


@pytest.mark.parametrize("case", FAST_PATH_CASES, ids=lambda c: f"{c[0]}{c[1]}_{c[2]}")
def test_slice_points_take_the_hessenberg_recurrence(case):
    # B A at a slice point is one Hessenberg block on gl and o and two on
    # sp, and A is Hessenberg on o(q,q): a basis order that sent these to
    # the Faddeev-LeVerrier fallback would otherwise show only as time
    slc = build_case(*case).slc
    pair = slc.pair
    p, q = pair.p, pair.q
    rng = random.Random(f"{case}")
    for _ in range(3):
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(slc.dim)]
        num, _ = integer_rows(slice_point(slc, coords))
        a = [row[p:] for row in num[:p]]
        ba = _matmul([row[:p] for row in num[p:]], a, q)
        if pair.family is Family.SP:
            assert _split_charpoly(ba, q) is not None
        else:
            assert hessenberg_charpoly(ba, q) is not None
        assert [c for c, _ in _leading(ba, 1, q)] == [c for c, _ in faddeev_leverrier(ba)]
        if invariant_length(pair) > pair.n:
            assert hessenberg_charpoly(a, q) is not None
    # the kernel's support has that zero pattern too, so every B A it sums has
    _, products, uppers = slc._kernel
    assert products and all(t <= s and entries for t, s, entries in products)
    ba = [[0] * q for _ in range(q)]
    for _, _, entries in products:
        for i, j, _ in entries:
            ba[i][j] = 1
    if pair.family is Family.SP:
        assert _split_charpoly(ba, 0) is not None
    else:
        assert hessenberg_charpoly(ba, 0) is not None
    if invariant_length(pair) > pair.n:
        a = [[0] * q for _ in range(p)]
        for entries in uppers:
            for i, j, _ in entries:
                a[i][j] = 1
        assert hessenberg_charpoly(a, 0) is not None


KERNEL_CASES = FAST_PATH_CASES + [("gl", 16, 16), ("o", 16, 16), ("sp", 16, 16)]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: f"{c[0]}{c[1]}_{c[2]}")
def test_slice_invariants_are_the_pairs_of_the_rows_path(case):
    # the kernel's sum against B' A' of the assembled n x n point, pair
    # for pair: heights 1, 10 and 10^30, zero coordinates, every index
    # alone, each weight class's indices and the whole vector
    slc = build_case(*case).slc
    pair = slc.pair
    length = invariant_length(pair)
    named = [range(length), *([m] for m in range(length))]
    named += [list(block.invariants) for block in slc._blocks]
    rng = random.Random(f"{case}")
    points = [([0] * slc.dim, 1), ([0] * slc.dim, 7)]
    for height in (1, 10, 10**30):
        for _ in range(2):
            num = [rng.choice((0, rng.randint(-height, height))) for _ in range(slc.dim)]
            points.append((num, rng.randint(1, height)))
    for num, den in points:
        rows, rden = _point_rows(slc, num, den)
        for idx in named:
            assert _slice_invariants(slc, num, den, idx) == _invariants_of_rows(
                pair, rows, rden, idx
            )


def test_a_support_term_in_a_diagonal_block_raises():
    pair, slc = build(Family.GL, 2, 2)
    # h lies in the diagonal blocks, outside g(-1)
    bent = KostantSlice(pair, slc.triple, (*slc.slice_basis[:-1], slc.triple.h))
    with pytest.raises(AssertionError, match="outside g"):
        bent._kernel


def test_slice_paths_do_not_build_the_point():
    # the graded solve, its final check and the certificate's round trip
    # evaluate slice points from the kernel alone
    for case in [("gl", 3, 3), ("o", 4, 4), ("sp", 4, 2), ("gl", 4, 2)]:
        slc = build_case(*case).slc
        indices = range(invariant_length(slc.pair))
        rng = random.Random(f"{case}")
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(slc.dim)]
        target = invariants(slc.pair, slice_point(slc, coords))
        num, den = integer_rows(slice_point(slc, coords))
        pairs = [v.as_integer_ratio() for v in target.values]
        with mock.patch("symslice.slice._point_rows", side_effect=AssertionError), \
                mock.patch("symslice.cli._point_rows", side_effect=AssertionError):
            got, gden = _graded_solve_pairs(slc, pairs)
            assert [Fraction(x, gden) for x in got] == coords
            assert invert_on_slice(slc, target) == coords
            assert cli._roundtrip(slc, 5, random.Random(1)) == 5


def test_make_slice_takes_the_witness_basis():
    for case in [("gl", 3, 2), ("o", 3, 3), ("sp", 4, 2)]:
        pair = make_pair(*case)
        witness = make_witness(pair)
        triple = complete_triple(pair, witness.e)
        slc = make_slice(pair, triple, witness.centralizer_basis)
        assert slc == make_slice(pair, triple)
        short = witness.centralizer_basis[:-1]
        with pytest.raises(SliceDimensionError, match=f"dimension {len(short)} != rank theta"):
            make_slice(pair, triple, short)


def test_slice_dimension_is_the_number_of_directions():
    # a slice carries no separate count that could disagree with its basis
    pair, slc = build(Family.GL, 1, 1)
    with pytest.raises(TypeError):
        KostantSlice(pair, slc.triple, slc.slice_basis, 2)
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        slice_point(slc, [5, 7])


def test_invariants_json_roundtrip():
    v = InvariantVector((Fraction(-5), Fraction(1, 3)))
    assert invariants_from_json(invariants_to_json(v)) == v
    with pytest.raises(ValueError):
        invariants_from_json('{"not": "a list"}')
    with pytest.raises(ValueError):
        invariants_from_json('["1/0"]')


def test_invariants_json_is_exact():
    got = invariants_from_json('[0.12345678901234567890, 1e3, "2.5e-1", "-1/3", 7]')
    want = (Fraction("0.12345678901234567890"), Fraction(1000), Fraction(1, 4),
            Fraction(-1, 3), Fraction(7))
    assert got.values == want
    assert invariants_from_json("[1e5000]").values == (Fraction(10**5000),)
    # a bare integer meets symslice's digit bound, not the interpreter's
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        invariants_from_json("[1" + "0" * MAX_DIGITS + "]")
    for bad in ("[NaN]", "[Infinity]", "[-Infinity]", '["nan"]', '["inf"]', "[true]", "[null]"):
        with pytest.raises(ValueError):
            invariants_from_json(bad)
