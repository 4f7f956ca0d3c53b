import logging
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from symslice.cli import build_case, report_cases
from symslice.exact import RatMatrix, kernel_basis, lincomb, nilpotency_index, spans_equal, vec
from symslice.matspace import act, random_group_element
from symslice.nilpotent import (
    _PRIME,
    centralizer,
    closed_form_centralizer,
    is_relatively_regular,
    make_witness,
    regular_nilpotent,
)
from symslice.pairs import Family, MembershipError, bracket, in_eigenspace, make_pair
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
    for fam, p, q in CASES:
        pair = make_pair(fam, p, q)
        computed = centralizer(pair, regular_nilpotent(pair))
        assert spans_equal(computed, closed_form_centralizer(pair))


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
    pair = case.core.pair
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


def test_sparse_system_matches_bracket_reference_on_grid_witnesses():
    for fam, p, q in GRID:
        core = build_case(fam, p, q, with_triple=False)
        expected = _reference_centralizer(core.pair, core.witness.e)
        assert list(core.witness.centralizer_basis) == expected, (fam, p, q)


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
    assert fast.startswith("regular by mod-p certificate: ad system ")
    assert " x 9, rank 6" in fast
    assert slow == (
        "regularity by exact fallback: ad system 0 x 9, mod-p rank 0, centralizer dim 9"
    )
