from fractions import Fraction

import pytest

from reference import lincomb, vec
from symslice.cli import report_cases
from symslice.exact import RatMatrix, kernel_basis, solve
from symslice.matspace import act, random_group_element
from symslice.nilpotent import is_relatively_regular, regular_nilpotent
from symslice.pairs import Family, MembershipError, bracket, make_pair
from symslice import sl2
from symslice.sl2 import NoTriple, Sl2Triple, complete_triple, verify_triple


def test_standard_gl11_triple():
    pair = make_pair(Family.GL, 1, 1)
    t = complete_triple(pair, RatMatrix([[0, 1], [0, 0]]))
    assert t.h == RatMatrix([[1, 0], [0, -1]])
    assert t.f == RatMatrix([[0, 0], [1, 0]])


def test_zero_is_rejected():
    pair = make_pair(Family.GL, 1, 1)
    with pytest.raises(NoTriple):
        complete_triple(pair, RatMatrix.zeros(2, 2))


def test_degenerate_orthogonal_pair_has_no_triple():
    pair = make_pair(Family.ORTH, 1, 1)
    with pytest.raises(NoTriple):
        complete_triple(pair, regular_nilpotent(pair))


def test_an_unverified_completion_is_refused(monkeypatch):
    # a solution off by one gives an h and f that fail the relations
    real = sl2.solve

    def off_by_one(*args):
        first, *rest = real(*args)
        return [first + 1, *rest]

    monkeypatch.setattr(sl2, "solve", off_by_one)
    pair = make_pair(Family.GL, 3, 2)
    with pytest.raises(NoTriple, match="^completion failed exact verification$"):
        complete_triple(pair, regular_nilpotent(pair))


def test_membership_is_checked():
    pair = make_pair(Family.GL, 1, 1)
    with pytest.raises(MembershipError):
        complete_triple(pair, RatMatrix.identity(2))


def test_completion_verifies_on_sample_cases():
    for fam, p, q in [
        (Family.ORTH, 2, 1),
        (Family.GL, 3, 2),
        (Family.SP, 4, 2),
        (Family.ORTH, 3, 3),
    ]:
        pair = make_pair(fam, p, q)
        e = regular_nilpotent(pair)
        t = complete_triple(pair, e)
        assert all(ok for _, ok in verify_triple(pair, t))
        assert is_relatively_regular(pair, t.f)


def test_verify_triple_flags_scaled_f():
    pair = make_pair(Family.GL, 1, 1)
    t = complete_triple(pair, RatMatrix([[0, 1], [0, 0]]))
    bad = Sl2Triple(e=t.e, f=2 * t.f, h=t.h)
    results = dict(verify_triple(pair, bad))
    assert not results["bracket_ef"]
    assert results["bracket_hf"]


def test_verify_triple_flags_h_outside_plus():
    pair = make_pair(Family.GL, 1, 1)
    t = complete_triple(pair, RatMatrix([[0, 1], [0, 0]]))
    bad = Sl2Triple(e=t.e, f=t.f, h=t.h + t.e)
    assert not dict(verify_triple(pair, bad))["h_in_g_plus"]


def test_verify_triple_fails_every_check_on_a_wrongly_shaped_triple():
    pair = make_pair(Family.GL, 1, 1)
    t = complete_triple(pair, RatMatrix([[0, 1], [0, 0]]))
    names = ["bracket_he", "bracket_hf", "bracket_ef", "h_in_g_plus",
             "e_in_g_minus", "f_in_g_minus", "nonzero", "f_regular"]
    big = RatMatrix.identity(3)
    for bad in (Sl2Triple(e=t.e, f=big, h=t.h), Sl2Triple(e=big, f=big, h=big)):
        assert verify_triple(pair, bad) == [(name, False) for name in names]


def test_f_is_unique_given_e_and_h():
    # the homogeneous f system has trivial kernel, and re-solving with the
    # coordinate order reversed lands on the same f.  On o(q, q), q odd,
    # the canonical y of ad_e^2 y = -2e is not f, so complete_triple's
    # projection onto ad_h weight -2 does work there.
    cases = [(Family.GL, 2, 2, None), (Family.ORTH, 3, 2, None), (Family.SP, 4, 2, None)]
    cases += [(Family.ORTH, q, q, None) for q in (3, 5, 7, 11)]
    cases.append((Family.ORTH, 5, 5, 4))
    for fam, p, q, seed in cases:
        pair = make_pair(fam, p, q)
        e = regular_nilpotent(pair)
        if seed is not None:
            e = act(pair, random_group_element(pair, seed, height=3), e)
        t = complete_triple(pair, e)
        minus = list(pair.basis_minus)
        nn = pair.n * pair.n

        def build_rows(basis):
            cols_ef = [vec(bracket(e, b)) for b in basis]
            cols_hf = [vec(bracket(t.h, b) + 2 * b) for b in basis]
            rows = [[cols_ef[j][i] for j in range(len(basis))] for i in range(nn)]
            rows += [[cols_hf[j][i] for j in range(len(basis))] for i in range(nn)]
            return RatMatrix(rows, cols=len(basis))

        assert kernel_basis(build_rows(minus)) == []
        rev = list(reversed(minus))
        rhs = list(vec(t.h)) + [Fraction(0)] * nn
        sol = solve(build_rows(rev), rhs)
        assert lincomb(sol, rev, pair.n, pair.n) == t.f
        if fam is Family.ORTH and p == q and q % 2:
            ad2 = _stacked([[vec(bracket(e, bracket(e, b))) for b in minus]], nn)
            y = solve(RatMatrix(ad2, cols=len(minus)), vec(-2 * e))
            assert lincomb(y, minus, pair.n, pair.n) != t.f


def _stacked(column_blocks, nn):
    """Rows of the system whose columns are the concatenated column lists."""
    cols = [c for block in column_blocks for c in block]
    return [[c[i] for c in cols] for i in range(nn)]


def _dense_reference_triple(pair, e):
    """Both solves with one dense bracket per basis matrix, y over all of g.

    None where complete_triple must raise NoTriple.
    """
    if e.is_zero():
        return None
    n, nn = pair.n, pair.n * pair.n
    plus, minus = pair.basis_plus, pair.basis_minus
    amb = plus + minus
    zeros = [(Fraction(0),) * nn]
    # [h, e] = 2e and [e, y] - h = 0 over (h, y)
    rows = _stacked([[vec(bracket(b, e)) for b in plus], zeros * len(amb)], nn)
    rows += _stacked([[vec(-1 * b) for b in plus], [vec(bracket(e, b)) for b in amb]], nn)
    sol = solve(RatMatrix(rows, cols=len(plus) + len(amb)), list(vec(2 * e)) + [0] * nn)
    if sol is None:
        return None
    h = lincomb(sol[: len(plus)], plus, n, n)
    # [e, f] = h and [h, f] + 2f = 0 over f in g(-1)
    rows = _stacked([[vec(bracket(e, b)) for b in minus]], nn)
    rows += _stacked([[vec(bracket(h, b) + 2 * b) for b in minus]], nn)
    sol = solve(RatMatrix(rows, cols=len(minus)), list(vec(h)) + [0] * nn)
    if sol is None:
        return None
    return h, lincomb(sol, minus, n, n)


SMALL_GRID = [(f, p, q) for f, p, q in report_cases(8, 16, 8) if p + q <= 8]


def _is_nilpotent(x):
    y = x
    for _ in range(x.rows):
        y = y * x
    return y.is_zero()


@pytest.mark.parametrize("family,p,q", SMALL_GRID)
def test_completion_matches_dense_reference_with_y_over_all_of_g(family, p, q):
    """Both solves over g(-1) give the same (h, f) as a joint system with
    y over all of g, and raise NoTriple exactly where it has no solution.

    Inputs: the witness e, three seeded conjugates of it, the nilpotent
    matrices among the first six basis matrices of g(-1), e^3 when it is
    nonzero, and the non-nilpotent e + f of the witness's triple.
    """
    pair = make_pair(family, p, q)
    e = regular_nilpotent(pair)
    witness = _dense_reference_triple(pair, e)
    assert (witness is None) == ((family, p, q) == ("o", 1, 1))
    xs = [e] + [act(pair, random_group_element(pair, seed, height=2), e) for seed in range(3)]
    xs += [b for b in pair.basis_minus[:6] if _is_nilpotent(b)]
    e3 = e * e * e
    if not e3.is_zero():
        xs.append(e3)
    if witness is not None:
        assert not _is_nilpotent(e + witness[1])
        xs.append(e + witness[1])
    for x in xs:
        expected = _dense_reference_triple(pair, x)
        if expected is None:
            with pytest.raises(NoTriple):
                complete_triple(pair, x)
        else:
            t = complete_triple(pair, x)
            assert (t.h, t.f) == expected
