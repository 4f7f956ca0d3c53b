"""The paper's theorem as a property: every rational point of the quotient
g(-1)//K in the quotient's own coordinates is the invariant vector of a
rational slice point (Kostant-Rallis), and a target off the quotient's
image is refused with NotFound.

An element X = ((0, A), (B, 0)) of g(-1) has det(tI - X) = t^(p - q) P(t^2),
P = charpoly(B A) monic of degree q, so X's coefficient at p - q + 2j is
P's coefficient of t^j and every other coefficient is 0.  The image is cut
out by two more relations: for o(q,q) the Pfaffian Pf(X J) is free and
c_0 = (-1)^q Pf^2, and for sp(p,q) P = R^2 for a monic R of degree q / 2.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symslice.cli import build_case, report_cases
from symslice.slice import InvariantVector, NotFound, invariants, invert_on_slice, slice_point

GRID = [c for c in report_cases(8, 16, 8) if c[1] + c[2] <= 10 and c != ("o", 1, 1)]
SQUARE_16 = [("gl", 16, 16), ("o", 16, 16), ("sp", 16, 16)]

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def _square(r):
    """The coefficients of R^2, constant term first, for R given likewise."""
    out = [Fraction(0)] * (2 * len(r) - 1)
    for i, a in enumerate(r):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def _target(case, poly, pf=None):
    """The invariant vector of P = sum_j poly[j] t^j (monic of degree q),
    with the o(q,q) Pfaffian appended when given."""
    _, p, q = case
    assert len(poly) == q + 1 and poly[q] == 1
    values = [Fraction(0)] * (p + q)
    values[p - q :: 2] = poly[:-1]
    return values + ([pf] if pf is not None else [])


@st.composite
def quotient_points(draw, case):
    """(P, Pf): a point of the quotient in its own coordinates, Pf None
    unless the pair is o(q,q)."""
    fam, p, q = case
    if fam == "sp":
        r = draw(st.lists(coefficients, min_size=q // 2, max_size=q // 2)) + [Fraction(1)]
        return _square(r), None
    poly = draw(st.lists(coefficients, min_size=q, max_size=q)) + [Fraction(1)]
    if fam == "o" and p == q:
        pf = draw(coefficients)
        poly[0] = (-1) ** q * pf**2
        return poly, pf
    return poly, None


def _reaches(case, values):
    slc = build_case(*case).slc
    target = InvariantVector(values)
    coords = invert_on_slice(slc, target)
    assert invariants(slc.pair, slice_point(slc, coords)) == target


@pytest.mark.parametrize("case", GRID, ids=lambda c: "%s%d%d" % c)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_quotient_point_has_a_slice_point(case, data):
    poly, pf = data.draw(quotient_points(case))
    _reaches(case, _target(case, poly, pf))


@pytest.mark.parametrize("case", SQUARE_16, ids=lambda c: "%s%d%d" % c)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_quotient_point_has_a_slice_point_at_16(case, data):
    poly, pf = data.draw(quotient_points(case))
    _reaches(case, _target(case, poly, pf))


nonzero = coefficients.filter(bool)


@pytest.mark.parametrize("case", GRID, ids=lambda c: "%s%d%d" % c)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_nonzero_structural_zero_is_not_reached(case, data):
    _, p, q = case
    n = p + q
    poly, pf = data.draw(quotient_points(case))
    values = _target(case, poly, pf)
    for m in range(n):
        if m < p - q or (n - m) % 2:
            broken = list(values)
            broken[m] = data.draw(nonzero)
            with pytest.raises(NotFound):
                _reaches(case, broken)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_orthogonal_constant_term_off_the_pfaffian_square_is_not_reached(q, data):
    case = ("o", q, q)
    poly, pf = data.draw(quotient_points(case))
    # -Pf has the same square, and is reached too
    _reaches(case, _target(case, poly, -pf))
    poly[0] += data.draw(nonzero)
    with pytest.raises(NotFound):
        _reaches(case, _target(case, poly, pf))


@pytest.mark.parametrize("case", [c for c in GRID if c[0] == "sp"], ids=lambda c: "%s%d%d" % c)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_symplectic_polynomial_that_is_no_square_is_not_reached(case, data):
    # R^2 + d for a constant d != 0 is no square of a monic polynomial:
    # S^2 - R^2 = (S - R)(S + R) has degree at least deg R unless S = R
    poly, _ = data.draw(quotient_points(case))
    poly[0] += data.draw(nonzero)
    with pytest.raises(NotFound):
        _reaches(case, _target(case, poly))
