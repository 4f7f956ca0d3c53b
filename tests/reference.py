"""Reference constructions for the tests, kept out of the library.

Block stacking and shift matrices, which no library path needs, and the
Fraction-per-entry graded solve that `slice.graded_solve` replaced with
integer rows over one denominator: every coordinate is a Fraction, each
partial point is f + sum_k a_k b_k built by `exact.lincomb`, and its
invariants are the full n x n characteristic polynomial (with the
Pfaffian of X J on o(q,q)), not the recurrence over B A.
"""

from fractions import Fraction
from itertools import chain

from symslice.exact import RatMatrix, charpoly, lincomb, pfaffian
from symslice.slice import NotFound, invariant_length


def hstack(blocks) -> RatMatrix:
    rows = blocks[0].rows
    assert all(b.rows == rows for b in blocks)
    return RatMatrix(
        [list(chain.from_iterable(b.row(i) for b in blocks)) for i in range(rows)],
        cols=sum(b.cols for b in blocks),
    )


def vstack(blocks) -> RatMatrix:
    cols = blocks[0].cols
    assert all(b.cols == cols for b in blocks)
    return RatMatrix([b.row(i) for b in blocks for i in range(b.rows)], cols=cols)


def shift_power(n: int, m: int) -> RatMatrix:
    """n x n matrix with ones on the m-th superdiagonal (m=0 gives the identity)."""
    return RatMatrix.from_ints([[int(j == i + m) for j in range(n)] for i in range(n)], cols=n)


def point(slc, coords) -> RatMatrix:
    n = slc.pair.n
    return slc.triple.f + lincomb(coords, slc.slice_basis, n, n)


def invariant_list(pair, x) -> list:
    values = list(charpoly(x)[:-1])
    if invariant_length(pair) > pair.n:
        values.append(pfaffian(x * pair.form))
    return values


def graded_solve(slc, target) -> list:
    """The candidate coordinates, class by class, in Fractions."""
    coords = [Fraction(0)] * slc.dim
    for block in slc._blocks:
        rhs = [target.values[m] for m in block.invariants]
        if any(coords):
            at = invariant_list(slc.pair, point(slc, coords))
            rhs = [r - at[m] for r, m in zip(rhs, block.invariants)]
        step = block.step
        coords = [
            c + sum(step[i, j] * r for j, r in enumerate(rhs)) for i, c in enumerate(coords)
        ]
    return coords


def invert(slc, target) -> list:
    """The candidate of `graded_solve`, or NotFound when its invariants
    are not the target."""
    coords = graded_solve(slc, target)
    if invariant_list(slc.pair, point(slc, coords)) != list(target.values):
        raise NotFound("no slice point has these invariants")
    return coords
