"""Reference constructions for the tests, kept out of the library.

Dense Fraction-per-entry constructions, which no library path needs:
row-major flattening (`vec`), linear combinations entry by entry
(`lincomb`, what `pairs.combine` forms from integer supports), block
stacking and shift matrices, all read through `RatMatrix.row`.  Also
the Fraction-per-entry graded solve that `slice._graded_solve_pairs`
replaced with integer rows over one denominator: every coordinate is a
Fraction, each partial point is f + sum_k a_k b_k built by `lincomb`,
and its invariants are the full n x n characteristic polynomial (with
the Pfaffian of X J on o(q,q)), not the recurrence over B A.  And the
Fraction-per-entry text reader and writer that `exact.matrix_from_text`
and `exact.matrix_to_text` replaced with integer rows: every entry parsed
by `rational_from_text` into its own Fraction, every entry of a matrix
with a denominator written through `RatMatrix.row`.
"""

from fractions import Fraction
from itertools import chain

from symslice.exact import (
    MAX_DIGITS,
    RatMatrix,
    charpoly,
    integer_rows,
    pfaffian,
    rational_from_text,
    unlimited_int_text,
)
from symslice.slice import NotFound, invariant_length


def vec(m: RatMatrix) -> tuple:
    """Row-major flattening, the coordinate convention used everywhere."""
    return tuple(chain.from_iterable(map(m.row, range(m.rows))))


def lincomb(coeffs, mats, rows: int, cols: int) -> RatMatrix:
    """Sum of coeffs[i] * mats[i]; shape must be supplied for the empty case."""
    acc = [[Fraction(0)] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for i in range(rows):
                for j, x in enumerate(m.row(i)):
                    if x:
                        acc[i][j] += c * x
    return RatMatrix(acc, cols=cols)


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


@unlimited_int_text()
def matrix_to_text(m: RatMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    num, den = integer_rows(m)
    for row in num if den == 1 else map(m.row, range(m.rows)):
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> RatMatrix:
    toks = text.split()
    if len(toks) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    if any(len(t) > MAX_DIGITS for t in toks[:2]):
        raise ValueError(f"matrix dimensions of more than {MAX_DIGITS} digits")
    try:
        r, c = int(toks[0]), int(toks[1])
    except ValueError as exc:
        raise ValueError("matrix text must start with integer 'rows cols'") from exc
    if r < 0 or c < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if r > len(text):
        raise ValueError("matrix text is shorter than its row count")
    entries = toks[2:]
    if len(entries) != r * c:
        raise ValueError(f"expected {r * c} entries, found {len(entries)}")
    try:
        vals = [rational_from_text(t) for t in entries]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational entry in matrix text: {exc}") from exc
    return RatMatrix([vals[i * c : (i + 1) * c] for i in range(r)], cols=c)
