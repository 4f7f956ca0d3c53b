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
with a denominator written through `RatMatrix.row`.  And the forward
pass of the integer elimination on dense rows, which `exact._forward`
runs on sparse rows bucketed by leading column.  And the dense forms
of what the library keeps as index maps or reads off integer rows: the
form J of a pair from its `form_entries` (`form`), block-diagonal
assembly (`block_diag`), and a slice's B' A' kernel formed entry by
entry from dense blocks (`kernel`).
"""

import math
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


def block_diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """((a, 0), (0, b))."""
    return vstack(
        [
            hstack([a, RatMatrix.zeros(a.rows, b.cols)]),
            hstack([RatMatrix.zeros(b.rows, a.cols), b]),
        ]
    )


def form(pair) -> RatMatrix | None:
    """The dense form J of the pair, J[i, kappa(i)] = v_i for (kappa(i),
    v_i) in `form_entries`; None for gl, which has no form."""
    if pair.form_entries is None:
        return None
    n = pair.n
    return RatMatrix([[v * (j == k) for j in range(n)] for k, v in pair.form_entries], cols=n)


def shift_power(n: int, m: int) -> RatMatrix:
    """n x n matrix with ones on the m-th superdiagonal (m=0 gives the identity)."""
    return RatMatrix.from_ints([[int(j == i + m) for j in range(n)] for i in range(n)], cols=n)


def point(slc, coords) -> RatMatrix:
    n = slc.pair.n
    return slc.triple.f + lincomb(coords, slc.slice_basis, n, n)


def invariant_list(pair, x) -> list:
    values = list(charpoly(x)[:-1])
    if invariant_length(pair) > pair.n:
        values.append(pfaffian(x * form(pair)))
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


def dense_forward(rows, ncols: int):
    """(rows, pivots): the forward pass on dense integer rows.  At column
    c the first remaining row with a nonzero entry there is the pivot
    row r_k, and every later row r_i is replaced by (p/g) r_i - (f/g) r_k
    over its content, p = r_k[c], f = r_i[c], g = gcd(p, f)."""
    done, pivots = [], []
    rest = [r for r in rows if any(r)]
    for c in range(ncols):
        k = next((i for i, r in enumerate(rest) if r[c]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        p = prow[c]
        out = []
        for r in rest:
            if r[c]:
                g = math.gcd(p, r[c])
                r = [p // g * x - r[c] // g * y for x, y in zip(r, prow)]
                g = math.gcd(*r)
                r = [x // g for x in r] if g else []
            if r:
                out.append(r)
        rest = out
        done.append(prow)
        pivots.append(c)
    return done + rest, pivots


def kernel(slc, order) -> tuple:
    """`KostantSlice._kernel` from dense blocks: l the lcm of the
    denominators of f and the slice basis matrices, and for each term X_t of
    (l f, l b_1, ..., l b_d) the dense p x q A_t and q x p B_t.  M_ts =
    B_t A_s + B_s A_t (B_t A_t when t = s) is formed entry by entry with
    its rows and columns listed in `order`; products holds (t, s, its
    nonzero (i, j, v)) for each nonzero M_ts, t <= s, and uppers the
    nonzero (i, j, v) of each A_t in its own order."""
    pair = slc.pair
    p, q = pair.p, pair.q
    mats = [integer_rows(m) for m in (slc.triple.f, *slc.slice_basis)]
    lcm = math.lcm(*(d for _, d in mats))
    a_blocks, b_blocks = [], []
    for num, d in mats:
        x = [[v * (lcm // d) for v in row] for row in num]
        a_blocks.append([[x[i][p + j] for j in range(q)] for i in range(p)])
        b_blocks.append([[x[p + i][j] for j in range(p)] for i in range(q)])
    terms = range(len(mats))
    products = []
    for t in terms:
        for s in terms[t:]:
            m = [[0] * q for _ in range(q)]
            for b, a in [(t, s)] if s == t else [(t, s), (s, t)]:
                for i in range(q):
                    for k in range(p):
                        v = b_blocks[b][order[i]][k]
                        if v:
                            for j in range(q):
                                m[i][j] += v * a_blocks[a][k][order[j]]
            entries = tuple((i, j, v) for i in range(q) for j in range(q) if (v := m[i][j]))
            if entries:
                products.append((t, s, entries))
    uppers = tuple(
        tuple((i, j, a[i][j]) for i in range(p) for j in range(q) if a[i][j]) for a in a_blocks
    )
    return lcm, tuple(products), uppers
