"""Exact dense linear algebra over the rationals.

Every downstream computation (eigenspace bases, centralizers, sl2
completions, slice inversions) reduces to the primitives in this module,
and all of them are exact.  A matrix is stored as integer rows over one
positive common denominator, in lowest terms; products, sums and
stacking run on those integers.  Kernels, particular and unique solves,
inverses, ranks and `spans_equal` share one elimination, a Gauss-Jordan
pass on integer rows that divides each changed row by its content, and
characteristic polynomials and adjugates come from an integer
Faddeev-LeVerrier recurrence.  Entries leave as `fractions.Fraction` at
the API edge (`RatMatrix.row`, `m[i, j]`).  Outputs are canonical so
that certificates built on top are reproducible byte for byte.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest |e| accepted in a decimal exponent such as 1e5: Fraction would
# otherwise build 10**e digit by digit, tens of seconds for 1e10000000.
MAX_EXPONENT = 10_000
# Most digits written in one integer part of a literal: CPython's default
# int-from-text limit, kept whatever PYTHONINTMAXSTRDIGITS says.
MAX_DIGITS = 4300
# \d as in Fraction's own parser, which accepts every Unicode decimal digit
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def _entry(x):
    """An int or Fraction entry as it is, a string parsed to a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational entry, got {type(x).__name__}")


def _scale(num, s: int):
    return num if s == 1 else [[x * s for x in row] for row in num]


class RatMatrix:
    """Dense rational matrix, treated as immutable after construction.

    Entry (i, j) is _num[i][j] / _den: integer rows over one positive
    common denominator, in lowest terms (the gcd of _den and every
    numerator is 1, so the zero matrix has _den = 1 and equal matrices
    have equal storage).  The stored rows are shared, never mutated.
    `row(i)` and `m[i, j]` give Fractions, from a view built on first
    use.  Zero-row and zero-column matrices are allowed (they appear as
    degenerate blocks in the structured constructions); a matrix with no
    rows needs an explicit column count.
    """

    __slots__ = ("rows", "cols", "_num", "_den", "_view")

    def __init__(self, entries, cols: int | None = None):
        data = [[_entry(x) for x in row] for row in entries]
        cols = _checked_cols(data, cols)
        den = math.lcm(*(x.denominator for row in data for x in row))
        self.rows = len(data)
        self.cols = cols
        self._num = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        self._den = den
        self._view = None

    @classmethod
    def _raw(cls, num, den: int, cols: int) -> "RatMatrix":
        """Wrap integer rows already in lowest terms over den > 0."""
        m = object.__new__(cls)
        m.rows = len(num)
        m.cols = cols
        m._num = num
        m._den = den
        m._view = None
        return m

    @classmethod
    def _reduced(cls, num, den: int, cols: int) -> "RatMatrix":
        """Wrap integer rows over a nonzero den, dividing out the common
        factor and the sign of den."""
        if den < 0:
            num, den = [[-x for x in row] for row in num], -den
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num, den = [[x // g for x in row] for row in num], den // g
        return cls._raw(num, den, cols)

    @classmethod
    def from_ints(cls, rows, cols: int | None = None, den: int = 1) -> "RatMatrix":
        """The matrix rows / den from integer rows, built without Fractions."""
        num = [list(row) for row in rows]
        cols = _checked_cols(num, cols)
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        return cls._reduced(num, den, cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._raw([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _fractions(self) -> tuple:
        view = self._view
        if view is None:
            den = self._den
            view = self._view = tuple(
                tuple(Fraction(x, den) if x else _ZERO for x in row) for row in self._num
            )
        return view

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._fractions()[i][j]

    def row(self, i: int):
        return self._fractions()[i]

    def transpose(self) -> "RatMatrix":
        if not self.rows:
            return RatMatrix.zeros(self.cols, 0)
        return RatMatrix._raw([list(col) for col in zip(*self._num)], self._den, self.rows)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "RatMatrix":
        return RatMatrix._reduced([row[c0:c1] for row in self._num[r0:r1]], self._den, c1 - c0)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def _aligned(self, other, op: str):
        """Both integer row lists over the lcm of the two denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")
        den = math.lcm(self._den, other._den)
        return _scale(self._num, den // self._den), _scale(other._num, den // other._den), den

    def __add__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        a, b, den = self._aligned(other, "+")
        num = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return RatMatrix._reduced(num, den, self.cols)

    def __sub__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        a, b, den = self._aligned(other, "-")
        num = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return RatMatrix._reduced(num, den, self.cols)

    def __neg__(self):
        return RatMatrix._raw([[-x for x in row] for row in self._num], self._den, self.cols)

    def _scaled(self, c) -> "RatMatrix":
        if c == 0:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix._reduced(
            _scale(self._num, c.numerator), self._den * c.denominator, self.cols
        )

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            return RatMatrix._reduced(
                _matmul(self._num, other._num, other.cols), self._den * other._den, other.cols
            )
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, tuple(map(tuple, self._num))))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RatMatrix.zeros({self.rows}, {self.cols})"
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._fractions())
        return f"RatMatrix([{body}])"


def _checked_cols(rows, cols):
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows in matrix literal")
    elif cols is None:
        raise ValueError("a matrix with no rows needs an explicit column count")
    return cols


def _common(blocks):
    """Each block's integer rows over the lcm of their denominators, and that lcm.

    A block in lowest terms keeps a numerator prime to every prime of its
    own denominator, so the stacked rows are in lowest terms too."""
    den = math.lcm(*(b._den for b in blocks))
    return [_scale(b._num, den // b._den) for b in blocks], den


def hstack(blocks) -> RatMatrix:
    blocks = [b for b in blocks]
    if not blocks:
        raise ValueError("hstack of nothing")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("hstack row mismatch")
    nums, den = _common(blocks)
    num = [list(chain.from_iterable(b[i] for b in nums)) for i in range(rows)]
    return RatMatrix._raw(num, den, sum(b.cols for b in blocks))


def vstack(blocks) -> RatMatrix:
    blocks = [b for b in blocks]
    if not blocks:
        raise ValueError("vstack of nothing")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("vstack column mismatch")
    nums, den = _common(blocks)
    return RatMatrix._raw([row for b in nums for row in b], den, cols)


def block_diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    top = hstack([a, RatMatrix.zeros(a.rows, b.cols)])
    bot = hstack([RatMatrix.zeros(b.rows, a.cols), b])
    return vstack([top, bot])


def block_antidiag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Assemble ((0, a), (b, 0)) from an upper-right and lower-left block."""
    top = hstack([RatMatrix.zeros(a.rows, b.cols), a])
    bot = hstack([b, RatMatrix.zeros(b.rows, a.cols)])
    return vstack([top, bot])


def shift_power(n: int, m: int) -> RatMatrix:
    """n x n matrix with ones on the m-th superdiagonal (m=0 gives the identity)."""
    return RatMatrix._raw([[int(j == i + m) for j in range(n)] for i in range(n)], 1, n)


def vec(m: RatMatrix) -> tuple[Fraction, ...]:
    """Row-major flattening, the coordinate convention used everywhere."""
    return tuple(chain.from_iterable(m._fractions()))


def lincomb(coeffs, mats, rows: int, cols: int) -> RatMatrix:
    """Sum of coeffs[i] * mats[i]; shape must be supplied for the empty case."""
    acc = [[_ZERO] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for i in range(rows):
                mi = m.row(i)
                ai = acc[i]
                for j in range(cols):
                    if mi[j]:
                        ai[j] += c * mi[j]
    return RatMatrix(acc, cols=cols)


def _echelon(rows, ncols: int):
    """(rows, pivots): Gauss-Jordan elimination of integer rows in their
    first ncols columns.  The input rows are not mutated.

    A step with pivot p = r_k[c] replaces each other row r_i with a
    nonzero f = r_i[c] by (p/g) r_i - (f/g) r_k, g = gcd(p, f), and
    divides it by its content; zero rows are dropped as they appear.
    The first len(pivots) rows come out as nonzero multiples of the rows
    of the reduced echelon form, so canonical outputs are read off them
    exactly.  The rows after them are zero in the first ncols columns.
    """
    done, pivots = [], []
    rest = [r for r in rows if any(r)]
    for c in range(ncols):
        if not rest:
            break
        k = next((i for i, r in enumerate(rest) if r[c]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        p = prow[c]
        done = [_combine(r, prow, p, c) for r in done]
        rest = [r for r in (_combine(r, prow, p, c) for r in rest) if r]
        done.append(prow)
        pivots.append(c)
    return done + rest, pivots


def _combine(row, prow, p: int, c: int) -> list[int]:
    """row with column c cleared against the pivot row prow (pivot p),
    over its content; [] if nothing is left."""
    f = row[c]
    if not f:
        return row
    g = math.gcd(p, f)
    a, b = p // g, f // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    g = math.gcd(*out)
    if g == 0:
        return []
    return out if g == 1 else [x // g for x in out]


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Canonical basis of the right kernel of m.

    The basis comes from the reduced echelon form: one vector per free
    column, with that coordinate set to 1 and the other free coordinates
    to 0.  The ordering (ascending free column) is deterministic, which
    keeps every construction built on kernels reproducible.
    """
    rows, pivots = _echelon(m._num, m.cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        # v[fc] = 1 and v[pc] = -rows[r][fc] / rows[r][pc], over their lcm
        den = math.lcm(*(rows[r][pc] for r, pc in enumerate(pivots) if rows[r][fc]))
        v = [0] * m.cols
        v[fc] = den
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                v[pc] = -rows[r][fc] * (den // rows[r][pc])
        basis.append(RatMatrix.from_ints([[x] for x in v], cols=1, den=den))
    return basis


def solve(a: RatMatrix, b) -> list[Fraction] | None:
    """Particular solution of a x = b with zero in all non-pivot coordinates.

    Returns None when the system is inconsistent; absence is a value
    here, not an error.
    """
    rhs = [Fraction(_entry(x)) for x in b]
    if a.rows != len(rhs):
        raise ValueError(f"solve: {a.rows} rows but {len(rhs)} right-hand entries")
    # A x = d b for a = A / d; each row times its right-hand denominator
    d = a._den
    rows = [[x * y.denominator for x in r] + [d * y.numerator] for r, y in zip(a._num, rhs)]
    rows, pivots = _echelon(rows, a.cols)
    if len(rows) > len(pivots):
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(rows[r][a.cols], rows[r][pc])
    return x


def rank(m: RatMatrix) -> int:
    """Rank over Q: the pivot count of the one integer elimination
    (`_echelon`) on the stored rows."""
    return len(_echelon(m._num, m.cols)[1])


def modular_rank(rows: list[list[int]], prime: int) -> int:
    """Rank over GF(prime) of an integer matrix given by its rows.

    Reduction mod a prime can only make minors vanish, so this is a
    lower bound on the rank over Q.  Elimination runs column by column
    and drops each column once it is cleared.
    """
    rows = [r for r in ([a % prime for a in row] for row in rows) if any(r)]
    found = 0
    while rows and rows[0]:
        pick = next((i for i, r in enumerate(rows) if r[0]), None)
        if pick is None:
            rows = [r[1:] for r in rows]
            continue
        pivot = rows.pop(pick)
        inv = pow(pivot[0], -1, prime)
        tail = pivot[1:]
        reduced = []
        for r in rows:
            f = r[0] * inv % prime
            r = [(a - f * b) % prime for a, b in zip(r[1:], tail)] if f else r[1:]
            if any(r):
                reduced.append(r)
        rows = reduced
        found += 1
    return found


def solve_unique(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """The solution X of a X = b from one elimination of [a | b], or None
    unless it is unique: a of full column rank, every column consistent.

    With a = A / da and b = B / db, the rows of [db A | da B] are
    eliminated in the first n = a.cols columns (`_echelon`).  X is unique
    exactly when every one of those columns gets a pivot and no other
    row is left; row r is then a multiple (pivot p_r) of [e_r | X_r].
    """
    if a.rows != b.rows:
        raise ValueError(f"solve_unique: {a.rows} rows but {b.rows} right-hand rows")
    n = a.cols
    rows = [ra + rb for ra, rb in zip(_scale(a._num, b._den), _scale(b._num, a._den))]
    rows, pivots = _echelon(rows, n)
    if len(pivots) < n or len(rows) > n:
        return None
    den = math.lcm(*(row[r] for r, row in enumerate(rows)))
    return RatMatrix._reduced(
        [[x * (den // row[r]) for x in row[n:]] for r, row in enumerate(rows)], den, b.cols
    )


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    out = solve_unique(m, RatMatrix.identity(m.rows))
    if out is None:
        raise ValueError("matrix is singular")
    return out


def spans_equal(mats_a, mats_b) -> bool:
    """Whether two lists of same-shape matrices span the same subspace.

    Decided exactly by comparing the rank of each coordinate stack with
    the rank of the concatenation.
    """
    # the numerator rows: scaling a matrix by its denominator keeps the span
    rows_a = [list(chain.from_iterable(m._num)) for m in mats_a]
    rows_b = [list(chain.from_iterable(m._num)) for m in mats_b]
    width = max(map(len, rows_a + rows_b), default=0)
    ra, rb, rab = (len(_echelon(r, width)[1]) for r in (rows_a, rows_b, rows_a + rows_b))
    return ra == rb == rab


def integer_rows(m: RatMatrix) -> tuple[list[list[int]], int]:
    """(d * m as integer rows, d) for the least common denominator d of m:
    the stored rows, shared with m and not to be mutated."""
    return m._num, m._den


def _matmul(a, b, m):
    """Product of integer row lists a and b, b with m columns, skipping
    zero entries."""
    n = len(a)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k, aik in enumerate(ai):
            if aik:
                bk = b[k]
                for j in range(m):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def _faddeev_leverrier(m: RatMatrix, keep: bool):
    """(cs, den, kept) with m = a / den, a integral, and cs the charpoly
    coefficients of a, ascending.  If keep, kept holds M_1 = I, ...,
    M_k = a M_(k-1) + cs[n-k+1] I, ..., M_n, with adj(tI - a) =
    sum_k t^(n-k) M_k.  Each step is one integer matrix product."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    a, den = integer_rows(m)
    cs = [0] * (n + 1)
    cs[n] = 1
    kept = [[[int(i == j) for j in range(n)] for i in range(n)]] if keep and n else []
    mk = [row[:] for row in a]  # a M_k
    for k in range(1, n + 1):
        if k > 1:
            c = cs[n - k + 1]
            for i in range(n):
                mk[i][i] += c
            if keep:
                kept.append(mk)
            mk = _matmul(a, mk, n)
        tr = sum(mk[i][i] for i in range(n))
        q, rem = divmod(tr, k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division not exact")
        cs[n - k] = -q
    return cs, den, kept


def charpoly(m: RatMatrix) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_(n-1), 1) of det(tI - m) = sum_k c_k t^k,
    constant term first, exactly; the recurrence runs on integers, with
    denominators cleared first."""
    cs, den, _ = _faddeev_leverrier(m, keep=False)
    n = m.rows
    return tuple(Fraction(cs[k], den ** (n - k)) for k in range(n)) + (_ONE,)


def adjugate_coefficients(m: RatMatrix) -> tuple:
    """The tuple (N_0, ..., N_(n-1)) with adj(tI - m) = sum_k t^k N_k,
    exactly, lowest power first like `charpoly`.

    They are the Faddeev-LeVerrier matrices that `charpoly` runs through,
    and they give its derivatives: the coefficient c_k of t^k in
    det(tI - m), entry k of `charpoly(m)`, has derivative -tr(N_k b) in
    the direction b.
    """
    _, den, kept = _faddeev_leverrier(m, keep=True)
    out = []
    for k, mk in enumerate(kept, start=1):
        # m = a / den, and M_k is homogeneous of degree k - 1 in a
        out.append(RatMatrix._reduced(mk, den ** (k - 1), m.cols))
    return tuple(reversed(out))


def pfaffian(m: RatMatrix) -> Fraction:
    """Pfaffian of a skew-symmetric matrix, exactly.

    Computed by congruence elimination (unit-determinant transforms
    preserve the Pfaffian, row and column swaps flip its sign), so the
    result is the product of the 2x2 block pivots.  The slice invariants
    read Pf(X J) off a block instead; this is the independent reference
    that value is tested against.
    """
    n = m.rows
    if m.cols != n or n % 2:
        raise ValueError("pfaffian needs an even-dimensional square matrix")
    if m.transpose() != -m:
        raise ValueError("pfaffian needs a skew-symmetric matrix")
    a = [list(row) for row in m._fractions()]
    pf = _ONE
    for k in range(0, n, 2):
        piv_j = None
        for j in range(k + 1, n):
            if a[k][j]:
                piv_j = j
                break
        if piv_j is None:
            return _ZERO
        if piv_j != k + 1:
            a[k + 1], a[piv_j] = a[piv_j], a[k + 1]
            for r in range(n):
                a[r][k + 1], a[r][piv_j] = a[r][piv_j], a[r][k + 1]
            pf = -pf
        pivot = a[k][k + 1]
        pf *= pivot
        for i in range(k + 2, n):
            f = a[k][i] / pivot
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k + 1])]
                for r in range(n):
                    a[r][i] -= f * a[r][k + 1]
            g = a[k + 1][i] / pivot
            if g:
                a[i] = [x + g * y for x, y in zip(a[i], a[k])]
                for r in range(n):
                    a[r][i] += g * a[r][k]
    return pf


def nilpotency_index(m: RatMatrix) -> int | None:
    """Smallest k <= n with m^k = 0, or None when m^n != 0."""
    if m.rows != m.cols:
        raise ValueError("nilpotency index of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    p = m
    for k in range(1, n + 1):
        if p.is_zero():
            return k
        if k < n:
            p = p * m
    return None


def matrix_to_text(m: RatMatrix) -> str:
    """Serialize in the plain text exchange format: 'rows cols' then entries."""
    lines = [f"{m.rows} {m.cols}"]
    for row in m._num if m._den == 1 else m._fractions():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def rational_from_text(token: str) -> Fraction:
    """An exact Fraction literal: a, a/b, or a decimal such as 0.5 or 1e3.

    A decimal exponent beyond MAX_EXPONENT in absolute value, or an
    integer part of more than MAX_DIGITS digits, raises ValueError
    before any number is built.
    """
    m = _EXPONENT.search(token)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_EXPONENT} in {token[:40]!r}")
    if len(token) > MAX_DIGITS and any(
        len(run) - run.count("_") > MAX_DIGITS for run in _DIGIT_RUN.findall(token)
    ):
        raise ValueError(f"more than {MAX_DIGITS} digits in a number in {token[:40]!r}")
    return Fraction(token)


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
    entries = toks[2:]
    if len(entries) != r * c:
        raise ValueError(f"expected {r * c} entries, found {len(entries)}")
    try:
        vals = [rational_from_text(t) for t in entries]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational entry in matrix text: {exc}") from exc
    return RatMatrix([vals[i * c : (i + 1) * c] for i in range(r)], cols=c)
