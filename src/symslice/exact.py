"""Exact dense linear algebra over the rationals.

Every downstream computation (eigenspace bases, centralizers, sl2
completions, slice inversions) reduces to the primitives in this module,
and all of them are exact.  A matrix is stored as integer rows over one
positive common denominator, in lowest terms; products, sums and
stacking run on those integers.  Kernels, particular and unique solves,
inverses, ranks and `spans_equal` share one elimination on integer rows
that divides each changed row by its content: ranks and `spans_equal`
stop after its forward pass, the solves run its back-substitution too.
Dense integer rows go in and come back out; inside the elimination a
row is sparse, {column: nonzero int}, and rows are bucketed by leading
column, so a step touches only the rows that have its pivot column.
Characteristic polynomial coefficients and the adjugate matrices that
differentiate them come from one integer Faddeev-LeVerrier recurrence,
one step at a time so that callers stop early.  The integer rows are a
matrix's only representation: entries leave as `fractions.Fraction`,
made per call, only at the API edge (`RatMatrix.row`, `m[i, j]`,
`solve`, `charpoly`, `pfaffian`); the rest of the library reads
`integer_rows`.  Outputs are canonical so that certificates
built on top are reproducible byte for byte.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, compress, count

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
    """An int or Fraction entry as it is, a string parsed to a Fraction
    within the bounds of `rational_from_text`."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return rational_from_text(x)
    raise TypeError(f"expected a rational entry, got {type(x).__name__}")


def _scale(num, s: int):
    return num if s == 1 else [[x * s for x in row] for row in num]


class RatMatrix:
    """Dense rational matrix, treated as immutable after construction.

    Entry (i, j) is _num[i][j] / _den: integer rows over one positive
    common denominator, in lowest terms (the gcd of _den and every
    numerator is 1, so the zero matrix has _den = 1 and equal matrices
    have equal storage).  The stored rows are shared, never mutated, and
    are all the state: `row(i)` and `m[i, j]` make Fractions per call.
    Zero-row and zero-column matrices are allowed (they appear as
    degenerate blocks in the structured constructions); a matrix with no
    rows needs an explicit column count.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries, cols: int | None = None):
        data = [[_entry(x) for x in row] for row in entries]
        cols = _checked_cols(data, cols)
        den = math.lcm(*(x.denominator for row in data for x in row))
        self.rows = len(data)
        self.cols = cols
        self._num = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        self._den = den

    @classmethod
    def _raw(cls, num, den: int, cols: int) -> "RatMatrix":
        """Wrap integer rows already in lowest terms over den > 0."""
        m = object.__new__(cls)
        m.rows = len(num)
        m.cols = cols
        m._num = num
        m._den = den
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
        """The matrix rows / den from integer row lists, built without Fractions.
        It takes ownership of the rows: the caller must not mutate them afterwards."""
        cols = _checked_cols(rows, cols)
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        return cls._reduced(rows, den, cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._raw([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        x = self._num[i][j]
        return Fraction(x, self._den) if x else _ZERO

    def row(self, i: int) -> tuple:
        den = self._den
        return tuple(Fraction(x, den) if x else _ZERO for x in self._num[i])

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
        with unlimited_int_text():
            body = ", ".join("[" + ", ".join(map(str, self.row(i))) + "]" for i in range(self.rows))
        return f"RatMatrix([{body}])"


def _checked_cols(rows, cols):
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix literal")
        if cols not in (None, width):
            raise ValueError(f"rows of length {width} but cols={cols}")
        return width
    if cols is None:
        raise ValueError("a matrix with no rows needs an explicit column count")
    return cols


def _common(blocks):
    """Each block's integer rows over the lcm of their denominators, and that lcm.

    A block in lowest terms keeps a numerator prime to every prime of its
    own denominator, so the stacked rows are in lowest terms too."""
    den = math.lcm(*(b._den for b in blocks))
    return [_scale(b._num, den // b._den) for b in blocks], den


def block_diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Assemble ((a, 0), (0, b)) from the integer rows of both blocks."""
    (an, bn), den = _common((a, b))
    za, zb = [0] * a.cols, [0] * b.cols
    return RatMatrix._raw([r + zb for r in an] + [za + r for r in bn], den, a.cols + b.cols)


def block_antidiag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Assemble ((0, a), (b, 0)) from an upper-right and lower-left block."""
    (an, bn), den = _common((a, b))
    za, zb = [0] * a.cols, [0] * b.cols
    return RatMatrix._raw([zb + r for r in an] + [r + za for r in bn], den, a.cols + b.cols)


def _forward(rows, ncols: int):
    """(rows, pivots): the forward pass of the elimination of dense
    integer rows in their first ncols columns, which is all a rank
    needs.  The input rows are not mutated.

    Inside the kernel a row is sparse, {column: nonzero int}, and rows
    wait in buckets by leading column.  The step at column c takes the
    row of bucket c that came first in the input as pivot row r_k
    (pivot p = r_k[c]) and replaces every other row r_i of the bucket,
    f = r_i[c], by (p/g) r_i - (f/g) r_k, g = gcd(p, f), divided by its
    content (`_combine`); the result moves to the bucket of its new
    leading column, or is dropped if nothing is left.  No other row is
    touched.  The pivot rows and the integers are those of a dense pass
    over the rows in input order; only the zero entries are skipped.
    The rows come out sparse: the first len(pivots) in echelon form,
    then the rows that are zero in the first ncols columns.
    """
    # bucket c maps the input index of each row to the row
    buckets: dict[int, dict[int, dict[int, int]]] = {}
    for i, row in enumerate(rows):
        row = {j: row[j] for j in compress(count(), row)}
        if row:
            buckets.setdefault(min(row), {})[i] = row
    done, pivots = [], []
    for c in range(ncols):
        if c not in buckets:
            continue
        bucket = buckets.pop(c)
        prow = bucket.pop(min(bucket))
        p = prow[c]
        for i, row in bucket.items():
            row = _combine(row, prow, p, c)
            if row:
                buckets.setdefault(min(row), {})[i] = row
        done.append(prow)
        pivots.append(c)
    return done + [row for bucket in buckets.values() for row in bucket.values()], pivots


def _echelon(rows, ncols: int):
    """(rows, pivots): Gauss-Jordan elimination, the forward pass
    (`_forward`) and then back-substitution, which clears each pivot
    column, last first, by the same step in just the rows above that
    have it.  The first len(pivots) rows come out as sparse nonzero
    multiples of the rows of the reduced echelon form, so canonical
    outputs are read off them exactly (an absent column is zero)."""
    rows, pivots = _forward(rows, ncols)
    # clearing column c against a reduced pivot row adds no pivot column,
    # so the rows that have c are known from the forward pass
    having = {c: [] for c in pivots}
    for i, row in enumerate(rows[: len(pivots)]):
        for j in row:
            if j in having:
                having[j].append(i)
    for k in reversed(range(len(pivots))):
        c, prow = pivots[k], rows[k]
        p = prow[c]
        for i in having[c]:
            if i < k:
                rows[i] = _combine(rows[i], prow, p, c)
    return rows, pivots


def _combine(row, prow, p: int, c: int) -> dict[int, int]:
    """The sparse row with its nonzero column c cleared against the
    pivot row prow (pivot p), over its content; {} if nothing is left."""
    f = row[c]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    out = row.copy() if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = math.gcd(*out.values())
    return out if g <= 1 else {j: x // g for j, x in out.items()}


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
        # v[fc] = 1 and v[pc] = -row[fc] / row[pc], over their lcm
        terms = [(pc, row[fc], row[pc]) for row, pc in zip(rows, pivots) if fc in row]
        den = math.lcm(*(p for _, _, p in terms))
        v = [0] * m.cols
        v[fc] = den
        for pc, x, p in terms:
            v[pc] = -x * (den // p)
        basis.append(RatMatrix._reduced([[x] for x in v], den, 1))
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
    rows = []
    for r, y in zip(a._num, rhs):
        k = y.denominator
        rows.append((r if k == 1 else [x * k for x in r]) + [d * y.numerator])
    rows, pivots = _echelon(rows, a.cols)
    if len(rows) > len(pivots):
        return None
    x = [_ZERO] * a.cols
    for row, pc in zip(rows, pivots):
        x[pc] = Fraction(row.get(a.cols, 0), row[pc])
    return x


def rank(m: RatMatrix) -> int:
    """Rank over Q: the pivot count of the forward pass of the one integer
    elimination (`_forward`) on the stored rows."""
    return len(_forward(m._num, m.cols)[1])


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
    rows = [ra + rb for ra, rb in zip(_scale(a._num, b._den), _scale(b._num, a._den))]
    return _unique_solution(rows, a.cols, b.cols)


def _unique_solution(rows, n: int, cols: int) -> RatMatrix | None:
    """X with A X = B from the integer rows of [A | B], A with n columns
    and B with cols, or None unless X is unique (see `solve_unique`)."""
    rows, pivots = _echelon(rows, n)
    if len(pivots) < n or len(rows) > n:
        return None
    den = math.lcm(*(row[r] for r, row in enumerate(rows)))
    out = []
    for r, row in enumerate(rows):
        k = den // row[r]
        out.append([row.get(j, 0) * k for j in range(n, n + cols)])
    return RatMatrix._reduced(out, den, cols)


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
    ra, rb, rab = (len(_forward(r, width)[1]) for r in (rows_a, rows_b, rows_a + rows_b))
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


def faddeev_leverrier(a):
    """Yield (c_(n-k), M_k), k = 1, ..., n, for the square integer rows a:
    c_i is the coefficient of t^i in det(tI - a), M_1 = I and M_k =
    a M_(k-1) + c_(n-k+1) I, so adj(tI - a) = sum_k t^(n-k) M_k and
    c_(n-k) has derivative -tr(M_k b) in the direction b.  Each step
    after the first is one integer product, run only when asked for: a
    caller that needs only the leading coefficients stops early."""
    n = len(a)
    c, amk = 1, [[0] * n for _ in range(n)]  # c_n = 1 and a M_0 = 0
    for k in range(1, n + 1):
        mk = amk
        for i in range(n):
            mk[i][i] += c
        amk = _matmul(a, mk, n) if k > 1 else [row[:] for row in a]
        c, rem = divmod(-sum(amk[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division not exact")
        yield c, mk


def charpoly(m: RatMatrix) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_(n-1), 1) of det(tI - m) = sum_k c_k t^k,
    constant term first, exactly; the recurrence runs on integers, with
    denominators cleared first: c_(n-k) of m = a / den is c_(n-k) of a
    over den^k."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    a, den = integer_rows(m)
    cs = [Fraction(c, den**k) for k, (c, _) in enumerate(faddeev_leverrier(a), start=1)]
    return tuple(reversed(cs)) + (_ONE,)


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
    a = [list(m.row(i)) for i in range(n)]
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


@contextmanager
def unlimited_int_text():
    """Lift CPython's int-to-str digit limit (PYTHONINTMAXSTRDIGITS) for
    a block or, as a decorator, a writer or a reader: an exact answer is
    written out whatever its length, and input is bounded by MAX_DIGITS
    alone."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


@unlimited_int_text()
def matrix_to_text(m: RatMatrix) -> str:
    """Serialize in the plain text exchange format: 'rows cols' then entries,
    each written as a Fraction would be, from the stored integer rows."""
    den = m._den
    lines = [f"{m.rows} {m.cols}"]
    for row in m._num:
        lines.append(" ".join(map(str, row) if den == 1 else (_ratio_text(x, den) for x in row)))
    return "\n".join(lines) + "\n"


def _ratio_text(x: int, den: int) -> str:
    """x / den in lowest terms, as str of the Fraction: 'a' or 'a/b'."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


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


def _ratio(token: str) -> tuple[int, int]:
    """(a, b) with token = a / b in lowest terms, b > 0.  A token 'a' or
    'a/b' of decimal digits (a signed), at most MAX_DIGITS long and with
    b nonzero, is read straight to integers and reduced by one gcd; any
    other token goes through `rational_from_text`, bounds and errors
    included."""
    a, slash, b = token.partition("/")
    if (
        len(token) <= MAX_DIGITS
        and (a[1:] if a[:1] in "+-" else a).isdecimal()
        and (b.isdecimal() or not slash)
    ):
        n, d = int(a), int(b) if slash else 1
        if d == 1:
            return n, 1
        if d:
            g = math.gcd(n, d)
            return n // g, d // g
    x = rational_from_text(token)
    return x.numerator, x.denominator


@unlimited_int_text()
def matrix_from_text(text: str) -> RatMatrix:
    """Parse the plain text exchange format into integer rows over the
    least common denominator of the entries.  Every number is bounded by
    MAX_DIGITS before it is built, so CPython's int-from-text limit is
    lifted for the parse."""
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
        # every row is written on a line of its own, even with no columns,
        # and costs a list even then
        raise ValueError("matrix text is shorter than its row count")
    entries = toks[2:]
    if len(entries) != r * c:
        raise ValueError(f"expected {r * c} entries, found {len(entries)}")
    try:
        pairs = [_ratio(t) for t in entries]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational entry in matrix text: {exc}") from exc
    den = math.lcm(*(d for _, d in pairs))
    nums = [n * (den // d) for n, d in pairs]
    return RatMatrix.from_ints([nums[i * c : (i + 1) * c] for i in range(r)], c, den)
