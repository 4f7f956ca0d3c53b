"""Exact dense linear algebra over the rationals.

Every downstream computation (eigenspace bases, centralizers, sl2
completions, slice inversions) reduces to the primitives in this module,
and all of them are exact: reduced row echelon form over Fraction
entries, kernel bases with unit free coordinates, and characteristic
polynomials via an integer Faddeev-LeVerrier recurrence after clearing
denominators.  Outputs are canonical so that certificates built on top
are reproducible byte for byte.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest |e| accepted in a decimal exponent such as 1e5: Fraction would
# otherwise build 10**e digit by digit, tens of seconds for 1e10000000.
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational entry, got {type(x).__name__}")


class RatMatrix:
    """Dense matrix of Fractions, treated as immutable after construction.

    Zero-row and zero-column matrices are allowed (they appear as
    degenerate blocks in the structured constructions); a matrix with no
    rows needs an explicit column count.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(_rat(x) for x in row) for row in entries)
        if data:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows in matrix literal")
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.rows = len(data)
        self.cols = cols
        self._e = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def diagonal(cls, entries) -> "RatMatrix":
        vals = [_rat(x) for x in entries]
        n = len(vals)
        return cls([[vals[i] if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._e[i][j]

    def row(self, i: int):
        return self._e[i]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "RatMatrix":
        return RatMatrix([row[c0:c1] for row in self._e[r0:r1]], cols=c1 - c0)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self._e[i][i] for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def __add__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)],
            cols=self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return RatMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)],
            cols=self.cols,
        )

    def __neg__(self):
        return RatMatrix([[-x for x in row] for row in self._e], cols=self.cols)

    def _scaled(self, c: Fraction) -> "RatMatrix":
        if c == 0:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix([[c * x for x in row] for row in self._e], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            out = [[_ZERO] * other.cols for _ in range(self.rows)]
            for i in range(self.rows):
                ai = self._e[i]
                oi = out[i]
                for k in range(self.cols):
                    aik = ai[k]
                    if aik:
                        bk = other._e[k]
                        for j in range(other.cols):
                            if bk[j]:
                                oi[j] += aik * bk[j]
            return RatMatrix(out, cols=other.cols)
        if isinstance(other, (int, Fraction)):
            return self._scaled(_rat(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(_rat(other))
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RatMatrix.zeros({self.rows}, {self.cols})"
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._e)
        return f"RatMatrix([{body}])"


def hstack(blocks) -> RatMatrix:
    blocks = [b for b in blocks]
    if not blocks:
        raise ValueError("hstack of nothing")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("hstack row mismatch")
    cols = sum(b.cols for b in blocks)
    return RatMatrix(
        [[x for b in blocks for x in b.row(i)] for i in range(rows)], cols=cols
    )


def vstack(blocks) -> RatMatrix:
    blocks = [b for b in blocks]
    if not blocks:
        raise ValueError("vstack of nothing")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("vstack column mismatch")
    return RatMatrix([row for b in blocks for row in b._e], cols=cols)


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
    out = [[_ZERO] * n for _ in range(n)]
    for i in range(n - m):
        out[i][i + m] = _ONE
    return RatMatrix(out, cols=n)


def vec(m: RatMatrix) -> tuple[Fraction, ...]:
    """Row-major flattening, the coordinate convention used everywhere."""
    return tuple(x for row in m._e for x in row)


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


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv if x else x for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Canonical basis of the right kernel of m.

    The basis comes from the reduced echelon form: one vector per free
    column, with that coordinate set to 1 and the other free coordinates
    to 0.  The ordering (ascending free column) is deterministic, which
    keeps every construction built on kernels reproducible.
    """
    rows = [list(r) for r in m._e]
    pivots = _rref(rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                v[pc] = -rows[r][fc]
        basis.append(RatMatrix([[x] for x in v], cols=1))
    return basis


def solve(a: RatMatrix, b) -> list[Fraction] | None:
    """Particular solution of a x = b with zero in all non-pivot coordinates.

    Returns None when the system is inconsistent; absence is a value
    here, not an error.
    """
    rhs = [_rat(x) for x in b]
    if a.rows != len(rhs):
        raise ValueError(f"solve: {a.rows} rows but {len(rhs)} right-hand entries")
    rows = [list(r) + [x] for r, x in zip(a._e, rhs)]
    pivots = _rref(rows, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.cols]
    return x


def rank(m: RatMatrix) -> int:
    rows = [list(r) for r in m._e]
    return len(_rref(rows, m.cols))


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


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    rows = [list(r) + [_ONE if i == j else _ZERO for j in range(n)] for i, r in enumerate(m._e)]
    pivots = _rref(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix([row[n:] for row in rows], cols=n)


def spans_equal(mats_a, mats_b) -> bool:
    """Whether two lists of same-shape matrices span the same subspace.

    Decided exactly by comparing the rank of each coordinate stack with
    the rank of the concatenation.
    """
    mats_a = list(mats_a)
    mats_b = list(mats_b)
    if not mats_a and not mats_b:
        return True
    probe = (mats_a or mats_b)[0]
    width = probe.rows * probe.cols
    rows_a = [list(vec(m)) for m in mats_a]
    rows_b = [list(vec(m)) for m in mats_b]
    ra = len(_rref([r[:] for r in rows_a], width)) if rows_a else 0
    rb = len(_rref([r[:] for r in rows_b], width)) if rows_b else 0
    rab = len(_rref([r[:] for r in rows_a + rows_b], width))
    return ra == rb == rab


@dataclass(frozen=True)
class Poly:
    """Monic polynomial over Q, coefficients in ascending degree order."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_rat(c) for c in self.coeffs))
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(terms) if terms else "0"


def integer_rows(m: RatMatrix) -> tuple[list[list[int]], int]:
    """(d * m as integer rows, d) for the least common denominator d of m."""
    den = math.lcm(*(x.denominator for row in m._e for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m._e], den


def _matmul_int(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
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


def charpoly(m: RatMatrix) -> Poly:
    """Characteristic polynomial det(tI - m), exactly.

    Denominators are cleared first and the Faddeev-LeVerrier recurrence
    runs over the integers (its divisions are exact), so no rational
    arithmetic happens in the hot loop.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return Poly((_ONE,))
    a, den = integer_rows(m)
    cs = [0] * (n + 1)
    cs[n] = 1
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            c = cs[n - k + 1]
            for i in range(n):
                mk[i][i] += c
            mk = _matmul_int(a, mk)
        tr = sum(mk[i][i] for i in range(n))
        q, rem = divmod(tr, k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division not exact")
        cs[n - k] = -q
    coeffs = tuple(Fraction(cs[k], den ** (n - k)) for k in range(n)) + (_ONE,)
    return Poly(coeffs)


def pfaffian(m: RatMatrix) -> Fraction:
    """Pfaffian of a skew-symmetric matrix, exactly.

    Computed by congruence elimination (unit-determinant transforms
    preserve the Pfaffian, row and column swaps flip its sign), so the
    result is the product of the 2x2 block pivots.
    """
    n = m.rows
    if m.cols != n or n % 2:
        raise ValueError("pfaffian needs an even-dimensional square matrix")
    if m.transpose() != -m:
        raise ValueError("pfaffian needs a skew-symmetric matrix")
    a = [list(row) for row in m._e]
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
    for row in m._e:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def rational_from_text(token: str) -> Fraction:
    """An exact Fraction literal: a, a/b, or a decimal such as 0.5 or 1e3.

    A decimal exponent beyond MAX_EXPONENT in absolute value raises
    ValueError before any digit of 10**e is built.
    """
    m = _EXPONENT.search(token)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_EXPONENT} in {token[:40]!r}")
    return Fraction(token)


def matrix_from_text(text: str) -> RatMatrix:
    toks = text.split()
    if len(toks) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
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
