"""The correspondence between g(-1) and p x q matrices, with the group action.

For the orthogonal and symplectic pairs the lower-left block of an
element of g(-1) is pinned to the upper-right block y by the form (the
element is y - adjoint(y)), so projection to the upper-right block is a
linear isomorphism onto M_{p,q}, equivariant for the block-diagonal
group acting by conjugation on one side and by (g1, g2) . A = g1 A
g2^{-1} on the other.  For GL both blocks are free and the
correspondence takes the pair (A, B).

Rational group elements are generated exactly, each with its inverse
and no elimination for it: products of elementary matrices for GL, with
the inverse operations applied as column operations, and Cayley
transforms of form-skew block-diagonal elements otherwise, whose inverse
is the form adjoint.  Every element is checked by exact products: a GL
draw by g1 g1^{-1} = I_p and g2 g2^{-1} = I_q on the integer rows of its
blocks, any other element by one product g g^{-1} = I, which for o and
sp is also the form condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact import (
    RatMatrix,
    _matmul,
    _unique_solution,
    block_antidiag,
    integer_rows,
    inverse,
)
from .pairs import Family, SymmetricPair, adjoint, combine

# Singular Cayley draws before random_group_element gives up.
_MAX_RETRIES = 64


class RetryExhausted(RuntimeError):
    """Random group element generation kept hitting singular draws."""


@dataclass(frozen=True)
class GroupElement:
    g: RatMatrix
    g_inv: RatMatrix

    def inverse(self) -> "GroupElement":
        return GroupElement(g=self.g_inv, g_inv=self.g)


def group_element(pair: SymmetricPair, g: RatMatrix) -> GroupElement:
    """Wrap and validate a matrix as an element of the fixed subgroup."""
    g_inv = inverse(g) if pair.form_entries is None else adjoint(pair, g)
    ge = GroupElement(g=g, g_inv=g_inv)
    _check_group_element(pair, ge)
    return ge


def _check_group_element(pair: SymmetricPair, ge: GroupElement):
    """Raise ValueError unless g is block diagonal and g g_inv = I.

    For o and sp, g_inv is the form adjoint of g, so g g_inv = I is the
    form condition.
    """
    g, n, p = ge.g, pair.n, pair.p
    if g.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got {g.shape}")
    if ge.g_inv.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} inverse, got {ge.g_inv.shape}")
    num, den = integer_rows(g)
    if any(any(row[p:]) for row in num[:p]) or any(any(row[:p]) for row in num[p:]):
        raise ValueError("group element must be block diagonal")
    # g g_inv = I read on the integer rows: their product is den * den' I
    inv_num, inv_den = integer_rows(ge.g_inv)
    scale = den * inv_den
    if _matmul(num, inv_num, n) != [[scale * (i == j) for j in range(n)] for i in range(n)]:
        what = "the form condition" if pair.form_entries is not None else "g g_inv = I"
        raise ValueError(f"group element fails {what}")


def from_matrix_space(
    pair: SymmetricPair, a: RatMatrix, b: RatMatrix | None = None
) -> RatMatrix:
    """Assemble the element of g(-1) with upper-right block a.

    The lower-left block is pinned by the form for the orthogonal and
    symplectic families, as minus the adjoint of the upper-right part;
    for GL it is free and must be passed as b.
    """
    p, q = pair.p, pair.q
    if a.shape != (p, q):
        raise ValueError(f"expected a {p} x {q} block, got {a.shape}")
    if pair.family is Family.GL:
        if b is None:
            raise ValueError("the GL correspondence needs both blocks (A, B)")
        if b.shape != (q, p):
            raise ValueError(f"expected a {q} x {p} block, got {b.shape}")
        return block_antidiag(a, b)
    if b is not None:
        raise ValueError("the lower-left block is determined by the form")
    y = block_antidiag(a, RatMatrix.zeros(q, p))
    return y - adjoint(pair, y)


def act(pair: SymmetricPair, ge: GroupElement, x: RatMatrix) -> RatMatrix:
    """Conjugation action on g(-1): g x g^{-1} as two products of integer
    rows, reduced to lowest terms once."""
    n = pair.n
    if x.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got {x.shape}")
    if ge.g.shape != (n, n) or ge.g_inv.shape != (n, n):
        raise ValueError(f"expected a group element of {n} x {n} matrices")
    (g, gd), (y, yd), (h, hd) = map(integer_rows, (ge.g, x, ge.g_inv))
    return RatMatrix.from_ints(_matmul(_matmul(g, y, n), h, n), cols=n, den=gd * yd * hd)


def act_mpq(pair: SymmetricPair, ge: GroupElement, a: RatMatrix) -> RatMatrix:
    """The (g1, g2) . A = g1 A g2^{-1} action on p x q matrices."""
    p, n = pair.p, pair.n
    if a.shape != (p, pair.q):
        raise ValueError(f"expected a {p} x {pair.q} block, got {a.shape}")
    g1 = ge.g.submatrix(0, p, 0, p)
    g2_inv = ge.g_inv.submatrix(p, n, p, n)
    return g1 * a * g2_inv


def cayley(pair: SymmetricPair, s: RatMatrix) -> RatMatrix:
    """(I - S)(I + S)^{-1}; lands in the group when S is form-skew.

    The two factors commute, so this is the solution X of (I + S) X =
    I - S.  With S = S' / d over its integer rows S', that is (d I + S')
    X = d I - S': one elimination of the integer rows [d I + S' | d I -
    S'], read off as in `exact.solve_unique`.  Raises ValueError when
    I + S is singular.
    """
    n = pair.n
    if s.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got {s.shape}")
    num, den = integer_rows(s)
    rows = []
    for i, row in enumerate(num):
        plus, minus = list(row), [-x for x in row]
        plus[i] += den
        minus[i] += den
        rows.append(plus + minus)
    out = _unique_solution(rows, n, n)
    if out is None:
        raise ValueError("matrix is singular")
    return out


def _unimodular(rng: random.Random, n: int, height: int) -> tuple[list, list]:
    """Product of elementary row operations and its inverse, as integer
    rows: determinant is +-1 exactly.

    The inverse takes the inverse of each row operation as a column
    operation on the right, so it needs no elimination.  The operation
    count is kept modest so the entries stay small; exact arithmetic
    downstream (conjugation, centralizer kernels) degrades with entry
    size, not with matrix count.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m_inv = [row[:] for row in m]
    for _ in range(n + 3):
        op = rng.randrange(6)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op < 4 and i != j:
            c = rng.randint(1, height) * rng.choice((1, -1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in m_inv:
                row[j] -= c * row[i]
        elif op == 4 and i != j:
            m[i], m[j] = m[j], m[i]
            for row in m_inv:
                row[i], row[j] = row[j], row[i]
        else:
            m[i] = [-a for a in m[i]]
            for row in m_inv:
                row[i] = -row[i]
    return m, m_inv


def random_group_element(pair: SymmetricPair, seed: int, height: int = 5) -> GroupElement:
    """Deterministic pseudo-random rational point of the fixed subgroup.

    GL: block-diagonal products of elementary integer matrices with
    determinant +-1.  Orthogonal and symplectic: Cayley transform of a
    random form-skew block-diagonal element S, retrying when I + S is
    singular: 29 % of draws in one seed-1 certify pass at height 3, 51 %
    on o(2, 2), the worst grid pair (each block of S is diag(a, -a),
    singular at a = +-1: rate 1 - (1 - 2/(2h + 1))^2 at height h).  All
    _MAX_RETRIES = 64 draws fail with probability under 0.64^64 < 1e-12
    for h >= 2.  At h = 1 it would be (8/9)^64 ~ 5e-4, so every family
    refuses a height below 2.
    """
    if height < 2:
        raise ValueError("height must be at least 2")
    rng = random.Random(seed)
    if pair.family is Family.GL:
        p, q = pair.p, pair.q
        g1, g1_inv = _unimodular(rng, p, height)
        g2, g2_inv = _unimodular(rng, q, height)
        # block diagonal by construction: only the blocks' products are checked
        for m, m_inv, k in ((g1, g1_inv, p), (g2, g2_inv, q)):
            if _matmul(m, m_inv, k) != [[int(i == j) for j in range(k)] for i in range(k)]:
                raise ValueError("group element fails g g_inv = I")
        zp, zq = [0] * p, [0] * q
        g, g_inv = (
            RatMatrix.from_ints([r + zq for r in a] + [zp + r for r in b], cols=pair.n)
            for a, b in ((g1, g2), (g1_inv, g2_inv))
        )
        return GroupElement(g=g, g_inv=g_inv)
    support = pair.plus_support
    for _ in range(_MAX_RETRIES):
        coeffs = [rng.randint(-height, height) for _ in support]
        s = combine(pair.n, support, coeffs)
        try:
            g = cayley(pair, s)
        except ValueError:
            continue
        ge = GroupElement(g=g, g_inv=adjoint(pair, g))
        _check_group_element(pair, ge)
        return ge
    raise RetryExhausted(f"no invertible I + S found in {_MAX_RETRIES} draws")
