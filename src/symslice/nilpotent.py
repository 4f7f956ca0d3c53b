"""Relatively regular nilpotent elements and their centralizers.

Each family carries an explicit banded nilpotent element in the odd
part of the symmetric pair, defined by one integer index formula per
family for its upper-right block (and its lower-left block for gl),
for every p >= q.  The centralizer inside g(-1) is computed
generically as the kernel of ad_x in the g(-1) coordinates, the system
`pairs.ad_rows` reads from x and the integer support of each basis
matrix; the hand-parameterized banded solution families are kept
alongside purely as an independent oracle and never feed the
production path.

Relative regularity is decided on three paths, cheapest first.  When
x is cyclic in gl(n), its commutant is Q[x]; theta(x^k) = (-1)^k x^k,
and the odd powers of a form-skew x are form-skew, so z_{g(-1)}(x) is
spanned by the odd powers of x below n and has dimension floor(n/2).
For the pairs with floor(n/2) = rank theta (gl(q,q), gl(q+1,q), o(q,q)
and o(q+1,q)) that is regularity, and a Krylov matrix [v, x v, ...,
x^(n-1) v] of rank n modulo a prime proves x cyclic in O(n^3).
Otherwise the rank of the same ad_x system modulo the prime can
certify it, and the exact rank of that integer system decides every
remaining case; it is the only source of False.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    RatMatrix,
    block_antidiag,
    hstack,
    integer_rows,
    kernel_basis,
    modular_rank,
    nilpotency_index,
    rank,
    shift_power,
    vstack,
)
from .matspace import from_matrix_space
from .pairs import (
    Family,
    MembershipError,
    SymmetricPair,
    ad_rows,
    combine,
    exchange,
    in_eigenspace,
)

log = logging.getLogger(__name__)

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Modulus of the regularity certificate, the Mersenne prime 2^61 - 1.
_PRIME = 2**61 - 1


@dataclass(frozen=True)
class NilpotentWitness:
    e: RatMatrix
    nilp_index: int
    centralizer_basis: tuple
    centralizer_dim: int


def regular_nilpotent(pair: SymmetricPair) -> RatMatrix:
    """The explicit banded nilpotent representative for the pair.

    Block shapes: A is p x q in the upper right, B is q x p in the lower
    left.  Row i of A holds its one in column c(i), none when c(i) falls
    outside 0 .. q-1: c(i) = i + 1 - (p - q) / 2 for sp (p = q gives the
    shift), i + [i < ceil(q/2)] for o(q,q) (so q = 1 gives e = 0, the
    documented degenerate case), and c(i) = i for gl and o(q+1,q).  For
    GL, B[i][j] = [j = i + 1]; for the orthogonal and symplectic families
    B is pinned to A by the form (`from_matrix_space`).
    """
    p, q = pair.p, pair.q
    if pair.family is Family.SP:
        offset = [1 - (p - q) // 2] * p
    elif pair.family is Family.ORTH and p == q:
        offset = [int(i < (q + 1) // 2) for i in range(p)]
    else:
        offset = [0] * p
    a = RatMatrix.from_ints([[int(j == i + offset[i]) for j in range(q)] for i in range(p)], cols=q)
    if pair.family is Family.GL:
        b = RatMatrix.from_ints([[int(j == i + 1) for j in range(p)] for i in range(q)], cols=p)
        return block_antidiag(a, b)
    return from_matrix_space(pair, a)


def _ad_system(pair: SymmetricPair, x: RatMatrix) -> list[list[int]]:
    """The nonzero rows of ad_x in the g(-1) coordinates, for d * x with d
    the least common denominator of x: an integer system with the same
    kernel."""
    ints, _ = integer_rows(x)
    return list(ad_rows(pair, ints, pair.minus_support).values())


def centralizer(pair: SymmetricPair, x: RatMatrix) -> list[RatMatrix]:
    """Canonical basis of {z in g(-1) : [x, z] = 0}.

    Computed as the kernel of ad_x written in the coordinates of the
    cached g(-1) basis, so the output ordering is deterministic.
    """
    if x.shape != (pair.n, pair.n):
        raise ValueError(f"expected a {pair.n} x {pair.n} matrix, got {x.shape}")
    support = pair.minus_support
    vectors = kernel_basis(RatMatrix.from_ints(_ad_system(pair, x), cols=len(support)))
    return [combine(pair.n, support, [v[j, 0] for j in range(v.rows)]) for v in vectors]


def _cyclic(a: list[list[int]]) -> bool:
    """Whether the Krylov vectors v, a v, ..., a^(n-1) v of the square
    integer rows a, for a fixed integer v, have rank n mod _PRIME.  Then
    the Krylov determinant is nonzero over Z, so v is a cyclic vector."""
    n = len(a)
    a = [[x % _PRIME for x in row] for row in a]
    v = [i * i + 3 * i + 1 for i in range(n)]
    krylov = []
    for _ in range(n):
        krylov.append(v)
        v = [sum(x * y for x, y in zip(row, v) if x) % _PRIME for row in a]
    return modular_rank(krylov, _PRIME) == n


def is_relatively_regular(pair: SymmetricPair, x: RatMatrix) -> bool:
    """Minimal-centralizer test: the centralizer in g(-1) has dimension rank theta.

    dim z(x) >= rank theta for every x in g(-1) (Kostant-Rallis).  If x
    is cyclic in gl(n), its commutant is Q[x], and since theta(x^k) =
    (-1)^k x^k and odd powers of a form-skew x are form-skew, z(x) is
    spanned by x, x^3, ... below n: dimension floor(n/2).  So where
    floor(n/2) = rank theta, a cyclic vector of d x (`_cyclic`, d the
    denominator of x) certifies regularity.  Next, the rank of ad_x mod
    _PRIME is at most its rank over Q, so a mod-p rank of dim g(-1) -
    rank theta certifies it.  Any other result is decided by the exact
    rank of the same integer system, the only source of False.
    """
    if not in_eigenspace(pair, x, -1):
        raise MembershipError("element is not in g(-1)")
    if pair.n // 2 == pair.rank_theta and _cyclic(integer_rows(x)[0]):
        log.debug("regular by cyclic-vector certificate: Krylov rank %d", pair.n)
        return True
    rows = _ad_system(pair, x)
    dim = len(pair.minus_support)
    r = modular_rank(rows, _PRIME)
    if dim - r == pair.rank_theta:
        log.debug("regular by mod-p certificate: ad system %d x %d, rank %d", len(rows), dim, r)
        return True
    cdim = dim - rank(RatMatrix.from_ints(rows, cols=dim))
    log.debug(
        "regularity by exact fallback: ad system %d x %d, mod-p rank %d, centralizer dim %d",
        len(rows),
        dim,
        r,
        cdim,
    )
    return cdim == pair.rank_theta


def make_witness(pair: SymmetricPair) -> NilpotentWitness:
    e = regular_nilpotent(pair)
    idx = nilpotency_index(e)
    if idx is None:
        raise AssertionError("constructed element is not nilpotent")
    cent = centralizer(pair, e)
    return NilpotentWitness(
        e=e, nilp_index=idx, centralizer_basis=tuple(cent), centralizer_dim=len(cent)
    )


# ---------------------------------------------------------------------------
# Closed-form centralizer bases (test oracle only).
#
# These are the banded solution families written out case by case, one
# basis matrix per free parameter, assembled directly from shift
# patterns.  They are deliberately independent of the kernel computation
# above; tests compare the two by span.
# ---------------------------------------------------------------------------


def _gl_like_patterns(p: int, q: int) -> list[RatMatrix]:
    """Upper block: banded upper-triangular Toeplitz over zero padding.

    Lower block: the same bands shifted one column right, truncated to
    width p.  Covers GL (any p >= q) and the orthogonal p = q + 1 case.
    """
    out = []
    for m in range(1, q + 1):
        a = vstack([shift_power(q, m - 1), RatMatrix.zeros(p - q, q)])
        brows = [[_ZERO] * p for _ in range(q)]
        for i in range(q):
            j = i + m
            if j <= q and j < p:  # bands live in columns 2..q+1 only
                brows[i][j] = _ONE
        out.append(block_antidiag(a, RatMatrix(brows, cols=p)))
    return out


def _sp_patterns(p: int, q: int) -> list[RatMatrix]:
    out = []
    if p > q:
        r = (p - q) // 2
        sgn = _ONE if r % 2 == 0 else -_ONE
        for m in range(1, q, 2):  # parameters sit on even superdiagonals
            core = shift_power(q, m - 1)
            a = vstack([RatMatrix.zeros(r - 1, q), core, RatMatrix.zeros(r + 1, q)])
            b = hstack([RatMatrix.zeros(q, r + 1), sgn * core, RatMatrix.zeros(q, r - 1)])
            out.append(block_antidiag(a, b))
    else:
        for m in range(2, q + 1, 2):  # p = q: parameters on odd superdiagonals
            core = shift_power(q, m - 1)
            out.append(block_antidiag(core, core))
    return out


def _orth_even_patterns(k: int) -> list[RatMatrix]:
    """Upper-right block patterns for the orthogonal p = q = 2k case.

    Block layout of the q x q upper-right block Z, with k x k blocks
    ((A, B), (C, D)): A strictly upper banded, C zero, D upper banded
    with a corrected top-right corner, B a sum of three banded pieces
    with corrected corners.
    """
    q = 2 * k
    pats = []
    for m in range(1, 2 * k + 1):
        z = [[_ZERO] * q for _ in range(q)]
        if m <= k - 1:
            for i in range(k - m):  # A: band m
                z[i][i + m] += _ONE
        if m <= k:
            for i in range(k - (m - 1)):  # D: band m-1
                z[k + i][k + i + m - 1] += _ONE
        if m == 2 * k:
            z[k][2 * k - 1] -= _ONE  # D corner (1,k) carries a_k - a_{2k}
        if k <= m <= 2 * k - 1:
            d = m - k
            for i in range(k - d):  # B1: band d at a_{k+d}
                z[i][k + i + d] += _ONE
            if m == k:
                z[k - 1][2 * k - 1] -= _ONE  # B1 corner (k,k) is a_{2k}, not a_k
        if m == 2 * k:
            z[k - 1][2 * k - 1] += _ONE
        if 1 <= m <= k - 1:
            c = k - m
            for i in range(c, k):  # B2: subdiagonal band k-m
                z[i][k + i - c] += _ONE
        if 2 <= m <= k - 1:
            c = k - m
            for i in range(c, k - 1):  # B3: same bands, last row omitted
                z[i][k + i - c] += _ONE
        pats.append(RatMatrix(z, cols=q))
    return pats


def _orth_odd_patterns(k: int) -> list[RatMatrix]:
    """Upper-right block patterns for the orthogonal p = q = 2k+1 case.

    Block layout ((A, B), (C, D)) with A of size (k+1) x (k+1), B of
    size (k+1) x k, C zero, D of size k x k.
    """
    q = 2 * k + 1
    if k == 0:
        # q = 1: the construction degenerates to e = 0, whose centralizer
        # is all of g(-1); the single pattern is the full 1 x 1 block.
        return [RatMatrix.identity(1)]
    off = k + 1  # column origin of B, row/column origin of D
    pats = []
    for m in range(1, 2 * k + 2):
        z = [[_ZERO] * q for _ in range(q)]
        if m <= k:
            for i in range(k + 1 - m):  # A: band m
                z[i][i + m] += _ONE
            for i in range(k - (m - 1)):  # D: band m-1
                z[off + i][off + i + m - 1] += _ONE
        if k + 1 <= m <= 2 * k:
            d = m - (k + 1)
            if d == 0:
                for i in range(k - 1):  # B1 diagonal stops above the corner
                    z[i][off + i] += _ONE
            else:
                for i in range(k - d):
                    z[i][off + i + d] += _ONE
        if m == 2 * k + 1:
            z[k - 1][off + k - 1] += _ONE  # B1 corner pair a_{2k+1}, -a_{2k+1}
            z[k][off + k - 1] -= _ONE
        if 1 <= m <= k - 1:
            c = k + 1 - m
            for i in range(c, k + 1):  # B2: full subdiagonal band
                z[i][off + i - c] += _ONE
        if m == k:
            for i in range(1, k):  # B2: band 1 without its last row
                z[i][off + i - 1] += _ONE
        if m == k + 1:
            z[k][off + k - 1] += _ONE  # B2 corner (k+1, k)
        if 2 <= m <= k - 1:
            c = k - m
            for i in range(c, k - 1):  # B3: same bands as B2's family, shifted
                z[i][off + i - c] += _ONE
        pats.append(RatMatrix(z, cols=q))
    return pats


def closed_form_centralizer(pair: SymmetricPair) -> list[RatMatrix]:
    """Hand-parameterized centralizer basis of the regular nilpotent element.

    Purely an oracle: tests check that its span agrees with the generic
    kernel computation.
    """
    p, q = pair.p, pair.q
    if pair.family is Family.GL:
        return _gl_like_patterns(p, q)
    if pair.family is Family.SP:
        return _sp_patterns(p, q)
    if p == q + 1:
        return _gl_like_patterns(p, q)
    jq = exchange(q)
    if q % 2 == 0:
        blocks = _orth_even_patterns(q // 2)
    else:
        blocks = _orth_odd_patterns(q // 2)
    return [block_antidiag(z, jq * z.transpose() * jq) for z in blocks]
