"""Relatively regular nilpotent elements and their centralizers.

Each family carries an explicit banded nilpotent element in the odd
part of the symmetric pair, defined by one integer index formula per
family for its upper-right block (and its lower-left block for gl),
for every p >= q.  The centralizer inside g(-1) is computed
generically as the kernel of ad_x in the g(-1) coordinates, the system
`pairs.ad_rows` reads from x and the integer support of each basis
matrix.  An independent oracle, `closed_form_centralizer`, reads the
same space off the powers of e: the odd powers of an x in g(-1) lie in
g(-1) and commute with x, and e, e^3, ..., e^(2 rank theta - 1) span
z(e) on every pair but o(q,q), where e has Jordan type (2q-1, 1) and
one element w u^t J - u w^t J built from the two kernel vectors u, w
of e replaces the vanishing e^(2q-1).  It never feeds the production
path.

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

from .exact import (
    RatMatrix,
    block_antidiag,
    integer_rows,
    kernel_basis,
    modular_rank,
    nilpotency_index,
    rank,
)
from .matspace import from_matrix_space
from .pairs import (
    Family,
    MembershipError,
    SymmetricPair,
    ad_rows,
    combine,
    in_eigenspace,
)

log = logging.getLogger(__name__)

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


def closed_form_centralizer(pair: SymmetricPair) -> list[RatMatrix]:
    """A centralizer basis of the regular nilpotent e read off its powers.

    For x in g(-1), theta(x^k) = (-1)^k x^k, odd powers of a form-skew x
    are form-skew, and every power commutes with x, so x, x^3, x^5, ...
    lie in z_{g(-1)}(x).  For every pair except o(q,q), e is nilpotent of
    index at least 2 rank theta, so e, e^3, ..., e^(2r-1) with r = rank
    theta are independent and span z(e).  On o(q,q), e has Jordan type
    (2q-1, 1), so e^(2q-1) = 0 and only e, ..., e^(2q-3) remain.  The
    last direction is w u^t J - u w^t J for the two kernel vectors
    u = e_m - e_(m-1) (m = floor(q/2)) and w = e_p of e: it lies in
    so(J) and commutes with e because e u = e w = 0.  Its upper-right
    block holds 1 at (m, q-1) and -1 at (m-1, q-1); q = 1 leaves the
    single entry 1.

    Purely an oracle: built from products and `from_matrix_space` alone,
    without any elimination; tests and certificates check that its span
    agrees with the kernel computation of `centralizer`.
    """
    e = regular_nilpotent(pair)
    count, extra = pair.rank_theta, []
    if pair.family is Family.ORTH and pair.p == pair.q:
        q, m = pair.q, pair.q // 2
        a = [[int(j == q - 1) * ((i == m) - (i == m - 1)) for j in range(q)] for i in range(q)]
        count -= 1
        extra = [from_matrix_space(pair, RatMatrix.from_ints(a, cols=q))]
    powers, e2 = [e], e * e
    while len(powers) < count:
        powers.append(powers[-1] * e2)
    return powers[:count] + extra
