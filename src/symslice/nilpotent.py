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

Relative regularity is decided on two paths.  Krylov chains of fixed
vectors modulo a prime bound the commutant of x in gl(n) from above
(Frobenius), and the family's count of odd Jordan blocks at 0 turns
that into an upper bound on dim z_{g(-1)}(x) in O(n^3) on every
family; a bound of rank theta certifies regularity.  Any other case is
decided by the exact rank of the ad_x system, the only source of
False.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import mul

from .exact import (
    RatMatrix,
    block_antidiag,
    integer_rows,
    kernel_basis,
    nilpotency_index,
    rank,
)
from .matspace import from_matrix_space
from .pairs import (
    Family,
    MembershipError,
    SymmetricPair,
    ad_rows,
    combine_rows,
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

    @property
    def centralizer_dim(self) -> int:
        return len(self.centralizer_basis)


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
    out = []
    for v in kernel_basis(RatMatrix.from_ints(_ad_system(pair, x), cols=len(support))):
        # the integer column of d * v, combined, over d
        num, den = integer_rows(v)
        rows, _ = combine_rows(pair.n, support, [c for c, in num])
        out.append(RatMatrix.from_ints(rows, cols=pair.n, den=den))
    return out


def _krylov_bound(pair: SymmetricPair, ints: list[list[int]]) -> tuple[int, int, int]:
    """An upper bound on dim z_{g(-1)}(x) from Krylov chains mod _PRIME,
    for the integer rows `ints` of d * x; returns (bound, seeds, c).

    The seeds v_i[j] = (i + 2)^(j^2 + 3j + 1) add their chains v, a v,
    a^2 v, ... to one echelon basis, each up to its first vector already
    in the span.  The span after i seeds is a-invariant and generated by
    i vectors, and reduction mod a prime only lowers ranks, so c = n +
    2 sum_(i <= n) (n - size_i) >= dim C(x), the commutant of x in gl(n)
    (Frobenius; Gantmacher, ch. VIII), and s, the seeds used to reach n
    (n if they never do), is at least the number of invariant factors.
    With odd_0 the number of odd Jordan blocks of x at 0, dim z_g(x) is
    dim C(x) on gl, (dim C(x) - odd_0) / 2 on o, an integer <= c // 2,
    and (dim C(x) + odd_0) / 2 on sp, where odd_0 is even and at most
    dim ker x <= s (Collingwood-McGovern 1993, 6.1).  ad_x maps g(1) ->
    g(-1) and g(-1) -> g(1) with equal rank (adjoint under the trace
    form), so dim z_{g(-1)}(x) = (dim z_g(x) - dim g(1) + dim g(-1)) / 2.
    """
    n = pair.n
    a = [[v % _PRIME for v in row] for row in ints]
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 there)
    c, seeds = n, 0
    while len(basis) < n and seeds < n:
        v = [pow(seeds + 2, j * j + 3 * j + 1, _PRIME) for j in range(n)]
        seeds += 1
        while True:
            r = v  # reduced mod _PRIME only at the end
            for pc, row in basis:
                if f := r[pc] % _PRIME:
                    r = [x - f * y for x, y in zip(r, row)]
            r = [x % _PRIME for x in r]
            pc = next((j for j, x in enumerate(r) if x), None)
            if pc is None:
                break
            inv = pow(r[pc], -1, _PRIME)
            basis.append((pc, [x * inv % _PRIME for x in r]))
            v = [sum(map(mul, ar, v)) % _PRIME for ar in a]
        c += 2 * (n - len(basis))
    if pair.family is Family.ORTH:
        z = c // 2
    elif pair.family is Family.SP:
        z = (c + seeds - seeds % 2) // 2
    else:
        z = c
    return (z - len(pair.plus_support) + len(pair.minus_support)) // 2, seeds, c


def is_relatively_regular(pair: SymmetricPair, x: RatMatrix) -> bool:
    """Minimal-centralizer test: the centralizer in g(-1) has dimension rank theta.

    dim z(x) >= rank theta for every x in g(-1) (Kostant-Rallis), and
    `_krylov_bound` is never below dim z(x), so a bound of rank theta
    certifies regularity in O(n^3) on every family.  Any other result is
    decided by the exact rank of the ad_x system over Q (`_ad_system`),
    the only source of False.
    """
    if not in_eigenspace(pair, x, -1):
        raise MembershipError("element is not in g(-1)")
    bound, seeds, c = _krylov_bound(pair, integer_rows(x)[0])
    if bound == pair.rank_theta:
        log.debug(
            "regular by Krylov-chain certificate: seeds %d, commutant bound %d, centralizer dim %d",
            seeds,
            c,
            bound,
        )
        return True
    rows = _ad_system(pair, x)
    dim = len(pair.minus_support)
    cdim = dim - rank(RatMatrix.from_ints(rows, cols=dim))
    log.debug(
        "regularity by exact fallback: ad system %d x %d, centralizer dim %d",
        len(rows),
        dim,
        cdim,
    )
    return cdim == pair.rank_theta


def make_witness(pair: SymmetricPair) -> NilpotentWitness:
    e = regular_nilpotent(pair)
    idx = nilpotency_index(e)
    if idx is None:
        raise AssertionError("constructed element is not nilpotent")
    return NilpotentWitness(e=e, nilp_index=idx, centralizer_basis=tuple(centralizer(pair, e)))


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
