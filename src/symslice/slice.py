"""The transverse slice f + g(-1)^e and orbit canonicalization on it.

The slice is an affine subspace meeting each regular orbit in a single
point, so conjugation invariants restricted to it separate orbits.  The
invariants used are the full characteristic polynomial coefficients:
redundant but conjugation-invariant and exact.  An element of g(-1) is
X = ((0, A), (B, 0)) with A of size p x q, and det(tI - X) =
t^(p - q) det(t^2 I - B A): an invariant of degree k is the coefficient
c_(q - k / 2) of the q x q product B A.  At slice points B A is upper
Hessenberg, on sp once its indices are listed even first (`_order`),
and its coefficients come off the division-free Hessenberg recurrence,
O(q^3); any other B A, as from dense input or a conjugated point,
takes the Faddeev-LeVerrier recurrence, O(q^4) (`_leading`).
At a slice point B A is never formed from the n x n point: B' A' is a
quadratic form in the point's integer coordinates w = (den, num), and
each slice caches its coefficients, one sparse q x q integer matrix per
pair of support terms (`KostantSlice._kernel`), so an evaluation sums
w_t w_s M_ts (`_slice_invariants`).
For the orthogonal p = q family the characteristic polynomial only sees
the square of the degree-q product invariant and its fibers on the
slice are +- pairs, so exactly there one extra coordinate is appended:
the Pfaffian of X J, invariant under every Cayley-generated (determinant
one) group element.  X J is block anti-diagonal, so Pf(X J) =
(-1)^q det A = c_0 of A: off the Hessenberg recurrence at slice points,
where A is upper Hessenberg, and off a Bareiss determinant, O(q^3),
elsewhere.  The Jacobian rank check below measures
separation, with exact derivatives from the Faddeev-LeVerrier
recurrence over B A, whose steps are the gradients (see `_jacobian`).

Inversion is exact and direct (Kostant-Rallis).  The slice directions
have an eigenbasis G_j of ad h, [h, G_j] = w_j G_j with every w_j >= 0
even (see `_graded_blocks`), and [h, f] = -2f, checked exactly by
`complete_triple`.  h is semisimple with integer eigenvalues (sl2
theory), so for rational t != 0 the group element t^h (t^l on the
l-eigenspace of h, determinant t^tr(h) = 1) scales f by t^-2 and G_j by
t^w_j.  An invariant I of degree k takes t^2 Y to t^(2k) I(Y), so
I(f + sum_j t^(w_j + 2) u_j G_j) = t^(2k) I(f + sum_j u_j G_j): every
monomial of I on the slice has weighted degree 2k, u_j counting
w_j + 2 >= 2.  An invariant of degree (w + 2) / 2 is therefore
linear in the weight-w coordinates, free of the heavier ones, and
otherwise a polynomial in the lighter ones.  With the class and every
heavier one set to 0 it is that polynomial, so `_graded_solve_pairs`
finds the coordinates class by class, lightest first, from one small
linear solve and the class's own invariants at that partial point, of
which only the class's own top coefficients are read.  A final exact
evaluation of every invariant decides the answer: a mismatch means no
slice point has the target invariants.  Before any slice work, a target
off the image of the slice in the quotient's coordinates is refused by
naming the relation it breaks.

All of this runs on integers.  A slice point's coordinates are integer
numerators over one denominator, B' A' (and A' for the Pfaffian) is
summed from the kernel over that denominator times the support's, each
invariant comes off a recurrence as an integer pair (c, d) for c / d,
and the final check cross-multiplies; only `slice_point` assembles the
n x n point, for the CLI's output, the certificate's conjugation check
and `_jacobian`.
Fractions are made only for what leaves the module: the coordinates
that `invert_on_slice` returns and the values of `invariants` and
`invariant_values`.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    RatMatrix,
    _matmul,
    bareiss_det,
    faddeev_leverrier,
    hessenberg_charpoly,
    integer_rows,
    inverse,
    rank as matrix_rank,
    rational_from_text,
    unlimited_int_text,
)
from .nilpotent import centralizer
from .pairs import Family, MembershipError, SymmetricPair, bracket, combine_rows, in_eigenspace
from .sl2 import Sl2Triple

log = logging.getLogger(__name__)

_ZERO = Fraction(0)


class SliceDimensionError(RuntimeError):
    """The slice does not have the shape the invariants need: the
    centralizer of e does not have dimension rank theta, the invariants
    with a linear part at f do not solve for the slice coordinates, or
    ad h does not scale the direction each one solves for by the weight
    2k - 2 of its degree k."""


class NotFound(RuntimeError):
    """No slice point has the requested invariants."""


@dataclass(frozen=True)
class _Block:
    """One weight class: the invariants that solve for it, and its step,
    their columns of the inverse of the solving invariants' Jacobian at
    f, the class's directions in seed coordinates."""

    invariants: tuple
    step: RatMatrix


@dataclass(frozen=True)
class KostantSlice:
    pair: SymmetricPair
    triple: Sl2Triple
    slice_basis: tuple

    @property
    def dim(self) -> int:
        return len(self.slice_basis)

    @cached_property
    def _blocks(self) -> tuple:
        # Only inversion reads the blocks, so the first inversion builds
        # them and a slice that is never inverted never pays for them.
        return _graded_blocks(self)

    @cached_property
    def _support(self) -> tuple:
        """(l, terms): l the lcm of the denominators of f and of each slice
        basis matrix, terms[0] the (i, j, v) nonzero entries of l f and
        terms[k] those of l b_k, the integer support for
        `pairs.combine_rows`."""
        mats = [integer_rows(b) for b in (self.triple.f, *self.slice_basis)]
        lcm = math.lcm(*(d for _, d in mats))
        return lcm, tuple(
            tuple((i, j, v * (lcm // d)) for i, r in enumerate(num) for j, v in enumerate(r) if v)
            for num, d in mats
        )

    @cached_property
    def _kernel(self) -> tuple:
        """(l, products, uppers): the terms of `_support` as the bilinear
        form of B' A' in w = (den, num_1, ..., num_d), for the point over
        den l (`_slice_invariants`).  With A_t the upper-right p x q and
        B_t the lower-left q x p block of term t, B' A' is the sum over
        t <= s of w_t w_s M_ts, M_ts = B_t A_s + B_s A_t (B_t A_t when
        t = s); products holds (t, s, entries) for each nonzero M_ts,
        entries its (i, j, v) nonzero integer entries with i and j
        relabeled by `_order` (B_t's rows and A_t's columns, as each term
        is split into its blocks), and uppers[t] the (i, j, v) of A_t, in
        its own order, for the o(q,q) Pfaffian.  Built on the first
        evaluation, so a slice that is never evaluated never pays for
        it."""
        return _build_kernel(self)


@dataclass(frozen=True)
class InvariantVector:
    """Characteristic polynomial coefficients, constant term first,
    excluding the leading 1; the orthogonal p = q family carries one
    extra trailing value, the Pfaffian of X J, which is c_0 of the
    upper-right q x q block."""

    values: tuple

    def __post_init__(self):
        values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)


def invariant_length(pair: SymmetricPair) -> int:
    """Length of the invariant vector: n, plus the o(q,q) Pfaffian."""
    return pair.n + int(pair.family is Family.ORTH and pair.p == pair.q)


def make_slice(pair: SymmetricPair, triple: Sl2Triple, basis=None) -> KostantSlice:
    """The slice f + z(e) over the canonical kernel basis of ad e on
    g(-1): `centralizer(pair, triple.e)`, or the basis passed, which must
    be that one, such as the `centralizer_basis` of the witness of e."""
    basis = tuple(centralizer(pair, triple.e) if basis is None else basis)
    if len(basis) != pair.rank_theta:
        raise SliceDimensionError(
            f"centralizer dimension {len(basis)} != rank theta {pair.rank_theta}"
        )
    return KostantSlice(pair=pair, triple=triple, slice_basis=basis)


def slice_point(slc: KostantSlice, coords) -> RatMatrix:
    """f + sum_k coords[k] b_k, the only n x n assembly of a slice point:
    the terms of `_support` combined with (1, *coords) over their lcm.
    Only what needs the point builds it (output, the certificate's
    conjugation check and `_jacobian`); the invariants of a slice point
    come off `_slice_invariants`."""
    coords = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
    if len(coords) != slc.dim:
        raise ValueError(f"expected {slc.dim} coordinates, got {len(coords)}")
    lcm, terms = slc._support
    rows, den = combine_rows(slc.pair.n, terms, [1, *coords])
    return RatMatrix.from_ints(rows, cols=slc.pair.n, den=den * lcm)


def _order(pair: SymmetricPair):
    """The order in which B A lists its q indices: on sp the even ones
    first, then the odd ones, else their own order.  On sp no entry of
    B A at a slice point links an even index with an odd one, so in this
    order it is block diagonal with upper Hessenberg blocks, which is
    upper Hessenberg; conjugating by a permutation keeps its
    characteristic polynomial."""
    q = pair.q
    return [*range(0, q, 2), *range(1, q, 2)] if pair.family is Family.SP else range(q)


def _build_kernel(slc: KostantSlice) -> tuple:
    """`KostantSlice._kernel`; a support term in a diagonal block raises
    AssertionError, since f and every slice direction lie in g(-1)."""
    pair = slc.pair
    p, q = pair.p, pair.q
    lcm, terms = slc._support
    label = {k: i for i, k in enumerate(_order(pair))}
    # per term: A_t in its own order, A_t's rows with columns relabeled,
    # and B_t with rows relabeled, so the products come out in `_order`
    uppers, by_row, lowers = [], [], []
    for t in terms:
        upper, rows, lower = [], {}, []
        for i, j, v in t:
            if i < p <= j:
                upper.append((i, j - p, v))
                rows.setdefault(i, []).append((label[j - p], v))
            elif j < p <= i:
                lower.append((label[i - p], j, v))
            else:
                raise AssertionError(f"slice support entry ({i}, {j}) outside g(-1)")
        uppers.append(tuple(upper))
        by_row.append(rows)
        lowers.append(lower)
    products = []
    for t in range(len(terms)):
        for s in range(t, len(terms)):
            m = {}
            # B_t A_s, plus B_s A_t unless s = t
            for b, a in {(t, s), (s, t)}:
                rows = by_row[a]
                for i, k, v in lowers[b]:
                    for j, u in rows.get(k, ()):
                        ij = i, j
                        m[ij] = m.get(ij, 0) + v * u
            entries = tuple((i, j, v) for (i, j), v in sorted(m.items()) if v)
            if entries:
                products.append((t, s, entries))
    pattern = [[0] * q for _ in range(q)]
    for _, _, entries in products:
        for i, j, _ in entries:
            pattern[i][j] = 1
    recurrence = "Faddeev-LeVerrier" if hessenberg_charpoly(pattern, 0) is None else "Hessenberg"
    log.debug(
        "slice kernel for (%s, %d, %d): %d monomials, %d terms, B A by the %s recurrence",
        pair.family.value,
        p,
        q,
        len(products),
        len(terms),
        recurrence,
    )
    return lcm, tuple(products), tuple(uppers)


def invariants(pair: SymmetricPair, x: RatMatrix) -> InvariantVector:
    if not in_eigenspace(pair, x, -1):
        raise MembershipError("element is not in g(-1)")
    return InvariantVector(invariant_values(pair, x))


def invariant_values(pair: SymmetricPair, x: RatMatrix) -> tuple:
    """The values of `invariants` without the membership check, for
    points the caller already knows lie in g(-1): the Fractions of
    `_invariants_of_rows` at every index."""
    return tuple(
        Fraction(c, d) if c else _ZERO
        for c, d in _invariants_of_rows(pair, *integer_rows(x), range(invariant_length(pair)))
    )


def _invariants_of_rows(pair: SymmetricPair, num, den: int, indices) -> tuple:
    """The invariants of x = num / den in g(-1) at the given indices, in
    their order, read off the integer rows as pairs (c, d), the value
    c / d not reduced: B' A' with its indices in `_order` and A' from
    the blocks of num, then `_read_invariants`.  A slice point takes
    `_slice_invariants`."""
    p, q = pair.p, pair.q
    a = [row[p:] for row in num[:p]]
    ba = None
    if _depth(pair, indices):
        order = _order(pair)
        b = [num[p + i][:p] for i in order]
        ba = _matmul(b, [[row[j] for j in order] for row in a], q)
    return _read_invariants(pair, ba, a, den, indices)


def _slice_invariants(slc: KostantSlice, num, den: int, indices) -> tuple:
    """The pairs `_invariants_of_rows` gives at the slice point with
    coordinates num / den, without assembling it (`slice_point`): B' A'
    is summed from the slice's `_kernel` in w = (den, *num), and A' from
    its upper blocks only when index n is named."""
    pair = slc.pair
    p, q = pair.p, pair.q
    lcm, products, uppers = slc._kernel
    w = [den, *num]
    ba = a = None
    if _depth(pair, indices):
        ba = [[0] * q for _ in range(q)]
        for t, s, entries in products:
            c = w[t] * w[s]
            if c:
                for i, j, v in entries:
                    ba[i][j] += c * v
    if pair.n in indices:
        a = [[0] * q for _ in range(p)]
        for c, entries in zip(w, uppers):
            if c:
                for i, j, v in entries:
                    a[i][j] += c * v
    return _read_invariants(pair, ba, a, den * lcm, indices)


def _depth(pair: SymmetricPair, indices) -> int:
    """How many top coefficients of B A the indices read: index m < n
    reads down to c_(q - k), k = (n - m) / 2."""
    return min(pair.q, (pair.n - min(indices, default=pair.n)) // 2)


def _read_invariants(pair: SymmetricPair, ba, a, den: int, indices) -> tuple:
    """The invariants at the given indices, in their order, as pairs
    (c, d), the value c / d not reduced, of x in g(-1) whose blocks give
    B A = ba / den^2 and A = a / den for the integer rows ba and a; ba
    is read only when `_depth` is nonzero, a only when index n is named.

    c_m, m < n, is 0 when n - m is odd or above 2q, else c_(q - k), k =
    (n - m) / 2, of B A, read off `_leading` only down to the least
    index named.  Index n, Pf(X J) = (-1)^q det A, is c_0 of A: off the
    Hessenberg recurrence when A is upper Hessenberg, as at slice points,
    else off `exact.bareiss_det`, O(q^3) against the O(q^4) of all q
    Faddeev-LeVerrier steps.
    """
    n, q = pair.n, pair.q
    vals = [(0, 1)] * n
    last = _depth(pair, indices)
    if last:
        vals[n - 2 * last :: 2] = reversed(_leading(ba, den * den, last))
    if n in indices:
        top = hessenberg_charpoly(a, q)
        vals.append((top[-1] if top is not None else (-1) ** q * bareiss_det(a), den**q))
    return tuple(map(vals.__getitem__, indices))


def _leading(a, den: int, last: int) -> list:
    """c_(r - 1), ..., c_(r - last) of a / den for the square integer rows
    a, r x r: c_(r - k) is the pair (c_(r - k) of a, den^k).

    The coefficients of a come off `exact.hessenberg_charpoly` when a is
    upper Hessenberg, as B A is at slice points with its indices in
    `_order`; any other a, such as dense input, takes
    `exact.faddeev_leverrier`.
    """
    top = hessenberg_charpoly(a, last)
    if top is None:
        top = [c for _, (c, _) in zip(range(last), faddeev_leverrier(a))]
    return [(c, den**k) for k, c in enumerate(top, start=1)]


@unlimited_int_text()
def invariants_to_json(v: InvariantVector) -> str:
    return json.dumps([str(x) for x in v.values])


@unlimited_int_text()
def invariants_from_json(text: str) -> InvariantVector:
    """Parse a JSON array of rationals; bare numbers are read exactly, not as
    floats.  Every number is bounded by MAX_DIGITS before it is built, so
    CPython's int-from-text limit is lifted for the parse."""
    try:
        data = json.loads(text, parse_float=rational_from_text, parse_int=rational_from_text)
    except RecursionError:
        raise ValueError("invariant vector is nested too deeply") from None
    if not isinstance(data, list):
        raise ValueError("invariant vector must be a JSON array of rationals")
    try:
        vals = [x if isinstance(x, Fraction) else rational_from_text(str(x)) for x in data]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational in invariant vector: {exc}") from exc
    return InvariantVector(tuple(vals))


def _invariant_degree(pair: SymmetricPair, index: int) -> int:
    # value k is the coefficient of t^k, of degree n - k; the Pfaffian
    # of X J has degree n / 2
    return pair.n - index if index < pair.n else pair.n // 2


def _graded_blocks(slc: KostantSlice) -> tuple:
    """The `_Block` of each weight class, lightest first, from one inverse.

    At f an invariant of degree k that solves for its class is its own
    graded coordinate plus lighter terms, so the Jacobian at f of the
    invariants with a nonzero row there is Lambda E^-1: E holds the
    graded directions and Lambda is block diagonal by class.  Its inverse
    E Lambda^-1 holds every class's step.  Column c, combined over the
    basis terms of `_support`, is the slice direction G_c, which must
    have [h, G_c] = (2k - 2) G_c, checked exactly:
    then ad h is diagonal on the slice with even weights >= 0, and in the
    coordinates u = J a each solving invariant is u_m plus lighter terms.
    """
    pair, d = slc.pair, slc.dim
    jac, jden = integer_rows(_jacobian(slc, [0] * d))
    # an invariant with no linear part at f cannot solve for its class;
    # only the final check reads it
    invs = [m for m in range(invariant_length(pair)) if any(jac[m])]
    try:
        steps = inverse(RatMatrix.from_ints([jac[m] for m in invs], cols=d, den=jden))
    except ValueError:
        raise SliceDimensionError(
            f"the invariants with a linear part at f ({len(invs)}) "
            f"do not solve for the {d} slice coordinates"
        ) from None
    degrees = [_invariant_degree(pair, m) for m in invs]
    num, den = integer_rows(steps)
    lcm, terms = slc._support
    for c, k in enumerate(degrees):
        rows = combine_rows(pair.n, terms[1:], [row[c] for row in num])[0]
        g = RatMatrix.from_ints(rows, cols=pair.n, den=den * lcm)
        if bracket(slc.triple.h, g) != (2 * k - 2) * g:
            raise SliceDimensionError(f"ad h does not preserve the slice directions at degree {k}")
    blocks = []
    for k in sorted(set(degrees)):
        cls = [c for c in range(d) if degrees[c] == k]
        step = RatMatrix.from_ints([[row[c] for c in cls] for row in num], cols=len(cls), den=den)
        blocks.append(_Block(tuple(invs[c] for c in cls), step))
    return tuple(blocks)


def _graded_solve_pairs(slc: KostantSlice, target) -> tuple[list[int], int]:
    """(num, den), the candidate coordinates num / den in lowest terms, for
    a target given as one pair (c, d), d > 0, per invariant, the value
    c / d not reduced: the pairs of `_invariants_of_rows` or of Fractions.

    Solves the graded coordinates class by class in ascending weight.
    With the class and every heavier one at 0, an invariant of the class
    is its polynomial in the lighter coordinates, so the class's linear
    block is solved against the target minus the class's own invariants
    at that partial point, read down to the class's own coefficient,
    and the block's step adds the solution to the slice coordinates.
    Every slice point with the target invariants has these coordinates;
    when no slice point has them, the candidate has other invariants.

    Per class, the right-hand side t - c / d is formed as integers over
    the lcm of the target's d times that of the partial point's, the step
    S / s multiplies it as integers, and one gcd brings the sum back to
    lowest terms.
    """
    expect = invariant_length(slc.pair)
    if len(target) != expect:
        raise ValueError(f"expected {expect} invariant values, got {len(target)}")
    num, den = [0] * slc.dim, 1
    for block in slc._blocks:
        rden = math.lcm(*(target[m][1] for m in block.invariants))
        rhs = [c * (rden // d) for c, d in map(target.__getitem__, block.invariants)]
        if any(num):
            # at coordinates 0 the point is the nilpotent f, where each invariant is 0
            at = _slice_invariants(slc, num, den, block.invariants)
            aden = math.lcm(*(d for _, d in at))
            rhs = [t * aden - c * (aden // d) * rden for t, (c, d) in zip(rhs, at)]
            rden *= aden
        step, sden = integer_rows(block.step)
        scale = sden * rden
        num = [
            x * scale + den * sum(a * r for a, r in zip(row, rhs) if a)
            for x, row in zip(num, step)
        ]
        den *= scale
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
    return num, den


def _broken_relation(pair: SymmetricPair, values) -> str | None:
    """The first relation of the quotient's image that the target breaks.

    With det(tI - X) = t^(p - q) P(t^2), P monic of degree q: c_m is 0
    unless m = p - q + 2j; on o(q,q), c_0 = (-1)^q Pf^2; on sp, P = R^2
    for a monic R, whose coefficients follow from P's top down.  A
    target of the wrong length is left to `_graded_solve_pairs` to refuse.
    """
    p, q, n = pair.p, pair.q, pair.n
    if len(values) != invariant_length(pair):
        return None
    for m in range(n):
        if values[m] and (m < p - q or (n - m) % 2):
            return f"c_{m} must be 0"
    if pair.family is Family.ORTH and p == q and values[0] != (-1) ** q * values[n] ** 2:
        return f"c_0 must be {'-' if q % 2 else ''}Pf^2, Pf the last value"
    if pair.family is Family.SP:
        # P's coefficient of t^(q - k), highest first
        top = [1, *(values[n - 2 * k] for k in range(1, q + 1))]
        r = [1] + [_ZERO] * q
        for k in range(1, q // 2 + 1):
            r[k] = (top[k] - sum(r[i] * r[k - i] for i in range(1, k))) / 2
        if any(sum(r[i] * r[k - i] for i in range(k + 1)) != top[k] for k in range(q + 1)):
            return "P must be the square of a monic polynomial"
    return None


def invert_on_slice(slc: KostantSlice, target: InvariantVector) -> list[Fraction]:
    """Coordinates a with invariants(slice_point(a)) equal to the target, exactly.

    A target off the quotient's image raises NotFound naming the first
    relation it breaks (`_broken_relation`), before any slice work.
    Otherwise takes the candidate of `_graded_solve_pairs` and checks every
    invariant exactly; a mismatch raises NotFound too.
    """
    broken = _broken_relation(slc.pair, target.values)
    if broken is not None:
        raise NotFound(f"no slice point has these invariants: {broken}")
    num, den = _graded_solve_pairs(slc, [(v.numerator, v.denominator) for v in target.values])
    at = _slice_invariants(slc, num, den, range(len(target.values)))
    # t = c / d, decided on the integers
    if any(t.numerator * d != c * t.denominator for t, (c, d) in zip(target.values, at)):
        raise NotFound("no slice point has these invariants")
    return [Fraction(x, den) if x else _ZERO for x in num]


def _jacobian(slc: KostantSlice, coords) -> RatMatrix:
    """The Jacobian of the invariant map at a slice point, one row per
    invariant and one column per slice coordinate, exactly.

    c_(n - 2k) is c_(q - k) of B A, with derivative -tr(M_k d(B A)) =
    -tr(A M_k dB) - tr(M_k B dA), M_k step k of the Faddeev-LeVerrier
    recurrence over B A: over the integer rows A' / d and B' / d of
    the point, A M_k and M_k B are A' M'_k and M'_k B' over d^(2k - 1),
    M'_k step k over B' A'.  The Pfaffian, c_0 of A, has derivative
    -tr(M_q dA), M_q = M'_q / d^(q - 1) the last step over A'.  Each row
    reads its gradient ((0, A M_k), (M_k B, 0)), or ((0, 0), (M_q, 0)),
    against the basis terms of `_support`, as integers over d^(2q - 1) l;
    structurally zero invariants keep zero rows.
    """
    pair, (num, den) = slc.pair, integer_rows(slice_point(slc, coords))
    p, q, n = pair.p, pair.q, pair.n
    a = [row[p:] for row in num[:p]]
    b = [row[:p] for row in num[p:]]
    grads = [
        (n - 2 * k, _matmul(a, mk, q), _matmul(mk, b, p), 2 * k - 1)
        for k, (_, mk) in zip(range(1, q + 1), faddeev_leverrier(_matmul(b, a, q)))
    ]
    if invariant_length(pair) > n:
        *_, (_, mq) = faddeev_leverrier(a)
        grads.append((n, [[0] * q] * p, mq, q - 1))
    lcm, terms = slc._support
    rows = [[0] * slc.dim] * invariant_length(pair)
    for m, upper, lower, e in grads:
        g = [[0] * p + row for row in upper] + [row + [0] * q for row in lower]
        s = den ** (2 * q - 1 - e)
        rows[m] = [-s * sum(g[j][i] * v for i, j, v in t) for t in terms[1:]]
    return RatMatrix.from_ints(rows, cols=slc.dim, den=den ** (2 * q - 1) * lcm)


def jacobian_rank_at(slc: KostantSlice, coords) -> int:
    """Exact rank of the Jacobian of the invariant map at the given point.

    The rows are the derivatives of `_jacobian`, read off the
    Faddeev-LeVerrier recurrence over B A, and the graded blocks are read off
    the same Jacobian at f.  The independent check is the sampled
    characteristic polynomial test (`test_jacobian_matches_line_sampling`
    in tests/test_slice.py): it differentiates the full n x n
    `exact.charpoly`, and on o(q,q) `exact.pfaffian` of X J, along each
    coordinate line, without B A.
    """
    return matrix_rank(_jacobian(slc, coords))
