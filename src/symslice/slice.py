"""The transverse slice f + g(-1)^e and orbit canonicalization on it.

The slice is an affine subspace meeting each regular orbit in a single
point, so conjugation invariants restricted to it separate orbits.  The
invariants used are the full characteristic polynomial coefficients:
redundant but conjugation-invariant and exact.  For the orthogonal
p = q family the characteristic polynomial only sees the square of the
degree-q product invariant and its fibers on the slice are +- pairs, so
exactly there one extra coordinate is appended: the Pfaffian of X J,
invariant under every Cayley-generated (determinant one) group element.
X J is block anti-diagonal, so Pf(X J) = (-1)^q det A = c_0 of the
upper-right block A of X.  The Jacobian rank check below measures
separation, with exact derivatives from adjugates (see jacobian_rank_at).

Inversion is exact and direct (Kostant-Rallis).  ad h acts on the slice
directions with even weights w; in an eigenbasis a coordinate of weight
w scales with degree w + 2 and an invariant of degree k is weighted
homogeneous of degree 2k.  So the invariants of degree (w + 2) / 2 are
linear in the weight-w coordinates plus a polynomial in the lighter
ones, and the coordinates follow class by class from small exact linear
solves (`graded_solve`).  A final exact evaluation of every invariant
decides the answer: a mismatch means no slice point has the target
invariants.

The tables for those solves are built on the first inversion, and each
system in them is eliminated once: the slice directions against all
their ad h images, per weight class the interpolation Vandermonde
against the samples of all its invariants, and each class block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    RatMatrix,
    adjugate_coefficients,
    block_antidiag,
    charpoly,
    integer_rows,
    inverse,
    kernel_basis,
    rank as matrix_rank,
    rational_from_text,
    solve_unique,
    vec,
)
from .nilpotent import centralizer
from .pairs import Family, MembershipError, SymmetricPair, bracket, combine, in_eigenspace
from .sl2 import Sl2Triple

_ZERO = Fraction(0)


class SliceDimensionError(RuntimeError):
    """The slice does not have the shape the invariants need: the
    centralizer of e does not have dimension rank theta, ad h does not
    preserve it, or a weight class of the slice is not matched by as
    many independent invariants of its degree."""


class NotFound(RuntimeError):
    """No slice point has the requested invariants."""


@dataclass(frozen=True)
class _Block:
    """One weight class: its graded coordinates, the invariants paired
    with it, the inverse of their linear part in those coordinates, and
    per invariant the other terms as (coefficient, monomial) pairs over
    lighter coordinates, a monomial being ((coordinate, exponent), ...)."""

    coords: tuple
    invariants: tuple
    linear_inv: RatMatrix
    rest: tuple


@dataclass(frozen=True)
class _GradedTables:
    """Seed coordinates are to_seed times graded coordinates; blocks come
    in ascending weight."""

    to_seed: RatMatrix
    blocks: tuple


@dataclass(frozen=True)
class KostantSlice:
    pair: SymmetricPair
    triple: Sl2Triple
    slice_basis: tuple
    dim: int

    @cached_property
    def _tables(self) -> _GradedTables:
        # Built by the first inversion, not by make_slice, so constructing
        # a case costs what it did before.
        return _graded_tables(self)

    @cached_property
    def _terms(self) -> tuple:
        """The (i, j, v) nonzero entries of d b for f and each slice basis
        matrix b, d its denominator: their integer support for
        `pairs.combine`, with 1 / d in `_scales`."""
        return tuple(
            tuple((i, j, v) for i, row in enumerate(num) for j, v in enumerate(row) if v)
            for num, _ in map(integer_rows, (self.triple.f, *self.slice_basis))
        )

    @cached_property
    def _scales(self) -> tuple:
        return tuple(Fraction(1, integer_rows(b)[1]) for b in (self.triple.f, *self.slice_basis))


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


def _needs_pfaffian(pair: SymmetricPair) -> bool:
    return pair.family is Family.ORTH and pair.p == pair.q


def invariant_length(pair: SymmetricPair) -> int:
    """Length of the invariant vector for this pair."""
    return pair.n + (1 if _needs_pfaffian(pair) else 0)


def make_slice(pair: SymmetricPair, triple: Sl2Triple) -> KostantSlice:
    basis = centralizer(pair, triple.e)
    if len(basis) != pair.rank_theta:
        raise SliceDimensionError(
            f"centralizer dimension {len(basis)} != rank theta {pair.rank_theta}"
        )
    return KostantSlice(pair=pair, triple=triple, slice_basis=tuple(basis), dim=len(basis))


def slice_point(slc: KostantSlice, coords) -> RatMatrix:
    coords = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
    if len(coords) != slc.dim:
        raise ValueError(f"expected {slc.dim} coordinates, got {len(coords)}")
    return _point(slc, coords)


def _point(slc: KostantSlice, coords) -> RatMatrix:
    """f + sum_k coords[k] b_k from the integer terms, each coefficient
    carrying its matrix's 1 / d."""
    return combine(slc.pair.n, slc._terms, [c * s for c, s in zip((1, *coords), slc._scales)])


def invariants(pair: SymmetricPair, x: RatMatrix) -> InvariantVector:
    if not in_eigenspace(pair, x, -1):
        raise MembershipError("element is not in g(-1)")
    return InvariantVector(invariant_values(pair, x))


def invariant_values(pair: SymmetricPair, x: RatMatrix) -> tuple:
    """The values of `invariants` without the membership check, for
    points the caller already knows lie in g(-1)."""
    vals = charpoly(x)[:-1]
    if _needs_pfaffian(pair):
        # Pf(X J) = (-1)^q det A, A = to_matrix_space(pair, x) unchecked
        vals = vals + (charpoly(x.submatrix(0, pair.p, pair.p, pair.n))[0],)
    return vals


def invariants_to_json(v: InvariantVector) -> str:
    return json.dumps([str(x) for x in v.values])


def invariants_from_json(text: str) -> InvariantVector:
    """Parse a JSON array of rationals; bare numbers are read exactly, not as floats."""
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


def _monomials(degrees, total: int) -> list[tuple]:
    """Every monomial prod u_j^e_j with sum e_j * degrees[j] == total, as
    ((j, e_j), ...) over the nonzero exponents, in a fixed order."""
    out = []

    def extend(j, left, acc):
        if left == 0:
            out.append(acc)
        elif j < len(degrees):
            for e in range(left // degrees[j], -1, -1):
                extend(j + 1, left - e * degrees[j], acc + ((j, e),) if e else acc)

    extend(0, total, ())
    return out


def _monomial_value(mono, u):
    out = 1
    for j, e in mono:
        out *= u[j] ** e
    return out


def _matvec(m: RatMatrix, v) -> list[Fraction]:
    """m v from the integer rows of m and v over one denominator: one
    integer dot product and one Fraction per entry."""
    num, den = integer_rows(m)
    vden = math.lcm(*(x.denominator for x in v))
    w = [x.numerator * (vden // x.denominator) for x in v]
    den *= vden
    return [Fraction(sum(a * b for a, b in zip(row, w) if a), den) for row in num]


def _nodes(count: int, dim: int) -> list[list[int]]:
    """Fixed interpolation nodes with entries in [-3, 3], drawn from the
    Park-Miller minimal standard sequence."""
    state = 1
    out = []
    for _ in range(count):
        row = []
        for _ in range(dim):
            state = state * 48271 % 2147483647
            row.append(state % 7 - 3)
        out.append(row)
    return out


def _graded_tables(slc: KostantSlice) -> _GradedTables:
    pair, n, d = slc.pair, slc.pair.n, slc.dim
    basis = slc.slice_basis

    # ad h on the slice directions and an eigenbasis of it, lightest first
    stacked = RatMatrix([list(r) for r in zip(*(vec(b) for b in basis))], cols=d)
    brackets = [vec(bracket(slc.triple.h, b)) for b in basis]
    ad = solve_unique(stacked, RatMatrix([list(r) for r in zip(*brackets)], cols=d))
    if ad is None:
        raise SliceDimensionError("ad h does not preserve the slice directions")
    weights, eigvecs = [], []
    for w in range(0, 2 * n, 2):
        for v in kernel_basis(ad - w * RatMatrix.identity(d)):
            weights.append(w)
            eigvecs.append([v[i, 0] for i in range(d)])
    if len(eigvecs) != d:
        raise SliceDimensionError("ad h has no even-weight eigenbasis on the slice")
    to_seed = RatMatrix([[v[i] for v in eigvecs] for i in range(d)], cols=d)

    # the invariants of each class's degree, interpolated on its weighted support
    candidates = {
        w: [m for m in range(invariant_length(pair)) if 2 * _invariant_degree(pair, m) == w + 2]
        for w in sorted(set(weights))
    }
    supports = {w: _monomials([v + 2 for v in weights], w + 2) for w in candidates}
    nodes = _nodes(max(len(s) for s in supports.values()), d)
    # node u holds graded coordinates: the slice point at seed coordinates to_seed u
    samples = [
        invariant_values(pair, _point(slc, _matvec(to_seed, u))) for u in nodes
    ]

    blocks = []
    for w, ms in candidates.items():
        support = supports[w]
        got = solve_unique(
            RatMatrix.from_ints([[_monomial_value(mono, u) for mono in support] for u in nodes]),
            RatMatrix([[s[m] for m in ms] for s in samples], cols=len(ms)),
        )
        if got is None:
            # pivots on exactly the support columns: unisolvent nodes and
            # every invariant weighted homogeneous on the slice
            raise AssertionError("invariants are not interpolated on their weighted support")
        coeffs = [dict(zip(support, col)) for col in zip(*map(got.row, range(got.rows)))]
        invs = tuple(m for m, c in zip(ms, coeffs) if any(c.values()))
        coeffs = [c for c in coeffs if any(c.values())]
        cls = [j for j in range(d) if weights[j] == w]
        linear = [((j, 1),) for j in cls]
        lin = RatMatrix([[c[mono] for mono in linear] for c in coeffs], cols=len(cls))
        try:
            lin_inv = inverse(lin)
        except ValueError:
            raise SliceDimensionError(
                f"weight class {w} has {len(cls)} coordinates but its "
                f"{len(invs)} invariants of degree {(w + 2) // 2} do not solve for them"
            ) from None
        rest = tuple(
            tuple((c, mono) for mono, c in t.items() if c and mono not in linear) for t in coeffs
        )
        blocks.append(_Block(tuple(cls), invs, lin_inv, rest))
    return _GradedTables(to_seed=to_seed, blocks=tuple(blocks))


def graded_solve(slc: KostantSlice, target: InvariantVector) -> list[Fraction]:
    """The one candidate for `invert_on_slice`, unchecked.

    Solves the graded coordinates class by class in ascending weight and
    maps them to the slice basis.  Every slice point with the target
    invariants has these coordinates; when no slice point has them, the
    candidate has other invariants.
    """
    expect = invariant_length(slc.pair)
    if len(target.values) != expect:
        raise ValueError(f"expected {expect} invariant values, got {len(target.values)}")
    tables = slc._tables
    u = [_ZERO] * slc.dim
    for block in tables.blocks:
        rhs = [
            target.values[m] - sum(c * _monomial_value(mono, u) for c, mono in rest)
            for m, rest in zip(block.invariants, block.rest)
        ]
        for j, x in zip(block.coords, _matvec(block.linear_inv, rhs)):
            u[j] = x
    return _matvec(tables.to_seed, u)


def invert_on_slice(slc: KostantSlice, target: InvariantVector) -> list[Fraction]:
    """Coordinates a with invariants(slice_point(a)) equal to the target, exactly.

    Takes the candidate of `graded_solve` and checks every invariant
    exactly.  Raises NotFound when no slice point has the target
    invariants.
    """
    coords = graded_solve(slc, target)
    if invariant_values(slc.pair, slice_point(slc, coords)) != target.values:
        raise NotFound("no slice point has these invariants")
    return coords


def _jacobian(slc: KostantSlice, coords) -> RatMatrix:
    """The Jacobian of the invariant map at a slice point, one row per
    invariant and one column per slice coordinate, exactly."""
    x = slice_point(slc, coords)
    pair, n = slc.pair, slc.pair.n
    directions = tuple(zip(slc._terms[1:], slc._scales[1:]))
    # the charpoly coefficient c_k has derivative -tr(N_k b) along b
    nks = adjugate_coefficients(x)
    if _needs_pfaffian(pair):
        # the Pfaffian is c_0 of the upper-right block A, so its derivative
        # -tr(N_0(A) b_A) is that trace with N_0(A) as the lower-left block
        n0 = adjugate_coefficients(x.submatrix(0, pair.p, pair.p, n))[0]
        nks += (block_antidiag(RatMatrix.zeros(pair.q, pair.q), n0),)
    rows = [
        [-s * sum((nk[j, i] * v for i, j, v in entries), _ZERO) for entries, s in directions]
        for nk in nks
    ]
    return RatMatrix(rows, cols=slc.dim)


def jacobian_rank_at(slc: KostantSlice, coords) -> int:
    """Exact rank of the Jacobian of the invariant map at the given point.

    adj(tI - X) = sum_k t^k N_k from one Faddeev-LeVerrier pass gives
    the derivative -tr(N_k b) of the charpoly coefficient c_k along a
    slice direction b.  The Pfaffian row (orthogonal p = q) is the same
    trace for c_0 of the upper-right block A: -tr(N_0(A) b_A).  The graded
    tables are never read, so this checks their premise independently.
    """
    return matrix_rank(_jacobian(slc, coords))
