"""The transverse slice f + g(-1)^e and orbit canonicalization on it.

The slice is an affine subspace meeting each regular orbit in a single
point, so conjugation invariants restricted to it separate orbits.  The
invariants used are the full characteristic polynomial coefficients:
redundant but conjugation-invariant and exact.  For the orthogonal
p = q family the characteristic polynomial only sees the square of the
degree-q product invariant and its fibers on the slice are +- pairs, so
exactly there one extra coordinate is appended: the Pfaffian of X J,
which is invariant under every Cayley-generated (determinant one) group
element.  The Jacobian rank check below measures separation.

Inversion is exact and direct (Kostant-Rallis).  ad h acts on the slice
directions with even weights w; in an eigenbasis a coordinate of weight
w scales with degree w + 2 and an invariant of degree k is weighted
homogeneous of degree 2k.  So the invariants of degree (w + 2) / 2 are
linear in the weight-w coordinates plus a polynomial in the lighter
ones, and the coordinates follow class by class from small exact linear
solves.  A final exact evaluation of every invariant decides the
answer: a mismatch means no slice point has the target invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import (
    RatMatrix,
    charpoly,
    inverse,
    kernel_basis,
    lincomb,
    pfaffian,
    rank as matrix_rank,
    rational_from_text,
    solve,
    vec,
)
from .nilpotent import centralizer
from .pairs import Family, MembershipError, SymmetricPair, bracket, in_eigenspace
from .sl2 import Sl2Triple

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SliceDimensionError(RuntimeError):
    """The slice does not have the shape the invariants need: the
    centralizer of e does not have dimension rank theta, or a weight
    class of the slice is not matched by as many independent invariants
    of its degree."""


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


@dataclass(frozen=True)
class InvariantVector:
    """Characteristic polynomial coefficients, constant term first,
    excluding the leading 1; the orthogonal p = q family carries one
    extra trailing value, the Pfaffian of X J."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))


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
    coords = [Fraction(c) for c in coords]
    if len(coords) != slc.dim:
        raise ValueError(f"expected {slc.dim} coordinates, got {len(coords)}")
    n = slc.pair.n
    return slc.triple.f + lincomb(coords, slc.slice_basis, n, n)


def invariants(pair: SymmetricPair, x: RatMatrix) -> InvariantVector:
    if not in_eigenspace(pair, x, -1):
        raise MembershipError("element is not in g(-1)")
    return InvariantVector(invariant_values(pair, x))


def invariant_values(pair: SymmetricPair, x: RatMatrix) -> tuple:
    """The values of `invariants` without the membership check, for
    points the caller already knows lie in g(-1)."""
    vals = charpoly(x).coeffs[:-1]
    if _needs_pfaffian(pair):
        vals = vals + (pfaffian(x * pair.form),)
    return vals


def invariants_to_json(v: InvariantVector) -> str:
    return json.dumps([str(x) for x in v.values])


def invariants_from_json(text: str) -> InvariantVector:
    """Parse a JSON array of rationals; bare numbers are read exactly, not as floats."""
    data = json.loads(text, parse_float=rational_from_text)
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
    return [sum((a * b for a, b in zip(m.row(i), v)), _ZERO) for i in range(m.rows)]


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
    ad_cols = [solve(stacked, vec(bracket(slc.triple.h, b))) for b in basis]
    if any(c is None for c in ad_cols):
        raise SliceDimensionError("ad h does not preserve the slice directions")
    ad = RatMatrix([[c[i] for c in ad_cols] for i in range(d)], cols=d)
    weights, eigvecs = [], []
    for w in range(0, 2 * n, 2):
        for v in kernel_basis(ad - w * RatMatrix.identity(d)):
            weights.append(w)
            eigvecs.append([v[i, 0] for i in range(d)])
    if len(eigvecs) != d:
        raise SliceDimensionError("ad h has no even-weight eigenbasis on the slice")
    to_seed = RatMatrix([[v[i] for v in eigvecs] for i in range(d)], cols=d)
    graded = [lincomb(v, basis, n, n) for v in eigvecs]

    # each invariant of a class's degree, interpolated on its weighted support
    candidates = {
        w: [
            m
            for m in range(invariant_length(pair))
            if 2 * _invariant_degree(pair, m) == w + 2
        ]
        for w in sorted(set(weights))
    }
    supports = {
        m: _monomials([w + 2 for w in weights], w + 2)
        for w, ms in candidates.items()
        for m in ms
    }
    nodes = _nodes(max(len(s) for s in supports.values()), d)
    samples = [
        invariant_values(pair, slc.triple.f + lincomb(u, graded, n, n)) for u in nodes
    ]
    coeffs = {}
    for m, support in supports.items():
        vand = RatMatrix(
            [[_monomial_value(mono, u) for mono in support] for u in nodes],
            cols=len(support),
        )
        if matrix_rank(vand) != len(support):
            raise AssertionError("interpolation nodes must be unisolvent")
        got = solve(vand, [s[m] for s in samples])
        if got is None:
            raise AssertionError("invariant is not weighted homogeneous on the slice")
        coeffs[m] = dict(zip(support, got))

    blocks = []
    for w, ms in candidates.items():
        cls = [j for j in range(d) if weights[j] == w]
        invs = [m for m in ms if any(coeffs[m].values())]
        linear = [((j, 1),) for j in cls]
        lin = RatMatrix(
            [[coeffs[m][mono] for mono in linear] for m in invs], cols=len(cls)
        )
        if len(invs) != len(cls) or matrix_rank(lin) != len(cls):
            raise SliceDimensionError(
                f"weight class {w} has {len(cls)} coordinates but its "
                f"{len(invs)} invariants of degree {(w + 2) // 2} do not solve for them"
            )
        rest = tuple(
            tuple((c, mono) for mono, c in coeffs[m].items() if c and mono not in linear)
            for m in invs
        )
        blocks.append(_Block(tuple(cls), tuple(invs), inverse(lin), rest))
    return _GradedTables(to_seed=to_seed, blocks=tuple(blocks))


def invert_on_slice(slc: KostantSlice, target: InvariantVector) -> list[Fraction]:
    """Coordinates a with invariants(slice_point(a)) equal to the target, exactly.

    Solves the graded coordinates class by class in ascending weight,
    maps them to the slice basis and checks every invariant exactly.
    Raises NotFound when no slice point has the target invariants.
    """
    pair = slc.pair
    expect = invariant_length(pair)
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
    coords = _matvec(tables.to_seed, u)
    if invariant_values(pair, slice_point(slc, coords)) != target.values:
        raise NotFound("no slice point has these invariants")
    return coords


@lru_cache(maxsize=None)
def _derivative_weights(n: int) -> tuple:
    """Weights w with sum_j w_j * t_j^m = delta_{m,1} over nodes t_j = 0..n.

    Applying them to exact samples of a degree <= n polynomial curve
    yields its exact derivative at 0.
    """
    vt = RatMatrix(
        [[Fraction(t) ** m for t in range(n + 1)] for m in range(n + 1)], cols=n + 1
    )
    rhs = [_ONE if m == 1 else _ZERO for m in range(n + 1)]
    w = solve(vt, rhs)
    if w is None:
        raise AssertionError("Vandermonde system must be solvable")
    return tuple(w)


def jacobian_rank_at(slc: KostantSlice, coords) -> int:
    """Exact rank of the Jacobian of the invariant map at the given point.

    Each partial derivative comes from exact polynomial interpolation of
    the invariants along a coordinate line (the map is polynomial of
    degree at most n), so no floating point is involved.
    """
    coords = [Fraction(c) for c in coords]
    if len(coords) != slc.dim:
        raise ValueError(f"expected {slc.dim} coordinates, got {len(coords)}")
    pair = slc.pair
    n = pair.n
    nvals = invariant_length(pair)
    weights = _derivative_weights(n)
    cols = []
    for i in range(slc.dim):
        samples = []
        for t in range(n + 1):
            shifted = list(coords)
            shifted[i] += t
            samples.append(invariant_values(pair, slice_point(slc, shifted)))
        col = [
            sum((w * s[k] for w, s in zip(weights, samples)), _ZERO)
            for k in range(nvals)
        ]
        cols.append(col)
    jac = RatMatrix(
        [[cols[i][k] for i in range(slc.dim)] for k in range(nvals)], cols=slc.dim
    )
    return matrix_rank(jac)
