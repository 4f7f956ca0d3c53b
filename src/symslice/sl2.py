"""Completion of a nilpotent element to a rational sl2 triple.

The completion is two exact linear solves.  First a joint system finds
h in g(1) that both satisfies [h, e] = 2e and lies in the image of
ad_e; then, with h fixed, f in g(-1) is pinned down by [e, f] = h and
[h, f] = -2f.  Canonical particular solutions (zero in every non-pivot
coordinate) keep the output deterministic; the second system has a
unique solution anyway, which the tests check.

In [e, y] = h, y ranges over g(-1) only: h lies in g(1), and ad_e maps
g(1) into g(-1), so h is in [e, g] exactly when it is in [e, g(-1)].
Every system is written by `pairs.ad_rows` from the integer rows d e of
e (and of h), and its right-hand side from the integer rows d' t of the
target t, each equation multiplied through by d and d', which leaves the
canonical solutions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import RatMatrix, integer_rows, solve
from .nilpotent import is_relatively_regular
from .pairs import MembershipError, SymmetricPair, ad_rows, bracket, combine, in_eigenspace


class NoTriple(RuntimeError):
    """Raised when no sl2 completion exists for the given element."""


@dataclass(frozen=True)
class Sl2Triple:
    e: RatMatrix
    f: RatMatrix
    h: RatMatrix


def _add_coordinates(system: dict, n: int, support: tuple, scale: int, width: int):
    """Add scale * vec(b_j) to column j of a system keyed by vec index."""
    for col, terms in enumerate(support):
        for k, l, c in terms:
            system.setdefault(k * n + l, [0] * width)[col] += scale * c


def _solve(equations, width: int) -> list[Fraction] | None:
    """Canonical solution of stacked (integer system keyed by vec index,
    right-hand matrix) pairs."""
    rows, rhs = [], []
    for system, target in equations:
        num, den = integer_rows(target)
        for idx, b in enumerate(x for row in num for x in row):
            if idx in system or b:
                rows.append([den * a for a in system.get(idx, [0] * width)])
                rhs.append(b)
    return solve(RatMatrix.from_ints(rows, cols=width), rhs)


def complete_triple(pair: SymmetricPair, e: RatMatrix) -> Sl2Triple:
    """Complete a nonzero nilpotent e in g(-1) to a triple (e, f, h).

    Raises NoTriple when either solve is inconsistent, which happens
    exactly for degenerate inputs (e = 0, e not nilpotent, or e not
    relatively regular in a way that starves the h system).
    """
    if not in_eigenspace(pair, e, -1):
        raise MembershipError("e is not in g(-1)")
    if e.is_zero():
        raise NoTriple("e = 0 cannot be part of an sl2 triple")

    n = pair.n
    dp, dm = len(pair.plus_support), len(pair.minus_support)
    e_rows, de = integer_rows(e)

    # Joint system over (h, y) in g(1) x g(-1): [e, h] = -2e and [e, y] = h.
    he = ad_rows(pair, e_rows, pair.plus_support + ((),) * dm)
    ey = ad_rows(pair, e_rows, ((),) * dp + pair.minus_support)
    _add_coordinates(ey, n, pair.plus_support, -de, dp + dm)
    sol = _solve([(he, -2 * de * e), (ey, RatMatrix.zeros(n, n))], dp + dm)
    if sol is None:
        raise NoTriple("no h in g(1) with [h,e] = 2e lies in the image of ad_e")
    h = combine(n, pair.plus_support, sol[:dp])

    # With h fixed: f in g(-1) with [e, f] = h and [h, f] = -2f.
    ef = ad_rows(pair, e_rows, pair.minus_support)
    h_rows, dh = integer_rows(h)
    hf = ad_rows(pair, h_rows, pair.minus_support)
    _add_coordinates(hf, n, pair.minus_support, 2 * dh, dm)
    sol = _solve([(ef, de * h), (hf, RatMatrix.zeros(n, n))], dm)
    if sol is None:
        raise NoTriple("the f system is inconsistent for this (e, h)")
    f = combine(n, pair.minus_support, sol)

    if bracket(h, e) != 2 * e or bracket(h, f) != -2 * f or bracket(e, f) != h:
        raise NoTriple("completion failed exact verification")
    return Sl2Triple(e=e, f=f, h=h)


def verify_triple(pair: SymmetricPair, t: Sl2Triple) -> list[tuple[str, bool]]:
    """Evaluate every triple invariant independently.

    Returns (check name, result) pairs; the triple is valid for the pair
    exactly when all results are true.
    """
    # every check is False for a wrongly shaped triple
    ok = all(m.shape == (pair.n, pair.n) for m in (t.e, t.f, t.h))
    e_ok = ok and in_eigenspace(pair, t.e, -1)
    f_ok = ok and in_eigenspace(pair, t.f, -1)
    return [
        ("bracket_he", ok and bracket(t.h, t.e) == 2 * t.e),
        ("bracket_hf", ok and bracket(t.h, t.f) == -2 * t.f),
        ("bracket_ef", ok and bracket(t.e, t.f) == t.h),
        ("h_in_g_plus", ok and in_eigenspace(pair, t.h, +1)),
        ("e_in_g_minus", e_ok),
        ("f_in_g_minus", f_ok),
        ("nonzero", ok and not (t.e.is_zero() or t.f.is_zero() or t.h.is_zero())),
        # f inherits relative regularity from e; vacuous when e is not regular.
        (
            "f_regular",
            e_ok
            and f_ok
            and (not is_relatively_regular(pair, t.e) or is_relatively_regular(pair, t.f)),
        ),
    ]
