"""Completion of a nilpotent element to a rational sl2 triple.

One solve runs over g(-1) and takes the canonical solution (zero in
every non-pivot coordinate): y with ad_e^2 y = -2e, that is
[[e, y], e] = 2e, and h = [e, y].  This is the h of the joint system
over (h, y) in g(1) x g(-1) for [e, h] = -2e and [e, y] - h = 0: (h, y)
solves it exactly when y solves ad_e^2 y = -2e and h = [e, y]; its
h-columns come first and are all pivots, by the -I they carry; and a
y-column j is free exactly when ad_e^2 b_j lies in the span of the
ad_e^2 b_k, k < j, the pivot rule of the g(-1) system.  So both
canonical solutions have the same y, hence the same h.

f is read off y with no second solve.  [h, e] = 2e and h lies in im ad_e,
so by Morozov's lemma some f in g(-1) has [e, f] = h and [h, f] = -2f,
unique given (e, h).  Then y - f lies in z(e), whose ad_h weights (the
highest weights of the sl2 modules of g) are >= 0, and f has weight -2:
(ad_h - w) / (-2 - w) for w = 0, 1, ..., 2n - 2 removes the rest of y.

The system is written by `pairs.ad_rows` from the integer rows d e of
e, each equation multiplied through by d^2, which leaves the canonical
solution unchanged.
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


def complete_triple(pair: SymmetricPair, e: RatMatrix) -> Sl2Triple:
    """Complete a nonzero nilpotent e in g(-1) to a triple (e, f, h).

    Raises NoTriple when the h system is inconsistent, which happens
    exactly for degenerate inputs (e = 0, e not nilpotent, or e not
    relatively regular in a way that starves the h system).
    """
    if not in_eigenspace(pair, e, -1):
        raise MembershipError("e is not in g(-1)")
    if e.is_zero():
        raise NoTriple("e = 0 cannot be part of an sl2 triple")

    n, dm = pair.n, len(pair.minus_support)
    e_rows, de = integer_rows(e)

    # Column j of ef is vec(de [e, b_j]); as supports they give de^2 ad_e^2.
    ef = ad_rows(pair, e_rows, pair.minus_support)
    e_support = [[(i // n, i % n, row[j]) for i, row in ef.items() if row[j]] for j in range(dm)]
    system = ad_rows(pair, e_rows, e_support)
    rhs = [-2 * de * x for row in e_rows for x in row]
    keep = [i for i, b in enumerate(rhs) if i in system or b]
    sol = solve(
        RatMatrix.from_ints([system.get(i, [0] * dm) for i in keep], cols=dm),
        [rhs[i] for i in keep],
    )
    if sol is None:
        raise NoTriple("no h in g(1) with [h,e] = 2e lies in the image of ad_e")
    h = combine(n, e_support, [a / de for a in sol])

    # y = f + z with z in z(e): project y onto ad_h weight -2
    f = combine(n, pair.minus_support, sol)
    for w in range(2 * n - 1):
        hf = bracket(h, f)
        if hf == -2 * f:
            break
        f = (hf - w * f) * Fraction(1, -2 - w)

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
