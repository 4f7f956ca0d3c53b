"""Symmetric pairs (g, theta) for the three classical matrix families.

A pair is determined by a family tag and block sizes p >= q.  This is
the module that defines the form J and the involution theta; both act
on matrix entries as signed permutations.  theta negates the two
off-diagonal blocks, and J is defined by its index map
(`SymmetricPair.form_entries`, integer formulas in (family, p, q)), from
which `adjoint` and the membership conditions are evaluated entrywise
and the dense `pair.form` is built on first access.  The same maps give
the eigenspaces g(1) and g(-1) directly, by one rule for every family:
theta keeps the positions of one block parity, and the form condition
pairs position (i, j) with (kappa(j), kappa(i)).  Each basis is built
as integer supports (`plus_support`, `minus_support`).  Library code
works on the supports alone: `combine` forms a linear combination of a
basis from its support, and `ad_rows` writes z -> [x, z] from a
support, so every bracket equation of `nilpotent` and `sl2` is a
system built by it.  The basis matrices (`basis_plus`, `basis_minus`)
are built on first access.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from .exact import RatMatrix, integer_rows

# Largest p + q accepted.  The eigenspaces are read off index maps, but
# the centralizer and sl2 systems have dim g(-1) unknowns, and slice
# inversion evaluates the invariants once per weight class; README states
# the time budget at gl(16, 16).
MAX_SIZE = 32


class Family(enum.Enum):
    GL = "gl"
    ORTH = "o"
    SP = "sp"


class ConstraintViolation(ValueError):
    """Raised when (family, p, q) violates a defining constraint."""

    def __init__(self, family, p, q, reason):
        self.family = family
        self.p = p
        self.q = q
        self.reason = reason
        fam = family.value if isinstance(family, Family) else str(family)
        super().__init__(f"invalid pair ({fam}, p={p}, q={q}): {reason}")


class MembershipError(ValueError):
    """Raised when a matrix is not in the subspace an operation requires."""


@dataclass(frozen=True, eq=False)
class SymmetricPair:
    family: Family
    p: int
    q: int
    n: int
    form_entries: tuple | None
    plus_support: tuple
    minus_support: tuple
    rank_theta: int

    @cached_property
    def form(self) -> RatMatrix | None:
        """J from `form_entries`, J[i, kappa(i)] = v_i; None for gl."""
        if self.form_entries is None:
            return None
        rows = [[v * (j == k) for j in range(self.n)] for k, v in self.form_entries]
        return RatMatrix.from_ints(rows, cols=self.n)

    @cached_property
    def basis_plus(self) -> tuple:
        return tuple(combine(self.n, (t,), (1,)) for t in self.plus_support)

    @cached_property
    def basis_minus(self) -> tuple:
        return tuple(combine(self.n, (t,), (1,)) for t in self.minus_support)

    def __repr__(self):
        return f"SymmetricPair({self.family.value}, p={self.p}, q={self.q})"


def _form_entries(family: Family, p: int, q: int) -> tuple | None:
    """(kappa(i), v_i) for each row i of the monomial form: J[i, kappa(i)] = v_i.

    None for gl, which has no form.  Each diagonal block of J is
    antidiagonal, so kappa(i) mirrors i inside its block.  For o, v_i is
    +1 on the p block and -1 on the q block; for sp, v_i = (-1)^k on the
    k-th row of each block.  Every v_i is the int +-1, so `adjoint` and
    `in_algebra` read v_i / v_j as v_i * v_j.
    """
    if family is Family.GL:
        return None
    return tuple(
        (start + size - 1 - k, (-1) ** k if family is Family.SP else sign)
        for start, size, sign in ((0, p, 1), (p, q, -1))
        for k in range(size)
    )


def _eigenspace_support(n, p, entries, sign) -> tuple:
    """(k, l, c) triples of each basis matrix of g(sign), in the order
    `exact.kernel_basis` gives for the stacked linear conditions.

    Positions theta scales by -sign are skipped.  For o and sp the form
    condition reads X[i, j] = -v_i / v_j * X[kappa(j), kappa(i)]: the
    later position of a pair is free and carries 1, its partner the
    forced value; a self-paired position is free exactly when v_i = -v_j.
    """
    out = []
    for i in range(n):
        for j in range(n):
            if ((i < p) == (j < p)) != (sign == 1):
                continue
            if entries is None:
                out.append(((i, j, 1),))
                continue
            (k_i, v_i), (k_j, v_j) = entries[i], entries[j]
            partner = (k_j, k_i)
            if partner == (i, j):
                if v_i == -v_j:
                    out.append(((i, j, 1),))
            elif partner < (i, j):
                out.append(((k_j, k_i, -v_j * v_i), (i, j, 1)))
    return tuple(out)


def combine(n: int, support, coeffs) -> RatMatrix:
    """The n x n matrix sum coeffs[j] * b_j, b_j = sum c E_kl over (k, l, c)
    in support[j]: entry for entry the dense `lincomb` of tests/reference.py
    on the basis matrices, without building them."""
    rows, den = combine_rows(n, support, coeffs)
    return RatMatrix.from_ints(rows, cols=n, den=den)


def combine_rows(n: int, support, coeffs) -> tuple[list[list[int]], int]:
    """(rows, d) with rows / d the matrix of `combine`, not reduced to
    lowest terms.  The c are integers; the coefficients (ints or
    Fractions) are brought over their least common denominator d."""
    den = math.lcm(*(a.denominator for a in coeffs))
    rows = [[0] * n for _ in range(n)]
    for a, terms in zip(coeffs, support):
        if a:
            a = a.numerator * (den // a.denominator)
            for k, l, c in terms:
                rows[k][l] += a * c
    return rows, den


def check_constraints(family, p: int, q: int) -> Family:
    """Validate (family, p, q) without building anything; returns the Family.

    p < q is rejected rather than swapped: all constructions assume
    p >= q and the symmetry of the setup makes the swap a caller-side
    relabeling.  p + q is capped at MAX_SIZE.
    """
    family = Family(family) if not isinstance(family, Family) else family
    if not isinstance(p, int) or not isinstance(q, int):
        raise ConstraintViolation(family, p, q, "p and q must be integers")
    if q < 1:
        raise ConstraintViolation(family, p, q, "q must be at least 1")
    if p < q:
        raise ConstraintViolation(family, p, q, "p < q is rejected; swap the blocks")
    if p + q > MAX_SIZE:
        raise ConstraintViolation(family, p, q, f"p + q must be at most {MAX_SIZE}")
    if family is Family.ORTH and p - q > 1:
        raise ConstraintViolation(family, p, q, "orthogonal pairs need |p - q| <= 1")
    if family is Family.SP and (p % 2 or q % 2):
        raise ConstraintViolation(family, p, q, "symplectic pairs need p and q even")
    return family


def make_pair(family, p: int, q: int) -> SymmetricPair:
    """Build the symmetric pair for (family, p, q), validating the constraints."""
    family = check_constraints(family, p, q)
    n = p + q
    entries = _form_entries(family, p, q)
    plus_support = _eigenspace_support(n, p, entries, +1)
    minus_support = _eigenspace_support(n, p, entries, -1)

    expected_minus = 2 * p * q if family is Family.GL else p * q
    if len(minus_support) != expected_minus:
        raise AssertionError(
            f"eigenspace dimension {len(minus_support)} != expected {expected_minus}"
        )
    rank_theta = q // 2 if family is Family.SP else q

    return SymmetricPair(
        family=family,
        p=p,
        q=q,
        n=n,
        form_entries=entries,
        plus_support=plus_support,
        minus_support=minus_support,
        rank_theta=rank_theta,
    )


def _require_ambient(pair: SymmetricPair, x: RatMatrix):
    if x.shape != (pair.n, pair.n):
        raise ValueError(f"expected a {pair.n} x {pair.n} matrix, got {x.shape}")


def apply_theta(pair: SymmetricPair, x: RatMatrix) -> RatMatrix:
    """Conjugation by the signature matrix: negate the off-diagonal blocks."""
    _require_ambient(pair, x)
    p = pair.p
    num, den = integer_rows(x)
    rows = [
        [v if (i < p) == (j < p) else -v for j, v in enumerate(row)] for i, row in enumerate(num)
    ]
    return RatMatrix.from_ints(rows, cols=pair.n, den=den)


def adjoint(pair: SymmetricPair, x: RatMatrix) -> RatMatrix:
    """The form adjoint J x^t J^-1, read entrywise from the form's index maps.

    Raises ValueError for GL, which has no form.
    """
    _require_ambient(pair, x)
    if pair.form_entries is None:
        raise ValueError("the gl family has no form")
    num, den = integer_rows(x)
    signs = pair.form_entries
    rows = [[v_i * v_j * num[k_j][k_i] for k_j, v_j in signs] for k_i, v_i in signs]
    return RatMatrix.from_ints(rows, cols=pair.n, den=den)


def in_algebra(pair: SymmetricPair, x: RatMatrix) -> bool:
    """Membership in g: vacuous for GL, otherwise the form condition
    X[i, j] = -v_i / v_j * X[kappa(j), kappa(i)], entry by entry."""
    _require_ambient(pair, x)
    signs = pair.form_entries or ()
    rows, _ = integer_rows(x)
    for (k_i, v_i), row in zip(signs, rows):
        for (k_j, v_j), a in zip(signs, row):
            b = rows[k_j][k_i]
            if (a or b) and a * v_j != -v_i * b:
                return False
    return True


def in_eigenspace(pair: SymmetricPair, x: RatMatrix, sign: int) -> bool:
    """Membership in g(sign): x in g, zero on the block parity theta scales by -sign."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_ambient(pair, x)
    p, keep = pair.p, sign == 1
    num = integer_rows(x)[0]
    # g(1) is zero off the diagonal blocks, g(-1) on them
    if any(any(row[p:] if keep else row[:p]) for row in num[:p]):
        return False
    if any(any(row[:p] if keep else row[p:]) for row in num[p:]):
        return False
    return in_algebra(pair, x)


def ad_rows(pair: SymmetricPair, x_rows, support: tuple) -> dict[int, list]:
    """The nonzero rows of z -> [x, z] on a basis given by its integer support.

    Column j is vec([x, b_j]) for b_j = sum c E_kl over (k, l, c) in
    support[j] (empty: a zero column): x E_kl puts column k of x into
    column l, E_kl x puts row l of x into row k.  Rows are keyed by vec
    index, ascending.  x_rows may hold Fractions or integers.
    """
    n = pair.n
    width = len(support)
    system: dict[int, list] = {}
    for col, terms in enumerate(support):
        for k, l, c in terms:
            for i in range(n):
                a = x_rows[i][k]
                if a:
                    system.setdefault(i * n + l, [0] * width)[col] += c * a
            for j, a in enumerate(x_rows[l]):
                if a:
                    system.setdefault(k * n + j, [0] * width)[col] -= c * a
    return {idx: system[idx] for idx in sorted(system) if any(system[idx])}


def bracket(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    if x.shape != y.shape or x.rows != x.cols:
        raise ValueError(f"bracket needs equal square shapes, got {x.shape}, {y.shape}")
    return x * y - y * x
