"""Symmetric pairs (g, theta) for the three classical matrix families.

A pair is determined by a family tag and block sizes p >= q.  This is
the one module that knows the form J and the involution theta; both act
on matrix entries as signed permutations.  theta negates the two
off-diagonal blocks, and the monomial form is read once into index maps
(`SymmetricPair.form_entries`) from which `adjoint` and the membership
conditions are evaluated entrywise.  The eigenspaces g(1) and g(-1)
are computed generically by solving the defining linear conditions with
the exact kernel machinery, never from hand-coded per-family formulas.
Each basis matrix is also kept as its integer support (`plus_support`,
`minus_support`), from which `ad_rows` writes z -> [x, z]: every bracket
equation of `nilpotent` and `sl2` is a system built by it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exact import RatMatrix, block_diag, kernel_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Largest p + q accepted: the eigenspaces are solved in (p + q)^2 unknowns.
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


def exchange(r: int) -> RatMatrix:
    """Antidiagonal matrix of ones."""
    out = [[_ZERO] * r for _ in range(r)]
    for i in range(r):
        out[i][r - 1 - i] = _ONE
    return RatMatrix(out, cols=r)


def signed_exchange(r: int) -> RatMatrix:
    """Antidiagonal with alternating signs, +1 in the top right corner."""
    out = [[_ZERO] * r for _ in range(r)]
    for i in range(r):
        out[i][r - 1 - i] = _ONE if i % 2 == 0 else -_ONE
    return RatMatrix(out, cols=r)


@dataclass(frozen=True, eq=False)
class SymmetricPair:
    family: Family
    p: int
    q: int
    n: int
    form: RatMatrix | None
    form_entries: tuple | None
    basis_plus: tuple
    basis_minus: tuple
    plus_support: tuple
    minus_support: tuple
    rank_theta: int

    def __repr__(self):
        return f"SymmetricPair({self.family.value}, p={self.p}, q={self.q})"


def _form_entries(form: RatMatrix) -> tuple:
    """(kappa(i), v_i) for each row i of the monomial form: J[i, kappa(i)] = v_i."""
    out = []
    for i in range(form.rows):
        nz = [(j, form[i, j]) for j in range(form.cols) if form[i, j]]
        if len(nz) != 1:
            raise AssertionError("form matrix is not monomial")
        out.append(nz[0])
    if sorted(k for k, _ in out) != list(range(form.cols)):
        raise AssertionError("form matrix is not monomial")
    return tuple(out)


def _membership_rows(n, entries):
    """Linear conditions J X^t J^-1 + X = 0, one row per matrix position.

    (J X^t J^-1)[i, j] = v_i / v_j * X[kappa(j), kappa(i)], so each row
    touches at most two unknowns.
    """
    if entries is None:
        return []
    rows = []
    for i in range(n):
        kap_i, v_i = entries[i]
        for j in range(n):
            kap_j, v_j = entries[j]
            row = [_ZERO] * (n * n)
            row[i * n + j] += _ONE
            row[kap_j * n + kap_i] += v_i / v_j
            rows.append(row)
    return rows


def _theta_rows(n, p, sign):
    """Linear conditions theta(X) = sign * X; the system is diagonal."""
    rows = []
    for i in range(n):
        for j in range(n):
            c = Fraction((1 if (i < p) == (j < p) else -1) - sign)
            if c:
                row = [_ZERO] * (n * n)
                row[i * n + j] = c
                rows.append(row)
    return rows


def _integer_support(m: RatMatrix) -> tuple:
    """(k, l, c) for each nonzero entry c = m[k, l]; every entry must be an integer."""
    out = []
    for k in range(m.rows):
        for l, c in enumerate(m.row(k)):
            if c:
                if c.denominator != 1:
                    raise AssertionError("eigenspace basis matrix is not integral")
                out.append((k, l, c.numerator))
    return tuple(out)


def _solve_conditions(n, rows):
    mat = RatMatrix(rows, cols=n * n)
    vecs = kernel_basis(mat)
    out = []
    for v in vecs:
        out.append(RatMatrix([[v[i * n + j, 0] for j in range(n)] for i in range(n)], cols=n))
    return tuple(out)


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
    if family is Family.GL:
        form = None
    elif family is Family.ORTH:
        form = block_diag(exchange(p), -_ONE * exchange(q))
    else:
        form = block_diag(signed_exchange(p), signed_exchange(q))
    entries = None if form is None else _form_entries(form)

    memb = _membership_rows(n, entries)
    basis_plus = _solve_conditions(n, memb + _theta_rows(n, p, +1))
    basis_minus = _solve_conditions(n, memb + _theta_rows(n, p, -1))

    expected_minus = 2 * p * q if family is Family.GL else p * q
    if len(basis_minus) != expected_minus:
        raise AssertionError(
            f"eigenspace dimension {len(basis_minus)} != expected {expected_minus}"
        )
    rank_theta = q // 2 if family is Family.SP else q

    return SymmetricPair(
        family=family,
        p=p,
        q=q,
        n=n,
        form=form,
        form_entries=entries,
        basis_plus=basis_plus,
        basis_minus=basis_minus,
        plus_support=tuple(_integer_support(b) for b in basis_plus),
        minus_support=tuple(_integer_support(b) for b in basis_minus),
        rank_theta=rank_theta,
    )


def _require_ambient(pair: SymmetricPair, x: RatMatrix):
    if x.shape != (pair.n, pair.n):
        raise ValueError(f"expected a {pair.n} x {pair.n} matrix, got {x.shape}")


def apply_theta(pair: SymmetricPair, x: RatMatrix) -> RatMatrix:
    """Conjugation by the signature matrix: negate the off-diagonal blocks."""
    _require_ambient(pair, x)
    p, n = pair.p, pair.n
    rows = [[v if (i < p) == (j < p) else -v for j, v in enumerate(x.row(i))] for i in range(n)]
    return RatMatrix(rows, cols=n)


def adjoint(pair: SymmetricPair, x: RatMatrix) -> RatMatrix:
    """The form adjoint J x^t J^-1, read entrywise from the form's index maps.

    Raises ValueError for GL, which has no form.
    """
    _require_ambient(pair, x)
    entries = pair.form_entries
    if entries is None:
        raise ValueError("the gl family has no form")
    return RatMatrix(
        [[v_i / v_j * x[k_j, k_i] for k_j, v_j in entries] for k_i, v_i in entries],
        cols=pair.n,
    )


def in_algebra(pair: SymmetricPair, x: RatMatrix) -> bool:
    """Membership in g: vacuous for GL, the form condition otherwise."""
    _require_ambient(pair, x)
    return pair.form_entries is None or adjoint(pair, x) == -x


def in_eigenspace(pair: SymmetricPair, x: RatMatrix, sign: int) -> bool:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return in_algebra(pair, x) and apply_theta(pair, x) == sign * x


def eigenspace_basis(pair: SymmetricPair, sign: int) -> tuple:
    if sign == 1:
        return pair.basis_plus
    if sign == -1:
        return pair.basis_minus
    raise ValueError("sign must be +1 or -1")


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
