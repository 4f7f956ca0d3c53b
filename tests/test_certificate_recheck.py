"""Recheck `report` certificates with code that shares nothing with the library.

Every claim below is rebuilt from the certificate's JSON text alone, with
sympy `Rational` matrices: the form J and the involution theta come from
their definitions written out here, not from `symslice.pairs`, and g(-1)
and z_{g(-1)}(e) come from sympy nullspaces.  A bug in the library's
eigenspaces, form or brackets that made an object and its check wrong in
the same way would show as a recomputed value that disagrees with the
certificate's `checks`.
"""

import io
import json

import pytest
import sympy

from symslice.cli import main

GRID = [
    ("gl", 1, 1), ("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 1), ("gl", 3, 2), ("gl", 3, 3),
    ("gl", 4, 1), ("gl", 4, 2), ("gl", 5, 1),
    ("o", 1, 1), ("o", 2, 1), ("o", 2, 2), ("o", 3, 2), ("o", 3, 3),
    ("sp", 2, 2), ("sp", 4, 2),
]


@pytest.fixture(scope="module")
def certificates():
    out = io.StringIO()
    argv = ["report", "--gl-max", "5", "--o-max", "6", "--sp-max", "4", "--trials", "5"]
    # o(1,1) has no sl2 triple, so the report fails with exit 1
    assert main(argv, out=out, err=io.StringIO()) == 1
    certs = json.loads(out.getvalue())["certificates"]
    return {(c["family"], c["p"], c["q"]): c for c in certs if c["p"] + c["q"] <= 6}


def matrix(rows):
    return None if rows is None else sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])


def form(family, p, q):
    """J: block diagonal with one antidiagonal block per side.  On o the
    blocks are +1 on the p side and -1 on the q side, a symmetric form
    of signature (p, q); on sp row k of each block carries (-1)^k, a
    skew form on each side.  None on gl, which preserves no form."""
    if family == "gl":
        return None
    j = sympy.zeros(p + q)
    for start, size, sign in ((0, p, 1), (p, q, -1)):
        for k in range(size):
            j[start + k, start + size - 1 - k] = (-1) ** k if family == "sp" else sign
    return j


def theta(p, q, x):
    """theta(x) = K x K, K = diag(I_p, -I_q)."""
    k = sympy.diag(*([1] * p + [-1] * q))
    return k * x * k


def in_eigenspace(family, p, q, x, sign):
    """x in g(sign): x preserves J (x^T J + J x = 0) and theta(x) = sign x."""
    j = form(family, p, q)
    if j is not None and not (x.T * j + j * x).is_zero_matrix:
        return False
    return (theta(p, q, x) - sign * x).is_zero_matrix


def minus_basis(family, p, q):
    """A basis of g(-1), the nullspace of its defining linear conditions
    on the n^2 entries."""
    n = p + q
    xs = sympy.Matrix(n, n, sympy.symbols(f"x0:{n * n}"))
    conds = list(theta(p, q, xs) + xs)
    j = form(family, p, q)
    if j is not None:
        conds += list(xs.T * j + j * xs)
    system, _ = sympy.linear_eq_to_matrix(conds, list(xs))
    return [v.reshape(n, n) for v in system.nullspace()]


def minus_dim(family, p, q):
    """dim g(-1): the two off-diagonal blocks on gl; on o and sp the
    form fixes the lower-left block by the upper-right one."""
    return 2 * p * q if family == "gl" else p * q


def nilpotency_index(x):
    """The least k with x^k = 0, or None."""
    power = x
    for k in range(1, x.rows + 1):
        if power.is_zero_matrix:
            return k
        power = power * x
    return None


def rank_theta(family, q):
    """The real rank of the pair: q, or q / 2 on sp."""
    return q // 2 if family == "sp" else q


def test_the_grid_is_the_certify_grid(certificates):
    assert sorted(certificates) == sorted(GRID)


@pytest.mark.parametrize("case", GRID, ids=lambda c: "%s%d%d" % c)
def test_certificate_claims_hold_independently(certificates, case):
    family, p, q = case
    cert = certificates[case]
    checks = dict(cert["checks"])
    e, f, h = matrix(cert["e"]), matrix(cert["triple_f"]), matrix(cert["triple_h"])

    assert in_eigenspace(family, p, q, e, -1) == checks["e_in_g_minus"]
    index = nilpotency_index(e)
    assert index == cert["nilpotency_index"]
    assert (index is not None) == checks["e_nilpotent"]

    basis = minus_basis(family, p, q)
    assert len(basis) == minus_dim(family, p, q)
    # ad e on the basis, one column per basis element
    n = p + q
    ad_e = sympy.Matrix.hstack(*((e * b - b * e).reshape(n * n, 1) for b in basis))
    dim = len(basis) - ad_e.rank()
    assert dim == cert["centralizer_dim"]
    assert cert["rank_theta"] == rank_theta(family, q)
    assert (dim == rank_theta(family, q)) == checks["centralizer_dim_eq_rank"]

    if f is None:
        # o(1,1): no triple, so the certificate fails its triple checks
        assert case == ("o", 1, 1)
        assert not checks["triple_relations"] and not checks["h_in_g_plus"]
        assert not checks["f_regular"] and not cert["passing"]
        return
    relations = h * e - e * h == 2 * e and h * f - f * h == -2 * f and e * f - f * e == h
    assert relations == checks["triple_relations"]
    assert in_eigenspace(family, p, q, h, 1) == checks["h_in_g_plus"]
    # f_regular holds only for f in g(-1)
    assert in_eigenspace(family, p, q, f, -1) or not checks["f_regular"]
    assert cert["passing"]
