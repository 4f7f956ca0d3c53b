import itertools
import random
from fractions import Fraction

import pytest
import sympy

from reference import block_diag, form, shift_power
from symslice.exact import RatMatrix, inverse, rank
from symslice.cli import report_cases
from symslice import matspace
from symslice.matspace import (
    GroupElement,
    _check_group_element,
    act,
    act_mpq,
    cayley,
    from_matrix_space,
    group_element,
    random_group_element,
)
from symslice.nilpotent import centralizer, regular_nilpotent
from symslice.pairs import Family, adjoint, combine, in_eigenspace, make_pair


def exchange(r):
    """Antidiagonal matrix of ones."""
    return RatMatrix.from_ints([[int(i + j == r - 1) for j in range(r)] for i in range(r)], cols=r)


def upper(pair, x):
    """The upper-right p x q block of x."""
    return x.submatrix(0, pair.p, pair.p, pair.n)


def test_projection_of_zero():
    pair = make_pair(Family.ORTH, 2, 1)
    zero = from_matrix_space(pair, RatMatrix.zeros(2, 1))
    assert zero == RatMatrix.zeros(3, 3)
    assert upper(pair, zero) == RatMatrix.zeros(2, 1)


def test_projection_of_orth_nilpotent():
    pair = make_pair(Family.ORTH, 2, 1)
    e = regular_nilpotent(pair)
    assert in_eigenspace(pair, e, -1)
    a = upper(pair, e)
    assert a == RatMatrix([[1], [0]])
    # independent reassembly through the form
    y = exchange(1) * a.transpose() * exchange(2)
    assert e.submatrix(2, 3, 0, 2) == y
    assert from_matrix_space(pair, a) == e


def test_sp22_shift_block_gives_the_nilpotent():
    pair = make_pair(Family.SP, 2, 2)
    x = from_matrix_space(pair, shift_power(2, 1))
    assert in_eigenspace(pair, x, -1)
    assert x == regular_nilpotent(pair)


def test_roundtrip_both_ways():
    rng = random.Random(4)
    for fam, p, q in [(Family.ORTH, 3, 2), (Family.SP, 4, 2)]:
        pair = make_pair(fam, p, q)
        for _ in range(5):
            a = RatMatrix(
                [[Fraction(rng.randint(-5, 5)) for _ in range(q)] for _ in range(p)]
            )
            x = from_matrix_space(pair, a)
            assert in_eigenspace(pair, x, -1)
            assert upper(pair, x) == a


def test_gl_needs_both_blocks():
    pair = make_pair(Family.GL, 2, 1)
    with pytest.raises(ValueError):
        from_matrix_space(pair, RatMatrix.zeros(2, 1))
    x = from_matrix_space(pair, RatMatrix([[1], [2]]), RatMatrix([[3, 4]]))
    assert in_eigenspace(pair, x, -1)
    assert upper(pair, x) == RatMatrix([[1], [2]])


def test_cayley_of_zero_is_identity():
    pair = make_pair(Family.SP, 4, 2)
    assert cayley(pair, RatMatrix.zeros(6, 6)) == RatMatrix.identity(6)


def to_sympy(m: RatMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j].numerator, m[i, j].denominator)
    )


FORM_CASES = [c for c in report_cases(6, 10, 6) if c[0] != "gl" and c[1] + c[2] <= 8]


@pytest.mark.parametrize("case", FORM_CASES, ids=lambda c: "%s%d%d" % c)
def test_cayley_and_act_match_sympy(case):
    # (I - S)(I + S)^-1 for random rational form-skew S, and g x g^-1
    # for the element it gives, against sympy's inverse
    pair = make_pair(*case)
    n = pair.n
    rng = random.Random(repr(case))
    ident = sympy.eye(n)
    for _ in range(4):
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        s = scale * combine(n, pair.plus_support, [rng.randint(-5, 5) for _ in pair.plus_support])
        x = combine(
            n,
            pair.minus_support,
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in pair.minus_support],
        )
        ss = to_sympy(s)
        if (ident + ss).det() == 0:
            with pytest.raises(ValueError, match="singular"):
                cayley(pair, s)
            continue
        g = cayley(pair, s)
        sg = (ident - ss) * (ident + ss).inv()
        assert to_sympy(g) == sg
        ge = GroupElement(g=g, g_inv=adjoint(pair, g))
        assert to_sympy(act(pair, ge, x)) == sg * to_sympy(x) * sg.inv()
        assert to_sympy(act(pair, ge.inverse(), x)) == sg.inv() * to_sympy(x) * sg


@pytest.mark.parametrize("case", [("o", 2, 1), ("o", 2, 2), ("sp", 2, 2)], ids=lambda c: "%s%d%d" % c)
def test_cayley_refuses_a_singular_i_plus_s(case):
    # a singular draw raises ValueError, which random_group_element
    # retries on, so the draws it takes stay the same
    pair = make_pair(*case)
    n, support = pair.n, pair.plus_support
    for coeffs in itertools.product((-1, 0, 1), repeat=len(support)):
        s = combine(n, support, coeffs)
        if (sympy.eye(n) + to_sympy(s)).det() == 0:
            break
    else:
        pytest.fail("no singular I + S among the small draws")
    with pytest.raises(ValueError, match="singular"):
        cayley(pair, s)


def test_act_is_a_group_action():
    rng = random.Random(6)
    pair = make_pair(Family.ORTH, 3, 2)
    e = regular_nilpotent(pair)
    g = random_group_element(pair, seed=11, height=3)
    assert act(pair, g, act(pair, g.inverse(), e)) == e
    ident = group_element(pair, RatMatrix.identity(5))
    assert act(pair, ident, e) == e


@pytest.mark.parametrize("fam, p, q", [("gl", 2, 2), ("o", 2, 2), ("sp", 2, 2)])
def test_height_below_2_is_refused_on_every_family(fam, p, q):
    # at height 1 the Cayley retries on o(2, 2) all fail with probability
    # (8/9)^64 ~ 5e-4; one rule refuses the height on every family
    pair = make_pair(Family(fam), p, q)
    for height in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            random_group_element(pair, seed=0, height=height)
    assert random_group_element(pair, seed=0, height=2).g.shape == (pair.n, pair.n)


def test_random_group_elements_satisfy_group_conditions():
    for fam, p, q in report_cases(8, 16, 8):
        if p + q > 10:
            continue
        pair = make_pair(Family(fam), p, q)
        for seed in range(5):
            g = random_group_element(pair, seed=seed, height=4)
            # the carried inverse is the one an elimination finds
            assert g.g_inv == inverse(g.g)
            assert g.g * g.g_inv == RatMatrix.identity(pair.n)
            sig = block_diag(RatMatrix.identity(p), -1 * RatMatrix.identity(q))
            assert sig * g.g == g.g * sig
            j = form(pair)
            if j is not None:
                assert j * g.g_inv.transpose() * inverse(j) == g.g


@pytest.mark.parametrize("broken", [3, 2], ids=["g1", "g2"])
def test_a_gl_draw_checks_each_block(monkeypatch, broken):
    # the GL draw checks g1 g1^-1 = I_p and g2 g2^-1 = I_q on integer rows
    real = matspace._unimodular

    def wrong_inverse(rng, n, height):
        m, m_inv = real(rng, n, height)
        if n == broken:
            m_inv[0][0] += 1
        return m, m_inv

    monkeypatch.setattr(matspace, "_unimodular", wrong_inverse)
    with pytest.raises(ValueError, match="g g_inv = I"):
        random_group_element(make_pair(Family.GL, 3, 2), seed=1)


def test_random_group_element_is_deterministic():
    pair = make_pair(Family.SP, 4, 2)
    assert random_group_element(pair, seed=42).g == random_group_element(pair, seed=42).g


def test_equivariance():
    rng = random.Random(9)
    for fam, p, q in [(Family.ORTH, 3, 2), (Family.SP, 4, 4), (Family.GL, 4, 3)]:
        pair = make_pair(fam, p, q)
        for _ in range(5):
            a = RatMatrix(
                [[Fraction(rng.randint(-4, 4)) for _ in range(q)] for _ in range(p)]
            )
            b = None
            if fam is Family.GL:
                b = RatMatrix([[rng.randint(-4, 4) for _ in range(p)] for _ in range(q)])
            x = from_matrix_space(pair, a, b)
            g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
            y = act(pair, g, x)
            assert in_eigenspace(pair, y, -1)
            assert upper(pair, y) == act_mpq(pair, g, a)


def test_gl_rank_invariance():
    rng = random.Random(10)
    pair = make_pair(Family.GL, 4, 3)
    for _ in range(10):
        a = RatMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)])
        g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
        assert rank(act_mpq(pair, g, a)) == rank(a)


def test_regularity_transfers_through_the_correspondence():
    pair = make_pair(Family.ORTH, 3, 2)
    e = regular_nilpotent(pair)
    a = upper(pair, e)
    assert len(centralizer(pair, from_matrix_space(pair, a))) == pair.rank_theta
    zero = from_matrix_space(pair, RatMatrix.zeros(3, 2))
    assert len(centralizer(pair, zero)) == len(pair.basis_minus)


def test_group_element_validation():
    pair = make_pair(Family.ORTH, 2, 1)
    # not block diagonal
    with pytest.raises(ValueError):
        group_element(pair, RatMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    # block diagonal but fails the form condition
    with pytest.raises(ValueError):
        group_element(pair, RatMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # the exchange block is a legitimate group element
    ge = group_element(pair, RatMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert ge.g * ge.g_inv == RatMatrix.identity(3)
    # on gl only the block-diagonal scan refuses an invertible matrix
    gl = make_pair(Family.GL, 2, 1)
    with pytest.raises(ValueError, match="block diagonal"):
        group_element(gl, RatMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    # a carried inverse that is not the inverse
    g = RatMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="g g_inv = I"):
        _check_group_element(gl, GroupElement(g=g, g_inv=g))
    _check_group_element(gl, GroupElement(g=g, g_inv=inverse(g)))
