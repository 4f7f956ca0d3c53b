"""The library reads matrices through their integer rows only.

`RatMatrix.row` and `m[i, j]` make Fractions for the API edge.  With both
patched to raise, the whole pipeline is built from scratch (not through
the `build_case` cache), every step of the certificate and of slice
inversion is run on it and a slice point goes through the text format,
so a library path that reads entries as Fractions fails here.
"""

import random
from fractions import Fraction

import pytest

from symslice.exact import RatMatrix, integer_rows, matrix_from_text, matrix_to_text, spans_equal
from symslice.matspace import act, random_group_element
from symslice.nilpotent import closed_form_centralizer, is_relatively_regular, make_witness
from symslice.pairs import make_pair
from symslice.sl2 import complete_triple, verify_triple
from symslice.slice import (
    invariants,
    invert_on_slice,
    jacobian_rank_at,
    make_slice,
    slice_point,
)

# o(3, 3) has a non-diagonal ad h on its slice basis, o(4, 4) the Pfaffian
CASES = [("gl", 3, 2), ("o", 3, 3), ("o", 4, 4), ("sp", 4, 2)]


def _refuse(*args):
    raise AssertionError("a library path read a RatMatrix entry as a Fraction")


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_the_pipeline_reads_no_entry_as_a_fraction(case, monkeypatch):
    monkeypatch.setattr(RatMatrix, "row", _refuse)
    monkeypatch.setattr(RatMatrix, "__getitem__", _refuse)
    pair = make_pair(*case)
    witness = make_witness(pair)
    triple = complete_triple(pair, witness.e)
    slc = make_slice(pair, triple)
    assert slc._blocks
    assert all(ok for _, ok in verify_triple(pair, triple))
    assert spans_equal(witness.centralizer_basis, closed_form_centralizer(pair))

    rng = random.Random(repr(case))
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(slc.dim)]
    x = slice_point(slc, coords)
    # the text exchange format is written and read on the integer rows too
    assert integer_rows(x)[1] != 1
    assert matrix_from_text(matrix_to_text(x)) == x
    target = invariants(pair, x)
    assert invert_on_slice(slc, target) == coords
    assert jacobian_rank_at(slc, coords) == slc.dim

    g = random_group_element(pair, seed=1, height=3)
    assert g.g * g.g_inv == RatMatrix.identity(pair.n)
    y = act(pair, g, x)
    assert invariants(pair, y) == target
    # the Krylov certificate on a slice point, the exact fallback on a
    # basis matrix, which is never regular here
    assert is_relatively_regular(pair, x)
    assert not is_relatively_regular(pair, pair.basis_minus[0])
