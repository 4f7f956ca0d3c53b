"""Fuzz `cli.main` on slice-rep and canonicalize: every admitted input
ends in a documented exit.

On small gl, o and sp cases (o(1, 1) has no slice), inputs within the
documented bounds, with entries of up to MAX_DIGITS digits in numerator
and denominator: invariant vectors, free or placed on the quotient's
image, and g(-1) matrices, regular, non-regular or off g(-1).  Each run
must end in exit 0, 2, 3 or 4, with nothing raised out of `main` and no
traceback written, within the per-example deadline.
"""

import io
import json
import os
import tempfile
from datetime import timedelta
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symslice.cli import build_case, main
from symslice.exact import MAX_DIGITS, integer_rows
from symslice.pairs import combine
from symslice.slice import invariant_length

SETTINGS = settings(
    max_examples=100, deadline=timedelta(seconds=5), derandomize=True, database=None
)
CASES = [
    ("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 2), ("o", 1, 1), ("o", 2, 1), ("o", 2, 2),
    ("o", 3, 3), ("sp", 2, 2), ("sp", 4, 2),
]
DOCUMENTED = {0, 2, 3, 4}

# integers from small to MAX_DIGITS digits, the largest as runs of nines
integers = st.one_of(
    st.integers(-20, 20),
    st.integers(-(10**30), 10**30),
    st.builds(lambda k, s: s * (10**k - 1), st.integers(1, MAX_DIGITS), st.sampled_from([1, -1])),
)
denominators = st.one_of(st.just(1), st.integers(1, 12), integers.filter(bool).map(abs))


def _text(a: int, b: int) -> str:
    return str(a) if b == 1 else f"{a}/{b}"


entries = st.builds(_text, integers, denominators)


def _run(argv, path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    assert code in DOCUMENTED, (code, out.getvalue()[:300])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert json.loads(out.getvalue())["error"]["type"]


@st.composite
def targets(draw):
    """A case and an invariant vector for it: free entries, or zero where
    c_m must be 0 and c_0 = (-1)^q Pf^2 on o(q, q), so that it lies on the
    quotient's image on every family but sp."""
    fam, p, q = case = draw(st.sampled_from(CASES))
    n, length = p + q, invariant_length(build_case(*case).pair)
    # one vector in five of a wrong length, refused with exit 2
    length = draw(st.sampled_from([length] * 4 + [draw(st.integers(0, length + 2))]))
    values = draw(st.lists(entries, min_size=length, max_size=length))
    if draw(st.sampled_from([True, True, True, False])):
        values = [v if m >= n or (m >= p - q and (n - m) % 2 == 0) else "0"
                  for m, v in enumerate(values)]
        if fam == "o" and p == q and len(values) > n:
            values[0] = str((-1) ** q * Fraction(values[n]) ** 2)
    return case, values


@st.composite
def matrices(draw):
    """A case and a matrix text for it: a combination of the g(-1) basis,
    regular for most coefficients, a single basis matrix, which is never
    regular on most cases, or any square matrix."""
    fam, p, q = case = draw(st.sampled_from(CASES))
    pair, n = build_case(*case).pair, p + q
    kind = draw(st.sampled_from(["dense", "basis", "free"]))
    if kind == "free":
        vals = draw(st.lists(entries, min_size=n * n, max_size=n * n))
        return case, f"{n} {n}\n" + "\n".join(
            " ".join(vals[i * n : (i + 1) * n]) for i in range(n)
        )
    support = pair.minus_support
    if kind == "basis":
        k, c = draw(st.integers(0, len(support) - 1)), draw(integers.filter(bool))
        coeffs = [c * (j == k) for j in range(len(support))]
    else:
        coeffs = draw(st.lists(integers, min_size=len(support), max_size=len(support)))
    den = draw(denominators)
    rows = integer_rows(combine(n, support, coeffs))[0]
    rows = [" ".join(_text(v, den) for v in row) for row in rows]
    return case, f"{n} {n}\n" + "\n".join(rows)


@SETTINGS
@given(drawn=targets())
def test_slice_rep_ends_in_a_documented_exit(drawn):
    (fam, p, q), values = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inv.json")
        argv = ["slice-rep", "--family", fam, "--p", str(p), "--q", str(q), "--invariants", path]
        _run(argv, path, json.dumps(values))


@SETTINGS
@given(drawn=matrices())
def test_canonicalize_ends_in_a_documented_exit(drawn):
    (fam, p, q), text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.txt")
        argv = ["canonicalize", "--family", fam, "--p", str(p), "--q", str(q), "--matrix", path]
        _run(argv, path, text)
