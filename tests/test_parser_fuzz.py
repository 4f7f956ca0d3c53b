"""Fuzz the two input parsers: every text gives a result or a ValueError.

`exact.matrix_from_text` reads `canonicalize` matrices and
`slice.invariants_from_json` reads `slice-rep` invariant vectors; the CLI
turns a ValueError from either into exit 2.  Any other exception would
reach the user as a traceback, and the per-example deadline bounds the
time a hostile input can take.
"""

import json
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symslice.exact import MAX_DIGITS, RatMatrix, matrix_from_text
from symslice.slice import InvariantVector, invariants_from_json

SETTINGS = settings(
    max_examples=200, deadline=timedelta(seconds=2), derandomize=True, database=None
)

# number-like tokens: short literals over any digit alphabet, runs of
# digits or underscores around the digit bound, and arbitrary text
literals = st.one_of(
    st.from_regex(r"[-+]?[\d_]{0,12}([./][\d_]{0,12})?([eE][-+]?[\d_]{0,7})?", fullmatch=True),
    st.builds(
        lambda run, k, tail: run * k + tail,
        st.sampled_from(["9", "1_0", "_", "٣", "0"]),
        st.integers(1, MAX_DIGITS + 300),
        st.sampled_from(["", "/7", ".5", "e3", "e10001", "/0", "_", "e-9_9"]),
    ),
    st.text(max_size=20),
)
separators = st.sampled_from([" ", "\n", "\t", "　", "\x0b", " \r\n "])


@st.composite
def matrix_texts(draw):
    rows, cols = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    count = draw(st.one_of(st.just(max(rows, 0) * max(cols, 0)), st.integers(0, 10)))
    header = draw(st.one_of(st.just(f"{rows} {cols}"), literals.map(lambda t: f"{t} {cols}")))
    sep = draw(separators)
    return sep.join([header, *draw(st.lists(literals, min_size=count, max_size=count))])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | literals,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def json_texts(draw):
    # array items as JSON values or bare literals, then nested and cut
    items = draw(st.lists(st.one_of(json_values.map(json.dumps), literals), max_size=6))
    text = "[" + ", ".join(items) + "]"
    depth = draw(st.one_of(st.just(0), st.integers(1, 3000)))
    text = "[" * depth + text + "]" * draw(st.sampled_from([depth, 0, depth // 2]))
    return text[: draw(st.one_of(st.just(len(text)), st.integers(0, len(text))))]


def _result_or_value_error(parse, text, kind):
    try:
        got = parse(text)
    except ValueError:
        return
    assert isinstance(got, kind)


@SETTINGS
@given(text=st.one_of(st.text(), matrix_texts()))
@example(text="2 2\n1_000 -0.5\n٣/4 1e10000")
@example(text="1 1 " + "9" * MAX_DIGITS)
@example(text="1 1 " + "9" * (MAX_DIGITS + 1))
@example(text="1 1 1e10001")
@example(text="1 1 1/0")
@example(text="99999999999 99999999999 1")
@example(text="9" * 300 + " 0")
@example(text="3 0\n\n\n\n")
def test_matrix_text_gives_a_matrix_or_value_error(text):
    _result_or_value_error(matrix_from_text, text, RatMatrix)


@SETTINGS
@given(text=st.one_of(st.text(), json_texts(), json_values.map(json.dumps)))
@example(text="[1_000, 0.5]")
@example(text='["1_000", "-3/4", 1e10000]')
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='[{"a": [1]}, [2], true, null, "x"]')
@example(text="[" + "9" * (MAX_DIGITS + 1) + "]")
@example(text='["\ud800"]')
def test_invariant_json_gives_a_vector_or_value_error(text):
    _result_or_value_error(invariants_from_json, text, InvariantVector)
