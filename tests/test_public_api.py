"""The public surface: the names `symslice` exports and the functions the
benchmark's tracer wraps, so that a deletion cannot silently break either."""

import functools
import importlib
import importlib.util
from pathlib import Path

import symslice

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC = [
    "ConstraintViolation",
    "Family",
    "GroupElement",
    "InvariantVector",
    "KostantSlice",
    "MAX_SIZE",
    "MembershipError",
    "NilpotentWitness",
    "NoTriple",
    "NotFound",
    "RatMatrix",
    "RetryExhausted",
    "Sl2Triple",
    "SliceDimensionError",
    "SymmetricPair",
    "act",
    "act_mpq",
    "adjoint",
    "apply_theta",
    "bracket",
    "cayley",
    "centralizer",
    "charpoly",
    "closed_form_centralizer",
    "complete_triple",
    "exact",
    "from_matrix_space",
    "group_element",
    "in_algebra",
    "in_eigenspace",
    "invariant_length",
    "invariants",
    "invariants_from_json",
    "invariants_to_json",
    "inverse",
    "invert_on_slice",
    "is_relatively_regular",
    "jacobian_rank_at",
    "kernel_basis",
    "make_pair",
    "make_slice",
    "make_witness",
    "matrix_from_text",
    "matrix_to_text",
    "matspace",
    "nilpotency_index",
    "nilpotent",
    "pairs",
    "pfaffian",
    "random_group_element",
    "rank",
    "regular_nilpotent",
    "sl2",
    "slice",
    "slice_point",
    "solve",
    "solve_unique",
    "spans_equal",
    "to_matrix_space",
    "verify_triple",
]


def test_exported_names_are_pinned():
    assert sorted(symslice.__all__) == PUBLIC


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_tracer().TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"symslice.{layer}")
        for name in names:
            obj = functools.reduce(getattr, name.split("."), module)
            assert callable(obj), f"symslice.{layer}.{name}"
