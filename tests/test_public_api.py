"""The public surface: the names `symslice` exports and the functions the
benchmark's tracer wraps, so that a deletion cannot silently break either;
and the private names one `symslice` module imports from another, so that
a new reach-in is a deliberate edit."""

import ast
import functools
import importlib
import importlib.util
import re
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


README = Path(__file__).resolve().parent.parent / "README.md"


def _symslice_name(head):
    """The symslice attribute or submodule called head, or None."""
    if hasattr(symslice, head):
        return getattr(symslice, head)
    if importlib.util.find_spec(f"symslice.{head}") is not None:
        return importlib.import_module(f"symslice.{head}")
    return None


def test_every_symslice_name_the_readme_quotes_resolves():
    # a backticked dotted name whose first part is a symslice attribute or
    # module, such as `exact.hessenberg_charpoly`, `slice._leading`,
    # `symslice.pairs` or `KostantSlice._kernel`, names something that exists
    quoted = re.findall(r"`((?:symslice\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    checked = 0
    for name in quoted:
        head, *rest = name.removeprefix("symslice.").split(".")
        obj = _symslice_name(head)
        if obj is not None:
            assert functools.reduce(lambda o, a: getattr(o, a, None), rest, obj) is not None, name
            checked += 1
    assert checked >= 10


PACKAGE = Path(symslice.__file__).resolve().parent

# (importing module, source module, name) for every private name one
# symslice module imports from another
PRIVATE_IMPORTS = [
    ("cli", "slice", "_graded_solve_pairs"),
    ("cli", "slice", "_invariants_of_rows"),
    ("cli", "slice", "_slice_invariants"),
    ("matspace", "exact", "_matmul"),
    ("matspace", "exact", "_unique_solution"),
    ("slice", "exact", "_matmul"),
]


def test_private_names_imported_across_modules_are_pinned():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or ""
            elif (node.module or "").startswith("symslice."):
                source = node.module.removeprefix("symslice.")
            else:
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    found.append((path.stem, source, name))
    assert sorted(found) == PRIVATE_IMPORTS
