"""Pinned output bytes: certificates, random group elements, the set-up
of every grid case, the benchmark's certify digest, and the stdout of
`slice-rep`, `canonicalize` and the full-grid `report`.

Any change in how a matrix is stored, multiplied or inverted, or in how
slice inversion solves for its coordinates, must leave these digests as
they are.
"""

import hashlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symslice.cli import build_case, main, make_certificate, report_cases
from symslice.exact import matrix_to_text
from symslice.matspace import act, random_group_element
from symslice.pairs import make_pair
from symslice.slice import invariants, invariants_to_json, slice_point

CASES = [("gl", 3, 2), ("o", 2, 2), ("o", 3, 3), ("sp", 4, 2)]

# sha256 of the `verify` JSON text at seed 1 with 5 round trips; o(2, 2)
# carries the Pfaffian invariant
CERTIFICATES = {
    ("gl", 3, 2): "7d6174a56ca668265de7d0133e5bfba55e42561ea3ca0016b6eb641746e62e45",
    ("o", 2, 2): "5e5e77e637cc305e825a0090211b4cd2c0cebee7a8c5281ef3061bd13d616e74",
    ("o", 3, 3): "3decdffd64139fd903e5c5b3ba64ba3c6e95b4613c8c55d242dbda4c7c513194",
    ("sp", 4, 2): "cf10948067185169e3126230321706ddcdaa9dc6d0551f0681deaf752da18615",
}

# sha256 over the `verify` JSON texts at seed 1 with the 50 round trips
# of `report`, in `report_cases` order, of the 15 grid cases with
# p + q <= 6 (all but o(1, 1), which has no sl2 triple)
GRID_CERTIFICATES = "c3bbba8dece83ec1ff2b6277b1def925e9144c7f2b10bd76b44969f5445ca887"

# sha256 over matrix_to_text of e, f and h, of each slice basis matrix,
# and of each `_blocks` entry (its invariant indices, then its step), for
# every `report_cases(8, 16, 8)` case with a slice
SETUP = "a1b460ba9deb199b3761fd13af3537cb552656d32583df787091019538522323"

# what `perfbench/run.py --workload certify --seed 1` prints as
# certificate_sha256: one pass over its 105 requests
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CERTIFY = "27c5cd5c463fd6234844a07c648bbf65ef2e58ac12eae89a75ba93246b9bf2c7"

# sha256 of the stdout of `report --gl-max 8 --o-max 16 --sp-max 8`,
# which exits 1 because o(1, 1) has no sl2 triple
REPORT = "01d1114018331f6af38d890ba77b5858e0af471c29b26a29f977dd40036a19f7"

# sha256 over seeds 0-9 of matrix_to_text(g) + matrix_to_text(g_inv)
GROUP_ELEMENTS = {
    ("gl", 3, 2): "e8dcfbdab5d639dc4b1ea394fc7f95de49f482d730dbc911f878a4f0a366f258",
    ("o", 2, 2): "be6f43e35acf343c98962012cd96f39133925a72de7a3739a0c921ff491d55a3",
    ("o", 3, 3): "680d72b1496be5ab42bab7722e2e1911a831a9582d6d4673c8cbdaf499ad2e8e",
    ("sp", 4, 2): "59f3c617b76782ea5c60ea181c1c96ea39a5807e403e4243c5087bd40eeadfe9",
}

# sha256 over the exit codes and stdout of in-process calls on conjugated
# slice points (`_cli_inputs`); o(3, 3) has a non-diagonal ad h on its
# slice basis, o(2, 2) the Pfaffian
SLICE_REP = {
    ("gl", 3, 2): "ab3d1b9c56a1499a20848310745f58c607089982be9c9c54bd6d9cbdebe66372",
    ("o", 2, 2): "18f56f7b4253a48120499bf3ec0c761bc131022245db8b9c8012da599f9a7ef7",
    ("o", 3, 3): "1ece8fbd84b65fd83eeb42eee63fb491c174148e2e845e745749705aa64dff0c",
    ("sp", 4, 2): "4a3ecae5f604086bac1c25ae8ce5c65f18ca9143dbe68c662acc6a67a03fd52d",
}
CANONICALIZE = {
    ("gl", 3, 2): "d7780219a8bf8adedd1dc10b9d2188f65f1185322322488ca6d66ded4fdcae45",
    ("o", 2, 2): "4899b0dbb1e086a692024eb4c6565c982da28360522f3c8662e7721f395329f1",
    ("o", 3, 3): "c965df7a5ad1c06a728f43b9eaf31a00da1c58d1cc48702f22ba065e3e02e448",
    ("sp", 4, 2): "acef536a34444a7f6e808b0f8347068737964c489d86e8071fe8da6bcdadfa98",
}


def _cli_inputs(case):
    """Five slice points at seeded coordinates, each conjugated by a
    seeded group element, and their invariant vectors; the last vector
    has its constant term moved by one, so it may have no slice point."""
    pair, slc = make_pair(*case), build_case(*case).slc
    rng = random.Random(repr(case))
    points = []
    for seed in range(5):
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(slc.dim)]
        g = random_group_element(pair, seed, height=3)
        points.append(act(pair, g, slice_point(slc, coords)))
    vectors = [invariants(pair, x) for x in points]
    moved = list(vectors[-1].values)
    moved[0] += 1
    vectors.append(type(vectors[-1])(tuple(moved)))
    return points, vectors


def _stdout_digest(case, command, flag, texts, tmp_path):
    fam, p, q = case
    h = hashlib.sha256()
    for k, text in enumerate(texts):
        path = tmp_path / f"{command}-{k}.txt"
        path.write_text(text)
        out = io.StringIO()
        code = main(
            [command, "--family", fam, "--p", str(p), "--q", str(q), flag, str(path)],
            out=out,
            err=io.StringIO(),
        )
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_slice_rep_bytes_are_pinned(case, tmp_path):
    _, vectors = _cli_inputs(case)
    texts = [invariants_to_json(v) for v in vectors]
    assert _stdout_digest(case, "slice-rep", "--invariants", texts, tmp_path) == SLICE_REP[case]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_canonicalize_bytes_are_pinned(case, tmp_path):
    points, _ = _cli_inputs(case)
    texts = [matrix_to_text(x) for x in points]
    assert _stdout_digest(case, "canonicalize", "--matrix", texts, tmp_path) == CANONICALIZE[case]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_certificate_bytes_are_pinned(case):
    cert = make_certificate(*case, seed=1, trials=5)
    assert cert["passing"]
    text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES[case]


def test_certificate_bytes_of_the_small_grid_are_pinned():
    cases = [c for c in report_cases(8, 16, 8) if c != ("o", 1, 1) and c[1] + c[2] <= 6]
    assert len(cases) == 15
    h = hashlib.sha256()
    for case in cases:
        cert = make_certificate(*case, seed=1, trials=50)
        assert cert["passing"]
        h.update((json.dumps(cert, sort_keys=True, indent=2) + "\n").encode())
    assert h.hexdigest() == GRID_CERTIFICATES


def test_setup_bytes_of_the_full_grid_are_pinned():
    h = hashlib.sha256()
    for case in report_cases(8, 16, 8):
        built = build_case(*case)
        if built.slc is None:
            continue
        t = built.triple
        for m in (t.e, t.f, t.h, *built.slc.slice_basis):
            h.update(matrix_to_text(m).encode())
        for block in built.slc._blocks:
            h.update(f"{list(block.invariants)}\n".encode())
            h.update(matrix_to_text(block.step).encode())
    assert h.hexdigest() == SETUP


def test_report_bytes_of_the_full_grid_are_pinned():
    out = io.StringIO()
    argv = ["report", "--gl-max", "8", "--o-max", "16", "--sp-max", "8"]
    assert main(argv, out=out, err=io.StringIO()) == 1
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT


def test_benchmark_certify_digest_is_pinned(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.Certify()
    for i, req in enumerate(wl.requests(1, None, None)):
        assert wl.op(i, req)
    assert len(wl.first_bytes) == 105
    assert wl.digest() == CERTIFY


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_group_element_bytes_are_pinned(case):
    pair = make_pair(*case)
    h = hashlib.sha256()
    for seed in range(10):
        ge = random_group_element(pair, seed)
        h.update((matrix_to_text(ge.g) + matrix_to_text(ge.g_inv)).encode())
    assert h.hexdigest() == GROUP_ELEMENTS[case]
