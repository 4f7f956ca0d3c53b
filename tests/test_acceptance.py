"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Ranges: all GL pairs 1 <= q <= p <= 8, all orthogonal pairs with
|p - q| <= 1 and p + q <= 16, all symplectic pairs with even
2 <= q <= p <= 8.  Everything asserted here is exact (zero tolerance).

The single degenerate case (o, 1, 1) has e = 0, which no sl2 triple can
contain (triple members are nonzero by definition) and which violates
the completion's stated precondition e != 0; the triple- and
slice-level criteria assert its NoTriple contract instead and run the
full check everywhere else.
"""

import hashlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from reference import lincomb
from symslice.cli import build_case, main
from symslice.exact import RatMatrix, matrix_to_text, rank, spans_equal
from symslice.matspace import act, act_mpq, random_group_element
from symslice.pairs import in_eigenspace
from symslice.sl2 import NoTriple, complete_triple, verify_triple
from symslice.slice import (
    NotFound,
    invariants,
    invert_on_slice,
    jacobian_rank_at,
    slice_point,
)


def all_cases():
    cases = []
    for p in range(1, 9):
        for q in range(1, p + 1):
            cases.append(("gl", p, q))
    for p in range(1, 9):
        for q in (p - 1, p):
            if 1 <= q <= p and p + q <= 16:
                cases.append(("o", p, q))
    for p in range(2, 9, 2):
        for q in range(2, p + 1, 2):
            cases.append(("sp", p, q))
    return cases


CASES = all_cases()
DEGENERATE = ("o", 1, 1)


def expected_centralizer_dim(fam, p, q):
    if fam == "sp":
        return q // 2
    return q


def case_rng(tag, fam, p, q):
    blob = f"{tag}:{fam}:{p}:{q}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def rand_coords(rng, dim):
    return [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(dim)]


def report_line(capfd, num, name, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    detail = f" ({extra})" if extra else ""
    with capfd.disabled():  # the line should reach the real stdout
        print(f"criterion {num} ({name}): {status}{detail}", flush=True)
        if failures:
            print(f"  failures: {failures[:10]}", flush=True)


def test_criterion_1_construction_suite(capfd):
    t0 = time.time()
    failures = []
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        wit = case.witness
        ok = (
            in_eigenspace(case.pair, wit.e, -1)
            and wit.nilp_index is not None
            and wit.centralizer_dim
            == expected_centralizer_dim(fam, p, q)
            == case.pair.rank_theta
        )
        if not ok:
            failures.append((fam, p, q))
    elapsed = time.time() - t0
    report_line(capfd, 1, "construction suite", failures, f"{len(CASES)} cases, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 120.0


def test_criterion_2_oracle_equivalence(capfd):
    failures = []
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        if not spans_equal(case.witness.centralizer_basis, case.closed_form):
            failures.append((fam, p, q))
    report_line(capfd, 2, "closed-form oracle equivalence", failures, f"{len(CASES)} cases")
    assert not failures


def test_criterion_3_sl2_suite(capfd):
    failures = []
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        if (fam, p, q) == DEGENERATE:
            if case.triple is not None:
                failures.append((fam, p, q, "expected NoTriple"))
            with pytest.raises(NoTriple):
                complete_triple(case.pair, case.witness.e)
            continue
        if case.triple is None:
            failures.append((fam, p, q, case.triple_error))
            continue
        results = verify_triple(case.pair, case.triple)
        bad = [name for name, ok in results if not ok]
        if bad:
            failures.append((fam, p, q, bad))
    report_line(
        capfd, 3, "sl2 completion suite", failures,
        f"{len(CASES)} cases, degenerate (o,1,1) asserts NoTriple",
    )
    assert not failures


def test_criterion_4_slice_roundtrip(capfd):
    t0 = time.time()
    failures = []
    trials = 50
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        if (fam, p, q) == DEGENERATE:
            assert case.slc is None
            continue
        rng = case_rng("roundtrip", fam, p, q)
        for t in range(trials):
            coords = rand_coords(rng, case.slc.dim)
            target = invariants(case.pair, slice_point(case.slc, coords))
            try:
                got = invert_on_slice(case.slc, target)
            except NotFound:
                failures.append((fam, p, q, t, "NotFound"))
                continue
            if got != coords:
                failures.append((fam, p, q, t, "wrong coordinates"))
    elapsed = time.time() - t0
    report_line(
        capfd, 4, "slice round-trip", failures,
        f"{trials} trials/case, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 600.0


def test_criterion_5_canonicalization_under_conjugation(tmp_path, capfd):
    failures = []
    draws = 20
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        if (fam, p, q) == DEGENERATE:
            assert case.slc is None
            continue
        pair = case.pair
        rng = case_rng("canon", fam, p, q)
        for t in range(draws):
            coords = rand_coords(rng, case.slc.dim)
            x = slice_point(case.slc, coords)
            g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
            y = act(pair, g, x)
            if invariants(pair, y) != invariants(pair, x):
                failures.append((fam, p, q, t, "invariants moved"))
                continue
            mat = tmp_path / f"{fam}_{p}_{q}_{t}.txt"
            mat.write_text(matrix_to_text(y))
            out = io.StringIO()
            code = main(
                ["canonicalize", "--family", fam, "--p", str(p), "--q", str(q),
                 "--matrix", str(mat)],
                out=out, err=io.StringIO(),
            )
            if code != 0:
                failures.append((fam, p, q, t, f"exit {code}"))
                continue
            got = json.loads(out.getvalue().split("\n", 1)[0])
            if got != [str(c) for c in coords]:
                failures.append((fam, p, q, t, "wrong canonical coordinates"))
    report_line(capfd, 5, "canonicalization under conjugation", failures, f"{draws} draws/case")
    assert not failures


def test_criterion_6_equivariance(capfd):
    failures = []
    draws = 20
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        pair = case.pair
        rng = case_rng("equiv", fam, p, q)
        for t in range(draws):
            g = random_group_element(pair, seed=rng.randrange(2**63), height=3)
            if fam == "gl":
                a = RatMatrix(
                    [[Fraction(rng.randint(-5, 5)) for _ in range(q)] for _ in range(p)]
                )
                if rank(act_mpq(pair, g, a)) != rank(a):
                    failures.append((fam, p, q, t))
            else:
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in pair.basis_minus]
                x = lincomb(coeffs, pair.basis_minus, pair.n, pair.n)
                y = act(pair, g, x)
                lhs = y.submatrix(0, p, p, pair.n)
                rhs = act_mpq(pair, g, x.submatrix(0, p, p, pair.n))
                if not in_eigenspace(pair, y, -1) or lhs != rhs:
                    failures.append((fam, p, q, t))
    report_line(
        capfd, 6, "matrix-space equivariance / GL rank invariance", failures,
        f"{draws} draws/case",
    )
    assert not failures


def test_criterion_7_separation(capfd):
    t0 = time.time()
    failures = []
    points = 10
    for fam, p, q in CASES:
        case = build_case(fam, p, q)
        if (fam, p, q) == DEGENERATE:
            continue
        rng = case_rng("jac", fam, p, q)
        for t in range(points):
            coords = rand_coords(rng, case.slc.dim)
            r = jacobian_rank_at(case.slc, coords)
            if r != case.pair.rank_theta:
                failures.append((fam, p, q, t, r))
    report_line(
        capfd, 7, "invariant separation (jacobian rank)", failures,
        f"{points} points/case, {time.time()-t0:.1f}s",
    )
    assert not failures


def test_criterion_8_report_determinism(capfd):
    args = ["report", "--gl-max", "3", "--o-max", "6", "--sp-max", "4",
            "--trials", "3", "--seed", "11"]

    def run(jobs):
        out, err = io.StringIO(), io.StringIO()
        code = main(args + ["--jobs", str(jobs)], out=out, err=err)
        return code, out.getvalue()

    code1, out1 = run(1)
    code2, out2 = run(1)
    code3, out3 = run(2)
    failures = []
    if out1 != out2:
        failures.append("rerun differs")
    if out1 != out3:
        failures.append("--jobs changes output")
    if code1 != code2 or code1 != code3:
        failures.append("exit codes differ")
    n_cases = json.loads(out1)["total"]
    report_line(capfd, 8, "certificate determinism", failures, f"{n_cases} cases x 3 runs")
    assert not failures
