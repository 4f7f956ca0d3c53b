import functools
import io
import json
import logging
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from symslice import cli
from symslice.cli import main, make_certificate, report_cases
from symslice.exact import MAX_DIGITS, RatMatrix, block_antidiag, matrix_from_text, matrix_to_text
from symslice.matspace import act, random_group_element
from symslice.pairs import MAX_SIZE, Family
from symslice.slice import (
    invariants,
    invariants_from_json,
    invariants_to_json,
    invert_on_slice,
    slice_point,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def child_env(**extra):
    """The environment with src first on PYTHONPATH, so that a child
    interpreter imports this checkout however pytest was started."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_verify_gl21_passes():
    code, out, _ = run_cli(
        ["verify", "--family", "gl", "--p", "2", "--q", "1", "--trials", "5"]
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["passing"] is True
    assert cert["centralizer_dim"] == 1
    assert cert["rank_theta"] == 1
    assert cert["roundtrip_passes"] == cert["roundtrip_trials"] == 5
    names = [name for name, _ in cert["checks"]]
    for required in [
        "e_in_g_minus",
        "e_nilpotent",
        "centralizer_dim_eq_rank",
        "closed_form_match",
        "triple_relations",
        "f_regular",
        "h_in_g_plus",
        "equivariance",
        "invariant_conjugation",
        "roundtrip",
    ]:
        assert required in names


def test_verify_bad_parity_exits_2():
    code, out, _ = run_cli(["verify", "--family", "sp", "--p", "3", "--q", "2"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConstraintViolation"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "gl", "--p", "1000", "--q", "1000"],
        ["report", "--gl-max", "17", "--trials", "0"],
        ["report", "--o-max", "33", "--trials", "0"],
        ["report", "--sp-max", "10000000000", "--trials", "0"],
        ["slice-rep", "--family", "o", "--p", "17", "--q", "16", "--invariants", "missing.json"],
        ["canonicalize", "--family", "sp", "--p", "18", "--q", "16", "--matrix", "missing.txt"],
    ],
)
def test_oversized_pair_exits_2_at_once(argv):
    t0 = time.perf_counter()
    code, out, _ = run_cli(argv)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ConstraintViolation"
    assert f"p + q must be at most {MAX_SIZE}" in error["message"]


def test_verify_orth33_passes():
    code, out, _ = run_cli(
        ["verify", "--family", "o", "--p", "3", "--q", "3", "--trials", "5"]
    )
    assert code == 0
    assert json.loads(out)["centralizer_dim"] == 3


def test_verify_largest_square_gl_passes():
    # MAX_SIZE is honest: the largest gl(q, q) runs the whole pipeline,
    # a first slice inversion included, within README's time budget
    code, out, _ = run_cli(["verify", "--family", "gl", "--p", "16", "--q", "16", "--trials", "0"])
    assert code == 0
    assert json.loads(out)["passing"] is True


def test_verify_degenerate_orth11_fails_honestly():
    code, out, _ = run_cli(
        ["verify", "--family", "o", "--p", "1", "--q", "1", "--trials", "3"]
    )
    assert code == 1
    cert = json.loads(out)
    checks = dict((name, ok) for name, ok in cert["checks"])
    assert checks["e_in_g_minus"] and checks["centralizer_dim_eq_rank"]
    assert not checks["triple_relations"]
    assert cert["triple_f"] is None
    assert cert["passing"] is False


def test_certificate_is_deterministic():
    a = make_certificate("gl", 2, 2, seed=7, trials=4)
    b = make_certificate("gl", 2, 2, seed=7, trials=4)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_certificate_fails_when_the_graded_solve_misses(monkeypatch):
    # the round trips compare the candidate with the generating coordinates,
    # so a candidate off by one in a coordinate fails both inversion checks
    solve = cli._graded_solve_pairs

    def shifted(slc, target):
        (first, *rest), den = solve(slc, target)
        return [first + den, *rest], den

    monkeypatch.setattr(cli, "_graded_solve_pairs", shifted)
    for case in [("gl", 2, 2), ("o", 3, 3), ("sp", 4, 2)]:
        cert = make_certificate(*case, seed=1, trials=5)
        checks = dict(cert["checks"])
        assert not checks.pop("roundtrip") and not checks.pop("invariant_conjugation")
        assert all(checks.values())
        assert cert["roundtrip_passes"] == 0
        assert not cert["passing"]


# The inversion checks as they read before they ran on integer pairs:
# Fraction coordinates, public invariants and the Fraction-per-entry
# graded solve of tests/reference.py.
def _fraction_coords(rng, dim):
    return [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(dim)]


def _fraction_roundtrip(slc, trials, rng):
    passes = 0
    for _ in range(trials):
        coords = _fraction_coords(rng, slc.dim)
        target = invariants(slc.pair, slice_point(slc, coords))
        passes += reference.graded_solve(slc, target) == coords
    return passes


def _fraction_conjugation(pair, slc, rng):
    for _ in range(cli._CONJUGATION_DRAWS):
        coords = _fraction_coords(rng, slc.dim)
        x = slice_point(slc, coords)
        g = random_group_element(pair, seed=rng.randrange(2**63), height=cli._DRAW_HEIGHT)
        inv_y = invariants(pair, act(pair, g, x))
        if inv_y != invariants(pair, x) or reference.graded_solve(slc, inv_y) != coords:
            return False
    return True


SMALL_CASES = [c for c in report_cases(8, 16, 8) if c[1] + c[2] <= 6 and c != ("o", 1, 1)]


@pytest.mark.parametrize("miss", [False, True], ids=["exact", "missing"])
@pytest.mark.parametrize("seed", range(5))
def test_the_inversion_checks_agree_with_their_fraction_versions(seed, miss, monkeypatch):
    if miss:
        # both solves miss by one in the first coordinate wherever it is
        # negative, so that only some round trips pass
        core, ref = cli._graded_solve_pairs, reference.graded_solve

        def core_missing(slc, target):
            (first, *rest), den = core(slc, target)
            return [first + den * (first < 0), *rest], den

        def ref_missing(slc, target):
            first, *rest = ref(slc, target)
            return [first + (first < 0), *rest]

        monkeypatch.setattr(cli, "_graded_solve_pairs", core_missing)
        monkeypatch.setattr(reference, "graded_solve", ref_missing)
    passes = []
    for fam, p, q in SMALL_CASES:
        slc = cli.build_case(fam, p, q).slc
        for tag, ours, theirs in [
            ("roundtrip", cli._roundtrip, _fraction_roundtrip),
            ("conj", cli._check_invariant_conjugation, _fraction_conjugation),
        ]:
            a, b = (cli._sub_rng(seed, Family(fam), p, q, tag) for _ in range(2))
            args = (slc, 10) if tag == "roundtrip" else (slc.pair, slc)
            got = ours(*args, a)
            assert got == theirs(*args, b), (fam, p, q, tag)
            passes.append(int(got) * (10 if tag == "conj" else 1))
            # both read the same stretch of the stream
            assert a.random() == b.random()
        # the integer draw is the Fraction draw of the same stream
        a, b = random.Random(seed), random.Random(seed)
        num, den = cli._random_coords(a, slc.dim)
        assert [Fraction(x, den) for x in num] == _fraction_coords(b, slc.dim)
    # out of 10, a conjugation check counting 0 or 10
    assert all(k == 10 for k in passes) if not miss else any(0 < k < 10 for k in passes)


def test_certificate_fails_when_the_block_action_is_broken(monkeypatch):
    # g1 A without the g2^-1 keeps the rank of A, so only the identity
    # (upper-right block of g x g^-1) = g1 A g2^-1 sees it, on every family
    def broken(pair, ge, a):
        return ge.g.submatrix(0, pair.p, 0, pair.p) * a

    monkeypatch.setattr(cli, "act_mpq", broken)
    for case in [("gl", 3, 2), ("gl", 4, 4), ("o", 3, 3), ("sp", 4, 2)]:
        checks = dict(make_certificate(*case, seed=1, trials=2)["checks"])
        assert not checks.pop("equivariance")
        assert all(checks.values())


def test_gl_equivariance_sees_the_lower_left_block(monkeypatch):
    # on gl the lower-left block B is free and the upper-right identity
    # drops it, so only the check g2 B g1^-1 sees a broken B
    real = cli.act

    def broken(pair, ge, x):
        y = real(pair, ge, x)
        b = y.submatrix(pair.p, pair.n, 0, pair.p)
        return y + block_antidiag(RatMatrix.zeros(pair.p, pair.q), b)

    monkeypatch.setattr(cli, "act", broken)
    for case in [("gl", 3, 2), ("gl", 4, 4)]:
        checks = dict(make_certificate(*case, seed=1, trials=2)["checks"])
        assert not checks["equivariance"], case


def test_a_conjugate_outside_g_minus_is_a_failed_check(monkeypatch):
    # g x g^-1 + I is in no g(-1): both conjugation checks read False,
    # and verify and report still write their JSON, exiting 1
    real = cli.act

    def shifted(pair, ge, x):
        return real(pair, ge, x) + RatMatrix.identity(pair.n)

    monkeypatch.setattr(cli, "act", shifted)
    for case in [("gl", 3, 2), ("o", 3, 3), ("sp", 4, 2)]:
        cert = make_certificate(*case, seed=1, trials=2)
        checks = dict(cert["checks"])
        assert not checks.pop("equivariance") and not checks.pop("invariant_conjugation")
        assert all(checks.values()), case
        assert not cert["passing"]
    code, out, _ = run_cli(["verify", "--family", "gl", "--p", "2", "--q", "1", "--trials", "1"])
    assert code == 1
    assert json.loads(out)["passing"] is False
    code, out, _ = run_cli(["report", "--gl-max", "2", "--trials", "1"])
    assert code == 1
    assert json.loads(out)["failed"] == [["gl", 1, 1], ["gl", 2, 1], ["gl", 2, 2]]


def test_certificate_fails_when_the_centralizer_has_the_wrong_span(monkeypatch):
    # the right count with one basis element outside z(e): only the
    # closed-form oracle sees it
    from symslice import nilpotent
    from symslice.pairs import bracket

    real = nilpotent.centralizer

    def swapped(pair, x):
        outside = next(b for b in pair.basis_minus if not bracket(x, b).is_zero())
        return [outside] + real(pair, x)[1:]

    monkeypatch.setattr(cli, "_case", functools.lru_cache(maxsize=None)(cli._case.__wrapped__))
    monkeypatch.setattr(nilpotent, "centralizer", swapped)
    for case in [("gl", 3, 2), ("o", 3, 3), ("o", 4, 4), ("sp", 4, 2)]:
        checks = dict(make_certificate(*case, seed=1, trials=2)["checks"])
        assert not checks["closed_form_match"], case
        assert checks["centralizer_dim_eq_rank"], case


def test_a_case_computes_z_e_once(monkeypatch):
    # the slice takes the witness's centralizer basis, not a second kernel
    from symslice import slice as slicing

    def second_kernel(pair, x):
        raise AssertionError("z(e) computed a second time")

    monkeypatch.setattr(slicing, "centralizer", second_kernel)
    for case in [("gl", 3, 2), ("o", 4, 4), ("sp", 4, 2)]:
        built = cli._case.__wrapped__(*case)
        assert built.slc.slice_basis == built.witness.centralizer_basis


def test_report_case_enumeration():
    assert len(report_cases(4, 0, 0)) == 10
    assert report_cases(0, 3, 0) == [("o", 1, 1), ("o", 2, 1)]
    assert report_cases(0, 0, 4) == [("sp", 2, 2), ("sp", 4, 2), ("sp", 4, 4)]
    assert report_cases(0, 0, 0) == []


def test_report_runs_and_is_deterministic(tmp_path):
    args = ["report", "--gl-max", "2", "--trials", "2", "--seed", "3"]
    code1, out1, err1 = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    summary = json.loads(out1)
    assert summary["total"] == 3 and summary["passed"] == 3
    assert "pass" in err1


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class _PoolUnavailable:
    """Stands in for ProcessPoolExecutor on a platform that cannot start one."""

    def __init__(self, max_workers):
        raise OSError("no semaphores")


def test_report_falls_back_to_sequential_when_no_pool_starts(monkeypatch):
    args = ["report", "--gl-max", "2", "--o-max", "3", "--trials", "1"]
    code1, out1, err1 = run_cli([*args, "--jobs", "1"])
    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", _PoolUnavailable)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code2, out2, err2 = run_cli([*args, "--jobs", "2"])
    assert code2 == code1 == 1  # o(1,1) has no triple
    assert out2 == out1
    first, rest = err2.split("\n", 1)
    assert first == "process pool unavailable (no semaphores); running sequentially"
    assert rest == err1


@pytest.mark.parametrize("cores,expected", [(8, [3]), (2, [2]), (None, [])])
def test_report_jobs_clamped_to_tasks_and_cores(monkeypatch, cores, expected):
    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    code, out, _ = run_cli(["report", "--gl-max", "2", "--trials", "1", "--jobs", "64"])
    assert code == 0
    assert json.loads(out)["total"] == 3
    assert _InProcessPool.sizes == expected


def test_report_empty_range_exits_0():
    code, out, _ = run_cli(["report"])
    assert code == 0
    assert json.loads(out)["total"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "gl", "--p", "1", "--q", "1", "--trials", "0"],
        ["report", "--gl-max", "1", "--trials", "0"],
    ],
)
def test_unwritable_out_path_exits_2(tmp_path, argv):
    path = tmp_path / "missing" / "out.json"
    code, out, _ = run_cli([*argv, "--out", str(path)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert str(path) in error["message"]
    assert not path.exists()


def test_slice_rep_gl11(tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text('["-5", "0"]')
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 0
    assert matrix_from_text(out) == RatMatrix([[0, 5], [1, 0]])


def test_slice_rep_reads_bare_numbers_exactly(tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text("[-0.12345678901234567890, 0]")
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 0
    a = Fraction("0.12345678901234567890")
    assert matrix_from_text(out) == RatMatrix([[0, a], [1, 0]])


@pytest.mark.parametrize("text", ["[NaN, 0]", "[Infinity, 0]", '["nan", "0"]', '["-inf", "0"]'])
def test_slice_rep_rejects_non_finite_exits_2(tmp_path, text):
    inv = tmp_path / "inv.json"
    inv.write_text(text)
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


def test_slice_rep_length_mismatch_exits_2(tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text('["-5", "0", "1"]')
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 2


def test_slice_rep_deeply_nested_json_exits_2(tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text("[" * 100_000 + "]" * 100_000)
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InputError" and "nested" in err["message"]


def test_slice_rep_unreachable_exits_3(tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text('["0", "1"]')
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "NotFound"


@pytest.mark.parametrize(
    "case, values, message",
    [
        (("gl", 3, 2), ["0", "1", "2", "-3", "0"], "c_2 must be 0"),
        (("o", 3, 3), ["4", "0", "1", "0", "2", "0", "2"], "c_0 must be -Pf^2"),
        (("sp", 4, 4), ["2", "0", "0", "0", "2", "0", "0", "0"], "P must be the square"),
    ],
    ids=["structural-zero", "pfaffian", "square"],
)
def test_slice_rep_names_the_broken_relation(tmp_path, case, values, message):
    fam, p, q = case
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps(values))
    code, out, _ = run_cli(
        ["slice-rep", "--family", fam, "--p", str(p), "--q", str(q), "--invariants", str(inv)]
    )
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "NotFound"
    assert err["message"].startswith(f"no slice point has these invariants: {message}")


def test_canonicalize_slice_point_returns_own_coords(tmp_path):
    from symslice.cli import build_case
    from symslice.slice import slice_point

    case = build_case("o", 3, 2)
    coords = [Fraction(2), Fraction(-1, 3)]
    x = slice_point(case.slc, coords)
    mat = tmp_path / "x.txt"
    mat.write_text(matrix_to_text(x))
    code, out, _ = run_cli(
        ["canonicalize", "--family", "o", "--p", "3", "--q", "2", "--matrix", str(mat)]
    )
    assert code == 0
    first, rest = out.split("\n", 1)
    assert json.loads(first) == ["2", "-1/3"]
    assert matrix_from_text(rest) == x


def test_canonicalize_checks_membership_once(tmp_path, monkeypatch):
    from symslice import pairs
    from symslice.cli import build_case
    from symslice.slice import slice_point

    case = build_case("o", 3, 2)
    mat = tmp_path / "x.txt"
    mat.write_text(matrix_to_text(slice_point(case.slc, [Fraction(5), Fraction(1, 2)])))
    argv = ["canonicalize", "--family", "o", "--p", "3", "--q", "2", "--matrix", str(mat)]
    assert run_cli(argv)[0] == 0  # builds the case and its slice's graded blocks
    calls = []
    in_algebra = pairs.in_algebra
    monkeypatch.setattr(pairs, "in_algebra", lambda *a: calls.append(1) or in_algebra(*a))
    assert run_cli(argv)[0] == 0
    assert len(calls) == 1


def test_canonicalize_rejects_non_regular(tmp_path):
    mat = tmp_path / "zero.txt"
    mat.write_text(matrix_to_text(RatMatrix.zeros(3, 3)))
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "2", "--q", "1", "--matrix", str(mat)]
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "NotRegular"


def test_canonicalize_rejects_garbage_file(tmp_path):
    mat = tmp_path / "bad.txt"
    mat.write_text("not a matrix")
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "2", "--q", "1", "--matrix", str(mat)]
    )
    assert code == 2


def test_canonicalize_rejects_a_row_count_beyond_the_text_at_once(tmp_path):
    mat = tmp_path / "rows.txt"
    mat.write_text("9" * 4000 + " 0\n")
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "2", "--q", "1", "--matrix", str(mat)]
    )
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert "row count" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_canonicalize_rejects_non_finite_entry(tmp_path, entry):
    mat = tmp_path / "x.txt"
    mat.write_text(f"2 2\n0 {entry}\n1 0\n")
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "1", "--q", "1", "--matrix", str(mat)]
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InputError"


@pytest.mark.parametrize("entry", ["1e10000000", "-1E+10000000", "1e-10000000", "1e10001"])
def test_canonicalize_rejects_huge_exponent(tmp_path, entry):
    mat = tmp_path / "x.txt"
    mat.write_text(f"2 2\n0 {entry}\n1 0\n")
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "1", "--q", "1", "--matrix", str(mat)]
    )
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InputError" and "exponent" in err["message"]


@pytest.mark.parametrize(
    "text", ['[1e10000000, "0"]', '["1e10000000", "0"]', '[0, "-1e-10000000"]', '[1E10001, 0]']
)
def test_slice_rep_rejects_huge_exponent(tmp_path, text):
    inv = tmp_path / "inv.json"
    inv.write_text(text)
    code, out, _ = run_cli(
        ["slice-rep", "--family", "gl", "--p", "1", "--q", "1", "--invariants", str(inv)]
    )
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InputError" and "exponent" in err["message"]


@pytest.mark.parametrize(
    "command, text",
    [
        ("canonicalize", "2 2\n0 {big}\n1 0\n"),
        ("canonicalize", "2 2\n0 1/{big}\n1 0\n"),
        ("slice-rep", "[{big}, 0]"),
        ("slice-rep", '["{big}", 0]'),
    ],
)
def test_digit_bound_holds_without_the_interpreter_limit(tmp_path, command, text):
    # PYTHONINTMAXSTRDIGITS=0 lifts CPython's own limit on int-from-text
    path = tmp_path / "input"
    path.write_text(text.format(big="9" * 300_000))
    flag = "--matrix" if command == "canonicalize" else "--invariants"
    proc = subprocess.run(
        [sys.executable, "-m", "symslice", command, "--family", "gl", "--p", "1", "--q", "1",
         flag, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(PYTHONINTMAXSTRDIGITS="0"),
    )
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError" and f"more than {MAX_DIGITS} digits" in err["message"]


def test_outputs_beyond_the_interpreter_limit_are_written(tmp_path):
    # CPython refuses str() of an int of more than 4300 digits unless
    # PYTHONINTMAXSTRDIGITS says otherwise; the output writers lift it
    env = child_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)

    def run(command, p, q, flag, text):
        path = tmp_path / command
        path.write_text(text)
        return subprocess.run(
            [sys.executable, "-m", "symslice", command, "--family", "gl", "--p", str(p),
             "--q", str(q), flag, str(path)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    # slice-rep on gl(2, 2): the second coordinate has about 8000 digits
    values = json.dumps(["0", "0", "1" + "0" * 3999, "0"])
    proc = run("slice-rep", 2, 2, "--invariants", values)
    assert proc.returncode == 0, proc.stderr
    slc = cli.build_case("gl", 2, 2).slc
    coords = invert_on_slice(slc, invariants_from_json(values))
    assert proc.stdout == matrix_to_text(slice_point(slc, coords))
    # canonicalize on gl(1, 1): [[0, a], [b, 0]] has the one coordinate ab
    zeros = "0" * (MAX_DIGITS - 1)
    proc = run("canonicalize", 1, 1, "--matrix", f"2 2\n0 1{zeros}\n1{zeros} 0\n")
    assert proc.returncode == 0, proc.stderr
    big = "1" + zeros + zeros
    assert proc.stdout == f'["{big}"]\n2 2\n0 {big}\n1 0\n'


@pytest.mark.parametrize(
    "command, flag, text, code",
    [
        ("slice-rep", "--invariants", json.dumps(["0", "0", "1" + "0" * 999, "0"]), 0),
        ("canonicalize", "--matrix", "4 4\n0 0 1" + "0" * 999 + " 0\n" + "0 0 0 0\n" * 3, 4),
    ],
    ids=["slice-rep", "canonicalize"],
)
def test_input_outcome_does_not_depend_on_the_interpreter_limit(
    tmp_path, command, flag, text, code
):
    # 1000 digits: within MAX_DIGITS, beyond PYTHONINTMAXSTRDIGITS=640
    path = tmp_path / "input"
    path.write_text(text)
    procs = []
    for limit in (None, "640"):
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        procs.append(
            subprocess.run(
                [sys.executable, "-m", "symslice", command, "--family", "gl", "--p", "2",
                 "--q", "2", flag, str(path)],
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
        )
    assert [proc.returncode for proc in procs] == [code, code], procs[1].stdout
    assert procs[0].stdout == procs[1].stdout


def test_canonicalize_rejects_non_member(tmp_path):
    mat = tmp_path / "id.txt"
    mat.write_text(matrix_to_text(RatMatrix.identity(3)))
    code, out, _ = run_cli(
        ["canonicalize", "--family", "gl", "--p", "2", "--q", "1", "--matrix", str(mat)]
    )
    assert code == 2


def test_verify_out_file(tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        [
            "verify", "--family", "gl", "--p", "1", "--q", "1",
            "--trials", "2", "--out", str(target),
        ]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["passing"] is True


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "symslice", "verify", "--family", "gl",
         "--p", "1", "--q", "1", "--trials", "2"],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passing"] is True


def test_debug_log_names_the_regularity_path_and_leaves_certificates_unchanged():
    argv = [sys.executable, "-m", "symslice", "verify", "--family", "o",
            "--p", "3", "--q", "3", "--trials", "2"]
    runs = {}
    for level in ("error", "debug"):
        env = child_env(KS_LOG=level)
        runs[level] = subprocess.run(argv, capture_output=True, timeout=300, env=env)
        assert runs[level].returncode == 0, runs[level].stderr
    assert runs["debug"].stdout == runs["error"].stdout
    assert b"regular by Krylov-chain certificate: seeds " in runs["debug"].stderr
    assert runs["error"].stderr == b""


def test_output_bytes_are_the_same_at_every_log_level(tmp_path):
    # the kernel's debug line names the case, its size and the recurrence;
    # no level changes stdout or the certificate file
    argv = [sys.executable, "-m", "symslice", "verify", "--family", "sp",
            "--p", "4", "--q", "4", "--trials", "2"]
    outs, files, errs = set(), set(), {}
    for level in ("error", "info", "debug"):
        env = child_env(KS_LOG=level)
        run = subprocess.run(argv, capture_output=True, timeout=300, env=env)
        assert run.returncode == 0, run.stderr
        path = tmp_path / f"{level}.json"
        saved = subprocess.run([*argv, "--out", str(path)], capture_output=True, timeout=300, env=env)
        assert saved.returncode == 0 and saved.stdout == b""
        outs.add(run.stdout)
        files.add(path.read_bytes())
        errs[level] = run.stderr.decode()
    assert len(outs) == 1 and files == outs
    assert errs["error"] == errs["info"] == ""
    kernel = [line for line in errs["debug"].splitlines() if "slice kernel" in line]
    assert kernel == [
        "DEBUG:symslice.slice:slice kernel for (sp, 4, 4): 4 monomials, 3 terms, "
        "B A by the Hessenberg recurrence"
    ]


def test_negative_trials_exit_2():
    for argv in (
        ["verify", "--family", "gl", "--p", "1", "--q", "1", "--trials", "-1"],
        ["report", "--gl-max", "1", "--trials", "-3"],
    ):
        code, out, _ = run_cli(argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"


def test_runs_with_only_the_standard_library(tmp_path):
    # numpy is not a dependency; sympy and hypothesis are test-only
    from symslice.cli import build_case
    from symslice.slice import invariants, invariants_to_json, slice_point

    case = build_case("gl", 2, 2)
    x = slice_point(case.slc, [Fraction(3), Fraction(-7, 2)])
    inv = tmp_path / "inv.json"
    inv.write_text(invariants_to_json(invariants(case.pair, x)))
    script = (
        "import sys\n"
        "for name in ('numpy', 'sympy', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "import symslice\n"
        "from symslice.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argvs = [
        ["slice-rep", "--family", "gl", "--p", "2", "--q", "2", "--invariants", str(inv)],
        ["verify", "--family", "sp", "--p", "4", "--q", "2", "--trials", "2"],
    ]
    procs = [
        subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env(),
        )
        for argv in argvs
    ]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert matrix_from_text(procs[0].stdout) == x
    assert json.loads(procs[1].stdout)["passing"] is True


def test_ks_log_is_read_on_every_in_process_call(monkeypatch):
    # KS_LOG sets the package logger; an embedding program's root logger,
    # here at INFO, keeps its level
    root, package = logging.getLogger(), logging.getLogger("symslice")
    level, handlers, package_level = root.level, list(root.handlers), package.level
    argv = ["verify", "--family", "sp", "--p", "3", "--q", "2"]
    try:
        root.setLevel(logging.INFO)
        monkeypatch.setenv("KS_LOG", "error")
        assert run_cli(argv)[0] == 2
        assert package.level == logging.ERROR
        assert root.level == logging.INFO
        assert logging.getLogger("host").isEnabledFor(logging.INFO)
        installed = list(root.handlers)
        monkeypatch.setenv("KS_LOG", "debug")
        assert run_cli(argv)[0] == 2
        assert package.level == logging.DEBUG
        assert root.level == logging.INFO
        assert root.handlers == installed
    finally:
        root.setLevel(level)
        root.handlers[:] = handlers
        package.setLevel(package_level)


def test_argparse_exit_leaves_the_next_call_unchanged(tmp_path):
    case = cli.build_case("o", 3, 2)
    x = slice_point(case.slc, [Fraction(5, 2), Fraction(-1, 3)])
    inv = tmp_path / "inv.json"
    inv.write_text(invariants_to_json(invariants(case.pair, x)))
    good = ["slice-rep", "--family", "o", "--p", "3", "--q", "2", "--invariants", str(inv)]
    before = run_cli(good)
    assert before[0] == 0 and matrix_from_text(before[1]) == x
    for bad in (
        ["slice-rep", "--family", "o", "--p", "3", "--q", "two", "--invariants", str(inv)],
        ["slice-rep", "--family", "xx", "--p", "3", "--q", "2", "--invariants", str(inv)],
        ["slice-rep", "--family", "o", "--p", "3", "--q", "2"],
        ["verify", "--family", "o", "--p", "3", "--q", "2", "--trials", "many"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad, out=io.StringIO(), err=io.StringIO())
        assert exc.value.code == 2
    assert run_cli(good) == before


def test_requests_build_no_dense_pair_basis(tmp_path, monkeypatch):
    # a fresh case cache: no earlier test has touched these pairs' bases
    monkeypatch.setattr(cli, "_case", functools.lru_cache(maxsize=None)(cli._case.__wrapped__))
    for fam, p, q in (("gl", 2, 1), ("o", 3, 2), ("o", 2, 2), ("sp", 4, 2)):
        case = cli.build_case(fam, p, q)
        x = slice_point(case.slc, [Fraction(k - 1, 2) for k in range(case.slc.dim)])
        inv = tmp_path / f"{fam}{p}{q}.json"
        inv.write_text(invariants_to_json(invariants(case.pair, x)))
        mat = tmp_path / f"{fam}{p}{q}.txt"
        mat.write_text(matrix_to_text(x))
        args = ["--family", fam, "--p", str(p), "--q", str(q)]
        code, out, _ = run_cli(["slice-rep", *args, "--invariants", str(inv)])
        assert code == 0 and out == matrix_to_text(x)
        code, out, _ = run_cli(["canonicalize", *args, "--matrix", str(mat)])
        assert code == 0 and out.endswith(matrix_to_text(x))
        assert "basis_plus" not in case.pair.__dict__
        assert "basis_minus" not in case.pair.__dict__


@pytest.mark.parametrize("fam,p,q", [("gl", 16, 16), ("sp", 16, 16), ("gl", 16, 14)])
def test_canonicalize_decides_a_conjugated_16_point_by_krylov_chains(
    fam, p, q, tmp_path, monkeypatch
):
    # a conjugated slice point is certified regular from Krylov chains,
    # without the ad_x system, on every family: a cyclic vector exists on
    # gl(16,16) only, several chains are needed on sp(16,16) and gl(16,14)
    from symslice import nilpotent
    from symslice.matspace import act, random_group_element

    case = cli.build_case(fam, p, q)
    pinned = ["-3", "-1", "-1/3", "0", "1", "2/5", "7/3", "-3/4",
              "-2", "-1/2", "10", "1/4", "2", "3/2", "-9/7", "-1/2"][: case.slc.dim]
    x = slice_point(case.slc, [Fraction(c) for c in pinned])
    y = act(case.pair, random_group_element(case.pair, seed=16, height=3), x)
    mat = tmp_path / "y.txt"
    mat.write_text(matrix_to_text(y))
    calls = []
    ad_system = nilpotent._ad_system
    monkeypatch.setattr(nilpotent, "_ad_system", lambda *a: calls.append(a) or ad_system(*a))
    code, out, _ = run_cli(
        ["canonicalize", "--family", fam, "--p", str(p), "--q", str(q), "--matrix", str(mat)]
    )
    assert code == 0
    first, rest = out.split("\n", 1)
    assert json.loads(first) == pinned
    assert matrix_from_text(rest) == x
    assert calls == []
