import functools
import io
import json
import logging
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from symslice import cli
from symslice.cli import main, make_certificate, report_cases
from symslice.exact import MAX_DIGITS, matrix_from_text, matrix_to_text, RatMatrix
from symslice.pairs import MAX_SIZE
from symslice.slice import invariants, invariants_to_json, slice_point


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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
    solve = cli.graded_solve

    def shifted(slc, target):
        first, *rest = solve(slc, target)
        return [first + 1, *rest]

    monkeypatch.setattr(cli, "graded_solve", shifted)
    for case in [("gl", 2, 2), ("o", 3, 3), ("sp", 4, 2)]:
        cert = make_certificate(*case, seed=1, trials=5)
        checks = dict(cert["checks"])
        assert not checks.pop("roundtrip") and not checks.pop("invariant_conjugation")
        assert all(checks.values())
        assert cert["roundtrip_passes"] == 0
        assert not cert["passing"]


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

    def map(self, fn, tasks):
        return map(fn, tasks)


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
    assert run_cli(argv)[0] == 0  # builds the slice's inversion tables
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
        env=dict(os.environ, PYTHONINTMAXSTRDIGITS="0"),
    )
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InputError" and f"more than {MAX_DIGITS} digits" in err["message"]


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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passing"] is True


def test_debug_log_names_the_regularity_path_and_leaves_certificates_unchanged():
    argv = [sys.executable, "-m", "symslice", "verify", "--family", "o",
            "--p", "3", "--q", "3", "--trials", "2"]
    runs = {}
    for level in ("error", "debug"):
        env = dict(os.environ, KS_LOG=level)
        runs[level] = subprocess.run(argv, capture_output=True, timeout=300, env=env)
        assert runs[level].returncode == 0, runs[level].stderr
    assert runs["debug"].stdout == runs["error"].stdout
    assert b"regular by mod-p certificate: ad system" in runs["debug"].stderr
    assert runs["error"].stderr == b""


def test_negative_trials_exit_2():
    for argv in (
        ["verify", "--family", "gl", "--p", "1", "--q", "1", "--trials", "-1"],
        ["report", "--gl-max", "1", "--trials", "-3"],
    ):
        code, out, _ = run_cli(argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"


def test_runs_without_numpy(tmp_path):
    from symslice.cli import build_case
    from symslice.slice import invariants, invariants_to_json, slice_point

    case = build_case("gl", 2, 2)
    x = slice_point(case.slc, [Fraction(3), Fraction(-7, 2)])
    inv = tmp_path / "inv.json"
    inv.write_text(invariants_to_json(invariants(case.pair, x)))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import symslice\n"
        "from symslice.cli import main\n"
        "sys.exit(main(['slice-rep', '--family', 'gl', '--p', '2', '--q', '2',"
        " '--invariants', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(inv)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert matrix_from_text(proc.stdout) == x


def test_ks_log_is_read_on_every_in_process_call(monkeypatch):
    root = logging.getLogger()
    level, handlers = root.level, list(root.handlers)
    argv = ["verify", "--family", "sp", "--p", "3", "--q", "2"]
    try:
        monkeypatch.setenv("KS_LOG", "error")
        assert run_cli(argv)[0] == 2
        assert root.level == logging.ERROR
        installed = list(root.handlers)
        monkeypatch.setenv("KS_LOG", "debug")
        assert run_cli(argv)[0] == 2
        assert root.level == logging.DEBUG
        assert root.handlers == installed
    finally:
        root.setLevel(level)
        root.handlers[:] = handlers


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
