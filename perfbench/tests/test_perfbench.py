"""Tests of the benchmark itself: inputs, tracer, self time, percentiles.

Run from the root of the repository with

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import misses
import run
import tracer
import workloads
from symslice import exact, nilpotent

SMALL = [("gl", 2, 1), ("o", 2, 2), ("sp", 2, 2)]
REPEATABLE = (".calls", ".max_rows", ".max_cols", ".max_bits", ".false", ".not_found")


def _requests(wl_cls, seed, workdir):
    wl = wl_cls()
    wl.cases = SMALL
    workdir.mkdir()
    return workloads.input_digest(
        wl.requests(seed, workloads.build_direct(SMALL), str(workdir))
    )


@pytest.mark.parametrize("wl_cls", [workloads.Certify, workloads.Canonicalize, workloads.Invert])
def test_input_digest_follows_the_seed(wl_cls, tmp_path):
    first = _requests(wl_cls, 5, tmp_path / "a")
    assert _requests(wl_cls, 5, tmp_path / "b") == first
    assert _requests(wl_cls, 6, tmp_path / "c") != first


def test_self_time_is_span_minus_children():
    # name, start, end, parent, op, outcome
    spans = [
        ("a", 0.0, 10.0, -1, 0, "ok"),
        ("b", 1.0, 3.0, 0, 0, "ok"),
        ("c", 1.5, 2.5, 1, 0, "ok"),
        ("b", 4.0, 7.0, 0, 0, "ok"),
        ("d", 12.0, 13.0, -1, 1, "ok"),
    ]
    assert tracer.self_times(spans) == [5.0, 1.0, 1.0, 3.0, 1.0]


def test_self_time_clips_children_to_the_span():
    spans = [("a", 0.0, 4.0, -1, 0, "ok"), ("b", 3.0, 6.0, 0, 0, "ok")]
    assert tracer.self_times(spans)[0] == 3.0


def test_percentile_refuses_p90_with_fewer_than_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert run.percentile(samples, 90) == 89.0
    assert run.percentile(samples, 50) == 49.0
    with pytest.raises(run.NotEnoughSamples):
        run.percentile(samples[:99], 90)
    with pytest.raises(run.NotEnoughSamples):
        run.percentile([], 50)


def _bindings():
    return {
        (m.__name__, attr): value
        for m in tracer._symslice_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_tracer_wraps_every_listed_function_and_restores_it():
    before = _bindings()
    mul = exact.RatMatrix.__dict__["__mul__"]
    with tracer.Tracer() as tr:
        wrapped = {
            getattr(v, "_perfbench_span")
            for v in _bindings().values()
            if hasattr(v, "_perfbench_span")
        }
        wrapped.add(exact.RatMatrix.__dict__["__mul__"]._perfbench_span)
        assert wrapped == set(tracer.span_names())
        assert nilpotent.kernel_basis is exact.kernel_basis
        with pytest.raises(RuntimeError):
            tracer.assert_untraced()
        exact.RatMatrix.identity(2) * exact.RatMatrix.identity(2)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert exact.RatMatrix.__dict__["__mul__"] is mul
    tracer.assert_untraced()
    assert [s[0] for s in tr.spans] == ["exact.RatMatrix.__mul__"]


def test_tracer_restores_after_an_exception():
    with pytest.raises(ValueError):
        with tracer.Tracer():
            exact.inverse(exact.RatMatrix.zeros(2, 2))
    tracer.assert_untraced()


def test_timed_run_refuses_to_start_while_traced(tmp_path):
    wl = workloads.Certify()
    wl.cases = SMALL[:1]
    with tracer.Tracer():
        with pytest.raises(RuntimeError, match="still wrapped"):
            run.run_untraced(wl, 1, 0.0, str(tmp_path))
    tracer.assert_untraced()


def test_same_seed_repeats_certificates_and_counts(tmp_path):
    def once():
        wl = workloads.Certify()
        wl.cases = SMALL
        _, failed, layer, _ = run.run_traced(wl, 3, str(tmp_path), None)
        counts = {k: v for k, v in layer.items() if k.endswith(REPEATABLE)}
        return failed, wl.digest(), counts

    first = once()
    assert first[2]["cli.make_certificate.calls"] == run.TRACE_OPS["certify"]
    assert first[2]["exact.kernel_basis.max_rows"] > 0
    assert once() == first


def test_exits_nonzero_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_misses_reports_no_miss_at_the_workload_height(capsys):
    assert misses.main(["--heights", "10", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.startswith(
        f"height 10: 0/{len(workloads.Invert.cases)} NotFound"
    )
