"""symslice benchmark: one workload per process, exact checks, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--out FILE]

`--trace 0` measures the end-to-end metrics: the set-up, then a closed
loop that makes one full pass over the seeded request list and goes on
until `--seconds` have passed.  `--trace 1` runs a sample of the request
list with its set-up once untraced and once under the span tracer, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it name every metric with its unit.
`--workload all` runs every workload in both modes, each in a fresh
process.  perfbench/README.md says what each metric means and which
layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Single-threaded: numpy's BLAS pool reads these at import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402

try:
    import workloads  # imports symslice from ROOT/src

    if not Path(workloads.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"symslice was found at {workloads.cli.__file__}, not in src/")
except ImportError as _exc:
    workloads = None
    IMPORT_ERROR = _exc

MIN_REQUESTS = 100  # op_p90_ms needs ten samples beyond it
SETUP_REPEATS = 3
WORKLOADS = ("certify", "canonicalize", "invert")
TRACE_OPS = {"certify": 15, "canonicalize": 50, "invert": 42}  # every round, case and kind


class NotEnoughSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def percentile(samples, pct: int) -> float:
    """Nearest-rank pct-th percentile; refused unless ten samples lie above it."""
    xs = sorted(samples)
    n = len(xs)
    k = max(0, -(-pct * n // 100) - 1)  # ceil(pct * n / 100) - 1, in integers
    if n - k - 1 < 10:
        raise NotEnoughSamples(f"p{pct} of {n} samples has {max(n - k - 1, 0)} beyond it")
    return xs[k]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(wl, probe):
    """Cold set-up SETUP_REPEATS times, case by case; the last pass goes
    through build_case and must rebuild exactly what the first built.
    Returns the slices and the median set-up time, scaled and raw."""
    clock = time.perf_counter
    passes = []
    for r in range(SETUP_REPEATS):
        build = workloads.build_cached if r == SETUP_REPEATS - 1 else workloads.build_direct
        slices, spans = {}, []
        for case in wl.cases:
            probe.maybe_sample()
            t0 = clock()
            slices.update(build([case]))
            spans.append((t0, clock()))
        passes.append((slices, spans))
    probe.sample()
    first, last = passes[0][0], passes[-1][0]
    for case in wl.cases:
        if first[case].slice_basis != last[case].slice_basis:
            raise workloads.WrongAnswer(f"set-up of {case} is not deterministic")
    scaled = [sum(probe.scaled(t0, t1) for t0, t1 in spans) for _, spans in passes]
    raw = [sum(t1 - t0 for t0, t1 in spans) for _, spans in passes]
    return last, statistics.median(scaled), statistics.median(raw)


def run_untraced(wl, seed, seconds, workdir):
    """One full pass over the request list, then more until `seconds` are up.

    Every time is scaled to the reference speed (see speed.py), and a
    request's latency is the median of its executions' scaled times: the
    least would favour the executions whose scale happened to be
    overestimated, and how far it does so changes from run to run.
    """
    tracer.assert_untraced()
    probe = speed.SpeedProbe()
    slices, setup_s, setup_raw_s = _setup(wl, probe)
    requests = wl.requests(seed, slices, workdir)
    n = len(requests)
    if n < MIN_REQUESTS:
        raise ValueError(f"{wl.name} has {n} requests, op_p90_ms needs {MIN_REQUESTS}")
    ok = [None] * n
    spans = []  # (request, start, end)
    failed = 0
    clock = time.perf_counter
    start = clock()
    runs = 0
    while runs < n or clock() - start < seconds:
        i = runs % n
        probe.maybe_sample()
        t0 = clock()
        good = wl.op(i, requests[i])
        spans.append((i, t0, clock()))
        if ok[i] is None:
            ok[i] = good
        elif ok[i] != good:
            raise workloads.WrongAnswer(f"request {i} changed outcome between passes")
        failed += not good
        runs += 1
    wall = clock() - start
    probe.sample()
    scaled_runs = [[] for _ in range(n)]
    raw_runs = [[] for _ in range(n)]
    for i, t0, t1 in spans:
        scaled_runs[i].append(probe.scaled(t0, t1))
        raw_runs[i].append(t1 - t0)
    lat = [statistics.median(ts) for ts in scaled_runs]
    raw = [statistics.median(ts) for ts in raw_runs]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(sum(ok) / sum(lat), "1/s"),
        "op_p50_ms": _metric(percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": _metric(percentile(lat, 90) * 1e3, "ms"),
        "ok_frac": _metric(sum(ok) / n, "fraction"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    notes = {
        "requests": n,
        "fail_frac": 1 - sum(ok) / n,
        "executions": runs,
        "wall_s": wall,
        "reference_ms": probe.median_cost() * 1e3,
        "raw_setup_s": setup_raw_s,
        "raw_ops_per_s": sum(ok) / sum(raw),
        "raw_op_p50_ms": percentile(raw, 50) * 1e3,
        "raw_op_p90_ms": percentile(raw, 90) * 1e3,
        "input_sha256": workloads.input_digest(requests),
    }
    return runs, failed, metrics, notes


def _timed_pass(wl, requests, order, probe, tr=None):
    """Cold set-up plus one pass over `order`; returns (seconds at reference
    speed, raw seconds, latencies, failed).  With a tracer, spans carry
    the op id."""
    probe.sample()
    start = time.perf_counter()
    if tr is not None:
        tr.op = "setup"
    workloads.build_direct(wl.cases)
    lat, ok = [], 0
    for i in order:
        probe.maybe_sample()
        if tr is not None:
            tr.op = i
        t0 = time.perf_counter()
        ok += wl.op(i, requests[i])
        lat.append(time.perf_counter() - t0)
    end = time.perf_counter()
    probe.sample()
    return probe.scaled(start, end), end - start, lat, len(lat) - ok


def run_traced(wl, seed, workdir, spans_out):
    """Every (n / TRACE_OPS)-th request with the set-up, untraced and then
    traced; per-layer metrics come from the traced pass."""
    slices = workloads.build_cached(wl.cases)
    requests = wl.requests(seed, slices, workdir)
    k = TRACE_OPS[wl.name]
    order = range(0, len(requests), max(len(requests) // k, 1))[:k]  # spans every round
    probe = speed.SpeedProbe()

    tracer.assert_untraced()
    untraced_s, *_ = _timed_pass(wl, requests, order, probe)
    tr = tracer.Tracer()
    with tr:
        traced_s, traced_raw_s, lat, failed = _timed_pass(wl, requests, order, probe, tr)
    tracer.assert_untraced()

    layer = tr.layer_metrics()
    speed_factor = traced_s / traced_raw_s  # self times at reference speed, too
    for name in layer:
        if name.endswith(".self_s"):
            layer[name] *= speed_factor
    op_s = sum(lat)
    for name in ("nilpotent.is_relatively_regular", "slice.invert_on_slice"):
        layer[f"{name}.op_share"] = tr.inclusive_s(name) / op_s
    layer["trace.untraced_s"] = untraced_s
    layer["trace.traced_s"] = traced_s
    layer["trace.overhead_s"] = traced_s - untraced_s
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        tr.write_spans(spans_out)
    notes = {
        "ops": len(lat),
        "spans": len(tr.spans),
        "input_sha256": workloads.input_digest(requests),
    }
    return len(lat), failed, layer, notes


def load_metric_units():
    """Per-layer metric names and units as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".op_share"):
        return "fraction"
    return "count"


def run_one(args) -> int:
    if workloads is None:
        print(f"perfbench: cannot import symslice from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.trace:
            attempted, failed, layer, notes = run_traced(wl, args.seed, workdir, spans)
            for name in sorted(layer):
                print(f"{args.workload} {name} = {layer[name]!r} {per_layer_unit(name)}",
                      file=sys.stderr)
            metrics = {
                name: _metric(layer[name], unit) for name, unit in load_metric_units().items()
            }
        else:
            attempted, failed, metrics, notes = run_untraced(
                wl, args.seed, args.seconds, workdir
            )
    except workloads.WrongAnswer as exc:
        print(f"perfbench: wrong answer, run aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, value in notes.items():
        print(f"{args.workload} note {name} = {value!r}")
    if args.workload == "certify":
        print(f"certify certificate_sha256 = {wl.digest()}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _versions() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = None
    return info


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"perfbench: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(lines[-1])
            results[name][f"trace{trace}_log"] = lines[:-1] + proc.stderr.splitlines()
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds, **_versions(), "workloads": results}
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all, write the results here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
