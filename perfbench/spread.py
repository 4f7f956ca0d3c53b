"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads certify invert --seeds 1 2 3 4 5
    python3 perfbench/spread.py --summary perfbench/spread.json

Runs `perfbench/run.py --trace 0` once per seed and workload, one at a
time, each in a fresh process, and prints per metric the median and the
interquartile range as a share of the median (the quartiles that
`statistics.quantiles(values, n=4)` gives), next to the metric's bound
from BENCHMARK.json.  A spread at or above a third of the bound is
flagged, except for setup_s, whose spread has no limit.  `--summary`
writes every value, quartile and spread as JSON (perfbench/spread.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def _notes(lines) -> dict:
    """Numeric `<workload> note <name> = <value>` lines of a run."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[1] == "note" and parts[3] == "=":
            try:
                out[parts[2]] = float(parts[4])
            except ValueError:
                pass
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", help="append every run's result here as JSON lines")
    parser.add_argument("--summary", help="write values, quartiles and spreads here as JSON")
    args = parser.parse_args(argv)
    summary = {
        "what": f"seeds {args.seeds[0]}-{args.seeds[-1]} per workload, --trace 0, "
                f"--seconds {args.seconds}, one run at a time",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    flagged = 0
    for wl in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["notes"] = _notes(lines[:-1])
            runs.append(result)
            walls.append(round(wall, 2))
            print(f"{wl} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": wl, "seed": seed, "wall_s": wall,
                                         **result}) + "\n")
        doc = summary["workloads"][wl] = {
            "seeds": args.seeds, "run_wall_s": walls, "metrics": {}, "raw_notes": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            doc["metrics"][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                    "spread": rel, "bound": bound}
            flag = ""
            if name != "setup_s" and rel >= bound / 3:
                flag = "  <-- at or above a third of the bound"
                flagged += 1
            print(f"{wl:<13} {name:<12} median {med:.6g}  spread {rel:.4f}  bound {bound}{flag}")
        for name in sorted(runs[0]["notes"]):
            if name.startswith("raw_") or name == "reference_ms":
                med, rel = spread([r["notes"][name] for r in runs])
                doc["raw_notes"][name] = {"median": med, "spread": rel}
                print(f"{wl:<13} {name:<14} median {med:.6g}  spread {rel:.4f}  (note)")
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
