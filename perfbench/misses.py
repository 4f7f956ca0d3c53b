"""How often slice inversion gives up, by coordinate height.

    python3 perfbench/misses.py --heights 100 300 1000 --seeds 10

For each height and seed, draws one slice point per case (the 38 grid
cases with p + q <= 10, numerators up to the height, denominators up to
10, as the invert workload does), computes its invariants and calls
`invert_on_slice` on them.  Prints per height the share of targets that
raised NotFound, the cases they fell on, and the mean time of a success
and of a miss.  A returned answer that differs from the slice point is
a wrong answer and stops the script with exit 1.

The timed invert workload keeps to heights where no target was missed
(a timed run must not fail ops), so this is where the misses at larger
heights are measured.
"""

from __future__ import annotations

import argparse
import collections
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from symslice import slice as slicing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--heights", nargs="+", type=int, default=[100, 300, 1000])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per height")
    args = parser.parse_args(argv)

    cases = workloads.Invert.cases
    slices = workloads.build_cached(cases)
    for height in args.heights:
        hit_s, miss_s, missed = [], [], collections.Counter()
        for seed in range(1, args.seeds + 1):
            rng = workloads.seeded_rng(seed, f"misses-{height}")
            for case in cases:
                slc = slices[case]
                coords = workloads._coords(rng, slc.dim, height)
                target = slicing.invariants(slc.pair, slicing.slice_point(slc, coords))
                t0 = time.perf_counter()
                try:
                    got = slicing.invert_on_slice(slc, target)
                except slicing.NotFound:
                    miss_s.append(time.perf_counter() - t0)
                    missed["%s(%d,%d)" % case] += 1
                    continue
                hit_s.append(time.perf_counter() - t0)
                if list(got) != coords:
                    print(f"wrong answer on {case} at height {height}, seed {seed}",
                          file=sys.stderr)
                    return 1
        total = len(hit_s) + len(miss_s)
        line = f"height {height}: {len(miss_s)}/{total} NotFound"
        line += f", success {statistics.mean(hit_s) * 1e3:.1f} ms" if hit_s else ""
        line += f", miss {statistics.mean(miss_s) * 1e3:.1f} ms" if miss_s else ""
        print(line)
        for case, count in sorted(missed.items()):
            print(f"  {case}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
