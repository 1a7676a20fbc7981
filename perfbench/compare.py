#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base .perfbench_out/a.json ... \\
                                 --new .perfbench_out/b.json ...

Each file is one run's record as ``run.py`` writes it.  The medians of
each side are printed with the relative change and, for end-to-end
metrics, the bound from BENCHMARK.json.  Files from different lattice
backends, workloads or trace modes are refused: the compiled kernels
change kernel times by one to two orders of magnitude.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, type=Path)
    ap.add_argument("--new", nargs="+", required=True, type=Path)
    args = ap.parse_args(argv)
    runs = {side: [json.loads(p.read_text()) for p in getattr(args, side)]
            for side in ("base", "new")}
    every = runs["base"] + runs["new"]
    for key in ("backend", "workload", "trace"):
        seen = {str(r["stamp"][key]) for r in every}
        if len(seen) > 1:
            print(f"compare: refusing to mix {key} values {sorted(seen)}",
                  file=sys.stderr)
            return 2
    bounds = {m["name"]: m["bound"]
              for m in json.loads(MANIFEST.read_text())["end_to_end"]}
    print(f"{'metric':48s} {'base':>12s} {'new':>12s} {'change':>8s} bound")
    for name, first in every[0]["result"]["metrics"].items():
        base, new = (statistics.median(r["result"]["metrics"][name]["value"]
                                       for r in runs[side])
                     for side in ("base", "new"))
        change = f"{(new - base) / base:+.1%}" if base else "n/a"
        print(f"{name:48s} {base:12.6g} {new:12.6g} {change:>8s} "
              f"{bounds.get(name, '')} {first['unit']}")
    for side, rs in runs.items():
        print(f"{side}: {sum(r['result']['failed'] for r in rs)} of "
              f"{sum(r['result']['attempted'] for r in rs)} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
