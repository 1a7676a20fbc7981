"""Run the perfbench workloads on one checkout and keep the result.

    python3 benchmarks/bench.py --label change
    python3 benchmarks/bench.py --label parent --checkout ../fanokit-parent

Runs the checkout's own ``perfbench/run.py`` (this repository's by
default) unchanged on each workload its ``BENCHMARK.json`` lists, one
process per workload so that each ``peak_rss_mb`` is that workload's own
and not the largest heap of the workloads run before it.  Writes
``BENCH_<date>_<label>.json`` at the root of this repository, refusing
to overwrite one that exists: the line run.py prints for each workload,
the stamps of its runs (commit, Python, seed, seconds), the label and
the date.  run.py's defaults hold: seed 1, 35 seconds per workload.
Bench a before and after pair on the same machine, one right after the
other; the checkout must be a git clone for its stamp to name the commit.

run.py's setup_s times the import of the package, which compiles its
sources only where no bytecode cache is at hand.  So run.py runs with
PYTHONDONTWRITEBYTECODE=1, and a checkout that holds
src/fanokit/__pycache__ is refused until the cache is removed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP = "stamp: "


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True,
                    help="names the record, e.g. parent or change")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository whose perfbench/run.py runs")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        ap.error("--label takes letters, digits, '_' and '-' only")
    date = datetime.date.today().isoformat()
    path = ROOT / f"BENCH_{date}_{args.label}.json"
    if path.exists():
        sys.exit(f"bench: {path.name} exists; pick another --label")
    cache = args.checkout / "src" / "fanokit" / "__pycache__"
    if cache.exists():
        sys.exit(f"bench: {cache} holds bytecode, which setup_s would time "
                 f"in place of compiling the sources; remove it first")
    manifest = json.loads((args.checkout / "BENCHMARK.json").read_text())
    record = {"label": args.label, "date": date, "stamps": [], "workloads": {}}
    for name in [w["name"] for w in manifest["workloads"]]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name],
            cwd=args.checkout, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        if proc.returncode != 0:
            sys.exit(f"bench: perfbench/run.py --workload {name} exited "
                     f"{proc.returncode}:\n{proc.stderr}")
        out = proc.stdout.splitlines()
        record["stamps"] += [json.loads(line[len(STAMP):]) for line in out
                             if line.startswith(STAMP)]
        record["workloads"][name] = json.loads(out[-1])
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path.name)
    for name, line in record["workloads"].items():
        metrics = "  ".join(f"{m} {v['value']:.4g}"
                            for m, v in line["metrics"].items())
        print(f"{name:7s} correct={line['correct']} failed={line['failed']}  "
              f"{metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
