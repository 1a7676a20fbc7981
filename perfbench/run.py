#!/usr/bin/env python3
"""fanokit benchmark: three seeded workloads through the public API.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

One process drives a closed loop, one job at a time: a pass runs the
workload's whole input, the next pass starts when it returns, and passes
repeat until --seconds have gone by.  Every output is checked (see
``reference.json`` and README.md).  With --trace 0 the last line of
stdout is the end-to-end result; with --trace 1 the run makes a warm-up
pass, a plain pass and one traced pass, and the last line carries the
per-layer metrics of the traced pass.  ``--workload all`` runs every
workload in turn; ``--manifest`` prints the BENCHMARK.json this file
defines.

fanokit is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

RUN_SECONDS = 35
SETUP_PER_PASS = 3
# One calibration job takes about CAL_REFERENCE_S on the reference machine
# in its fast state.  Each calibration repeats the job for CAL_MIN_S or
# CAL_SHARE of the pass just run, whichever is longer, so long passes get
# a steadier measure of the machine's speed.
CAL_REFERENCE_S = 0.0625
CAL_MIN_S = 0.4
CAL_SHARE = 0.1

WORKLOADS = {
    "scan": "fanokit scan over all 7 catalog models plus seeded 2-d monomial "
            "points; polytope layer (hulls, pyramid volumes, vertex "
            "enumeration) dominates",
    "dinfty": "compute_d_infty on an ideal-power filtration of a P1xP2 point; "
              "per-point membership inside the bisection plus convolution",
    "ding": "ding_invariant of a P1xP2 double point; batch membership scans "
            "over every section of kP, trivial convolution",
}
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)
PER_LAYER_UNITS = {"busy_s": "s", "self_s": "s", "cpu_s": "s",
                   "overhead_s": "s", "yield": "ratio"}

KE_MODELS = ("P1", "P2", "P3", "P1xP1", "P1xP2", "dP6")
DRAW_MODELS = ("P2", "P1xP1", "dP6")
DRAWS_PER_MODEL = 3
DINFTY_K_MAX = 8
DING_K_MAX = 10

SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fanokit
fanokit.catalog()
print(time.perf_counter() - start, fanokit.__file__)
"""


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": n, "unit": _layer_unit(n), "better": _layer_better(n)}
                      for n in tracer.metric_names()],
    }


def _layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def _layer_better(name: str) -> str:
    return "higher" if name.endswith(".yield") else "lower"


def load_fanokit():
    """Import fanokit from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import fanokit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fanokit from {SRC}: {exc}")
    if not Path(fanokit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: fanokit came from {fanokit.__file__}, not {SRC}")
    return fanokit


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(fk, args) -> dict:
    return {"backend": getattr(fk.lattice, "BACKEND", None),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "FANOKIT_THREADS": os.environ.get("FANOKIT_THREADS"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit()}


# ---------------------------------------------------------------- inputs

def make_inputs(fk, workload: str, seed: int):
    """Everything the program sees, drawn from the seed alone."""
    rng = random.Random(seed)
    if workload == "scan":
        draws = {}
        for name in DRAW_MODELS:
            charts = fk.catalog_model(name).smooth_chart_indices()
            draws[name] = [_draw_point_ideal(rng, charts)
                           for _ in range(DRAWS_PER_MODEL)]
        return draws
    return rng.randrange(len(fk.catalog_model("P1xP2").charts))


def _draw_point_ideal(rng: random.Random, charts) -> tuple[int, tuple]:
    """A monomial ideal supported at one smooth fixed point of a surface:
    x^a, y^b and up to two mixed monomials below the staircase.  Whether
    it is integrally closed is left to chance."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    gens = {(a, 0), (0, b)}
    if a > 1 and b > 1:
        for _ in range(rng.randint(0, 2)):
            gens.add((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return rng.choice(charts), tuple(sorted(gens))


# ---------------------------------------------------------------- passes

def scan_pass(fk, draws) -> list:
    """fanokit scan on every catalog model; returns (model, entry) pairs."""
    out = []
    for name in fk.catalog():
        X = fk.catalog_model(name)
        candidates = fk.standard_battery(X)
        for i, (idx, gens) in enumerate(draws.get(name, ())):
            candidates.append(fk.MonomialSubscheme(
                label=f"draw{i}@{idx}:{list(gens)}", dimension=2,
                chart_gens={idx: gens}))
        report = fk.stability.semistability_scan(X, candidates)
        out.extend((name, entry) for entry in report.entries)
    return out


def dinfty_pass(fk, idx: int):
    X = fk.catalog_model("P1xP2")
    F = fk.filtration.ideal_power_filtration(X, fk.point_subscheme(X, idx))
    return fk.filtration.compute_d_infty(F, r_list=(1,), k_max=DINFTY_K_MAX)


def ding_pass(fk, idx: int):
    X = fk.catalog_model("P1xP2")
    point = fk.point_subscheme(X, idx)
    S = fk.IdealSequenceOnXxA1(steps=(point, point))
    return fk.stability.ding_invariant(X, S, r=1, k_max=DING_K_MAX)


PASSES = {"scan": scan_pass, "dinfty": dinfty_pass, "ding": ding_pass}


# ---------------------------------------------------------------- checks

def summarize(workload: str, result) -> dict:
    """The exact outputs a pass is held to, as strings."""
    if workload == "scan":
        return {f"{model}/{entry.subscheme}":
                entry.error if entry.report is None else str(entry.report.beta)
                for model, entry in result}
    fields = {"dinfty": ("e_plus", "e_minus", "r1", "a_samples", "a_limit",
                         "d_samples", "d_infty"),
              "ding": ("r", "r0", "M", "L_power_top", "d", "lct_product",
                       "ding")}[workload]
    return {f: _exact(getattr(result, f)) for f in fields}


def _exact(value):
    """Fractions and ints as strings, tuples as lists of the same."""
    if isinstance(value, tuple):
        return [_exact(v) for v in value]
    return str(value)


def check(fk, workload: str, inputs, result, reference: dict) -> tuple[int, dict, bool]:
    """(attempted, failures, correct) for one pass; failures maps each
    failed operation to what went wrong.

    An operation fails when it raises, differs from its frozen reference,
    or certifies non-semistability on a Kähler-Einstein model.  correct
    turns false only when an output frozen from the seed commit moved or
    went missing; the seeded draws have no frozen value and are held to
    the KE theorem alone.
    """
    got = summarize(workload, result)
    if workload != "scan":
        want = reference[workload][str(inputs)]
        if got == want:
            return 1, {}, True
        key = f"{workload}@{inputs}"
        return 1, {key: f"{got} != frozen {want}"}, False
    frozen = reference["scan"]
    failures = {key: "missing from the scan" for key in frozen if key not in got}
    correct = not failures
    for model, entry in result:
        key = f"{model}/{entry.subscheme}"
        if key in frozen or not entry.subscheme.startswith("draw"):
            if got[key] != frozen.get(key):
                failures[key] = f"{got[key]} != frozen {frozen.get(key)}"
                correct = False
        elif entry.report is None:
            failures[key] = f"raised {entry.error}"
        elif (model in KE_MODELS
              and entry.report.verdict == fk.stability.OBSTRUCTS_SEMISTABILITY):
            failures[key] = (f"beta = {entry.report.beta} certifies "
                             f"non-semistability on the KE model {model}")
    return len(got.keys() | frozen.keys()), failures, correct


def tally(checks) -> tuple[int, dict, bool, list[int]]:
    """(attempted, failures, correct, failed_per_pass) over the checks of
    a run's passes.  Every pass repeats the same operations on the same
    inputs, so an operation counts once however many passes the run made,
    and fails if it failed in any pass: attempted and failed depend on the
    seed alone, not on how many passes fitted into --seconds."""
    attempted, failures, correct, per_pass = 0, {}, True, []
    for n, bad, ok in checks:
        attempted = max(attempted, n)
        for key, why in bad.items():
            failures.setdefault(key, set()).add(why)
        per_pass.append(len(bad))
        correct = correct and ok
    return (attempted, {key: sorted(whys) for key, whys in sorted(failures.items())},
            correct, per_pass)


# ---------------------------------------------------------------- metrics

def calibrate(seconds: float) -> float:
    """Mean seconds of one calibration job, repeated for at least
    `seconds`.  The job is fixed pure-Python work shaped like fanokit's
    inner loops: exact rational arithmetic, componentwise dominance of
    small tuples, a set and a sort.  Never change it: times scaled by it
    compare only while it stays the same.  The collector is off while it
    runs, so the heap a pass leaves behind does not slow it."""
    gc.disable()
    try:
        jobs, start = 0, time.perf_counter()
        while True:
            _calibration_job()
            jobs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / jobs
    finally:
        gc.enable()


def _calibration_job() -> None:
    acc, seen = Fraction(0), set()
    gens = [(i % 5, (3 * i) % 7, (5 * i) % 11) for i in range(40)]
    for i in range(1, 10000):
        q = Fraction(i % 97 + 1, i % 89 + 2)
        acc += q * q - q
        p = (i % 6, i % 8, i % 12)
        if any(all(a >= b for a, b in zip(p, g)) for g in gens):
            seen.add(p)
    sorted(seen)


def setup_seconds() -> float:
    """Seconds from a fresh interpreter to fanokit imported and the
    catalog models built."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
    seconds, where = proc.stdout.split(maxsplit=1)
    if not Path(where.strip()).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: set-up child imported {where.strip()}")
    return float(seconds)


def timed_passes(fk, workload: str, inputs, seconds: float):
    """Closed loop of passes for `seconds`.

    Returns (wall_s, setup_s, results, raw).  The calibration job runs
    before the first pass and after every pass; set-up is timed
    SETUP_PER_PASS times before each pass.  Both metrics are in reference
    seconds: raw seconds times CAL_REFERENCE_S over the calibration time
    measured around them (README.md says why).  `raw` keeps the raw
    seconds.
    """
    run = PASSES[workload]
    raw = {"walls": [], "setups": [], "calibrations": [calibrate(CAL_MIN_S)]}
    scaled_setups, cal_spans, results = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not results:
        before = raw["calibrations"][-1]
        for _ in range(SETUP_PER_PASS):
            raw["setups"].append(setup_seconds())
            scaled_setups.append(raw["setups"][-1] * CAL_REFERENCE_S / before)
        start = time.perf_counter()
        results.append(run(fk, inputs))
        raw["walls"].append(time.perf_counter() - start)
        raw["calibrations"].append(
            calibrate(max(CAL_MIN_S, CAL_SHARE * raw["walls"][-1])))
        cal_spans.append((before + raw["calibrations"][-1]) / 2)
    wall_s = sum(raw["walls"]) * CAL_REFERENCE_S / sum(cal_spans)
    return wall_s, statistics.median(scaled_setups), results, raw


def traced_pass(fk, workload: str, inputs):
    """A warm-up pass, a plain pass, then the same pass traced."""
    run = PASSES[workload]
    warm = run(fk, inputs)
    cpu0, start = time.process_time(), time.perf_counter()
    plain = run(fk, inputs)
    plain_wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    with tracer.Tracer() as tr:
        cpu0, start = time.process_time(), time.perf_counter()
        traced = run(fk, inputs)
        traced_wall = time.perf_counter() - start
        traced_cpu = time.process_time() - cpu0
    metrics = tr.metrics()
    metrics["process.cpu_s"] = cpu
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return [warm, plain, traced], metrics, tr, traced_cpu


def run_workload(fk, args, reference: dict) -> dict:
    inputs = make_inputs(fk, args.workload, args.seed)
    info = {"stamp": stamp(fk, args), "inputs": inputs}
    if args.trace:
        results, values, tr, traced_cpu = traced_pass(fk, args.workload, inputs)
        info["absent"] = tr.absent
        info["layer_cpu_share"] = {layer: cpu / traced_cpu
                                   for layer, cpu in sorted(tr.layer_cpu().items())}
        units = {m["name"]: m["unit"] for m in manifest()["per_layer"]}
    else:
        wall_s, setup_s, results, info["raw"] = timed_passes(
            fk, args.workload, inputs, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss}
        units = {m["name"]: m["unit"] for m in END_TO_END}
    attempted, failures, correct, info["failed_per_pass"] = tally(
        check(fk, args.workload, inputs, result, reference) for result in results)
    info["failures"] = failures
    line = {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}
    info["result"] = line

    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.write(base.with_suffix(".spans.jsonl.gz"))
    base.with_suffix(".json").write_text(json.dumps(info, indent=1, default=str))

    print(f"stamp: {json.dumps(info['stamp'])}")
    for key, whys in info["failures"].items():
        for why in whys:
            print(f"FAILED {key}: {why}")
    for layer, share in info.get("layer_cpu_share", {}).items():
        print(f"cpu share {layer:12s} {share:7.1%} of the traced pass")
    for name in info.get("absent", ()):
        print(f"absent {name}")
    for name, m in line["metrics"].items():
        print(f"{args.workload:7s} {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload}: {attempted} operations, {len(failures)} failed "
          f"over {len(results)} passes, correct={correct}")
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="print BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    fk = load_fanokit()
    reference = json.loads(REFERENCE.read_text())
    nproc = len(os.sched_getaffinity(0))
    os.environ["FANOKIT_THREADS"] = str(nproc)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        args.workload = name
        lines[name] = run_workload(fk, args, reference)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
