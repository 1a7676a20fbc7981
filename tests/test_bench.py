"""benchmarks/bench.py keeps every record it has written and benches each
workload in its own process; perfbench/run.py's passes still run on the
program and match their frozen outputs."""

import datetime
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fanokit

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks" / "bench.py"
PERFBENCH_RUN = ROOT / "perfbench" / "run.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench():
    return _load("bench", BENCH)


def test_perfbench_passes_match_their_frozen_outputs(monkeypatch):
    # run.py puts perfbench/ on sys.path to import its tracer
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("perfbench_run", PERFBENCH_RUN)
    reference = json.loads(run.REFERENCE.read_text())
    cases = [("scan", 1)] + [(w, idx) for w in ("dinfty", "ding") for idx in range(6)]
    for workload, inputs in cases:
        if workload == "scan":
            inputs = run.make_inputs(fanokit, workload, inputs)
        result = run.PASSES[workload](fanokit, inputs)
        attempted, failures, correct = run.check(fanokit, workload, inputs,
                                                 result, reference)
        assert (correct, failures) == (True, {}), (workload, inputs)
        assert attempted > 0


def test_refuses_to_overwrite_a_record(tmp_path, monkeypatch):
    bench = _load_bench()
    name = f"BENCH_{datetime.date.today().isoformat()}_parent.json"
    (tmp_path / name).write_text("kept\n")
    monkeypatch.setattr(bench, "ROOT", tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--label", "parent", "--checkout", str(tmp_path)])
    assert name in str(exit_info.value.code)
    assert (tmp_path / name).read_text() == "kept\n"


def _clean_checkout(tmp_path):
    """A checkout holding this repository's BENCHMARK.json and no
    bytecode cache, which a test run may have left in this one."""
    checkout = tmp_path / "checkout"
    (checkout / "src" / "fanokit").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return checkout


def test_refuses_a_checkout_with_a_bytecode_cache(tmp_path, monkeypatch):
    # setup_s would time loading the cached bytecode, not compiling
    bench = _load_bench()
    checkout = _clean_checkout(tmp_path)
    (checkout / "src" / "fanokit" / "__pycache__").mkdir()
    monkeypatch.setattr(bench, "ROOT", tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--label", "change", "--checkout", str(checkout)])
    assert "__pycache__" in str(exit_info.value.code)
    assert list(tmp_path.glob("BENCH_*")) == []


def test_runs_each_workload_in_its_own_process(tmp_path, monkeypatch):
    bench = _load_bench()
    checkout = _clean_checkout(tmp_path)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        calls.append((cmd[1:], cwd))
        name = cmd[cmd.index("--workload") + 1]
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
        stdout = f'stamp: {{"workload": "{name}"}}\n{json.dumps(line)}\n'
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--label", "change", "--checkout", str(checkout)]) == 0
    names = ["scan", "dinfty", "ding"]
    assert calls == [(["perfbench/run.py", "--workload", name], checkout)
                     for name in names]
    (path,) = tmp_path.glob("BENCH_*_change.json")
    record = json.loads(path.read_text())
    assert list(record["workloads"]) == names
    assert [s["workload"] for s in record["stamps"]] == names
    assert record["workloads"]["ding"]["metrics"]["wall_s"]["value"] == 0.5
