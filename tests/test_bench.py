"""benchmarks/bench.py keeps every record it has written and benches each
workload in its own process."""

import datetime
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_runs_each_workload_in_its_own_process(tmp_path, monkeypatch):
    bench = _load_bench()
    checkout = BENCH.parent.parent
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    calls = []

    def fake_run(cmd, cwd, **kwargs):
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
