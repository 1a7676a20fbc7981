"""benchmarks/bench.py keeps every record it has written."""

import datetime
import importlib.util
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
