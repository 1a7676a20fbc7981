"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def fk():
    return run.load_fanokit()


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.fixture(scope="module")
def traced_scans(fk):
    """The seed-1 scan traced twice after a warm-up pass, as in a traced
    run, on the thread pool the benchmark uses."""
    os.environ["FANOKIT_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        draws = run.make_inputs(fk, "scan", 1)
        run.scan_pass(fk, draws)
        out = []
        for _ in range(2):
            with tracer.Tracer() as tr:
                result = run.scan_pass(fk, draws)
            out.append((result, tr.metrics()))
        return draws, out
    finally:
        del os.environ["FANOKIT_THREADS"]


def test_metric_names_and_manifest():
    manifest = run.manifest()
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == manifest


def test_gate_passes_seed_outputs_and_names_false_certificates(fk, reference,
                                                              traced_scans):
    draws, [(result, _), _] = traced_scans
    attempted, failures, correct = run.check(fk, "scan", draws, result, reference)
    assert correct
    assert attempted == len(reference["scan"]) + 9
    for key, why in failures.items():
        assert "/draw" in key and "on the KE model" in why


def test_gate_catches_a_wrong_fraction(fk, reference, traced_scans):
    draws, [(result, _), _] = traced_scans
    model, entry = result[0]
    wrong = dataclasses.replace(
        entry, report=dataclasses.replace(entry.report,
                                          beta=entry.report.beta + Fraction(1, 7)))
    _, failures, correct = run.check(fk, "scan", draws,
                                     [(model, wrong)] + result[1:], reference)
    assert not correct
    assert f"{model}/{entry.subscheme}" in failures

    def as_tuples(v):
        return tuple(as_tuples(x) for x in v) if isinstance(v, list) else v

    frozen = {k: as_tuples(v) for k, v in reference["dinfty"]["0"].items()}
    assert run.check(fk, "dinfty", 0, SimpleNamespace(**frozen), reference)[2]
    frozen["d_infty"] = str(Fraction(frozen["d_infty"]) + Fraction(1, 10**9))
    attempted, failures, correct = run.check(fk, "dinfty", 0,
                                             SimpleNamespace(**frozen), reference)
    assert (attempted, correct) == (1, False)
    assert list(failures) == ["dinfty@0"]


def test_traced_counts_repeat_exactly(traced_scans):
    _, [(_, first), (_, second)] = traced_scans
    counts = [n for n in first if not n.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["stability.beta.calls"] > 0


def test_tracer_restores_originals_and_reports_absent(fk, monkeypatch):
    original = fk.lattice.dominates_any
    missing = ("lattice", "no_such_kernel", ("calls",), None)
    monkeypatch.setattr(tracer, "ENTRY_POINTS", tracer.ENTRY_POINTS + (missing,))
    with tracer.Tracer() as tr:
        assert fk.lattice.dominates_any is not original
        assert fk.lattice.dominates_any((1, 1), [(0, 1)])
    assert fk.lattice.dominates_any is original
    assert tr.absent == ["lattice.no_such_kernel"]
    metrics = tr.metrics()
    assert metrics["lattice.no_such_kernel.calls"] == 0
    assert metrics["lattice.dominates_any.calls"] == 1
    assert metrics["lattice.dominates_any.hits"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ding", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tally_does_not_depend_on_the_number_of_passes():
    one_pass = (90, {"P2/draw0": "beta = -1 certifies"}, True)
    for passes in (1, 5, 6):
        assert run.tally([one_pass] * passes)[:3] == (
            90, {"P2/draw0": ["beta = -1 certifies"]}, True)
    attempted, failures, correct, per_pass = run.tally(
        [one_pass, (90, {"P2/draw0": "raised", "P2/cusp": "1 != frozen 2"}, False)])
    assert (attempted, correct, per_pass) == (90, False, [1, 2])
    assert failures == {"P2/cusp": ["1 != frozen 2"],
                        "P2/draw0": ["beta = -1 certifies", "raised"]}
