"""Acceptance gate: the nine criteria, each as one test with a budget.

The suite runs once per pytest session (module fixture).  Each test prints its PASS/FAIL line (visible under -s,
and always via `fanokit test-acceptance`), asserts the criterion passed,
and enforces a per-criterion wall-time budget far above observed timings
so a quadratic regression trips it while machine noise cannot.
"""

import json

import pytest

from fanokit.acceptance import run_acceptance_suite_timed
from fanokit.reportio import dumps_report

CRITERION_BUDGETS = {
    1: 1.0,    # volume-bound: closed-form check over the catalog
    2: 5.0,    # seshadri-equality
    3: 5.0,    # blowup-profile
    4: 5.0,    # beta-point-zero
    5: 120.0,  # ke-battery: full scans over six models
    6: 120.0,  # saturation-laws: randomized product/monotonicity sampling
    7: 180.0,  # weight-identity-limit: weight series at several r
    8: 120.0,  # ding-values
    9: 60.0,   # lct-engine: randomized thresholds vs brute force
}


@pytest.fixture(scope="module")
def suite():
    return run_acceptance_suite_timed()


@pytest.mark.parametrize("number", sorted(CRITERION_BUDGETS))
def test_criterion(suite, number):
    summary, timings = suite
    result = next(r for r in summary.results if r.number == number)
    flag = "PASS" if result.passed else "FAIL"
    print(f"{flag} criterion {number} ({result.name}): {result.detail} "
          f"[{timings[number]:.2f}s]")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"
    assert timings[number] < CRITERION_BUDGETS[number]


def test_all_nine_reported_and_green(suite):
    summary, _ = suite
    assert [r.number for r in summary.results] == list(range(1, 10))
    assert summary.passed
    assert summary.exit_code == 0


def test_summary_report_is_deterministic(suite):
    summary, _ = suite
    text = dumps_report(summary.report())
    assert text == dumps_report(summary.report())
    data = json.loads(text)
    assert data["passed"] is True
    names = [c["name"] for c in data["criteria"]]
    assert names == ["volume-bound", "seshadri-equality", "blowup-profile",
                     "beta-point-zero", "ke-battery", "saturation-laws",
                     "weight-identity-limit", "ding-values", "lct-engine"]
    assert all("time" not in key.lower()
               for c in data["criteria"] for key in c)


def test_oracles_attached_where_promised(suite):
    summary, _ = suite
    by_number = {r.number: r for r in summary.results}
    for number in (1, 4, 7, 8, 9):
        assert by_number[number].oracles, f"criterion {number} lost its oracles"
    methods = {o.method for r in summary.results for o in r.oracles}
    assert methods == {"LATTICE_COUNT", "HOWALD_PRIMAL", "HAND_FORMULA"}
