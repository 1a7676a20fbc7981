"""Diff-based regression against checked-in golden reports.

Byte equality, not structural equality: the report format itself
(canonical key order, fraction/decimal pairs, newline at EOF) is part of
what these tests pin down.  Regenerate a golden only for a deliberate
format change, never to paper over a value drift.
"""

from pathlib import Path

from fanokit.filtration import compute_d_infty, ideal_power_filtration
from fanokit.model import catalog_model
from fanokit.reportio import dumps_report
from fanokit.stability import beta, ding_invariant
from fanokit.subscheme import (IdealSequenceOnXxA1, boundary_divisor_subscheme,
                               point_subscheme)

GOLDEN = Path(__file__).parent / "golden"


def test_beta_report_matches_golden():
    X = catalog_model("P112")
    text = dumps_report(beta(X, boundary_divisor_subscheme(X, (1, 0))))
    assert text == (GOLDEN / "beta-P112-divisor.json").read_text()


def test_dinfty_report_matches_golden():
    X = catalog_model("P1")
    pt = point_subscheme(X, 0)
    report = compute_d_infty(ideal_power_filtration(X, pt))
    text = dumps_report(
        {"model": X.name, "subscheme": pt.label, "d_infty": report})
    assert text == (GOLDEN / "dinfty-P1-point.json").read_text()


def test_threefold_dinfty_report_matches_golden():
    # fanokit filtration's run, at the default r_list: the window's rows
    # at r = 2, 4 and 8 reach no other test
    X = catalog_model("P1xP2")
    pt = point_subscheme(X, 1)
    report = compute_d_infty(ideal_power_filtration(X, pt))
    text = dumps_report(
        {"model": X.name, "subscheme": pt.label, "d_infty": report})
    assert text == (GOLDEN / "dinfty-P1xP2-point1.json").read_text()


def test_singular_chart_dinfty_report_matches_golden():
    # a divisor through P112's singular chart at the default r_list: the
    # slope reads that chart's generators off its tagged table too
    X = catalog_model("P112")
    D = boundary_divisor_subscheme(X, (1, 0))
    report = compute_d_infty(ideal_power_filtration(X, D))
    text = dumps_report(
        {"model": X.name, "subscheme": D.label, "d_infty": report})
    assert text == (GOLDEN / "dinfty-P112-divisor.json").read_text()


def test_ding_report_matches_golden():
    # the benchmark's ding workload at chart 1: one capped moving row
    X = catalog_model("P1xP2")
    pt = point_subscheme(X, 1)
    text = dumps_report(ding_invariant(X, IdealSequenceOnXxA1(steps=(pt, pt)), 1))
    assert text == (GOLDEN / "ding-P1xP2-point1.json").read_text()
