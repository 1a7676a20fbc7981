"""beta reports, Ding invariants, the volume bound, and batch scans.

Frozen values: beta of a fixed point on P^n is lct * vol - integral =
n (n+1)^n - n (n+1)^n = 0; the weighted-plane divisor gives -8/3; the
two-step point sequence on P1 has w(k) = -k^2 - k, hence limit
self-intersection -2, slope 1/2, and Ding invariant 1/2.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit import piecewise, polytope, stability, subscheme, volumes
from fanokit.errors import (EmptyOrFull, FanokitError, NoStabilization,
                            UnsupportedSubscheme)
from fanokit.filtration import (compute_d_infty, ideal_power_filtration,
                                induced_ideal_sequence)
from fanokit.model import build_model, catalog, catalog_model, is_kahler_einstein
from fanokit.oracles import (oracle_h0_quotient, oracle_weight_records,
                             stable_leading_difference)
from fanokit.stability import (CONSISTENT, OBSTRUCTS_SEMISTABILITY, ScanEntry,
                               ScanReport, beta, ding_invariant,
                               semistability_scan, verify_volume_bound)
from fanokit.subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                               NewtonPolyhedron, boundary_divisor_subscheme,
                               point_subscheme, product_gens, standard_battery,
                               thickened_point_subscheme)
import helpers
from strategies import decreasing_sequences


def _dnc_sequence():
    """Two equal point steps on P1: the ideal (x) + (t^2)."""
    X = catalog_model("P1")
    pt = point_subscheme(X, 0)
    return X, IdealSequenceOnXxA1(steps=(pt, pt))


def _weights(X, S, r, k_max):
    """w(k) for k = 1..k_max, off the lattice weight count."""
    return tuple(rec.w for rec in oracle_weight_records(X, S, r, k_max))


class TestBeta:
    def test_point_on_projective_space_is_zero(self):
        for name, n in [("P1", 1), ("P2", 2), ("P3", 3)]:
            X = catalog_model(name)
            rep = beta(X, point_subscheme(X, 0))
            assert rep.lct_value == n
            assert rep.anticanonical_volume == Fraction(n + 1) ** n
            assert rep.volume_integral == n * Fraction(n + 1) ** n
            assert rep.beta == 0
            assert rep.verdict == CONSISTENT

    def test_boundary_line_on_p2(self):
        # slice areas give vol(-K - xD) = (3 - x)^2, integral 9 = lct * vol
        X = catalog_model("P2")
        rep = beta(X, boundary_divisor_subscheme(X, (1, 0)))
        assert rep.lct_value == 1
        assert rep.volume_integral == 9
        assert rep.beta == 0

    def test_thickened_point_on_p2(self):
        X = catalog_model("P2")
        rep = beta(X, thickened_point_subscheme(X, 0))
        assert rep.lct_value == 1
        assert rep.beta == 0

    def test_weighted_plane_divisor_obstructs(self):
        X = catalog_model("P112")
        rep = beta(X, boundary_divisor_subscheme(X, (1, 0)))
        assert rep.beta == Fraction(-8, 3)
        assert rep.verdict == OBSTRUCTS_SEMISTABILITY
        rep = beta(X, boundary_divisor_subscheme(X, (-1, -2)))
        assert rep.beta == Fraction(-8, 3)
        rep = beta(X, boundary_divisor_subscheme(X, (0, 1)))
        assert rep.beta == Fraction(8, 3)
        assert rep.verdict == CONSISTENT

    def test_identity_holds_across_battery(self):
        X = catalog_model("dP6")
        for Z in standard_battery(X):
            rep = beta(X, Z)
            assert rep.beta == (rep.lct_value * rep.anticanonical_volume
                                - rep.volume_integral)
            assert (rep.verdict == OBSTRUCTS_SEMISTABILITY) == (rep.beta < 0)

    def test_one_newton_polyhedron_per_chart_ideal(self, monkeypatch):
        # the threshold and the profile share each chart's dual vertices
        built = []
        init = NewtonPolyhedron.__init__

        def counting(self, generators):
            built.append(generators)
            init(self, generators)

        monkeypatch.setattr(NewtonPolyhedron, "__init__", counting)
        X = catalog_model("dP6")
        Z = thickened_point_subscheme(X, 0)
        beta(X, Z)
        assert built == [Z.gens_on(0)]

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_volume_integral_is_the_profile_integral(self, name):
        X = catalog_model(name)
        for Z in standard_battery(X):
            profile = volumes.blowup_volume_profile(X, Z)
            assert beta(X, Z).volume_integral == profile.integrate(*profile.domain)

    def test_whole_space_rejected(self):
        X = catalog_model("P2")
        zero = MonomialSubscheme(label="all", dimension=2, chart_gens={0: ()})
        with pytest.raises(EmptyOrFull):
            beta(X, zero)

    def test_empty_subscheme_rejected(self):
        X = catalog_model("P2")
        with pytest.raises(EmptyOrFull):
            beta(X, MonomialSubscheme(label="none", dimension=2))

    @pytest.mark.parametrize("Z", [
        MonomialSubscheme(label="long", dimension=2, chart_gens={0: ((1, 0, 0),)}),
        MonomialSubscheme(label="solid", dimension=3, chart_gens={0: ((1, 0, 0),)})])
    def test_data_for_another_fan_rejected(self, Z):
        with pytest.raises(UnsupportedSubscheme, match="does not match"):
            beta(catalog_model("P2"), Z)


class TestDing:
    def test_trivial_sequence_is_exactly_zero(self):
        X = catalog_model("P2")
        unit = MonomialSubscheme(label="unit", dimension=2)
        for steps in [(unit,), (unit, unit, unit)]:
            rep = ding_invariant(X, IdealSequenceOnXxA1(steps=steps), 1)
            assert rep.L_power_top == 0
            assert rep.d == 1
            assert rep.lct_product == 1
            assert rep.ding == 0

    def test_wrong_arity_refused(self):
        X = catalog_model("P2")
        bad = MonomialSubscheme(label="bad", dimension=2,
                                chart_gens={0: ((1, 0, 0),)})
        with pytest.raises(UnsupportedSubscheme, match="arity"):
            ding_invariant(X, IdealSequenceOnXxA1(steps=(bad,)), 1)

    def test_ding_builds_each_active_charts_dual_vertices_once(self, monkeypatch):
        # dnc@0 on P1xP2 is active on chart 0 alone: one Newton polyhedron
        # feeds both the leading integral and the threshold
        built = []
        init = NewtonPolyhedron.__init__

        def counting(self, generators):
            built.append(generators)
            init(self, generators)

        monkeypatch.setattr(NewtonPolyhedron, "__init__", counting)
        X = catalog_model("P1xP2")
        pt = point_subscheme(X, 0)
        steps = (pt, pt)
        rep = ding_invariant(X, IdealSequenceOnXxA1(steps=steps), 1)
        assert built == [product_gens(X, steps, 0)]
        assert (rep.lct_product, rep.ding) == (1, Fraction(1, 108))

    def test_two_step_point_sequence_on_p1(self):
        X, S = _dnc_sequence()
        rep = ding_invariant(X, S, 1)
        assert rep.M == 2
        assert rep.r == 1 and rep.r0 == 1
        assert rep.L_power_top == -2
        assert rep.d == Fraction(1, 2)
        assert rep.lct_product == 1
        assert rep.ding == Fraction(1, 2)
        assert rep.ding >= 0
        assert rep.hypothesis_semiample_assumed

    def test_weight_series_formula(self):
        X, S = _dnc_sequence()
        ws = _weights(X, S, 1, 8)
        assert ws == tuple(-k * k - k for k in range(1, 9))

    def test_weights_match_quotient_oracle(self):
        X, S = _dnc_sequence()
        ws = _weights(X, S, 1, 10)
        for k in range(1, 11):
            assert ws[k - 1] == -oracle_h0_quotient(X, S, 1, k)

    def test_weights_match_oracle_when_r_does_not_divide_m(self):
        # M = 3 at r = 2: w(k) = -k M h0 + v, where M is not a multiple of r
        X = catalog_model("P2")
        pt = point_subscheme(X, 0)
        S = IdealSequenceOnXxA1(steps=(pt, pt, pt.power(2)))
        ws = _weights(X, S, 2, 4)
        for k in range(1, 5):
            assert ws[k - 1] == -oracle_h0_quotient(X, S, 2, k)

    @settings(max_examples=100, deadline=None)
    @given(decreasing_sequences(), st.integers(1, 2))
    def test_weights_match_oracle_on_random_sequences(self, drawn, r):
        X, S = drawn
        ws = _weights(X, S, r, 4 - r)
        assert ws == tuple(-oracle_h0_quotient(X, S, r, k)
                           for k in range(1, 5 - r))

    # P1xP2 has 6 charts over 5 rays, so the charts share ray pairings;
    # P112 cannot join, its singular chart has no oracle
    @settings(max_examples=15, deadline=None)
    @given(decreasing_sequences(models=("P1xP2",), max_steps=2))
    def test_weights_match_oracle_on_random_threefold_sequences(self, drawn):
        X, S = drawn
        ws = _weights(X, S, 1, 2)
        assert ws == tuple(-oracle_h0_quotient(X, S, 1, k) for k in (1, 2))

    def test_weights_match_oracle_on_a_threefold(self):
        X = catalog_model("P1xP2")
        pt = point_subscheme(X, 0)
        S = IdealSequenceOnXxA1(steps=(pt, pt.power(2)))
        ws = _weights(X, S, 1, 2)
        assert ws == tuple(-oracle_h0_quotient(X, S, 1, k) for k in (1, 2))

    def test_scale_covariance(self):
        X, S = _dnc_sequence()
        base = ding_invariant(X, S, 1)
        for m in (2, 3):
            rep = ding_invariant(X, helpers.sequence_power(S, m), m)
            assert rep.ding == base.ding
            assert rep.d == base.d
            assert rep.lct_product == base.lct_product
            assert rep.L_power_top == base.L_power_top * m ** 2
            assert rep.M == base.M * m

    def test_matches_filtration_slope(self):
        # the sequence induced by the point filtration reproduces d_r
        X = catalog_model("P1")
        F = ideal_power_filtration(X, point_subscheme(X, 0))
        limits = compute_d_infty(F, r_list=(1, 2))
        for r, d_r in limits.d_samples:
            rep = ding_invariant(X, induced_ideal_sequence(F, r), r)
            assert rep.d == d_r
            assert rep.ding == 0

    def test_rejects_bad_arguments(self):
        X, S = _dnc_sequence()
        with pytest.raises(ValueError):
            ding_invariant(X, S, 0)
        # four weight counts are too few to show the leading difference
        # settled; the Ding value is the exact integral at any budget
        with pytest.raises(NoStabilization):
            stable_leading_difference(_weights(X, S, 1, 4), 2)
        rep = ding_invariant(X, S, 1, k_max=4)
        assert (rep.L_power_top, rep.d, rep.ding) == (-2, Fraction(1, 2), Fraction(1, 2))


def _ding_cases():
    """(model, sequence) pairs whose weight counts settle by k = 10."""
    out = [_dnc_sequence()]
    for name in ("P2", "P1xP1"):
        X = catalog_model(name)
        pt, pt2 = point_subscheme(X, 0), thickened_point_subscheme(X, 0)
        unit = MonomialSubscheme(label="unit", dimension=X.dimension)
        # a first step zero on a chart leaves G at its floor everywhere
        zero = MonomialSubscheme(label="zero", dimension=X.dimension,
                                 chart_gens={0: ()})
        out += [(X, IdealSequenceOnXxA1(steps=(pt, pt2))),
                (X, IdealSequenceOnXxA1(steps=(unit, pt, pt))),
                # no active chart
                (X, IdealSequenceOnXxA1(steps=(unit, unit))),
                (X, IdealSequenceOnXxA1(steps=(zero,)))]
    return out


class TestDingLeadingIntegral:
    """The exact L_power_top against the stabilised leading difference
    of the weight counts w(k), the lattice count it replaced."""

    @pytest.mark.parametrize("index", range(len(_ding_cases())))
    def test_matches_weight_count(self, index):
        X, S = _ding_cases()[index]
        counted = stable_leading_difference(_weights(X, S, 1, 10), X.dimension + 1)
        assert ding_invariant(X, S, 1).L_power_top == counted

    def test_quasi_polynomial_counts_never_settle(self):
        # the weight counts of (m^2) + (t) on dP6 are a quasi-polynomial of
        # period 2: their third differences alternate and grow, as
        # -7/2 + (-1)^k (k + 7/2), and -7/2 is what the integral reads
        X = catalog_model("dP6")
        S = IdealSequenceOnXxA1(steps=(thickened_point_subscheme(X, 0),))
        ws = _weights(X, S, 1, 10)
        with pytest.raises(NoStabilization):
            stable_leading_difference(ws, 3)
        for _ in range(3):
            ws = [b - a for a, b in zip(ws, ws[1:])]
        half = Fraction(7, 2)
        assert ws == [-half + (-1) ** k * (k + half) for k in range(len(ws))]
        assert ding_invariant(X, S, 1).L_power_top == -half


def test_integral_routes_build_no_profile(monkeypatch):
    """beta, the leading integral and the limit slope read the lifted
    region's vertices: no profile pieces or fitted polynomials."""
    def refuse(*args, **kwargs):
        raise AssertionError("a profile was built")

    for module, name in [(polytope, "moving_volume_function"), (volumes, "moving_volume_function"),
                         (polytope, "fit_polynomial"), (piecewise, "fit_polynomial")]:
        monkeypatch.setattr(module, name, refuse)
    X = catalog_model("P1xP2")
    for Z in standard_battery(X):
        beta(X, Z)
    pt = point_subscheme(X, 0)
    compute_d_infty(ideal_power_filtration(X, pt), r_list=(1,))
    ding_invariant(X, IdealSequenceOnXxA1(steps=(pt, pt)), 1)


def test_scan_and_slope_enumerations_start_from_known_cones(monkeypatch):
    """Each lifted region starts from the cone of P x [0, oo) and each
    Newton polyhedron from the orthant: a battery scan of every catalog
    model and a P1xP2 slope make no from-scratch start."""
    models = catalog()
    starts = []
    real = polytope._simplicial_start

    def counted(*args):
        starts.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "_simplicial_start", counted)
    for X in models.values():
        semistability_scan(X, standard_battery(X))
    X = models["P1xP2"]
    compute_d_infty(ideal_power_filtration(X, point_subscheme(X, 0)), r_list=(1,))
    assert starts == []
    # a system with no known cone does start from scratch
    polytope.RationalPolytope.from_inequalities(1, [((1,), 0), ((-1,), -1)])
    assert len(starts) == 1


def test_battery_scans_enumerate_no_lifted_region(monkeypatch):
    """Every standard-battery candidate of the catalog has one moving row,
    so its scan reads each integral off the barycenter of P; an ideal
    with two dual vertices still takes the lifted enumeration."""
    calls = []
    real = polytope._lifted_region

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "_lifted_region", counted)
    for X in catalog().values():
        semistability_scan(X, standard_battery(X))
    assert calls == []
    X = catalog_model("P2")
    beta(X, MonomialSubscheme(label="two", dimension=2, chart_gens={0: ((3, 0), (1, 1), (0, 3))}))
    assert len(calls) == 1


def test_battery_scans_run_no_newton_enumeration(monkeypatch):
    """Every standard-battery ideal of the catalog is one generator or
    diagonal, so its Newton polyhedron is read in closed form; an ideal
    with a generator below the simplex of its pure powers is still
    enumerated."""
    calls = []
    real = subscheme._vertex_bases

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subscheme, "_vertex_bases", counted)
    for X in catalog().values():
        semistability_scan(X, standard_battery(X))
    assert calls == []
    X = catalog_model("P2")
    beta(X, MonomialSubscheme(label="two", dimension=2, chart_gens={0: ((3, 0), (1, 1), (0, 3))}))
    assert len(calls) == 1


def test_weight_count_reads_no_integral_route(monkeypatch):
    """The oracle's weight count is independent of the leading integral it
    checks: with every step of the integral route refused it still counts
    the P1xP2 double-point sequence, and its settled difference is the
    integral's top term."""
    X = catalog_model("P1xP2")
    pt = point_subscheme(X, 0)
    S = IdealSequenceOnXxA1(steps=(pt, pt))
    top = ding_invariant(X, S, 1).L_power_top

    def refuse(*args, **kwargs):
        raise AssertionError("the weight count read the integral route")

    names = ("moving_volume_integral", "_vertex_bases", "enumerate_basic_feasible",
             "product_dual_vertices", "_leading_integral", "_leading_rows",
             "int_primitive", "_lifted_region", "_pulled_volume")
    for module in list(sys.modules.values()):
        if module.__name__.startswith("fanokit"):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(NewtonPolyhedron, "__init__", refuse)
    ws = _weights(X, S, 1, 10)
    assert ws[:4] == (-2, -10, -30, -70)
    assert stable_leading_difference(ws, 4) == top == -2


class TestVolumeBound:
    def test_equality_exactly_on_projective_spaces(self):
        for name in ("P1", "P2", "P3"):
            vb = verify_volume_bound(catalog_model(name))
            assert vb.satisfied
            assert vb.volume == vb.bound
        for name in ("P1xP1", "P1xP2", "dP6", "P112"):
            vb = verify_volume_bound(catalog_model(name))
            assert vb.satisfied
            assert vb.volume < vb.bound
            assert vb.seshadri_check is None

    def test_equality_signature(self):
        for name, n in [("P2", 2), ("P3", 3)]:
            X = catalog_model(name)
            bound, volume, ok, check = verify_volume_bound(X)
            assert ok and volume == bound
            assert check is not None and len(check) == len(X.charts)
            assert all(eps == n + 1 for _, eps in check)

    def test_curves_carry_no_signature(self):
        vb = verify_volume_bound(catalog_model("P1"))
        assert vb.volume == vb.bound == 2
        assert vb.seshadri_check is None

    def test_bound_violation_detected(self):
        Y = build_model(2, ((1, 0), (0, 1), (-1, -6)), name="P116")
        vb = verify_volume_bound(Y)
        assert vb.volume == Fraction(32, 3)
        assert not vb.satisfied
        assert vb.seshadri_check is None


class TestScan:
    def test_p2_battery_all_consistent(self):
        X = catalog_model("P2")
        battery = standard_battery(X)
        sc = semistability_scan(X, battery)
        assert [e.subscheme for e in sc.entries] == [Z.label for Z in battery]
        assert all(e.error is None for e in sc.entries)
        assert all(e.report.verdict == CONSISTENT for e in sc.entries)
        assert not sc.obstructed
        assert sc.failures == ()

    def test_weighted_plane_is_obstructed(self):
        X = catalog_model("P112")
        sc = semistability_scan(X, standard_battery(X))
        assert sc.obstructed
        negatives = {e.subscheme for e in sc.entries
                     if e.report is not None and e.report.beta < 0}
        assert negatives == {"divisor@(1, 0)", "divisor@(-1, -2)"}

    def test_ke_catalog_battery(self):
        for X in filter(is_kahler_einstein, catalog().values()):
            sc = semistability_scan(X, standard_battery(X))
            assert sc.failures == ()
            assert not sc.obstructed
            assert all(e.report.beta >= 0 for e in sc.entries)

    def test_bound_violator_scans_without_raising(self):
        Y = build_model(2, ((1, 0), (0, 1), (-1, -6)), name="P116")
        sc = semistability_scan(Y, standard_battery(Y))
        assert len(sc.entries) == len(standard_battery(Y))
        assert sc.obstructed

    def test_empty_candidate_list(self):
        sc = semistability_scan(catalog_model("P2"), [])
        assert sc.entries == ()
        assert not sc.obstructed

    def test_errors_collected_not_fatal(self):
        X = catalog_model("P2")
        zero = MonomialSubscheme(label="bad", dimension=2, chart_gens={0: ()})
        sc = semistability_scan(X, [point_subscheme(X, 0), zero,
                                    boundary_divisor_subscheme(X, (0, 1))])
        assert [e.subscheme for e in sc.entries] == \
            ["point@0", "bad", "divisor@(0, 1)"]
        assert sc.entries[0].report is not None
        assert sc.entries[1].report is None
        assert "EmptyOrFull" in sc.entries[1].error
        assert sc.entries[2].report is not None
        assert len(sc.failures) == 1

    def test_chart_the_model_lacks_is_one_error_entry(self):
        # refused by name in beta, so the scan still evaluates the rest;
        # ding refuses it the same way
        X = catalog_model("P2")
        far = MonomialSubscheme(label="far", dimension=2,
                                chart_gens={7: ((1, 0), (0, 1))})
        battery = standard_battery(X)
        sc = semistability_scan(X, [far] + battery)
        assert sc.entries[0] == ScanEntry(
            "far", None,
            "UnsupportedSubscheme: far: chart 7 is not one of the 3 charts of P2")
        assert sc.entries[1:] == semistability_scan(X, battery).entries
        with pytest.raises(UnsupportedSubscheme, match="far: chart 7"):
            ding_invariant(X, IdealSequenceOnXxA1(steps=(far,)), 1)


def _plain_scan(X, candidates):
    """The scan as one beta call per candidate."""
    entries = []
    for Z in candidates:
        try:
            entries.append(ScanEntry(Z.label, beta(X, Z), None))
        except FanokitError as exc:
            entries.append(ScanEntry(Z.label, None, f"{type(exc).__name__}: {exc}"))
    return ScanReport(X.name, tuple(entries))


# one ideal per model that no nontrivial automorphism fixes on its chart
ASYMMETRIC = {"P1": ((3,),), "P2": ((3, 0), (1, 1), (0, 2)),
              "P1xP1": ((2, 0), (0, 1)), "dP6": ((3, 0), (1, 1), (0, 2)),
              "P3": ((2, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 3)),
              "P1xP2": ((3, 0, 0), (0, 1, 0), (0, 0, 2)),
              "P112": ((2, 0), (0, 1)),
              "chiral": ((2, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 3))}
# a Fano 3-fold whose automorphisms are the three rotations of the
# coordinates: they move some smooth charts by a 3-cycle of coordinates,
# where a permutation and its inverse differ
CHIRAL = build_model(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
                         (-1, 0, 1), (0, 1, -1), (1, -1, 0)], name="chiral")


class TestScanOrbits:
    """The scan evaluates beta once per orbit of the fan automorphisms and
    must still equal the plain per-candidate loop."""

    def _extras(self, X):
        smooth = X.smooth_chart_indices()
        n = X.dimension
        first = standard_battery(X)[0]
        extras = [MonomialSubscheme(label="twin", dimension=n,
                                    chart_gens=first.chart_gens)]
        # zero ideals in one orbit: each error names its own candidate
        extras += [MonomialSubscheme(label=f"zero@{i}", dimension=n,
                                     chart_gens={i: ()}) for i in smooth[:2]]
        for i in smooth:
            Z = MonomialSubscheme(label=f"asym@{i}", dimension=n,
                                  chart_gens={i: ASYMMETRIC[X.name]})
            extras += [Z] + [helpers.fan_image(X, g.matrix, Z, f"asym@{i}:{k}")
                             for k, g in enumerate(X.automorphisms)]
        singular = [i for i, c in enumerate(X.charts) if not c.smooth]
        if singular:
            extras += [MonomialSubscheme(label=f"sing{k}", dimension=n,
                                         chart_gens={singular[0]: ASYMMETRIC[X.name]})
                       for k in range(2)]
        return extras

    def test_catalog_batteries_match_the_plain_loop(self):
        for X in [*catalog().values(), CHIRAL]:
            candidates = standard_battery(X) + self._extras(X)
            sc = semistability_scan(X, candidates)
            assert sc == _plain_scan(X, candidates), X.name
            errors = {e.subscheme: e.error for e in sc.entries if e.error}
            for label, error in errors.items():
                assert label in error
            assert {label for label in errors if label.startswith("zero@")}
            if X.name == "P112":
                assert {"sing0", "sing1"} <= set(errors)

    def test_battery_runs_beta_once_per_orbit(self, monkeypatch):
        calls = []

        def counted(X, Z):
            calls.append(Z.label)
            return beta(X, Z)

        monkeypatch.setattr(stability, "beta", counted)
        counts = {}
        for X in catalog().values():
            calls.clear()
            semistability_scan(X, standard_battery(X))
            counts[X.name] = len(calls)
        # on P1 divisor@(1,) is point@0's ideal; on P112 the divisors of
        # (1, 0) and (-1, -2) share an orbit through the singular chart
        assert counts == {"P1": 2, "P2": 3, "P1xP1": 3, "dP6": 3, "P3": 3,
                          "P1xP2": 4, "P112": 4}

    def test_beta_is_invariant_under_every_automorphism(self):
        for X in [*catalog().values(), CHIRAL]:
            Z = MonomialSubscheme(label="asym", dimension=X.dimension,
                                  chart_gens={X.smooth_chart_indices()[0]:
                                              ASYMMETRIC[X.name]})
            images = [helpers.fan_image(X, g.matrix, Z, "asym")
                      for g in X.automorphisms]
            assert len({tuple(sorted(W.chart_gens.items())) for W in images}) > 1
            expected = beta(X, Z)
            for W in images:
                assert beta(X, W) == expected, (X.name, W.chart_gens)

    def test_data_of_the_wrong_arity_is_not_shared(self):
        # beta refuses data written for another fan, so each such candidate
        # is an error entry naming itself and no orbit is keyed on it
        X = catalog_model("P2")
        candidates = [
            MonomialSubscheme(label="long", dimension=2,
                              chart_gens={0: ((1, 0, 0), (0, 1, 0))}),
            MonomialSubscheme(label="short", dimension=2, chart_gens={0: ((1,),)}),
            MonomialSubscheme(label="solid", dimension=3, chart_gens={0: ((1, 0, 0),)}),
            MonomialSubscheme(label="bare", dimension=2, chart_gens={0: ((1, 0),)})]
        sc = semistability_scan(X, candidates)
        assert sc == _plain_scan(X, candidates)
        for entry in sc.entries[:3]:
            assert entry.error.startswith("UnsupportedSubscheme: " + entry.subscheme)
        assert sc.entries[3].report is not None

    def test_negative_exponents_are_error_entries(self):
        # a Laurent monomial names no ideal: refused, never a beta
        X = catalog_model("P2")
        candidates = [MonomialSubscheme(label=f"neg{k}", dimension=2,
                                        chart_gens={0: ((-1, 1), (1, 0))})
                      for k in range(2)]
        sc = semistability_scan(X, candidates)
        assert [e.report for e in sc.entries] == [None, None]
        for entry in sc.entries:
            assert entry.error.startswith("UnsupportedSubscheme: " + entry.subscheme)
            assert "chart 0" in entry.error and "negative" in entry.error

    def test_orbit_keys_are_the_images_one_automorphism_at_a_time(self):
        # the per-call table of permuted charts gives the same keys, in
        # the group's order and with repeats, as moving Z by each
        # automorphism's lattice map on its own
        for X in [*catalog().values(), CHIRAL]:
            n = X.dimension
            candidates = standard_battery(X) + [
                MonomialSubscheme(label=f"asym@{i}", dimension=n,
                                  chart_gens={i: ASYMMETRIC[X.name]})
                for i in range(len(X.charts))]
            for Z in candidates:
                longhand = [stability._scan_key(
                    helpers.fan_image(X, g.matrix, Z, "image").chart_gens)
                    for g in X.automorphisms]
                assert stability._orbit_keys(X, Z) == longhand, (X.name, Z.label)

    @settings(max_examples=15, deadline=None)
    @given(decreasing_sequences(), st.data())
    def test_drawn_candidates_match_the_plain_loop(self, drawn, data):
        X, S = drawn
        candidates = []
        for Z in S.steps:
            g = data.draw(st.sampled_from(X.automorphisms))
            candidates += [Z, helpers.fan_image(X, g.matrix, Z, f"{Z.label}'")]
        assert semistability_scan(X, candidates) == _plain_scan(X, candidates)
