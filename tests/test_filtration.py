"""Filtration levels, saturation, weight series, and limit slopes.

Frozen expected values come from hand computation on P1 and P2 (recorded
in the working notes): level dimensions on P1, v_r(k) = 4 k^2 r^2 + 2 k r
for the point filtration on P1, A_r = 4 with limit slope -1, the limit
slope -1 on P2, and v = k r h0 for the trivial sequence.
"""

from fractions import Fraction
from functools import cache
from math import ceil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanokit.lattice as lattice_mod
import fanokit.oracles as oracles_mod
import fanokit.subscheme as subscheme_mod
from fanokit.errors import (CombinatorialBlowup, NoStabilization,
                            UnsupportedSubscheme, ZeroIdeal)
from fanokit.filtration import (_leading_integral, _pairing_column,
                                compute_d_infty, ideal_power_filtration,
                                induced_ideal_sequence, saturate,
                                saturate_points)
from fanokit.model import CATALOG_RAYS, catalog_model
from fanokit.polytope import lattice_fibers, lattice_points
from fanokit.oracles import (oracle_h0_quotient, oracle_weight_records,
                             stable_leading_difference)
from fanokit.subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                               _subscheme_contains, boundary_divisor_subscheme,
                               point_subscheme, product, product_dual_vertices,
                               product_gens, standard_battery,
                               thickened_point_subscheme)
from helpers import monomial_power_membership


def _point_filtration(name):
    X = catalog_model(name)
    return X, ideal_power_filtration(X, point_subscheme(X, 0))


def _trivial_sequence(X, r):
    """r unit steps, then r steps that are zero on every chart."""
    unit = MonomialSubscheme(label="unit", dimension=X.dimension)
    zero = MonomialSubscheme(label="zero", dimension=X.dimension,
                             chart_gens={c: () for c in range(len(X.charts))})
    return IdealSequenceOnXxA1(steps=(unit,) * r + (zero,) * r)


def _window_records(F, r, k_max):
    """The weight records of the window's steps at r, counted by the
    oracle on the induced sequence; level j there is F's level
    j + k r e_minus."""
    return oracle_weight_records(F.X, induced_ideal_sequence(F, r), r, k_max)


def _chart_product(A, B, chart_count):
    """Chartwise product ideal of two subschemes, for the product law."""
    gens = {}
    for idx in range(chart_count):
        ga, gb = A.gens_on(idx), B.gens_on(idx)
        if ga is None and gb is None:
            continue
        if ga is None:
            gens[idx] = gb
        elif gb is None:
            gens[idx] = ga
        elif len(ga) == 0 or len(gb) == 0:
            gens[idx] = ()
        else:
            gens[idx] = tuple(tuple(a + b for a, b in zip(g, h))
                              for g in ga for h in gb)
    return MonomialSubscheme(label=f"{A.label}*{B.label}",
                             dimension=A.dimension, chart_gens=gens)


class TestLevels:
    def test_p1_point_window(self):
        X, F = _point_filtration("P1")
        assert (F.e_minus, F.e_plus) == (-1, 3)
        assert F.e_max_est == 2

    def test_p1_level_one_keeps_two_of_three(self):
        X, F = _point_filtration("P1")
        assert F.sections(1) == ((-1,), (0,), (1,))
        assert F.value(1, 1) == ((0,), (1,))

    def test_negative_levels_are_full(self):
        X, F = _point_filtration("P1")
        assert F.value(1, -2) == F.sections(1)
        assert F.value(3, Fraction(-1, 2)) == F.sections(3)

    def test_powers_build_on_the_previous_one(self):
        X = catalog_model("P1xP2")
        Z = point_subscheme(X, 1)
        F = ideal_power_filtration(X, Z)
        chain = [Z]
        for _ in range(4):
            chain.append(product(chain[-1], Z))
        for m in (3, 5, 2, 4):
            assert F.level_step(m) == m
            assert Z.power(m).label == f"point@1^{m}"
            assert Z.power(m).chart_gens == chain[m - 1].chart_gens
        assert F.level_step(1) == 1
        assert Z.power(1).chart_gens == Z.chart_gens

    def test_fractional_level_rounds_up(self):
        X, F = _point_filtration("P1")
        assert F.value(1, Fraction(1, 2)) == F.value(1, 1)

    def test_p2_level_four_is_empty(self):
        X, F = _point_filtration("P2")
        assert F.value(1, 4) == ()

    def test_zero_ideal_refused(self):
        X = catalog_model("P1")
        zero = MonomialSubscheme(label="z", dimension=1, chart_gens={0: ()})
        with pytest.raises(ZeroIdeal):
            ideal_power_filtration(X, zero)


class TestSaturate:
    def test_p1_level_one_saturation(self):
        X, F = _point_filtration("P1")
        ideal, closure = saturate(F, 1, 1)
        assert dict(ideal.chart_gens) == {0: ((1,),)}
        assert closure == F.value(1, 1)

    def test_ideal_contained_in_defining_power(self):
        X, F = _point_filtration("P2")
        for r, x in [(1, 1), (1, 2), (2, 3), (2, Fraction(5, 2))]:
            ideal, _ = saturate(F, r, x)
            assert _subscheme_contains(F.subscheme.power(ceil(x)), ideal)

    def test_ideal_power_levels_already_saturated(self):
        X, F = _point_filtration("P2")
        for r, x in [(1, 1), (1, 2), (2, 1), (2, 4), (3, Fraction(7, 2))]:
            _, closure = saturate(F, r, x)
            assert closure == F.value(r, x)

    def test_full_level_gives_unit(self):
        X, F = _point_filtration("P1")
        ideal, closure = saturate(F, 2, -2)
        assert ideal.is_empty
        assert closure == F.sections(2)

    def test_empty_level_gives_zero(self):
        X, F = _point_filtration("P2")
        ideal, closure = saturate(F, 1, 4)
        assert closure == ()
        assert ideal.has_zero_chart
        assert set(ideal.active_chart_indices()) == set(range(len(X.charts)))

    def test_labels_do_not_depend_on_call_order(self):
        X, first = _point_filtration("P1")
        _, later = _point_filtration("P1")
        saturate(first, 1, Fraction(1, 2))
        assert ([s.label for s in induced_ideal_sequence(first, 1).steps]
                == [s.label for s in induced_ideal_sequence(later, 1).steps]
                == [f"sat(r=1,step={m})" for m in (0, 1, 2, 3)])

    def test_idempotent(self):
        X, F = _point_filtration("P2")
        first, closure = saturate(F, 1, 2)
        second, closure2 = saturate_points(X, 1, closure)
        assert dict(second.chart_gens) == dict(first.chart_gens)
        assert closure2 == closure

    @pytest.mark.parametrize("name", sorted(CATALOG_RAYS))
    def test_every_window_step_is_the_saturation_of_its_value(self, name):
        # the multi-level tables at r against the 0/1 tables of each value,
        # over every step index of the window and one past it
        X, F = _point_filtration(name)
        for r in (1, 2):
            indices = set()
            for x in range(r * F.e_minus, r * F.e_plus + 2):
                indices.add(F.level_step(x))
                ideal, closure = saturate(F, r, x)
                again, closure2 = saturate_points(X, r, F.value(r, x))
                assert (again.chart_gens, closure2) == (ideal.chart_gens, closure)
            assert indices == set(range(max(indices) + 1))

    @pytest.mark.parametrize("name", sorted(CATALOG_RAYS))
    def test_saturations_are_minimalised_once(self, name, monkeypatch):
        # the table corners are already minimal: saturate calls no
        # minimalize, and each ideal is in the constructor's normal form
        X, F = _point_filtration(name)
        calls = []
        real = lattice_mod.minimalize
        monkeypatch.setattr(lattice_mod, "minimalize", lambda gens: calls.append(gens) or real(gens))
        ideals = [saturate(F, r, x)[0] for r in (1, 2)
                  for x in range(r * F.e_minus, r * F.e_plus + 2)]
        assert calls == []
        monkeypatch.undo()
        assert ideals == [MonomialSubscheme(label=Z.label, dimension=Z.dimension,
                                            chart_gens=Z.chart_gens) for Z in ideals]

    def test_tables_refuse_past_the_cell_cap(self, monkeypatch):
        # the P2 tables at r = 1 span 4 x 4 cells
        X, F = _point_filtration("P2")
        expected = F.value(1, 1), saturate(F, 1, 1)
        monkeypatch.setattr(subscheme_mod, "CELL_CAP", 16)
        X, F = _point_filtration("P2")
        assert (F.value(1, 1), saturate(F, 1, 1)) == expected
        monkeypatch.setattr(subscheme_mod, "CELL_CAP", 8)
        X, F = _point_filtration("P2")
        with pytest.raises(CombinatorialBlowup):
            F.value(1, 1)
        with pytest.raises(CombinatorialBlowup):
            saturate(F, 1, 1)


class TestSaturationLaws:
    """Product, monotonicity, vanishing, fullness, closure, idempotence."""

    def _filtrations(self):
        p2 = catalog_model("P2")
        p1 = catalog_model("P1")
        p112 = catalog_model("P112")
        return [
            (p1, ideal_power_filtration(p1, point_subscheme(p1, 0))),
            (p2, ideal_power_filtration(p2, point_subscheme(p2, 0))),
            (p112, ideal_power_filtration(
                p112, boundary_divisor_subscheme(p112, (1, 0)))),
        ]

    def test_product_law(self):
        rng = random.Random(11)
        for X, F in self._filtrations():
            for _ in range(6):
                r1 = rng.randint(1, 2)
                r2 = rng.randint(1, 2)
                x1 = Fraction(rng.randint(-4, 4 * r1), 2)
                x2 = Fraction(rng.randint(-4, 4 * r2), 2)
                a, _ = saturate(F, r1, x1)
                b, _ = saturate(F, r2, x2)
                target, _ = saturate(F, r1 + r2, x1 + x2)
                prod = _chart_product(a, b, len(X.charts))
                assert _subscheme_contains(target, prod), (X.name, x1, x2)

    def test_monotone_in_x(self):
        rng = random.Random(13)
        for X, F in self._filtrations():
            for _ in range(8):
                r = rng.randint(1, 3)
                x1 = Fraction(rng.randint(-4, 4 * r), 2)
                x2 = x1 + Fraction(rng.randint(0, 6), 2)
                small, _ = saturate(F, r, x2)
                big, _ = saturate(F, r, x1)
                assert _subscheme_contains(big, small)
                assert set(F.value(r, x2)) <= set(F.value(r, x1))

    def test_vanishing_beyond_e_max(self):
        for X, F in self._filtrations():
            for r in (1, 2):
                x = r * F.e_max_est + Fraction(1, 2)
                assert F.value(r, x) == ()
                ideal, _ = saturate(F, r, x)
                assert ideal.has_zero_chart

    def test_full_below_e_min(self):
        for X, F in self._filtrations():
            for r in (1, 2, 3):
                assert F.value(r, r * F.e_minus) == F.sections(r)
                assert saturate(F, r, r * F.e_minus)[0].is_empty

    def test_value_inside_closure(self):
        rng = random.Random(17)
        for X, F in self._filtrations():
            for _ in range(6):
                r = rng.randint(1, 3)
                x = Fraction(rng.randint(-2, 4 * r), 2)
                _, closure = saturate(F, r, x)
                assert set(F.value(r, x)) <= set(closure)

    def test_idempotence(self):
        rng = random.Random(19)
        for X, F in self._filtrations():
            for _ in range(4):
                r = rng.randint(1, 2)
                x = Fraction(rng.randint(0, 4 * r), 2)
                ideal, closure = saturate(F, r, x)
                again, closure2 = saturate_points(X, r, closure)
                assert dict(again.chart_gens) == dict(ideal.chart_gens)
                assert closure2 == closure


def _image(X, c, u, level):
    return tuple(sum(a * x for a, x in zip(ray, u)) + level
                 for ray in X.charts[c].cone_rays)


@cache
def _battery_filtration(name, index):
    X = catalog_model(name)
    Z = standard_battery(X)[index]
    return X, Z, ideal_power_filtration(X, Z)


@st.composite
def _battery_draws(draw):
    """(model, battery subscheme, its filtration, r, x) with r <= 3 and
    ceil(x) <= 3, so the longhand power expansion stays small."""
    name = draw(st.sampled_from(sorted(CATALOG_RAYS)))
    size = len(standard_battery(catalog_model(name)))
    X, Z, F = _battery_filtration(name, draw(st.integers(0, size - 1)))
    r = draw(st.integers(1, 3))
    den = r * X.r0
    x = Fraction(draw(st.integers(-den, 3 * den)), den)
    return X, Z, F, r, x


class TestMembership:
    """Values and closures against longhand membership: power expansion
    of each chart image, and dominance scans over generators."""

    @given(_battery_draws())
    @settings(max_examples=60, deadline=None)
    def test_value_is_longhand_power_membership(self, draw):
        X, Z, F, r, x = draw
        level = r * X.r0
        assert F.value(r, x) == tuple(
            u for u in F.sections(r)
            if all(monomial_power_membership(_image(X, c, u, level), gens, ceil(x))
                   for c, gens in Z.chart_gens.items()))

    @given(_battery_draws())
    @settings(max_examples=60, deadline=None)
    def test_saturation_is_longhand_dominance(self, draw):
        X, Z, F, r, x = draw
        level = r * X.r0
        value, sections = F.value(r, x), F.sections(r)
        ideal, closure = saturate(F, r, x)
        assert closure == tuple(
            u for u in sections
            if all(any(all(p >= e for p, e in zip(_image(X, c, u, level), g))
                       for g in gens)
                   for c, gens in ideal.chart_gens.items()))
        if 0 < len(value) < len(sections):
            for c in range(len(X.charts)):
                images = {_image(X, c, u, level) for u in value}
                minimal = tuple(sorted(
                    g for g in images
                    if not any(h != g and all(a >= b for a, b in zip(g, h))
                               for h in images)))
                unit = (0,) * len(X.charts[c].cone_rays) in images
                assert ideal.gens_on(c) == (None if unit else minimal)

    def test_p112_divisor_through_the_singular_chart(self):
        X = catalog_model("P112")
        F = ideal_power_filtration(X, boundary_divisor_subscheme(X, (1, 0)))
        assert not X.charts[1].smooth
        for r, x in [(1, 1), (1, 2), (2, 1), (2, 3), (3, Fraction(5, 3))]:
            assert F.value(r, x) == tuple(
                u for u in F.sections(r) if u[0] + r * X.r0 >= ceil(x))
        ideal, closure = saturate(F, 1, 1)
        assert dict(ideal.chart_gens) == {0: ((0, 1),), 1: ((0, 2), (1, 1))}
        assert closure == F.value(1, 1)

    def test_ray_alone_reads_as_its_divisor(self):
        # no chart generators: every level reads the ray's pairing column
        X = catalog_model("P112")
        bare = MonomialSubscheme(label="bare", dimension=2, boundary_ray=(1, 0))
        report = compute_d_infty(ideal_power_filtration(X, bare), r_list=(1, 2))
        divisor = boundary_divisor_subscheme(X, (1, 0))
        assert report == compute_d_infty(ideal_power_filtration(X, divisor), r_list=(1, 2))
        assert report.d_samples == ((1, Fraction(-8, 3)), (2, Fraction(-8, 3)))

    def test_ray_of_another_fan_refused(self):
        X = catalog_model("P2")
        far = MonomialSubscheme(label="far", dimension=2, boundary_ray=(1, 1))
        with pytest.raises(UnsupportedSubscheme, match="not a ray"):
            ideal_power_filtration(X, far)

    def test_high_degree_generators_cost_no_cells(self):
        # a dense table over these generators would hold 10^9 cells
        X = catalog_model("P3")
        Z = MonomialSubscheme(label="big", dimension=3, chart_gens={
            0: ((1000, 0, 0), (0, 1000, 0), (0, 0, 1000))})
        F = ideal_power_filtration(X, Z)
        assert F.value(1, 1) == ()
        report = compute_d_infty(F, r_list=(1,))
        assert report.d_infty == Fraction(-997, 1000)

    def test_wrong_arity_refused(self):
        X = catalog_model("P2")
        bad = MonomialSubscheme(label="bad", dimension=2,
                                chart_gens={0: ((1, 0, 0),)})
        with pytest.raises(UnsupportedSubscheme, match="arity"):
            ideal_power_filtration(X, bad)

    def test_saturate_points_refuses_non_sections(self):
        X = catalog_model("P2")
        with pytest.raises(ValueError, match="outside"):
            saturate_points(X, 1, [(0, 0), (5, 5)])


class TestWeightSeries:
    def test_p1_point_frozen_values(self):
        X, F = _point_filtration("P1")
        for r in (1, 2):
            for rec in _window_records(F, r, 6):
                k = rec.k
                assert rec.h0 == 2 * k * r + 1
                assert rec.v == 4 * k * k * r * r + 2 * k * r
                assert rec.w == -4 * k * r * rec.h0 + rec.v

    def test_p1_level_dims_at_k_one(self):
        X, F = _point_filtration("P1")
        rec, = _window_records(F, 1, 1)
        assert rec.level_dims == ((1, 3), (2, 2), (3, 1), (4, 0))
        assert rec.v == 6

    def test_k_one_matches_per_level_sections(self):
        X, F = _point_filtration("P2")
        rec, = _window_records(F, 2, 1)
        for j, dim in rec.level_dims:
            assert dim == len(F.value(2, j + 2 * F.e_minus))

    def test_fourth_differences_vanish(self):
        X, F = _point_filtration("P1")
        ws = [rec.w for rec in _window_records(F, 2, 6)]
        for _ in range(4):
            ws = [b - a for a, b in zip(ws, ws[1:])]
        assert all(x == 0 for x in ws)

    def test_trivial_filtration_weights(self):
        X = catalog_model("P2")
        for r in (1, 2):
            for rec in oracle_weight_records(X, _trivial_sequence(X, r), r, 4):
                assert rec.v == rec.k * r * rec.h0
                assert rec.w == -rec.k * r * rec.h0

    def test_weight_identity_against_quotient_oracle(self):
        X, F = _point_filtration("P1")
        for r in (1, 2):
            seq = induced_ideal_sequence(F, r)
            for rec in oracle_weight_records(X, seq, r, 3):
                assert rec.w == -oracle_h0_quotient(X, seq, r, rec.k)

    def test_weight_identity_on_p2(self):
        X, F = _point_filtration("P2")
        seq = induced_ideal_sequence(F, 1)
        for rec in oracle_weight_records(X, seq, 1, 2):
            assert rec.w == -oracle_h0_quotient(X, seq, 1, rec.k)

    def test_graded_piece_inside_saturation(self):
        # dim of each k-th power piece is bounded by the saturated level
        # dimension at kr, the computable half of the limit sandwich
        X, F = _point_filtration("P2")
        for r in (1, 2):
            for rec in _window_records(F, r, 3):
                shift = rec.k * r * F.e_minus
                for j, dim in rec.level_dims:
                    _, closure = saturate(F, rec.k * r, j + shift)
                    assert dim <= len(closure)

    def test_pairing_column_descends_for_a_negative_last_entry(self):
        fibers = [((0,), -1, 1), ((2,), 0, 0)]
        assert _pairing_column((1, -1), fibers, 1) == [2, 1, 0, 3]
        assert _pairing_column((1, 0), fibers, 1) == [1, 1, 1, 3]
        assert _pairing_column((1, 2), fibers, 1) == [-1, 1, 3, 3]

    def test_pairing_columns_match_pointwise_pairing(self):
        X = catalog_model("P1xP2")
        rays = sorted({ray for chart in X.charts for ray in chart.cone_rays})
        assert {ray[-1] for ray in rays} == {-1, 0, 1}
        for s in (1, 3):
            level = s * X.r0
            fibers = lattice_fibers(X.polytope, level)
            pts = lattice_points(X.polytope, level)
            for ray in rays:
                assert _pairing_column(ray, fibers, level) == [
                    sum(a * x for a, x in zip(ray, u)) + level for u in pts]

    def test_generator_cap(self, monkeypatch):
        # the P2 point tables have 4 x 4 cells at k = 1, 10 x 10 at k = 3
        monkeypatch.setattr(oracles_mod, "CELL_CAP", 16)
        X, F = _point_filtration("P2")
        _window_records(F, 1, 1)
        with pytest.raises(CombinatorialBlowup):
            _window_records(F, 1, 3)


class TestDInfty:
    def test_p1_point_report(self):
        X, F = _point_filtration("P1")
        report = compute_d_infty(F, r_list=(1, 2, 4, 8))
        assert report.r1 == 1
        assert report.a_limit == 4
        assert all(a == 4 for _, a in report.a_samples)
        assert all(d == -1 for _, d in report.d_samples)
        assert report.d_infty == -1
        gap_first = abs(report.a_samples[0][1] - report.a_limit)
        gap_last = abs(report.a_samples[-1][1] - report.a_limit)
        assert gap_last <= gap_first

    def test_p2_point_report(self):
        X, F = _point_filtration("P2")
        assert F.e_plus == 4
        report = compute_d_infty(F, r_list=(1,))
        assert report.a_limit == 27
        assert report.d_infty == -1
        assert all(a <= report.a_limit for _, a in report.a_samples)

    def test_needs_enough_k(self):
        # four weight records are too few to show the leading difference
        # settled; the slope is the exact integral at any budget
        X, F = _point_filtration("P1")
        with pytest.raises(NoStabilization):
            stable_leading_difference([rec.v for rec in _window_records(F, 1, 4)], 2)
        report = compute_d_infty(F, r_list=(1,), k_max=4)
        assert report.a_samples == ((1, 4),)
        assert report.d_samples == ((1, -1),)


def _p2_point_steps(X, r):
    """Steps on P2 that are powers of the point at levels other than
    their exponents: at r = 1 the unit ideal, pt, pt^2, then zero; at
    r = 2 two unit steps, pt, pt^2 twice, pt^3, then zero twice."""
    pt = point_subscheme(X, 0)
    pt2 = thickened_point_subscheme(X, 0)
    unit, zero = _trivial_sequence(X, 1).steps
    steps = {1: (unit, pt, pt2, zero),
             2: (unit, unit, pt, pt2, pt2, pt.power(3), zero, zero)}[r]
    return IdealSequenceOnXxA1(steps=steps)


def _battery_filtration_at(name, label):
    X = catalog_model(name)
    Z = next(Z for Z in standard_battery(X) if Z.label == label)
    return X, ideal_power_filtration(X, Z)


class TestLeadingIntegral:
    """The exact A_r against the stabilised leading difference of the
    weight sums v_r(k), the lattice count it replaced as the value route.
    A filtration's A_r is read off its report; a t-graded ideal given by
    a function of (X, r) goes through _leading_integral, as ding_invariant
    reads it."""

    CASES = [
        # the P1 window at r = 1 ends in a zero step
        (lambda: _point_filtration("P1"), (1, 2)),
        (lambda: _point_filtration("P2"), (1,)),
        (lambda: _point_filtration("P1xP2"), (1,)),
        (lambda: _battery_filtration_at("P1xP1", "point2@0"), (1,)),
        (lambda: _battery_filtration_at("dP6", "divisor@(1, 1)"), (1,)),
        # divisor through the singular chart, ray pairings over its cone
        (lambda: _battery_filtration_at("P112", "divisor@(1, 0)"), (1, 2)),
        (lambda: _battery_filtration_at("P112", "point@0"), (1,)),
        # unit steps, then steps that are zero on every chart
        (lambda: (catalog_model("P2"), _trivial_sequence), (1, 2)),
        (lambda: (catalog_model("P2"), _p2_point_steps), (1, 2)),
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_matches_weight_count(self, index):
        build, r_list = self.CASES[index]
        X, source = build()
        n = X.dimension
        if callable(source):
            sequences = {r: source(X, r) for r in r_list}
            leads = {r: _leading_integral(X, r, S.M, product_dual_vertices(X, S.steps))
                     for r, S in sequences.items()}
        else:
            sequences = {r: induced_ideal_sequence(source, r) for r in r_list}
            leads = {r: a_r * (n + 1) * (r * X.r0) ** (n + 1)
                     for r, a_r in compute_d_infty(source, r_list=r_list).a_samples}
        for r, S in sequences.items():
            values = [rec.v for rec in oracle_weight_records(X, S, r, 8)]
            assert leads[r] == stable_leading_difference(values, n + 1)


class TestInducedSequence:
    def test_p1_point_sequence(self):
        X, F = _point_filtration("P1")
        seq = induced_ideal_sequence(F, 1)
        assert seq.M == 4
        assert seq.steps[0].is_empty
        assert dict(seq.steps[1].chart_gens) == {0: ((1,),)}
        assert seq.steps[3].has_zero_chart
        assert product_gens(X, seq.steps, 0) == ((0, 3), (1, 2), (2, 1))

    def test_scales_with_r(self):
        X, F = _point_filtration("P1")
        seq = induced_ideal_sequence(F, 2)
        assert seq.M == 8
        assert product_gens(X, seq.steps, 0) == (
            (0, 6), (1, 5), (2, 4), (3, 3), (4, 2))

    def test_singular_chart_sequence_builds(self):
        X = catalog_model("P112")
        F = ideal_power_filtration(
            X, boundary_divisor_subscheme(X, (1, 0)))
        seq = induced_ideal_sequence(F, 1)
        assert seq.M == F.e_plus - F.e_minus
