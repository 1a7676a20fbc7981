"""Filtration levels, saturation, weight series, and limit slopes.

Frozen expected values come from hand computation on P1 and P2 (recorded
in the working notes): level dimensions on P1, v_r(k) = 4 k^2 r^2 + 2 k r
for the point filtration on P1, A_r = 4 with limit slope -1, the limit
slope -1 on P2, and v = k r h0 for the trivial filtration.
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
from fanokit.errors import (CombinatorialBlowup, NoStabilization, R1NotFound,
                            UnsupportedSubscheme, ZeroIdeal)
from fanokit.filtration import (_pairing_column, compute_d_infty,
                                explicit_filtration, find_r1,
                                ideal_power_filtration,
                                induced_ideal_sequence, saturate,
                                saturate_points)
from fanokit.model import CATALOG_RAYS, catalog_model
from fanokit.polytope import lattice_fibers, lattice_points
from fanokit.oracles import (oracle_h0_quotient, oracle_weight_records,
                             stable_leading_difference)
from fanokit.subscheme import (MonomialSubscheme, _subscheme_contains,
                               boundary_divisor_subscheme, point_subscheme,
                               product, product_gens, standard_battery,
                               thickened_point_subscheme)
from helpers import monomial_power_membership


def _point_filtration(name):
    X = catalog_model(name)
    return X, ideal_power_filtration(X, point_subscheme(X, 0))


def _trivial_filtration(name, r_max=16):
    X = catalog_model(name)
    table = {r: [(0, None)] for r in range(1, r_max + 1)}
    return X, explicit_filtration(X, table, e_plus=1, e_minus=-1)


def _shifted_filtration():
    """An explicit filtration whose unit row ends at x = 1, above e_minus."""
    X = catalog_model("P1")
    pt = point_subscheme(X, 0)
    table = {r: [(1, None), (2, pt), (3, pt.power(2))] for r in (1, 2)}
    return X, explicit_filtration(X, table, e_plus=4, e_minus=0)


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
        assert F.e_min_est == 0
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
            assert F.level_step(1, m) == m
            assert Z.power(m).label == f"point@1^{m}"
            assert Z.power(m).chart_gens == chain[m - 1].chart_gens
        assert F.level_step(1, 1) == 1
        assert Z.power(1).chart_gens == Z.chart_gens

    def test_fractional_level_rounds_up(self):
        X, F = _point_filtration("P1")
        assert F.value(1, Fraction(1, 2)) == F.value(1, 1)

    def test_p2_level_four_is_empty(self):
        X, F = _point_filtration("P2")
        assert F.value(1, 4) == ()

    def test_explicit_missing_row(self):
        X = catalog_model("P1")
        F = explicit_filtration(X, {1: [(0, None)]}, e_plus=1, e_minus=-1)
        with pytest.raises(KeyError):
            F.value(2, 0)

    def test_zero_ideal_refused(self):
        X = catalog_model("P1")
        zero = MonomialSubscheme(label="z", dimension=1, chart_gens={0: ()})
        with pytest.raises(ZeroIdeal):
            ideal_power_filtration(X, zero)


class TestExplicitValidation:
    def setup_method(self):
        self.X = catalog_model("P1")
        self.pt = point_subscheme(self.X, 0)

    def test_first_entry_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            explicit_filtration(self.X, {1: [(0, self.pt)]},
                                e_plus=1, e_minus=-1)

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError, match="increase"):
            explicit_filtration(self.X, {1: [(0, None), (0, self.pt)]},
                                e_plus=1, e_minus=-1)

    def test_entries_must_decrease(self):
        with pytest.raises(ValueError, match="decrease"):
            explicit_filtration(
                self.X,
                {1: [(0, None), (1, self.pt.power(2)), (2, self.pt)]},
                e_plus=3, e_minus=-1)

    def test_row_carried_by_its_ray_alone_is_not_the_unit(self):
        # whether point@0 lies in the ray's divisor is the model's to say
        X = catalog_model("P112")
        bare = MonomialSubscheme(label="bare", dimension=2, boundary_ray=(1, 0))
        with pytest.raises(UnsupportedSubscheme, match="point@0 lies in bare"):
            explicit_filtration(X, {1: [(0, None), (1, bare), (2, point_subscheme(X, 0))]},
                                e_plus=3, e_minus=-1)

    def test_window_must_bracket_estimates(self):
        with pytest.raises(ValueError, match="e_plus"):
            explicit_filtration(self.X, {1: [(0, None), (2, self.pt)]},
                                e_plus=2, e_minus=-1)
        with pytest.raises(ValueError, match="e_minus"):
            explicit_filtration(self.X, {1: [(0, None), (2, self.pt)]},
                                e_plus=3, e_minus=0)


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

    @pytest.mark.parametrize("name", [*sorted(CATALOG_RAYS), "shifted"])
    def test_every_window_step_is_the_saturation_of_its_value(self, name):
        # the multi-level tables at r against the 0/1 tables of each value,
        # over every step index of the window and one past it
        X, F = _shifted_filtration() if name == "shifted" else _point_filtration(name)
        for r in (1, 2):
            indices = set()
            for x in range(r * F.e_minus, r * F.e_plus + 2):
                indices.add(F.level_step(r, x))
                ideal, closure = saturate(F, r, x)
                again, closure2 = saturate_points(X, r, F.value(r, x))
                assert (again.chart_gens, closure2) == (ideal.chart_gens, closure)
            assert indices == set(range(max(indices) + 1))

    @pytest.mark.parametrize("name", [*sorted(CATALOG_RAYS), "shifted"])
    def test_saturations_are_minimalised_once(self, name, monkeypatch):
        # the table corners are already minimal: saturate calls no
        # minimalize, and each ideal is in the constructor's normal form
        X, F = _shifted_filtration() if name == "shifted" else _point_filtration(name)
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
        # the P2 tables at r = 1 span 4 x 4 cells, but the explicit order
        # table, clipped to its generators, 3 x 3
        for build in (lambda: _point_filtration("P2"), _explicit_p2_filtration):
            X, F = build()
            expected = F.value(1, 1), saturate(F, 1, 1)
            monkeypatch.setattr(subscheme_mod, "CELL_CAP", 16)
            X, F = build()
            assert (F.value(1, 1), saturate(F, 1, 1)) == expected
            monkeypatch.setattr(subscheme_mod, "CELL_CAP", 8)
            X, F = build()
            with pytest.raises(CombinatorialBlowup):
                F.value(1, 1)
            with pytest.raises(CombinatorialBlowup):
                saturate(F, 1, 1)
            monkeypatch.undo()


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
            assert find_r1(F) == 1

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

    def test_explicit_row_carried_by_its_ray_alone(self):
        # a table step with no chart generators reads its ray's divisor,
        # on the smooth chart and on the singular one alike
        X = catalog_model("P112")
        bare = MonomialSubscheme(label="bare", dimension=2, boundary_ray=(1, 0))
        divisor = boundary_divisor_subscheme(X, (1, 0))
        specs = [explicit_filtration(X, {r: [(0, None), (r, Z)] for r in (1, 2)},
                                     e_plus=2, e_minus=-1) for Z in (bare, divisor)]
        assert [len(F.value(1, 1)) for F in specs] == [6, 6]
        assert compute_d_infty(specs[0], r_list=(1, 2)) == compute_d_infty(specs[1], r_list=(1, 2))

    def test_ray_of_another_fan_refused(self):
        X = catalog_model("P2")
        far = MonomialSubscheme(label="far", dimension=2, boundary_ray=(1, 1))
        F = ideal_power_filtration(X, far)
        with pytest.raises(UnsupportedSubscheme, match="not a ray"):
            F.value(1, 1)

    def test_zero_chart_keeps_nothing(self):
        X = catalog_model("P2")
        pt = point_subscheme(X, 0)
        zero = MonomialSubscheme(label="z", dimension=2,
                                 chart_gens={0: (), 1: ((1, 0),)})
        F = explicit_filtration(X, {1: [(0, None), (1, pt), (2, zero)]},
                                e_plus=3, e_minus=-1)
        assert F.value(1, 2) == ()
        assert saturate(F, 1, 2)[1] == ()

    def test_no_active_chart_keeps_everything(self):
        X = catalog_model("P2")
        unit = MonomialSubscheme(label="unit", dimension=2)
        F = explicit_filtration(X, {1: [(0, None), (1, unit)]},
                                e_plus=2, e_minus=-1)
        assert F.value(1, 1) == F.sections(1)
        ideal, closure = saturate(F, 1, 1)
        assert ideal.is_empty and closure == F.sections(1)

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
        F = explicit_filtration(X, {1: [(0, None), (1, bad)]},
                                e_plus=2, e_minus=-1)
        with pytest.raises(UnsupportedSubscheme, match="arity"):
            F.value(1, 1)
        far = MonomialSubscheme(label="far", dimension=2, chart_gens={7: ((1, 0),)})
        F = explicit_filtration(X, {1: [(0, None), (1, far)]},
                                e_plus=2, e_minus=-1)
        with pytest.raises(UnsupportedSubscheme, match="chart 7 is not one of"):
            F.value(1, 1)

    def test_saturate_points_refuses_non_sections(self):
        X = catalog_model("P2")
        with pytest.raises(ValueError, match="outside"):
            saturate_points(X, 1, [(0, 0), (5, 5)])


class TestFindR1:
    def test_ideal_power_is_one(self):
        for name in ("P1", "P2"):
            X, F = _point_filtration(name)
            assert find_r1(F) == 1

    def test_shifted_table(self):
        X, F = _shifted_filtration()
        assert find_r1(F) == 1

    def test_missing_row_propagates(self):
        X = catalog_model("P1")
        F = explicit_filtration(X, {1: [(0, None)]}, e_plus=1, e_minus=-1)
        with pytest.raises(KeyError):
            find_r1(F)

    def test_not_found_under_dishonest_estimate(self):
        X = catalog_model("P1")
        pt = point_subscheme(X, 0)
        table = {r: [(-1, None), (0, pt)] for r in range(1, 129)}
        F = explicit_filtration(X, table, e_plus=1, e_minus=0, e_min_est=5)
        with pytest.raises(R1NotFound) as info:
            find_r1(F)
        assert info.value.cap == 64


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
        X, F = _trivial_filtration("P2", r_max=4)
        for r in (1, 2):
            for rec in _window_records(F, r, 4):
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

    def test_requires_fullness_at_window_bottom(self):
        # an e_min_est above the true one lets the window start where
        # the filtration is not yet full
        X = catalog_model("P1")
        F = explicit_filtration(X, {1: [(-1, None), (0, point_subscheme(X, 0))]},
                                e_plus=1, e_minus=0, e_min_est=5)
        with pytest.raises(ValueError, match="below r1"):
            induced_ideal_sequence(F, 1)

    def test_rejects_empty_window(self):
        # a wrong e_min_est lets e_minus pass e_plus; the spec refuses
        # that window when it is built, before any route reads it
        X = catalog_model("P1")
        with pytest.raises(ValueError, match="e_plus=1 must exceed e_minus=3"):
            explicit_filtration(X, {1: [(0, None)]}, e_plus=1, e_minus=3,
                                e_min_est=4)

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
        assert not report.approximate
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

    def test_trivial_filtration_slope(self):
        X, F = _trivial_filtration("P1")
        report = compute_d_infty(F, r_list=(1, 2, 4))
        assert report.d_infty == 1 - Fraction(1, X.r0)
        assert report.approximate
        assert report.a_limit == report.a_samples[-1][1]

    def test_needs_enough_k(self):
        # four weight records are too few to show the leading difference
        # settled; the slope is the exact integral at any budget
        X, F = _point_filtration("P1")
        with pytest.raises(NoStabilization):
            stable_leading_difference([rec.v for rec in _window_records(F, 1, 4)], 2)
        report = compute_d_infty(F, r_list=(1,), k_max=4)
        assert report.a_samples == ((1, 4),)
        assert report.d_samples == ((1, -1),)


def _explicit_p2_filtration():
    X = catalog_model("P2")
    pt = point_subscheme(X, 0)
    pt2 = thickened_point_subscheme(X, 0)
    table = {1: [(0, None), (1, pt), (2, pt2)],
             2: [(0, None), (1, pt), (3, pt2), (4, pt.power(3))]}
    return X, explicit_filtration(X, table, e_plus=3, e_minus=-1)


def _battery_filtration_at(name, label):
    X = catalog_model(name)
    Z = next(Z for Z in standard_battery(X) if Z.label == label)
    return X, ideal_power_filtration(X, Z)


class TestLeadingIntegral:
    """The exact A_r against the stabilised leading difference of the
    weight sums v_r(k), the lattice count it replaced as the value route."""

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
        (lambda: _trivial_filtration("P2", r_max=4), (1, 2)),
        (_explicit_p2_filtration, (1, 2)),
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_matches_weight_count(self, index):
        build, r_list = self.CASES[index]
        X, F = build()
        n = X.dimension
        report = compute_d_infty(F, r_list=r_list)
        for r, a_r in report.a_samples:
            values = [rec.v for rec in _window_records(F, r, 8)]
            counted = stable_leading_difference(values, n + 1)
            assert a_r * (n + 1) * (r * X.r0) ** (n + 1) == counted


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
