"""Volume profiles along blowups, Seshadri constants, thresholds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit.errors import (DimensionTooSmall, EmptyOrFull, NotSmoothPoint,
                            UnsupportedSubscheme)
from fanokit.model import anticanonical_volume, catalog, catalog_model
from fanokit.stability import beta
from fanokit.subscheme import (MonomialSubscheme, boundary_divisor_subscheme,
                               point_subscheme, standard_battery,
                               thickened_point_subscheme)
from fanokit.volumes import (blowup_volume_integral, blowup_volume_profile,
                             pseudoeffective_threshold, seshadri_constant)

import helpers


class TestPointProfiles:
    def test_projective_space_single_corner_piece(self):
        for name, n in (("P1", 1), ("P2", 2), ("P3", 3)):
            X = catalog_model(name)
            prof = blowup_volume_profile(X, point_subscheme(X, 0))
            assert prof.breakpoints == (0, n + 1)
            piece = [Fraction((n + 1) ** n)] + [Fraction(0)] * (n - 1) + [Fraction(-1)]
            assert prof.pieces == (tuple(piece),)
            x = n + Fraction(1, 2)
            assert prof.evaluate(x) == (n + 1) ** n - x ** n   # 11/4 on P2

    def test_quadric_surface(self):
        X = catalog_model("P1xP1")
        prof = blowup_volume_profile(X, point_subscheme(X, 0))
        assert prof.breakpoints == (0, 2, 4)
        assert prof.pieces == ((8, 0, -1), (16, -8, 1))

    def test_hexagonal_del_pezzo(self):
        X = catalog_model("dP6")
        prof = blowup_volume_profile(X, point_subscheme(X, 0))
        assert prof.breakpoints == (0, 1, 3, 4)
        assert prof.pieces[0] == (6, 0, -1)
        assert blowup_volume_integral(X, point_subscheme(X, 0)) == (4, prof.integrate(0, 4))

    def test_profile_dominates_generic_lower_bound(self):
        # vol of (pullback - xE) can only beat vol - x^n at a point
        for name in ("P2", "P1xP1", "dP6", "P3"):
            X = catalog_model(name)
            vol = anticanonical_volume(X)
            n = X.dimension
            prof = blowup_volume_profile(X, point_subscheme(X, 0))
            for i in range(50):
                x = prof.breakpoints[-1] * Fraction(i, 50)
                assert prof.evaluate(x) >= vol - x ** n


class TestDivisorProfiles:
    def test_weighted_plane_divisor(self):
        X = catalog_model("P112")
        prof = blowup_volume_profile(X, boundary_divisor_subscheme(X, (1, 0)))
        assert prof.breakpoints == (0, 4)
        assert prof.pieces == ((8, -4, Fraction(1, 2)),)
        assert prof.integrate(*prof.domain) == Fraction(32, 3)

    def test_slice_route_equals_general_engine(self):
        # the same divisor, once with its ray recorded (one moving row,
        # <rho, u> >= x - 1) and once as raw chart data (one row per chart)
        X = catalog_model("P2")
        raw = MonomialSubscheme(label="raw", dimension=2,
                                chart_gens={0: ((0, 1),), 1: ((0, 1),)})
        a = blowup_volume_profile(X, raw)
        b = blowup_volume_profile(X, boundary_divisor_subscheme(X, (1, 0)))
        assert a == b


class TestGeneralEngine:
    def test_thickened_point_scales_the_point_profile(self):
        X = catalog_model("P2")
        prof = blowup_volume_profile(X, thickened_point_subscheme(X, 0))
        assert prof.breakpoints == (0, Fraction(3, 2))
        assert prof.pieces == ((9, 0, -4),)
        assert prof.integrate(*prof.domain) == 9

    def test_two_disjoint_points(self):
        X = catalog_model("P2")
        two = MonomialSubscheme(label="2pts", dimension=2,
                                chart_gens={0: ((1, 0), (0, 1)),
                                            2: ((1, 0), (0, 1))})
        prof = blowup_volume_profile(X, two)
        assert prof.breakpoints == (0, Fraction(3, 2), 3)
        assert prof.pieces == ((9, 0, -2), (18, -12, 2))

    def test_monomial_curve(self):
        X = catalog_model("P2")
        Z = MonomialSubscheme(label="xy", dimension=2, chart_gens={0: ((1, 1),)})
        prof = blowup_volume_profile(X, Z)
        assert prof.breakpoints == (0, Fraction(3, 2))
        assert prof.pieces == ((9, -12, 4),)

    def test_open_ideal_shares_its_closure_profile(self):
        # (x^2, y^2) is not integrally closed: its closure adds xy
        X = catalog_model("P2")
        Z = MonomialSubscheme(label="x2y2", dimension=2,
                              chart_gens={0: ((2, 0), (0, 2))})
        closure = MonomialSubscheme(label="closure", dimension=2,
                                    chart_gens={0: ((2, 0), (1, 1), (0, 2))})
        prof = blowup_volume_profile(X, Z)
        assert prof.breakpoints == (0, Fraction(3, 2))
        assert prof.pieces == ((9, 0, -4),)
        assert prof.integrate(*prof.domain) == 9
        other = blowup_volume_profile(X, closure)
        assert prof == other

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_profile_ignores_monomials_from_the_closure(self, data):
        # I is x^a, y^b and up to two mixed monomials at a smooth fixed
        # point of a KE surface.  Each ceil((g + h) / 2) lies over the
        # midpoint of two generators, hence in the closure of I, so
        # adding them must leave the profile alone, and beta >= 0.
        X = catalog_model(data.draw(st.sampled_from(("P2", "P1xP1", "dP6"))))
        idx = data.draw(st.sampled_from(X.smooth_chart_indices()))
        a, b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        gens = {(a, 0), (0, b)}
        if a > 1 and b > 1:
            gens |= set(data.draw(st.lists(
                st.tuples(st.integers(1, a - 1), st.integers(1, b - 1)),
                max_size=2)))
        mids = {tuple(-(-(p + q) // 2) for p, q in zip(g, h))
                for g in gens for h in gens}
        I = MonomialSubscheme(label="I", dimension=2, chart_gens={idx: gens})
        J = MonomialSubscheme(label="J", dimension=2,
                              chart_gens={idx: gens | mids})
        pi, pj = blowup_volume_profile(X, I), blowup_volume_profile(X, J)
        assert pi == pj
        assert beta(X, I).beta >= 0

    def test_singular_chart_refused(self):
        X = catalog_model("P112")
        Z = MonomialSubscheme(label="sing", dimension=2,
                              chart_gens={1: ((1, 0),)})
        with pytest.raises(UnsupportedSubscheme):
            blowup_volume_profile(X, Z)

    def test_unit_subscheme_refused(self):
        X = catalog_model("P2")
        with pytest.raises(EmptyOrFull):
            blowup_volume_profile(X, MonomialSubscheme(label="all", dimension=2))


class TestSeshadri:
    def test_projective_spaces(self):
        for name, n in (("P2", 2), ("P3", 3)):
            X = catalog_model(name)
            for idx in range(len(X.charts)):
                assert seshadri_constant(X, idx) == n + 1

    def test_products_and_del_pezzo(self):
        assert seshadri_constant(catalog_model("P1xP1"), 0) == 2
        assert seshadri_constant(catalog_model("P1xP2"), 0) == 2
        X = catalog_model("dP6")
        for idx in range(len(X.charts)):
            assert seshadri_constant(X, idx) == 1

    def test_least_edge_length_oracle(self):
        # at a smooth fixed point the Seshadri constant is the least
        # lattice length of the edges of P at its vertex (Di Rocco)
        count = 0
        for name in catalog():
            X = catalog_model(name)
            if X.dimension < 2:
                continue
            for idx in X.smooth_chart_indices():
                assert seshadri_constant(X, idx) == helpers.least_edge_length(
                    X.rays, X.charts[idx].vertex), (name, idx)
                count += 1
        assert count == 25

    def test_curve_rejected(self):
        with pytest.raises(DimensionTooSmall):
            seshadri_constant(catalog_model("P1"), 0)

    def test_singular_point_rejected(self):
        with pytest.raises(NotSmoothPoint):
            seshadri_constant(catalog_model("P112"), 1)

    def test_never_exceeds_threshold(self):
        for name in ("P2", "P1xP1", "dP6", "P3", "P1xP2"):
            X = catalog_model(name)
            for idx in X.smooth_chart_indices():
                eps = seshadri_constant(X, idx)
                tau = pseudoeffective_threshold(X, point_subscheme(X, idx))
                assert eps <= tau
                if name in ("P2", "P3"):
                    assert eps == tau


class TestThreshold:
    def test_point_thresholds(self):
        assert pseudoeffective_threshold(
            catalog_model("P2"), point_subscheme(catalog_model("P2"), 0)) == 3
        X = catalog_model("dP6")
        assert pseudoeffective_threshold(X, point_subscheme(X, 0)) == 4

    def test_battery_profiles_have_positive_support(self):
        for name in catalog():
            X = catalog_model(name)
            for Z in standard_battery(X):
                prof = blowup_volume_profile(X, Z)
                assert prof.breakpoints[-1] > 0
                assert pseudoeffective_threshold(X, Z) == prof.breakpoints[-1]
                assert prof.evaluate(0) == anticanonical_volume(X)
