"""Log canonical thresholds: chart values, global values, product-line form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit.errors import EmptyOrFull, NotSmoothChart, ZeroIdeal
from fanokit.lct import lct_chart, lct_monomial, lct_on_product_with_line
from fanokit.model import catalog, catalog_model
from fanokit.oracles import bruteforce_lct
from fanokit.subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                               boundary_divisor_subscheme, point_subscheme, product,
                               product_gens, thickened_point_subscheme)
from helpers import basic_feasible_points, bruteforce_lct_chart
from strategies import decreasing_sequences


@st.composite
def point_chains(draw):
    """(model, sequence) of powers of one smooth fixed point, the unit
    ideal for power 0, in decreasing order."""
    X = catalog_model(draw(st.sampled_from(["P1", "P2", "P1xP1"])))
    pt = point_subscheme(X, draw(st.sampled_from(X.smooth_chart_indices())))
    powers = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    unit = MonomialSubscheme(label="unit", dimension=X.dimension)
    return X, IdealSequenceOnXxA1(steps=tuple(pt.power(e) if e else unit
                                              for e in sorted(powers)))


class TestLctChart:
    def test_known_values(self):
        assert lct_chart(((1, 0), (0, 1))) == 2
        assert lct_chart(((2, 0), (0, 3))) == Fraction(5, 6)
        assert lct_chart(((2, 0), (1, 1), (0, 2))) == 1
        assert lct_chart(((1,),)) == 1
        assert lct_chart(((3,),)) == Fraction(1, 3)

    def test_unit_generator_gives_no_bound(self):
        assert lct_chart(((0, 0),)) is None

    def test_agrees_with_vertex_scan(self):
        for gens in (((1, 0), (0, 1)), ((2, 0), (0, 3)), ((4, 1), (1, 3)),
                     ((2, 0, 0), (0, 3, 0), (0, 0, 5)), ((1, 1, 1),)):
            assert lct_chart(gens) == bruteforce_lct(gens)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=4).filter(
                        lambda gs: all(any(g) for g in gs)))
    @settings(max_examples=40, deadline=None)
    def test_never_above_integer_box_bound(self, gens):
        val = lct_chart(tuple(gens))
        box = bruteforce_lct_chart(tuple(gens))
        if val is not None and box is not None:
            assert val <= box


class TestLctMonomial:
    def test_point_threshold_is_the_dimension(self):
        for name, n in (("P1", 1), ("P2", 2), ("P3", 3)):
            X = catalog_model(name)
            assert lct_monomial(X, point_subscheme(X, 0)) == n

    def test_thickened_point_is_half(self):
        X = catalog_model("P3")
        assert lct_monomial(X, thickened_point_subscheme(X, 0)) == Fraction(3, 2)

    def test_power_parameter_matches_actual_powers(self):
        X = catalog_model("P2")
        Z = point_subscheme(X, 0)
        for m in (2, 3):
            assert lct_monomial(X, Z, power=m) == lct_monomial(X, Z.power(m))

    def test_boundary_divisors(self):
        for X in catalog().values():
            for ray in X.rays:
                D = boundary_divisor_subscheme(X, ray)
                assert lct_monomial(X, D) == 1
        X = catalog_model("P2")
        D = boundary_divisor_subscheme(X, (1, 0))
        assert lct_monomial(X, D, power=3) == Fraction(1, 3)

    def test_unusable_inputs(self):
        X = catalog_model("P2")
        with pytest.raises(EmptyOrFull):
            lct_monomial(X, MonomialSubscheme(label="all", dimension=2))
        with pytest.raises(ZeroIdeal):
            lct_monomial(X, MonomialSubscheme(label="z", dimension=2,
                                              chart_gens={0: ()}))

    def test_singular_chart_refused_without_ray_data(self):
        # a singular chart may carry only a multiple of a boundary divisor
        X = catalog_model("P112")
        meet = product(boundary_divisor_subscheme(X, (1, 0)),
                       boundary_divisor_subscheme(X, (-1, -2)))
        for Z in [meet, *(MonomialSubscheme(label="sing", dimension=2, chart_gens={1: gens})
                          for gens in (((1, 1),), ((2, 0), (1, 1))))]:
            with pytest.raises(NotSmoothChart, match="lives on the singular chart"):
                lct_monomial(X, Z)
        # (y_rho^m) there alone is m times the divisor of its ray
        for m in (1, 2):
            Z = MonomialSubscheme(label="sing", dimension=2, chart_gens={1: ((m, 0),)})
            assert lct_monomial(X, Z) == Fraction(1, m)


class TestProductLine:
    def _dnc(self):
        X = catalog_model("P1")
        pt = point_subscheme(X, 0)
        return X, IdealSequenceOnXxA1(steps=(pt, pt))

    def test_unit_sequence_gives_one(self):
        X = catalog_model("P1")
        unit = MonomialSubscheme(label="unit", dimension=1)
        S = IdealSequenceOnXxA1(steps=(unit, unit))
        for c1 in (0, 1, Fraction(7, 2)):
            assert lct_on_product_with_line(X, S, c1) == 1

    def test_pure_t_power(self):
        X = catalog_model("P1")
        zero = MonomialSubscheme(label="z", dimension=1, chart_gens={0: (), 1: ()})
        S = IdealSequenceOnXxA1(steps=(zero, zero, zero))
        for r in (1, 2, 3):
            assert lct_on_product_with_line(X, S, Fraction(1, r)) == 1 - Fraction(3, r)

    def test_degenerate_cusp_chain(self):
        X, S = self._dnc()
        assert lct_on_product_with_line(X, S, 1) == 1
        assert lct_on_product_with_line(X, S, Fraction(1, 2)) == 1

    def test_negative_weight_rejected(self):
        X, S = self._dnc()
        with pytest.raises(ValueError):
            lct_on_product_with_line(X, S, -1)

    @given(st.one_of(point_chains(), decreasing_sequences()),
           st.fractions(0, 10, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_always_finite_and_matches_vertex_oracle(self, drawn, c1):
        # the generator t^M bounds s, so no c1 makes the threshold infinite;
        # the reference is the least 1 + sum(w) - c1 s over the vertices of
        # each chart's lifted region {w, s >= 0 : s <= <g_x, w> + g_t}
        X, S = drawn
        n = X.dimension
        value = lct_on_product_with_line(X, S, c1)
        assert isinstance(value, Fraction)
        units = [(tuple(int(i == j) for i in range(n + 1)), 0) for j in range(n + 1)]
        expected = min(
            1 + min(sum(v[:n]) - c1 * v[n] for v in basic_feasible_points(
                n + 1, units + [((*g[:n], -1), -g[n])
                                for g in product_gens(X, S.steps, k)]))
            for k in range(len(X.charts)))
        assert value == expected

    def test_point_power_chains_on_p1xp2(self):
        # 35 generators per chart for M = 4: far more rows than vertices
        X = catalog_model("P1xP2")
        pt = point_subscheme(X, 0)
        chain = tuple(pt.power(k) for k in range(1, 5))
        for steps, values in ((chain, (0, -1, -4)), (chain[:3], (1, Fraction(1, 4), -2))):
            S = IdealSequenceOnXxA1(steps=steps)
            assert tuple(lct_on_product_with_line(X, S, c1)
                         for c1 in (1, Fraction(5, 4), 2)) == values

    def test_singular_model_refused(self):
        X = catalog_model("P112")
        pt = point_subscheme(X, 0)
        S = IdealSequenceOnXxA1(steps=(pt,))
        with pytest.raises(NotSmoothChart):
            lct_on_product_with_line(X, S, 1)
