"""Monomial subschemes, Newton polyhedra, ideal sequences, chart gluing."""

from fractions import Fraction
from itertools import product as cartesian_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit import lattice
from fanokit.errors import (EmptyOrFull, GluingMismatch, NotSmoothPoint,
                            UnsupportedSubscheme, ZeroIdeal)
from fanokit.filtration import ideal_power_filtration
from fanokit.lct import lct_monomial
from fanokit.model import catalog_model
from fanokit.stability import beta
from fanokit.subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                               NewtonPolyhedron, _subscheme_contains, _tagged_table,
                               boundary_divisor_subscheme, level_table,
                               point_subscheme, power_table, product, product_gens,
                               standard_battery,
                               thickened_point_subscheme, verify_gluing)
from fanokit.volumes import blowup_volume_profile, pseudoeffective_threshold
import helpers
from strategies import decreasing_sequences


class TestMonomialSubscheme:
    def test_normalization_drops_dominated_and_unit_charts(self):
        Z = MonomialSubscheme(label="z", dimension=2,
                              chart_gens={0: ((1, 0), (2, 1)), 1: ((0, 0), (3, 3))})
        assert Z.gens_on(0) == ((1, 0),)
        assert Z.gens_on(1) is None  # a unit generator makes the chart unit
        assert Z.active_chart_indices() == [0]

    def test_boundary_ray_of_the_wrong_arity_refused(self):
        with pytest.raises(ValueError, match="not 2-dimensional"):
            MonomialSubscheme(label="w", dimension=2, boundary_ray=(1, 0, 0))

    def test_zero_chart_and_empty(self):
        zero = MonomialSubscheme(label="zero", dimension=1, chart_gens={0: ()})
        assert zero.has_zero_chart
        with pytest.raises(ZeroIdeal):
            zero.require_usable()
        empty = MonomialSubscheme(label="nothing", dimension=1)
        assert empty.is_empty
        with pytest.raises(EmptyOrFull):
            empty.require_usable()

    def test_power_of_point_ideal(self):
        X = catalog_model("P2")
        sq = point_subscheme(X, 0).power(2)
        assert sq.gens_on(0) == ((0, 2), (1, 1), (2, 0))
        assert sq.gens_on(1) is None

    def test_power_keeps_zero_charts_zero(self):
        Z = MonomialSubscheme(label="z", dimension=1, chart_gens={0: ()})
        assert Z.power(3).gens_on(0) == ()

    def test_power_and_product_refuse_a_boundary_ray(self):
        # no ray expresses m D_rho: dropping it read both as the unit ideal
        X = catalog_model("P112")
        bare = MonomialSubscheme(label="bare", dimension=2, boundary_ray=(1, 0))
        divisor = boundary_divisor_subscheme(X, (1, 0))
        assert bare.power(1).boundary_ray == (1, 0)
        for Z in (bare, divisor):
            with pytest.raises(UnsupportedSubscheme, match="boundary ray"):
                Z.power(2)
            with pytest.raises(UnsupportedSubscheme, match="boundary ray"):
                product(Z, Z)
        with pytest.raises(UnsupportedSubscheme, match="boundary ray"):
            product(point_subscheme(X, 0), bare)


class TestModelFit:
    """Data written for another fan meets one check at every entry point
    that reads a subscheme against a model."""

    @pytest.mark.parametrize("Z", [
        MonomialSubscheme(label="far", dimension=2, chart_gens={7: ((1, 0), (0, 1))}),
        MonomialSubscheme(label="stray", dimension=2, boundary_ray=(1, 1))],
        ids=["chart-the-model-lacks", "ray-the-fan-lacks"])
    @pytest.mark.parametrize("entry", [
        lct_monomial, blowup_volume_profile, pseudoeffective_threshold,
        ideal_power_filtration, beta], ids=lambda entry: entry.__name__)
    def test_refused_at_every_entry_point(self, entry, Z):
        with pytest.raises(UnsupportedSubscheme, match=Z.label):
            entry(catalog_model("P2"), Z)


class TestBatteryConstructors:
    def test_point_gens_are_the_chart_variables(self):
        X = catalog_model("P2")
        Z = point_subscheme(X, 0)
        assert Z.gens_on(0) == ((0, 1), (1, 0))
        assert Z.gens_on(1) is None and Z.gens_on(2) is None
        assert Z.boundary_ray is None

    def test_point_refused_on_singular_chart(self):
        X = catalog_model("P112")
        with pytest.raises(NotSmoothPoint):
            point_subscheme(X, 1)
        with pytest.raises(NotSmoothPoint):
            thickened_point_subscheme(X, 1)

    def test_thickened_point_is_the_square(self):
        X = catalog_model("P3")
        thick = thickened_point_subscheme(X, 0)
        assert thick.gens_on(0) == point_subscheme(X, 0).power(2).gens_on(0)

    def test_boundary_divisor_on_p2(self):
        X = catalog_model("P2")
        D = boundary_divisor_subscheme(X, (1, 0))
        assert D.boundary_ray == (1, 0)
        # the ray is tight at vertices (-1,-1) and (-1,2), charts 0 and 1
        assert D.active_chart_indices() == [0, 1]
        assert D.gens_on(0) == ((0, 1),)

    def test_boundary_divisor_skips_singular_chart(self):
        X = catalog_model("P112")
        D = boundary_divisor_subscheme(X, (1, 0))
        assert D.boundary_ray == (1, 0)
        assert D.active_chart_indices() == [0]

    def test_unknown_ray_rejected(self):
        X = catalog_model("P2")
        with pytest.raises(ValueError):
            boundary_divisor_subscheme(X, (2, 1))

    def test_battery_sizes(self):
        assert len(standard_battery(catalog_model("P2"))) == 9
        assert len(standard_battery(catalog_model("P112"))) == 7
        # six fixed points, five rays, six thickened points
        assert len(standard_battery(catalog_model("P1xP2"))) == 17


class TestNewtonPolyhedron:
    def test_cusp_ideal_single_dual_vertex(self):
        N = NewtonPolyhedron(((2, 0), (0, 3)))
        assert N.dual_vertices == ((Fraction(1, 2), Fraction(1, 3)),)
        # a >= 0 lies in x * N iff <w, a> >= x at every dual vertex w:
        # (1, 2) lies in N, and (1, 1) in x * N exactly for x <= 5/6
        (w,) = N.dual_vertices
        assert sum(a * b for a, b in zip(w, (1, 2))) == Fraction(7, 6)
        assert sum(a * b for a, b in zip(w, (1, 1))) == Fraction(5, 6)

    def test_maximal_ideal_and_its_square(self):
        assert NewtonPolyhedron(((1, 0), (0, 1))).dual_vertices == ((1, 1),)
        N2 = NewtonPolyhedron(((2, 0), (1, 1), (0, 2)))
        assert N2.dual_vertices == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_unit_and_zero_rejected(self):
        with pytest.raises(ValueError):
            NewtonPolyhedron(((0, 0),))
        with pytest.raises(ValueError):
            NewtonPolyhedron(((1, 0), (0, 0), (1, 0)))
        with pytest.raises(ZeroIdeal):
            NewtonPolyhedron(())

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=7)))
    def test_dominated_generators_leave_the_dual_vertices(self, gens):
        # each dominated generator only adds a redundant row to Q
        assert (NewtonPolyhedron(gens).dual_vertices
                == NewtonPolyhedron(lattice.minimalize(gens)).dual_vertices)


BOXES = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=4),
    st.tuples(*[st.integers(0, 3)] * n)))


class TestTables:
    @settings(max_examples=40, deadline=None)
    @given(BOXES)
    def test_power_table_is_power_membership(self, drawn):
        # gens may be dominated, repeated, or outside the box
        gens, top = drawn
        table = power_table(gens, top)
        cells = list(cartesian_product(*(range(t + 1) for t in top)))
        for e, m in zip(cells, table.read([list(col) for col in zip(*cells)])):
            assert helpers.monomial_power_membership(e, gens, m)
            assert not helpers.monomial_power_membership(e, gens, m + 1)

    def test_power_table_of_a_point(self):
        # L(e) = e_1 + e_2 for the maximal ideal; (0, 1) alone steps along the
        # last axis, (2, 0) outside the box is dropped
        table = power_table(((1, 0), (0, 1)), (2, 3))
        assert table.levels == [a + b for a in range(3) for b in range(4)]
        table = power_table(((0, 2), (1, 1), (2, 0)), (1, 4))
        assert table.levels == [0, 0, 1, 1, 2, 0, 1, 1, 2, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(1, 4)), max_size=8,
        unique_by=lambda tag: tag[0])))
    def test_corner_ranges_are_the_minimal_generators(self, tags):
        n = len(tags[0][0]) if tags else 1
        table = _tagged_table(n, tags)
        cells = list(cartesian_product(*(range(t + 1) for t in table.top)))
        ranges = table.corner_ranges()
        for i in range(1, 6):
            held = [e for e, j in zip(cells, table.levels) if j >= i]
            assert sorted(e for e, lo, j in ranges if lo < i <= j) == lattice.minimalize(held)


@st.composite
def point_power_sequences(draw):
    """Steps whose chart ideals are powers of the fixed points' maximal
    ideals, the exponents growing step by step on each chart."""
    X = catalog_model(draw(st.sampled_from(["P1", "P2", "P1xP1"])))
    M = draw(st.integers(1, 3))
    charts = draw(st.lists(st.integers(0, len(X.charts) - 1),
                           min_size=1, max_size=2, unique=True))
    exps = {c: sorted(draw(st.lists(st.integers(0, 3), min_size=M,
                                    max_size=M)))
            for c in charts}
    steps = []
    for j in range(M):
        gens = {c: point_subscheme(X, c).power(e[j]).gens_on(c)
                for c, e in exps.items() if e[j]}
        steps.append(MonomialSubscheme(label=f"s{j + 1}",
                                       dimension=X.dimension, chart_gens=gens))
    return X, IdealSequenceOnXxA1(steps=tuple(steps))


def _product_gens_longhand(S, c):
    """(x, t)-generators of the induced chart ideal, collected step by
    step and minimalised."""
    n = S.steps[0].dimension
    out = {(0,) * n + (S.M,)}
    for j, step in enumerate(S.steps, start=1):
        gens = step.gens_on(c)
        if gens is None:
            out.add((0,) * n + (S.M - j,))
        else:
            out.update((*g, S.M - j) for g in gens)
    return tuple(lattice.minimalize(out))


class TestIdealSequence:
    def _dnc(self):
        X = catalog_model("P1")
        pt = point_subscheme(X, 0)
        return IdealSequenceOnXxA1(steps=(pt, pt))

    def test_inclusion_enforced(self):
        X = catalog_model("P1")
        pt = point_subscheme(X, 0)
        IdealSequenceOnXxA1(steps=(pt, pt.power(2)))  # decreasing: fine
        with pytest.raises(ValueError):
            IdealSequenceOnXxA1(steps=(pt.power(2), pt))

    def test_containment_reads_boundary_rays(self):
        # a subscheme carried by its ray alone is its divisor, not the unit
        # ideal; what the ray does not settle is refused
        X = catalog_model("P112")
        bare = MonomialSubscheme(label="bare", dimension=2, boundary_ray=(1, 0))
        divisor = boundary_divisor_subscheme(X, (1, 0))
        point = point_subscheme(X, 0)
        unit = MonomialSubscheme(label="unit", dimension=2)
        assert not _subscheme_contains(divisor, point)
        assert not _subscheme_contains(bare, unit)
        for big, small in [(bare, bare), (divisor, divisor), (bare, divisor),
                           (point, divisor), (unit, bare)]:
            assert _subscheme_contains(big, small), (big.label, small.label)
        for big, small in [(bare, point), (divisor, bare), (point, bare)]:
            with pytest.raises(UnsupportedSubscheme, match="boundary rays"):
                _subscheme_contains(big, small)
        with pytest.raises(UnsupportedSubscheme):
            IdealSequenceOnXxA1(steps=(bare, point))

    def test_product_gens(self):
        X, S = catalog_model("P1"), self._dnc()
        # I_p + I_p t + (t^2) collapses to (x, t^2) on the chart at p
        assert product_gens(X, S.steps, 0) == ((0, 2), (1, 0))
        # and to (t^0) = the unit ideal away from p
        assert product_gens(X, S.steps, 1) == ((0, 0),)

    def test_power_matches_hand_expansion(self):
        X, S2 = catalog_model("P1"), helpers.sequence_power(self._dnc(), 2)
        assert S2.M == 4
        # (x, t^2)^2 = (x^2, x t^2, t^4)
        assert product_gens(X, S2.steps, 0) == ((0, 4), (1, 2), (2, 0))
        assert product_gens(X, S2.steps, 1) == ((0, 0),)

    def test_level_table_reads_clipped_columns(self):
        X = catalog_model("P2")
        pt = point_subscheme(X, 0)
        table = level_table((pt, pt.power(2)), 0, 2)
        # L(e) = min(e_1 + e_2, 2); columns past the box read at the clip
        assert list(table.read([[0, 1, 0, 1, 7, 0], [0, 0, 1, 1, 0, 9]])) == [
            0, 1, 1, 2, 2, 2]
        assert list(table.read([[], []])) == []
        # the second axis has extent 0: every entry on it reads as 0
        x = MonomialSubscheme(label="x", dimension=2, chart_gens={0: ((1, 0),)})
        assert list(level_table((x,), 0, 2).read([[0, 5], [8, 8]])) == [0, 1]

    @settings(max_examples=60, deadline=None)
    @given(decreasing_sequences(),
           st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3),
                    max_size=12))
    def test_level_table_read_matches_longhand_membership(self, drawn, vectors):
        # vectors reach past every box (tops are at most 6); an empty list
        # reads as no levels
        X, S = drawn
        n = X.dimension
        vectors = [tuple(v[:n]) for v in vectors]
        for c in range(len(X.charts)):
            table = level_table(S.steps, c, n)
            columns = [list(col) for col in zip(*vectors)] or [[]] * n
            expected = [max([0] + [j for j, step in enumerate(S.steps, start=1)
                                   if step.gens_on(c) is None
                                   or lattice.dominates_any(e, step.gens_on(c))])
                        for e in vectors]
            assert list(table.read(columns)) == expected

    def test_power_one_is_identity_on_products(self):
        X, S = catalog_model("P1"), self._dnc()
        assert product_gens(X, helpers.sequence_power(S, 1).steps, 0) == product_gens(
            X, S.steps, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(point_power_sequences(), decreasing_sequences()),
           st.integers(1, 3))
    def test_power_induces_the_power_of_the_product_ideal(self, drawn, m):
        X, S = drawn
        P = helpers.sequence_power(S, m)
        assert P.M == m * S.M
        for c in range(len(X.charts)):
            gens = _product_gens_longhand(S, c)
            assert product_gens(X, S.steps, c) == gens
            expected = gens
            for _ in range(m - 1):
                expected = tuple(lattice.minimalize(
                    lattice.minkowski_sum(expected, gens)))
            assert product_gens(X, P.steps, c) == expected


class TestGluing:
    def test_battery_glues_on_every_catalog_model(self):
        from fanokit.model import catalog
        for name in catalog():
            X = catalog_model(name)
            for Z in standard_battery(X):
                verify_gluing(X, Z)

    def test_mismatched_multiplicities_detected(self):
        X = catalog_model("P2")
        bad = MonomialSubscheme(label="bad", dimension=2,
                                chart_gens={0: ((0, 1),), 1: ((0, 2),)})
        with pytest.raises(GluingMismatch, match="disagree"):
            verify_gluing(X, bad)

    def test_point_power_still_glues(self):
        X = catalog_model("P2")
        verify_gluing(X, point_subscheme(X, 1).power(3))

    def test_segment_compares_its_two_charts(self):
        X = catalog_model("P1")
        verify_gluing(X, point_subscheme(X, 0))
        verify_gluing(X, point_subscheme(X, 1))
        zero = MonomialSubscheme(label="zero", dimension=1, chart_gens={0: ()})
        with pytest.raises(GluingMismatch, match="disagree"):
            verify_gluing(X, zero)
