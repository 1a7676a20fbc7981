"""Monomial subschemes, Newton polyhedra, ideal sequences, chart gluing."""

from fractions import Fraction
from itertools import product as cartesian_product
from math import gcd, lcm
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanokit import lattice
from fanokit import subscheme as subscheme_mod
from fanokit.errors import (EmptyOrFull, GluingMismatch, NotSmoothPoint,
                            UnsupportedSubscheme, ZeroIdeal)
from fanokit.filtration import ideal_power_filtration, saturate_points
from fanokit.lct import lct_monomial, lct_on_product_with_line
from fanokit.model import build_model, catalog, catalog_model
from fanokit.oracles import level_table
from fanokit.piecewise import poly_trim
from fanokit.polytope import _orthant_start, _vertex_bases, lattice_points
from fanokit.stability import beta, ding_invariant
from fanokit.subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                               NewtonPolyhedron, _subscheme_contains, _tagged_table,
                               boundary_divisor_subscheme, point_subscheme, power_table,
                               product, product_gens, standard_battery,
                               thickened_point_subscheme, verify_gluing)
from fanokit.volumes import (blowup_volume_integral, blowup_volume_profile,
                             pseudoeffective_threshold)
import helpers
from strategies import decreasing_sequences


class TestMonomialSubscheme:
    def test_normalization_drops_dominated_and_unit_charts(self):
        Z = MonomialSubscheme(label="z", dimension=2,
                              chart_gens={0: ((1, 0), (2, 1)), 1: ((0, 0), (3, 3))})
        assert Z.gens_on(0) == ((1, 0),)
        assert Z.gens_on(1) is None  # a unit generator makes the chart unit
        assert Z.active_chart_indices() == [0]

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

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_generator_entry_that_is_not_an_integer(self, bad):
        # read through int() a 1.5 stored the point's generators, beta 0
        with pytest.raises(ValueError, match=r"^z: chart 0: .* is not an integer$"):
            MonomialSubscheme("z", 2, {0: ((bad, 0), (0, 1))})

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_chart_key_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match=r"^z: chart key: .* is not an integer$"):
            MonomialSubscheme("z", 2, {bad: ((1, 0), (0, 1))})


# P2 modulo Z/3: every chart has index 3
P2_MOD_3 = build_model(2, [(2, -1), (-1, 2), (-1, -1)], name="P2modZ3")


def _scaled(profile, m):
    """x -> profile(m x) as its breakpoints and trimmed pieces."""
    return (tuple(b / m for b in profile.breakpoints),
            tuple(poly_trim([c * m ** j for j, c in enumerate(p)]) for p in profile.pieces))


class TestDivisorMultiples:
    """m D_rho is (y_rho^m) on every chart that holds rho, singular ones
    included: vol(-K - x m D) = vol(-K - m x D), so its profile is the
    divisor's read at m x, its threshold 1/m and its beta beta(D) / m."""

    @pytest.mark.parametrize("X", [*catalog().values(), P2_MOD_3],
                             ids=lambda X: X.name)
    def test_power_and_product_scale_the_divisor(self, X):
        for ray in X.rays:
            D = boundary_divisor_subscheme(X, ray)
            profile, b = blowup_volume_profile(X, D), beta(X, D).beta
            for m, mD in [(2, D.power(2)), (2, product(D, D)), (3, D.power(3))]:
                assert mD.chart_gens == {idx: (tuple(m * e for e in g),)
                                         for idx, (g,) in D.chart_gens.items()}
                mprofile = blowup_volume_profile(X, mD)
                assert (mprofile.breakpoints, tuple(map(poly_trim, mprofile.pieces))) \
                    == _scaled(profile, m), (X.name, ray, m)
                assert lct_monomial(X, mD) == Fraction(1, m)
                assert beta(X, mD).beta == b / m, (X.name, ray, m)


class TestModelFit:
    """Data written for another fan meets one check at every entry point
    that reads a subscheme against a model."""

    misfits = pytest.mark.parametrize("Z", [
        MonomialSubscheme(label="far", dimension=2, chart_gens={7: ((1, 0), (0, 1))}),
        # the divisor of a third cone ray, which P2's chart 0 lacks
        MonomialSubscheme(label="stray", dimension=2, chart_gens={0: ((0, 0, 1),)}),
        # a Laurent monomial: x^-1 y is no element of the chart's ring
        MonomialSubscheme(label="neg", dimension=2, chart_gens={0: ((-1, 1), (1, 0))})],
        ids=["chart-the-model-lacks", "ray-the-fan-lacks", "negative-exponent"])

    @misfits
    @pytest.mark.parametrize("entry", [
        lct_monomial, blowup_volume_profile, blowup_volume_integral, pseudoeffective_threshold,
        ideal_power_filtration, beta], ids=lambda entry: entry.__name__)
    def test_refused_at_every_entry_point(self, entry, Z):
        with pytest.raises(UnsupportedSubscheme, match=Z.label):
            entry(catalog_model("P2"), Z)

    @misfits
    @pytest.mark.parametrize("entry", [
        lambda X, S: lct_on_product_with_line(X, S, 0),
        lambda X, S: ding_invariant(X, S, 1)], ids=["lct_on_product_with_line", "ding_invariant"])
    def test_refused_as_a_sequence_step(self, entry, Z):
        # both read the steps through product_dual_vertices
        with pytest.raises(UnsupportedSubscheme, match=Z.label):
            entry(catalog_model("P2"), IdealSequenceOnXxA1(steps=(Z,)))


class TestBatteryConstructors:
    def test_point_gens_are_the_chart_variables(self):
        X = catalog_model("P2")
        Z = point_subscheme(X, 0)
        assert Z.gens_on(0) == ((0, 1), (1, 0))
        assert Z.gens_on(1) is None and Z.gens_on(2) is None

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
        # the ray is tight at vertices (-1,-1) and (-1,2), charts 0 and 1
        assert D.active_chart_indices() == [0, 1]
        assert D.gens_on(0) == ((0, 1),)

    def test_boundary_divisor_covers_singular_chart(self):
        # (y_rho) in pairing coordinates on every chart whose cone holds
        # rho: P112's chart 1 has cone rays (-1, -2), (1, 0) and index 2
        X = catalog_model("P112")
        D = boundary_divisor_subscheme(X, (1, 0))
        assert not X.charts[1].smooth
        assert dict(D.chart_gens) == {0: ((0, 1),), 1: ((0, 1),)}
        assert dict(boundary_divisor_subscheme(P2_MOD_3, (-1, -1)).chart_gens) == {
            1: ((1, 0),), 2: ((1, 0),)}

    def test_unknown_ray_rejected(self):
        X = catalog_model("P2")
        with pytest.raises(ValueError):
            boundary_divisor_subscheme(X, (2, 1))

    def test_battery_sizes(self):
        assert len(standard_battery(catalog_model("P2"))) == 9
        assert len(standard_battery(catalog_model("P112"))) == 7
        # six fixed points, five rays, six thickened points
        assert len(standard_battery(catalog_model("P1xP2"))) == 17

    @pytest.mark.parametrize("X", [*catalog().values(), P2_MOD_3],
                             ids=lambda X: X.name)
    def test_battery_gens_are_already_normal(self, X):
        # the constructors build minimal, lex-sorted generators themselves
        for Z in standard_battery(X):
            normal = MonomialSubscheme(label=Z.label, dimension=Z.dimension,
                                       chart_gens=Z.chart_gens)
            assert Z.chart_gens == normal.chart_gens, Z.label


@st.composite
def diagonal_ideals(draw):
    """Generators holding a pure power x_i^a_i of every coordinate, and
    every other generator on or above the simplex through them: larger
    or repeated pure powers, points on the simplex between two pure
    powers, and drawn vectors raised along one axis until they reach it,
    landing on it exactly when that axis's step divides the shortfall."""
    n = draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    den = lcm(*a)
    W = [den // x for x in a]
    gens = [tuple(x * (i == j) for j in range(n)) for i, x in enumerate(a)]
    for i, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)),
                              max_size=2)):
        gens.append(tuple((a[i] + k) * (i == j) for j in range(n)))
    for i, j, k in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2,
                                           st.integers(1, 5)), max_size=3)):
        d = gcd(a[i], a[j])
        if i != j and d > 1:
            k = k % (d - 1) + 1
            g = [0] * n
            g[i], g[j] = a[i] // d * k, a[j] // d * (d - k)
            gens.append(tuple(g))
    for g, k in draw(st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                                        st.integers(0, n - 1)), max_size=3)):
        short = den - sum(map(mul, g, W))
        if short > 0:
            g[k] += -(-short // W[k])
        gens.append(tuple(g))
    return draw(st.permutations(gens))


def _newton_keys(gens):
    """NewtonPolyhedron(gens)'s keys and how many double descriptions it ran."""
    calls = []
    real = subscheme_mod._vertex_bases

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subscheme_mod, "_vertex_bases", counted)
        keys = NewtonPolyhedron(gens).dual_vertices
    return keys, len(calls)


def _enumerated_keys(gens):
    """The reference: Q's rows enumerated from the orthant."""
    n = len(gens[0])
    rows = [tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)]
    rows += [(*g, 1) for g in gens]
    return tuple(sorted(_vertex_bases(n, rows, _orthant_start(n))[0]))


class TestNewtonPolyhedron:
    def test_cusp_ideal_single_dual_vertex(self):
        N = NewtonPolyhedron(((2, 0), (0, 3)))
        # the vertex (1/2, 1/3) as its integer key (W, den)
        assert N.dual_vertices == (((3, 2), 6),)
        # a >= 0 lies in x * N iff <W, a> >= x den at every dual vertex:
        # (1, 2) lies in N, and (1, 1) in x * N exactly for x <= 5/6
        ((W, den),) = N.dual_vertices
        assert Fraction(sum(a * b for a, b in zip(W, (1, 2))), den) == Fraction(7, 6)
        assert Fraction(sum(a * b for a, b in zip(W, (1, 1))), den) == Fraction(5, 6)

    def test_maximal_ideal_and_its_square(self):
        assert NewtonPolyhedron(((1, 0), (0, 1))).dual_vertices == (((1, 1), 1),)
        N2 = NewtonPolyhedron(((2, 0), (1, 1), (0, 2)))
        assert N2.dual_vertices == (((1, 1), 2),)

    def test_unit_and_zero_rejected(self):
        with pytest.raises(ValueError):
            NewtonPolyhedron(((0, 0),))
        with pytest.raises(ValueError):
            NewtonPolyhedron(((1, 0), (0, 0), (1, 0)))
        with pytest.raises(ZeroIdeal):
            NewtonPolyhedron(())

    @pytest.mark.parametrize("gens", [((1, 0), (1,)), ((1,), (0, 1)),
                                      ((-1, 1), (1, 0)), ((2, 0), (0, -1), (1, 1))],
                             ids=["long-first", "short-first", "negative", "negative-axis"])
    def test_malformed_generators_rejected(self, gens):
        # the arity is every generator's, not the first one's
        with pytest.raises(ValueError, match="nonnegative and of one arity"):
            NewtonPolyhedron(gens)

    @settings(max_examples=150, deadline=None)
    @given(diagonal_ideals())
    @example([(2, 0), (1, 1), (0, 2)])                      # a thickened point
    @example([(0, 2), (4, 0), (2, 1), (0, 3), (6, 0)])      # on it, repeats
    @example([(2, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (1, 2, 0)])
    def test_diagonal_ideals_take_the_closed_form(self, gens):
        # one vertex 1/a, read without a double description, equal to the
        # orthant-seeded enumeration of the same rows
        keys, enumerations = _newton_keys(gens)
        assert enumerations == 0
        assert keys == _enumerated_keys(gens)
        ((W, den),) = keys
        assert gcd(*W, den) == 1

    @pytest.mark.parametrize("gens", [
        ((3, 0), (1, 1), (0, 3)),              # (1, 1) just below the simplex
        ((4, 0), (1, 2), (0, 4)),
        ((2, 0, 0), (0, 3, 0), (0, 0, 6), (1, 1, 0)),   # 5/6 of the way
        ((2, 0), (1, 1)),                      # no pure power of y
        ((2, 1), (1, 2)),                      # no pure power at all
        ((2, 0, 0), (0, 2, 0), (1, 1, 1))])    # none of z
    def test_near_misses_take_the_double_description(self, gens):
        keys, enumerations = _newton_keys(gens)
        assert enumerations == 1
        assert keys == _enumerated_keys(gens)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=7)))
    def test_dominated_generators_leave_the_dual_vertices(self, gens):
        # each dominated generator only adds a redundant row to Q
        assert (NewtonPolyhedron(gens).dual_vertices
                == NewtonPolyhedron(lattice.minimalize(gens)).dual_vertices)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=5),
        st.lists(st.tuples(st.integers(0, 4), st.tuples(*[st.integers(0, 2)] * n)),
                 max_size=3))))
    def test_keys_are_the_row_subset_vertices(self, data):
        # the integer keys, read as Fractions, are the vertices that
        # Gauss-Jordan elimination over every n-subset of Q's rows finds;
        # the generators carry repeats and dominated ones: g + e for
        # a drawn generator g and e >= 0, e = 0 repeating g
        gens, extra = data
        gens = gens + [tuple(a + b for a, b in zip(gens[i % len(gens)], e))
                       for i, e in extra]
        n = len(gens[0])
        rows = [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
        rows += [(g, 1) for g in gens]
        keys = NewtonPolyhedron(gens).dual_vertices
        assert list(keys) == sorted(keys)
        assert all(den > 0 and gcd(*W, den) == 1 for W, den in keys)
        assert (sorted(tuple(Fraction(a, den) for a in W) for W, den in keys)
                == helpers.basic_feasible_points(n, rows))


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
        # a boundary divisor is its chart ideals, the singular chart's
        # included, so containment is read chart by chart
        X = catalog_model("P112")
        divisor = boundary_divisor_subscheme(X, (1, 0))
        point = point_subscheme(X, 0)
        unit = MonomialSubscheme(label="unit", dimension=2)
        for big, small in [(divisor, divisor), (divisor, divisor.power(2)),
                           (point, divisor), (unit, divisor)]:
            assert _subscheme_contains(big, small), (big.label, small.label)
        for big, small in [(divisor, point), (divisor, unit), (divisor.power(2), divisor),
                           (point, boundary_divisor_subscheme(X, (-1, -2)))]:
            assert not _subscheme_contains(big, small), (big.label, small.label)
        IdealSequenceOnXxA1(steps=(divisor, divisor.power(2)))
        with pytest.raises(ValueError, match="not contained"):
            IdealSequenceOnXxA1(steps=(divisor, point))

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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(catalog())), st.data())
    def test_products_of_battery_members_glue(self, name, data):
        X = catalog_model(name)
        members = data.draw(st.lists(st.sampled_from(standard_battery(X)),
                                     min_size=1, max_size=3))
        Z = members[0]
        for W in members[1:]:
            Z = product(Z, W)
        verify_gluing(X, Z)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(catalog())), st.sampled_from((1, 2)), st.data())
    def test_saturations_of_sections_glue(self, name, r, data):
        # an ideal generated by global sections is a sheaf
        X = catalog_model(name)
        chosen = data.draw(st.lists(st.sampled_from(lattice_points(X.polytope, r * X.r0)),
                                    min_size=1, max_size=4, unique=True))
        verify_gluing(X, saturate_points(X, r, chosen)[0])

    def test_a_shared_ray_coordinate_on_one_side_does_not_glue(self):
        # I y_rho differs from I for a nonzero I, and rho stays a coordinate
        # on the overlap with the neighbour, whose ideal is still I there
        cases = 0
        for name in catalog():
            X = catalog_model(name)
            for i, j in X._edges:
                ci, cj = X.charts[i], X.charts[j]
                shared = [r for r in ci.cone_rays if r in cj.cone_rays]
                if not (ci.smooth and cj.smooth and len(shared) == X.dimension - 1):
                    continue
                for rho, Z in cartesian_product(shared, standard_battery(X)):
                    y = [int(r == rho) for r in ci.cone_rays]
                    gens = Z.gens_on(i) or (tuple([0] * len(y)),)
                    chart_gens = {**Z.chart_gens, i: tuple(tuple(map(add, g, y)) for g in gens)}
                    with pytest.raises(GluingMismatch, match="disagree"):
                        verify_gluing(X, MonomialSubscheme(f"{Z.label}*y", X.dimension,
                                                           chart_gens))
                    cases += 1
        assert cases > 0
