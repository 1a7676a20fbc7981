"""Polytopes, volumes, moving-row volume functions, piecewise polynomials."""

from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanokit import lattice
from fanokit.errors import DegeneratePolytope, OutOfDomain, UnboundedPolytope
from fanokit.linalg import int_det, int_solve, solve
from fanokit.model import CATALOG_RAYS, catalog_model
from fanokit.oracles import bruteforce_lct
from fanokit.piecewise import PiecewisePolynomial, fit_polynomial, poly_eval, poly_trim
from fanokit.polytope import (RationalPolytope, enumerate_basic_feasible,
                              euclidean_volume, lattice_fibers, lattice_points,
                              moving_volume_function, moving_volume_integral,
                              polytope_edges, polytope_from_rays, volume)
from fanokit.subscheme import NewtonPolyhedron

import helpers

F = Fraction

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
SEGMENT = polytope_from_rays(1, [(1,), (-1,)])
TRIANGLE = polytope_from_rays(2, P2_RAYS)
CUBE = polytope_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                              (0, -1, 0), (0, 0, 1), (0, 0, -1)])


def slice_function(P, lam_linear, lam_offset):
    """x -> n! vol(P ∩ {lam(u) + lam_offset >= x}): one moving row."""
    return moving_volume_function(P.dimension, P.inequalities,
                                  [(lam_linear, lam_offset)])


CUBE_SLICE = slice_function(CUBE, (1, 1, 1), 12)


class TestPolytopeFromRays:
    def test_triangle_vertices(self):
        assert TRIANGLE.vertices == ((F(-1), F(-1)), (F(-1), F(2)), (F(2), F(-1)))

    def test_segment(self):
        assert SEGMENT.vertices == ((F(-1),), (F(1),))
        assert SEGMENT.inequalities == (((-1,), F(-1)), ((1,), F(-1)))

    def test_not_positively_spanning(self):
        for dim, rays in ((2, [(1, 0), (0, 1)]),
                          (2, [(1, 0), (-1, 0)]),           # lower affine rank
                          (2, [(1, 0), (0, 1), (-1, 0)]),   # 0 on the hull's boundary
                          (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)])):
            with pytest.raises(UnboundedPolytope):
                polytope_from_rays(dim, rays)

    def test_positively_spanning_builds(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)]
        P = polytope_from_rays(3, rays)
        rows = [(ray, -1) for ray in rays]
        assert list(P.vertices) == helpers.basic_feasible_points(3, rows)

    def test_halfline_unbounded(self):
        with pytest.raises(UnboundedPolytope):
            polytope_from_rays(1, [(1,)])

    def test_round_trip(self):
        for P in (SEGMENT, TRIANGLE, CUBE):
            again = RationalPolytope.from_vertices(P.dimension, P.vertices)
            assert again.vertices == P.vertices
            assert set(again.inequalities) == set(P.inequalities)

    def test_vertex_tightness(self):
        for P in (TRIANGLE, CUBE):
            for v in P.vertices:
                tight = [1 for nr, off in P.inequalities
                         if sum(a * x for a, x in zip(nr, v)) == off]
                assert len(tight) >= P.dimension

    def test_degenerate_vertex_input(self):
        with pytest.raises(DegeneratePolytope):
            RationalPolytope.from_vertices(2, [(0, 0), (1, 1), (2, 2)])


@st.composite
def hull_inputs(draw):
    """(dim, points): dim + 1 to dim + 4 rational points in dims 1 to 3,
    a quarter of the time on an affine hyperplane (a flat set), plus
    midpoints of pairs (interior, on the boundary, or repeats) and
    repeated points."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(-3, 3, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4))
    if draw(st.integers(0, 3)) == 0:
        slope = draw(st.tuples(*[st.integers(-1, 1)] * (n - 1)))
        shift = draw(coord)
        points = [(*p[:-1], shift + sum(a * x for a, x in zip(slope, p))) for p in points]
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                          max_size=3))
    points += [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in pairs]
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    return n, points


@st.composite
def row_systems(draw):
    """(dim, rows, bounded) in dims 1 to 3.  A bounded system holds the
    rows of a box; an unbounded one has every normal a with <a, d> >= 0
    for a drawn d != 0, so d recedes.  Both get random rational rows (a
    bounded system may end up flat or empty), exact duplicates, rescaled
    copies and zero normals."""
    n = draw(st.integers(1, 3))
    entry = st.fractions(-3, 3, max_denominator=3)
    extra = draw(st.lists(st.tuples(st.tuples(*[entry] * n), entry), max_size=3))
    bounded = draw(st.booleans())
    if bounded:
        lo = draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n))
        hi = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        rows = [(tuple(F(int(i == j)) for j in range(n)), F(lo[i])) for i in range(n)]
        rows += [(tuple(F(-int(i == j)) for j in range(n)), F(-hi[i])) for i in range(n)]
    else:
        d = draw(st.tuples(*[st.integers(-1, 1)] * n).filter(any))
        rows = [(nr, off) if sum(a * b for a, b in zip(nr, d)) >= 0
                else (tuple(-a for a in nr), off) for nr, off in extra]
        extra = []
    rows += extra
    rows += [((F(0),) * n, draw(st.integers(-2, 0)))] * draw(st.integers(0, 1))
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.sampled_from([1, 2, F(1, 3)])), max_size=2)
                     if rows else st.just([])):
        nr, off = rows[i]
        rows.append((tuple(c * a for a in nr), c * off))
    return n, draw(st.permutations(rows)), bounded


class TestFromInequalities:
    @given(row_systems())
    @settings(max_examples=80, deadline=None)
    @example((2, [((2, 0), 1), ((-1, 0), -3), ((0, 1), 0), ((0, -1), -1)], True))  # x >= 1/2
    @example((2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)], True))  # flat
    @example((1, [((1,), 1), ((-1,), 0)], True))                                   # empty
    @example((2, [((0, 0), 1), ((1, 0), 0), ((-1, 0), -1)], False))  # a strip, infeasible
    def test_matches_longhand_hull_of_the_vertices(self, system):
        n, rows, bounded = system
        if not bounded:
            with pytest.raises(UnboundedPolytope):
                RationalPolytope.from_inequalities(n, rows)
            return
        vertices = helpers.basic_feasible_points(n, rows)
        facets = helpers.hull_facets_longhand(n, vertices)
        if facets is None:
            with pytest.raises(DegeneratePolytope):
                RationalPolytope.from_inequalities(n, rows)
            return
        P = RationalPolytope.from_inequalities(n, rows)
        assert list(P.vertices) == vertices
        assert list(P.inequalities) == facets


class TestPolarHull:
    @given(hull_inputs())
    @settings(max_examples=80, deadline=None)
    def test_from_vertices_matches_longhand_facet_search(self, drawn):
        n, points = drawn
        expected = helpers.hull_facets_longhand(n, points)
        if expected is None:
            with pytest.raises(DegeneratePolytope):
                RationalPolytope.from_vertices(n, points)
            return
        P = RationalPolytope.from_vertices(n, points)
        assert list(P.inequalities) == expected
        assert set(P.vertices) <= {tuple(F(x) for x in p) for p in points}


class TestPolytopeEdges:
    def test_catalog_edges(self):
        # the pairs whose common tight rows hold no third vertex; on the
        # segment that is its two ends, whose common rows are none
        expected = {
            "P1": [(0, 1)],
            "P2": [(0, 1), (0, 2), (1, 2)],
            "P112": [(0, 1), (0, 2), (1, 2)],
            "P1xP1": [(0, 1), (0, 2), (1, 3), (2, 3)],
            "dP6": [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)],
            "P3": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            "P1xP2": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4),
                      (3, 5), (4, 5)],
        }
        assert {name: polytope_edges(catalog_model(name).polytope)
                for name in CATALOG_RAYS} == expected


class TestLatticePoints:
    def test_segment_scaled(self):
        assert len(lattice_points(SEGMENT, 3)) == 7

    def test_triangle_unit(self):
        pts = lattice_points(TRIANGLE, 1)
        assert len(pts) == 10
        assert pts == sorted(pts)

    def test_empty_when_scaled_away(self):
        thin = RationalPolytope.from_vertices(
            1, [(F(1, 3),), (F(2, 3),)])
        assert lattice_points(thin, 1) == []

    def test_matches_independent_count(self):
        catalog = [(catalog_model(name).polytope, k)
                   for name in sorted(CATALOG_RAYS) for k in (1, 2, 3)]
        for P, r in [(TRIANGLE, 2), (TRIANGLE, 5), (CUBE, 3), (SEGMENT, 8)] + catalog:
            lo, hi = P.bounding_box(F(r))
            rows = [(nr, F(r) * off) for nr, off in P.inequalities]
            assert lattice_points(P, r) == helpers.box_lattice_points(rows, lo, hi)

    # the examples pin rows whose last coefficient is zero, positive and
    # negative in two and three dimensions, and empty results
    @example([(F(1, 2), F(-1, 3)), (F(5, 2), F(-1, 3)), (F(1, 2), F(7, 3)),
              (F(5, 2), F(2))], F(3, 2))
    @example([(0, 0, 0), (F(3, 2), 0, 0), (0, 2, 0), (0, 0, F(5, 3)),
              (1, 1, 1)], F(2))
    @example([(F(1, 3),), (F(2, 3),)], F(1))
    @example([(F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))], F(1))
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
               st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * n),
               min_size=n + 1, max_size=n + 4)),
           st.fractions(0, 3, max_denominator=4))
    @settings(max_examples=60, deadline=None)
    def test_random_rational_polytopes_match_longhand(self, points, r):
        P = _lattice_polytope(len(points[0]), points)
        n = P.dimension
        lo = [floor(r * min(F(p[i]) for p in points)) - 1 for i in range(n)]
        hi = [ceil(r * max(F(p[i]) for p in points)) + 1 for i in range(n)]
        rows = [(nr, r * off) for nr, off in P.inequalities]
        assert lattice_points(P, r) == helpers.box_lattice_points(rows, lo, hi)


def _expand(fibers):
    return [(*p, x) for p, first, last in fibers for x in range(first, last + 1)]


@st.composite
def _integer_systems(draw):
    """(normals, offsets, lo, hi) in dims 1-3; every row's last coefficient
    is drawn from negative, zero and positive values, and the box may be
    empty along any axis."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=0, max_size=5))
    offsets = draw(st.lists(st.integers(-6, 3), min_size=len(rows),
                            max_size=len(rows)))
    lo = draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    hi = [a + draw(st.integers(-1, 4)) for a in lo]
    return rows, offsets, lo, hi


class TestLatticeFibers:
    @example(([(0, 1), (2, -1), (1, 0)], [-2, -3, 0], [-2, -2], [2, 2]))
    @example(([(1, 1, -2), (0, 0, 1)], [-1, 0], [0, 0, 0], [2, 2, 2]))
    @example(([(1,)], [0], [1], [0]))
    @example(([], [], [0, 3], [1, 2]))
    @given(_integer_systems())
    @settings(max_examples=150, deadline=None)
    def test_expansion_matches_points_and_longhand(self, system):
        normals, offsets, lo, hi = system
        fibers = lattice.enum_fibers(normals, offsets, lo, hi)
        assert all(first <= last for _, first, last in fibers)
        assert [p for p, _, _ in fibers] == sorted({p for p, _, _ in fibers})
        expected = helpers.box_lattice_points(list(zip(normals, offsets)), lo, hi)
        assert _expand(fibers) == lattice.enum_points(normals, offsets, lo, hi) == expected

    def test_polytope_fibers_expand_to_its_points(self):
        for P in (SEGMENT, TRIANGLE, CUBE, catalog_model("P1xP2").polytope):
            for r in (0, 1, F(5, 2), 3):
                assert _expand(lattice_fibers(P, r)) == lattice_points(P, r)


class TestEuclideanVolume:
    def test_cube(self):
        assert euclidean_volume(CUBE) == 8

    def test_triangle_shoelace(self):
        assert euclidean_volume(TRIANGLE) == F(9, 2)
        assert euclidean_volume(TRIANGLE) == helpers.shoelace_area(TRIANGLE.vertices)

    def test_segment(self):
        assert euclidean_volume(SEGMENT) == 2

    def test_ehrhart_consistency(self):
        # leading term of the lattice-count polynomial equals the volume
        for P in (SEGMENT, TRIANGLE, CUBE):
            vol = helpers.ehrhart_volume(
                lambda k: len(lattice_points(P, k)), P.dimension)
            assert vol == euclidean_volume(P)

    def test_translation_invariance(self):
        shifted = RationalPolytope.from_vertices(
            2, [(v[0] + F(1, 3), v[1] - 2) for v in TRIANGLE.vertices])
        assert euclidean_volume(shifted) == F(9, 2)


def _lattice_polytope(dim, points):
    try:
        return RationalPolytope.from_vertices(dim, points)
    except DegeneratePolytope:
        assume(False)


UNIT_SQUARE_ROWS = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]


class TestRowVolume:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_lattice_polygon_matches_shoelace(self, points):
        P = _lattice_polytope(2, points)
        area = helpers.shoelace_area(P.vertices)
        assert volume(2, P.inequalities) == area

    @given(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=4, max_size=7))
    @settings(max_examples=15, deadline=None)
    def test_lattice_polytope_matches_ehrhart(self, points):
        P = _lattice_polytope(3, points)

        def count(k):
            lo, hi = P.bounding_box(F(k))
            return len(helpers.box_lattice_points(
                [(nr, k * off) for nr, off in P.inequalities], lo, hi))

        assert volume(3, P.inequalities) == helpers.ehrhart_volume(count, 3)

    def test_square_pyramid_with_non_simple_apex(self):
        P = RationalPolytope.from_vertices(
            3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)])
        apex = (F(1), F(1), F(3))
        assert sum(1 for nr, off in P.inequalities
                   if sum(a * x for a, x in zip(nr, apex)) == off) == 4
        assert euclidean_volume(P) == 4
        assert volume(3, P.inequalities) == 4

    def test_octahedron(self):
        rows = [(signs, -1) for signs in product((1, -1), repeat=3)]
        assert len(enumerate_basic_feasible(3, rows)) == 6
        assert volume(3, rows) == F(4, 3)

    def test_redundant_rows(self):
        rows = UNIT_SQUARE_ROWS + [((1, 1), 0),        # tight at one vertex
                                   ((1, 1), -5),       # tight nowhere
                                   ((F(2), F(0)), 0),  # a scaled copy
                                   ((0, 0), 0)]        # zero normal
        assert len(enumerate_basic_feasible(2, rows)) == 4
        assert volume(2, rows) == 1

    def test_truncation_at_last_breakpoint_is_flat(self):
        S = slice_function(TRIANGLE, (1, 1), 2)
        assert S.domain == (0, 3) and S.evaluate(3) == 0          # an edge
        S = slice_function(CUBE, (1, 1, 1), 3)
        assert S.domain == (0, 6) and S.evaluate(6) == 0          # a vertex
        rows = list(CUBE.inequalities) + [((1, 1, 1), 7 - 3)]
        assert volume(3, rows) == 0                               # empty
        assert volume(2, UNIT_SQUARE_ROWS + [((-1, 0), 0)]) == 0
        with pytest.raises(DegeneratePolytope):                   # no volume at any x
            moving_volume_function(2, UNIT_SQUARE_ROWS + [((-1, 0), 0)], [((0, 1), 1)])

    def test_constant_functional_keeps_the_polytope(self):
        S = slice_function(TRIANGLE, (0, 0), 1)
        assert S.breakpoints == (0, 1)
        assert poly_trim(S.pieces[0]) == (2 * F(9, 2),)
        with pytest.raises(DegeneratePolytope):
            slice_function(TRIANGLE, (0, 0), 0)


SQUARE_PYRAMID_ROWS = [((0, 0, 1), 0), ((3, 0, -1), 0), ((0, 3, -1), 0),
                       ((-3, 0, -1), -6), ((0, -3, -1), -6)]


@st.composite
def rational_systems(draw):
    """(dim, rows) of general rational rows in dims 1-4, some of them
    rescaled copies of others."""
    dim = draw(st.integers(1, 4))
    entry = st.fractions(-3, 3, max_denominator=3)
    rows = draw(st.lists(st.tuples(st.tuples(*[entry] * dim), entry), max_size=dim + 4))
    if rows:
        scale = st.fractions(F(1, 4), 4, max_denominator=4).filter(bool)
        for i, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), scale),
                                  max_size=2)):
            nr, off = rows[i]
            rows.append((tuple(c * a for a in nr), c * off))
    return dim, rows


NEWTON_GENS = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=4))


class TestBasicFeasible:
    @given(NEWTON_GENS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_newton_dual_rows_match_bruteforce(self, gens, data):
        n = len(gens[0])
        rows = [(tuple(F(int(i == j)) for i in range(n)), F(0)) for j in range(n)]
        rows += [(tuple(F(x) for x in g), F(1)) for g in gens]
        expected = helpers.basic_feasible_points(n, rows)
        assert enumerate_basic_feasible(n, rows) == expected
        assert list(NewtonPolyhedron(gens).dual_vertices) == expected
        assert bruteforce_lct(gens) == min(sum(v) for v in expected)
        scales = data.draw(st.lists(st.fractions(F(1, 6), 6).filter(lambda q: q > 0),
                                    min_size=len(rows), max_size=len(rows)))
        scaled = [(tuple(c * a for a in nr), c * off)
                  for c, (nr, off) in zip(scales, rows)]
        assert enumerate_basic_feasible(n, scaled) == expected

    @given(rational_systems())
    @settings(max_examples=150, deadline=None)
    @example((2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]))           # unbounded
    @example((3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]))  # a cone
    @example((1, [((1,), 1), ((-1,), 0)]))                             # infeasible
    @example((2, UNIT_SQUARE_ROWS + [((1, 1), 3)]))                    # infeasible
    @example((2, [((1, 0), 0), ((-1, 0), -1)]))                        # a strip
    @example((3, [((1, 1, 0), 0), ((-1, -1, 0), -2), ((0, 0, 1), 0)]))  # a line
    @example((2, [((-1, -1), -1), ((0, 0), -1), ((1, 1), -1)]))        # flat polar
    @example((3, [(signs, -1) for signs in product((1, -1), repeat=3)]))  # octahedron
    @example((3, SQUARE_PYRAMID_ROWS))                                 # pyramid apex
    @example((2, UNIT_SQUARE_ROWS + [((F(3), F(0)), 0), ((1, 0), 0),  # repeated and
                                     ((0, F(1, 2)), 0)]))              # rescaled rows
    @example((2, UNIT_SQUARE_ROWS + [((0, 0), 0), ((0, 0), -2)]))      # zero normals
    @example((2, UNIT_SQUARE_ROWS + [((0, 0), 1)]))                    # 0 >= 1
    # the zero row is tight at every ray, so only the third-ray test tells
    # adjacent rays apart here
    @example((2, [((1, 1), -2), ((0, 0), 0), ((-1, 2), 0), ((-1, 0), -1), ((-1, 0), 0)]))
    @example((4, [(e, 0) for e in product((0, 1), repeat=4) if sum(e) == 1]  # unbounded
              + [((1, 1, 1, 1), 1), ((1, -1, 1, -1), -1)]))                  # in dim 4
    def test_double_description_matches_row_subsets(self, system):
        dim, rows = system
        assert enumerate_basic_feasible(dim, rows) == helpers.basic_feasible_points(dim, rows)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                 min_size=1, max_size=3))))
    @settings(max_examples=100, deadline=None)
    @example(([[0, 2, 1], [0, 1, 3], [4, 0, 0]], [[1, 2, 3]]))        # zero pivot at 0
    @example(([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[1, 0, 0], [0, 2, 5]]))  # ... at 1
    @example(([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [[1, 0, 0], [0, 0, 0]]))  # singular
    @example(([[0, 0], [0, 0]], [[1, 1]]))
    @example(([[3]], [[2], [-6], [0]]))
    def test_integer_cramer_matches_fraction_elimination(self, system):
        rows, columns = system
        d, numerators = int_solve(rows, columns)
        assert d == int_det(rows) == helpers.leibniz_det(rows)
        if d == 0:
            assert numerators == [] and all(solve(rows, b) is None for b in columns)
        else:
            assert ([tuple(F(a, d) for a in y) for y in numerators]
                    == [solve(rows, b) for b in columns])


@st.composite
def moving_regions(draw):
    """(points, moving): a random lattice polytope of dimension 2 or 3 and
    1 to 3 moving rows <a, u> >= x - b, each cutting the polytope at x = 0
    to a depth of -1 to 3 below its least value of <a, u>."""
    n = draw(st.integers(2, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    points = draw(st.lists(coords, min_size=n + 1, max_size=n + 4))
    moving = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(coords)
        low = min(sum(c * x for c, x in zip(a, p)) for p in points)
        moving.append((a, draw(st.integers(-1, 3)) - low))
    return points, moving


OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)]
MERGING_REGION = ([(-2, -1), (-2, 1), (0, -1), (2, 1)], [((-2, 2), 0), ((-1, 0), 2)])
# both moving rows pass through the corner (0, 0) at x = 1, where the rows
# u1 >= 0 and -u1 + 2 u2 >= x - 1 meet on a line that leaves the region on
# both sides; the corner (2, 2) is static until x = 3
CORNER_REGION = ([(0, 0), (2, 0), (0, 2), (2, 2)], [((-1, 2), 1), ((2, -1), 1)])
FOUR_CUBE = (list(product((-1, 1), repeat=4)), [((1, 1, 1, 1), 4), ((1, 0, -1, 0), 3)])


def _lifted(P, moving):
    """The rows of {(u, x) : u in P, <a, u> >= x - b for each moving (a, b)}."""
    return ([((*nr, 0), off) for nr, off in P.inequalities]
            + [((*a, -1), -b) for a, b in moving])


class TestSlicedVolume:
    # non-simple vertices stay inside the pieces of the octahedron and of
    # the square pyramid (its apex); the 4-cube is the largest dimension
    @example((OCTAHEDRON, [((0, 0, -1), 1)]), [F(1, 3)])
    @example((OCTAHEDRON, [((1, 1, 0), 2), ((0, -1, -1), 1)]), [F(2, 7)])
    @example((SQUARE_PYRAMID, [((0, 0, 1), 0)]), [F(1, 2)])
    @example((SQUARE_PYRAMID, [((1, 0, 0), 0), ((0, 1, 1), -1)]), [F(5, 9)])
    @example(FOUR_CUBE, [F(1, 5)])
    @example(MERGING_REGION, [F(1, 4)])
    @example(CORNER_REGION, [F(1, 3)])
    @given(moving_regions(), st.lists(st.fractions(0, 1, max_denominator=9), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_profile_matches_row_volumes(self, region, shares):
        points, moving = region
        P = _lattice_polytope(len(points[0]), points)
        n = P.dimension

        def row_volume(x):
            at_x = list(P.inequalities) + [(a, x - b) for a, b in moving]
            return factorial(n) * volume(n, at_x)

        try:
            S = moving_volume_function(n, P.inequalities, moving)
        except DegeneratePolytope:      # no volume at any x > 0
            assert all(row_volume(x) == 0 for x in [F(1, 1000), *shares] if x > 0)
            return
        bps = S.breakpoints
        # every breakpoint is 0 or the x of a vertex of the region lifted
        # to (u, x), and the last is the largest such x
        ends = {v[n] for v in helpers.basic_feasible_points(n + 1, _lifted(P, moving))}
        assert set(bps) <= ends | {0}
        assert bps[-1] == max(ends)
        xs = [*bps, *[(a + b) / 2 for a, b in zip(bps, bps[1:])],
              *[t * bps[-1] for t in shares]]
        for x in xs:
            assert S.evaluate(x) == row_volume(x)

    @example(FOUR_CUBE, [F(1, 2), F(3, 2)])
    @example(MERGING_REGION, [F(1, 4), F(1, 2)])
    @example(CORNER_REGION, [F(0), F(1, 3)])
    @example((SQUARE_PYRAMID, [((0, 0, 1), 0)]), [F(1, 2), F(2)])
    @given(moving_regions(), st.lists(st.fractions(0, 2, max_denominator=9), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_integral_matches_the_profile(self, region, shares):
        points, moving = region
        P = _lattice_polytope(len(points[0]), points)
        n = P.dimension

        def integral(cap=None):
            return moving_volume_integral(n, P.inequalities, moving, cap)

        try:
            S = moving_volume_function(n, P.inequalities, moving)
        except DegeneratePolytope:      # flat or empty past x = 0
            assert integral()[1] == 0
            assert all(integral(cap)[1] == 0 for cap in [1, *shares])
            return
        tau = S.breakpoints[-1]
        assert integral() == (tau, S.integrate(0, tau))
        # caps below, at and past tau, and at every breakpoint
        for cap in {*S.breakpoints, *[t * tau for t in shares], tau + 1}:
            assert integral(cap) == (min(cap, tau), S.integrate(0, min(cap, tau)))

    def test_integral_of_a_static_region(self):
        rows = TRIANGLE.inequalities
        with pytest.raises(UnboundedPolytope):
            moving_volume_integral(2, rows, [])
        assert moving_volume_integral(2, rows, [], cap=F(1, 2)) == (F(1, 2), F(9, 2))
        assert moving_volume_integral(2, rows, [], cap=0) == (0, 0)
        assert moving_volume_integral(2, rows, [], cap=-1) == (0, 0)
        # no volume at any x > 0, with and without a cap
        flat = UNIT_SQUARE_ROWS + [((-1, 0), 0)]
        assert moving_volume_integral(2, flat, [((0, 1), 1)])[1] == 0
        assert moving_volume_integral(2, flat, [], cap=3)[1] == 0

    def test_triangle_slice(self):
        S = slice_function(TRIANGLE, (1, 1), 2)
        assert S.breakpoints == (F(0), F(3))
        assert poly_trim(S.pieces[0]) == (F(9), F(0), F(-1))
        assert S.integrate(0, 3) == 18

    def test_segment_slice(self):
        S = slice_function(SEGMENT, (1,), 1)
        assert S.breakpoints == (F(0), F(2))
        assert poly_trim(S.pieces[0]) == (F(2), F(-1))

    def test_breakpoints_are_vertex_values(self):
        S = slice_function(CUBE, (1, 1, 1), 3)
        assert S.breakpoints == (F(0), F(2), F(4), F(6))
        # below the least vertex value, 9, the whole cube is kept
        assert CUBE_SLICE.breakpoints == (F(0), F(9), F(11), F(13), F(15))
        assert poly_trim(CUBE_SLICE.pieces[0]) == (6 * euclidean_volume(CUBE),)
        for x in (9, 10, F(23, 2), 13, 14):
            assert CUBE_SLICE.evaluate(x) == S.evaluate(x - 9)

    def test_monotone_and_matches_explicit_slices(self):
        S = slice_function(TRIANGLE, (1, 1), 2)
        samples = [F(i, 7) * 3 for i in range(8)]
        last = None
        for x in samples:
            val = S.evaluate(x)
            rows = list(TRIANGLE.inequalities) + [((1, 1), x - 2)]
            assert val == 2 * helpers.shoelace_area(
                helpers.basic_feasible_points(2, rows))
            if last is not None:
                assert val <= last
            last = val

    def test_equal_neighbouring_pieces_merge(self):
        # the lifted region has a vertex at x = 2, but the area is one
        # quadratic on [0, 4]
        P = RationalPolytope.from_vertices(2, [(-2, -1), (-2, 1), (0, -1), (2, 1)])
        moving = [((-2, 2), 0), ((-1, 0), 2)]
        assert 2 in {v[2] for v in helpers.basic_feasible_points(3, _lifted(P, moving))}
        S = moving_volume_function(2, P.inequalities, moving)
        assert S.breakpoints == (0, 4)
        for x in (0, 1, 2, F(5, 2), 4):
            rows = list(P.inequalities) + [(a, x - b) for a, b in moving]
            assert S.evaluate(x) == 2 * helpers.shoelace_area(
                helpers.basic_feasible_points(2, rows))

    def test_out_of_domain(self):
        S = slice_function(SEGMENT, (1,), 1)
        with pytest.raises(OutOfDomain):
            S.evaluate(F(5, 2))
        with pytest.raises(OutOfDomain):
            S.integrate(0, 3)


class TestPiecewisePolynomial:
    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0, 1, 2], [(0,), (1,)])

    def test_breakpoint_evaluation_uses_right_piece(self):
        pp = PiecewisePolynomial([0, 1, 2], [(0, 1), (1, 0, 0)])
        # at x=1 both pieces agree by continuity; at the final breakpoint
        # the last piece is used
        assert pp.evaluate(1) == 1
        assert pp.evaluate(2) == 1
        assert pp.piece_index(1) == 1
        assert pp.piece_index(2) == 1

    def test_strictly_increasing_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0, 0, 1], [(1,), (1,)])

    @given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)),
                    max_size=6), st.fractions(-5, 5, max_denominator=6))
    @settings(max_examples=80, deadline=None)
    @example([], F(2, 3))
    @example([1, F(1, 2), 0, F(-3, 4)], F(-5, 3))
    @example([F(1, 6)], 0)
    def test_poly_eval_matches_fraction_horner(self, coeffs, x):
        assert poly_eval(coeffs, x) == helpers.fraction_horner(coeffs, x)
        assert poly_eval(tuple(coeffs), int(x)) == helpers.fraction_horner(coeffs, int(x))

    def test_fit_polynomial_roundtrip(self):
        coeffs = fit_polynomial([0, 1, 2], [5, 6, 9])
        assert coeffs == (F(5), F(0), F(1))

    def test_fit_polynomial_rejects_bad_nodes(self):
        for xs, ys in (([], []), ([0, 1], [1]), ([0, 1, F(2, 2)], [1, 2, 3])):
            with pytest.raises(ValueError):
                fit_polynomial(xs, ys)

    @given(st.lists(st.fractions(-4, 4, max_denominator=5), min_size=1, max_size=5,
                    unique=True), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fit_polynomial_matches_vandermonde_solve(self, xs, data):
        ys = data.draw(st.lists(st.fractions(-9, 9, max_denominator=7),
                                min_size=len(xs), max_size=len(xs)))
        vandermonde = [[x ** j for j in range(len(xs))] for x in xs]
        assert fit_polynomial(xs, ys) == tuple(solve(vandermonde, ys))

    @given(st.lists(st.integers(-8, 8), min_size=3, max_size=3).map(sorted)
           .filter(lambda xs: xs[0] < xs[1] < xs[2]))
    @settings(max_examples=15, deadline=None)
    def test_integral_additivity(self, cuts):
        S = CUBE_SLICE  # domain [0, 15]
        lo, hi = S.domain
        a, b, c = (lo + (hi - lo) * F(x + 8, 16) for x in cuts)
        assert S.integrate(a, c) == S.integrate(a, b) + S.integrate(b, c)

    def test_integral_linearity(self):
        S = slice_function(TRIANGLE, (1, 1), 2)
        scaled = PiecewisePolynomial(
            S.breakpoints, [tuple(3 * c for c in p) for p in S.pieces])
        assert scaled.integrate(0, 3) == 3 * S.integrate(0, 3)
