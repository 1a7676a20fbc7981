"""Compiled kernel vs pure-Python kernel: identical outputs, same order.

Runs only when the extension was built; a pure checkout skips cleanly.
The two implementations share no code, so this is the contract that lets
`fanokit.lattice` pick either at import time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

cy = pytest.importorskip("fanokit._kernel", reason="compiled kernel not built")

from fanokit import _kernel_py as py  # noqa: E402  (needs the skip first)

coord = st.integers(min_value=-50, max_value=50)


def vectors(n, min_size=0, max_size=4):
    return st.lists(st.tuples(*[coord] * n), min_size=min_size,
                    max_size=max_size)


@st.composite
def boxes(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    lo = draw(st.tuples(*[st.integers(-5, 5)] * n))
    hi = tuple(a + draw(st.integers(-2, 5)) for a in lo)
    m = draw(st.integers(min_value=0, max_value=4))
    normals = [draw(st.tuples(*[st.integers(-4, 4)] * n)) for _ in range(m)]
    offsets = [draw(st.integers(-20, 20)) for _ in range(m)]
    return normals, offsets, lo, hi


@st.composite
def chart_problems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    points = draw(vectors(n, max_size=8))
    charts = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 3))
        rows = tuple(draw(st.tuples(*[st.integers(-3, 3)] * n))
                     for _ in range(d))
        shift = draw(st.tuples(*[st.integers(-10, 10)] * d))
        gens = tuple(draw(st.tuples(*[st.integers(-5, 5)] * d))
                     for _ in range(draw(st.integers(0, 3))))
        charts.append((rows, shift, gens))
    return points, charts


class TestParity:
    def test_backend_names_differ(self):
        assert cy.BACKEND_NAME == "cython"
        assert py.BACKEND_NAME == "python"

    @settings(max_examples=200)
    @given(boxes())
    def test_enum_points(self, problem):
        normals, offsets, lo, hi = problem
        assert cy.enum_points(normals, offsets, lo, hi) == \
            py.enum_points(normals, offsets, lo, hi)

    @settings(max_examples=200)
    @given(st.data())
    def test_dominates_any(self, data):
        n = data.draw(st.integers(1, 4))
        point = data.draw(st.tuples(*[coord] * n))
        gens = data.draw(st.lists(
            st.lists(coord, min_size=0, max_size=n + 1).map(tuple),
            max_size=5))
        assert cy.dominates_any(point, gens) == py.dominates_any(point, gens)

    @settings(max_examples=200)
    @given(chart_problems())
    def test_filter_points_in_ideals(self, problem):
        points, charts = problem
        assert cy.filter_points_in_ideals(points, charts) == \
            py.filter_points_in_ideals(points, charts)

    @settings(max_examples=200)
    @given(st.data())
    def test_minkowski_sum(self, data):
        n = data.draw(st.integers(1, 3))
        a = data.draw(vectors(n, min_size=1))
        b = data.draw(vectors(n, min_size=1))
        assert cy.minkowski_sum(a, b) == py.minkowski_sum(a, b)

    @settings(max_examples=200)
    @given(st.data())
    def test_minimalize(self, data):
        gens = data.draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=0, max_size=3).map(tuple),
            max_size=8))
        assert cy.minimalize(gens) == py.minimalize(gens)


class TestOnPackageWorkloads:
    def test_section_counts_agree_on_catalog(self):
        from fanokit.model import CATALOG_RAYS, catalog_model
        from fanokit.polytope import lattice_points

        for name in sorted(CATALOG_RAYS):
            X = catalog_model(name)
            for k in (1, 2, 3):
                pts = lattice_points(X.polytope, k)
                assert pts == sorted(pts)

    def test_filtration_filters_agree(self):
        from fanokit.filtration import _ideal_kernel_charts
        from fanokit.model import catalog_model
        from fanokit.polytope import lattice_points
        from fanokit.subscheme import point_subscheme

        X = catalog_model("P2")
        Z = point_subscheme(X, 0).power(2)
        pts = lattice_points(X.polytope, 3)
        charts = _ideal_kernel_charts(X, Z, 3)
        assert cy.filter_points_in_ideals(pts, charts) == \
            py.filter_points_in_ideals(pts, charts)
