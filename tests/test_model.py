"""Catalog models, charts, anticanonical data."""

from fractions import Fraction
from math import factorial

import pytest

import fanokit.polytope as polytope_mod
from fanokit.errors import NotFano, NotSmoothChart
from fanokit.model import (CATALOG_RAYS, anticanonical_volume, build_model, catalog,
                           catalog_model, section_count)

import helpers

F = Fraction

EXPECTED_VOLUMES = {
    "P1": 2, "P2": 9, "P1xP1": 8, "dP6": 6,
    "P3": 64, "P1xP2": 54, "P112": 8,
}


class TestCatalog:
    def test_volumes(self):
        for name, vol in EXPECTED_VOLUMES.items():
            assert anticanonical_volume(catalog_model(name)) == vol, name

    def test_one_vertex_enumeration_per_model(self, monkeypatch):
        # the facets, boundedness and volume all come off the vertices of
        # the ray rows, enumerated once
        real = polytope_mod._vertex_bases
        calls = []

        def counted(dim, irows):
            calls.append(dim)
            return real(dim, irows)

        monkeypatch.setattr(polytope_mod, "_vertex_bases", counted)
        for name, rays in CATALOG_RAYS.items():
            calls.clear()
            X = build_model(len(rays[0]), rays, name=name)
            assert anticanonical_volume(X) == EXPECTED_VOLUMES[name]
            assert calls == [X.dimension], name

    def test_volume_bound_dim_le_3(self):
        for name, X in catalog().items():
            n = X.dimension
            assert anticanonical_volume(X) <= (n + 1) ** n, name

    def test_r0_all_one(self):
        # every catalog polytope has integral vertices; in particular the
        # weighted projective plane here is Gorenstein
        for name, X in catalog().items():
            assert X.r0 == 1, name

    def test_p112_vertices(self):
        X = catalog_model("P112")
        assert X.polytope.vertices == (
            (F(-1), F(-1)), (F(-1), F(1)), (F(3), F(-1)))

    def test_p112_chart_smoothness(self):
        X = catalog_model("P112")
        smooth_flags = [c.smooth for c in X.charts]
        assert smooth_flags == [True, False, True]
        singular = X.charts[1]
        assert singular.index == 2
        with pytest.raises(NotSmoothChart):
            singular.dual  # noqa: B018  - property raises

    def test_smooth_models_all_smooth(self):
        for name in ("P1", "P2", "P1xP1", "dP6", "P3", "P1xP2"):
            assert catalog_model(name).all_charts_smooth, name


class TestSectionCount:
    def test_examples(self):
        assert section_count(catalog_model("P2"), 1) == 10
        assert section_count(catalog_model("P1"), 2) == 5
        assert section_count(catalog_model("P1xP1"), 1) == 9

    def test_ehrhart_leading_coefficient(self):
        # n! * (leading coeff of the section-count polynomial) = volume, and
        # the count is polynomial from k = 0 on for these integral polytopes
        for name, X in catalog().items():
            n = X.dimension
            counts = [section_count(X, k) for k in range(n + 2)]
            lead = helpers.finite_difference_leading(counts[:n + 1], n)
            assert factorial(n) * lead == anticanonical_volume(X), name

    def test_k_zero(self):
        assert section_count(catalog_model("P3"), 0) == 1


class TestCharts:
    def test_p2_chart_exponent_map(self):
        X = catalog_model("P2")
        chart = next(c for c in X.charts if c.vertex == (F(-1), F(-1)))
        assert chart.dual == ((0, 1), (1, 0))
        assert chart.exponents((-1, -1), 1) == (0, 0)
        assert chart.exponents((2, -1), 1) == (0, 3)
        # exponents are nonnegative on the whole level-1 polytope
        from fanokit.polytope import lattice_points
        for u in lattice_points(X.polytope, 1):
            assert all(e >= 0 for e in chart.exponents(u, 1))

    def test_dual_rows_are_rays(self):
        for name in ("P2", "P3", "dP6", "P1xP2"):
            X = catalog_model(name)
            for chart in X.charts:
                for row in chart.cone_rays:
                    assert row in X.rays

    def test_vertex_on_dual_facets(self):
        for X in catalog().values():
            for chart in X.charts:
                for row in chart.cone_rays:
                    assert sum(a * b for a, b in zip(row, chart.vertex)) == -1

    def test_edges_are_primitive_and_consistent(self):
        X = catalog_model("dP6")
        chart = next(c for c in X.charts if c.vertex == (F(1), F(0)))
        assert chart.edges == ((0, -1), (-1, 1))


class TestAutomorphisms:
    def test_group_orders(self):
        assert {name: len(X.automorphisms) for name, X in catalog().items()} == {
            "P1": 2, "P2": 6, "P1xP1": 8, "dP6": 12, "P3": 24, "P1xP2": 12,
            "P112": 2}

    def test_elements_are_unimodular_ray_permutations(self):
        for X in catalog().values():
            mats = {g.matrix for g in X.automorphisms}
            assert len(mats) == len(X.automorphisms)
            for g in X.automorphisms:
                assert all(type(a) is int for row in g.matrix for a in row)
                assert abs(helpers.leibniz_det(g.matrix)) == 1
                assert sorted(g.apply(r) for r in X.rays) == sorted(X.rays)
                # the product with every element stays in the group
                for h in X.automorphisms:
                    prod = tuple(tuple(sum(a * b for a, b in zip(row, col))
                                       for col in zip(*h.matrix)) for row in g.matrix)
                    assert prod in mats

    def test_chart_action_follows_the_vertices(self):
        for X in catalog().values():
            for g in X.automorphisms:
                assert sorted(g.charts) == X.smooth_chart_indices()
                for i, (j, perm) in g.charts.items():
                    src, tgt = X.charts[i], X.charts[j]
                    assert tgt.cone_rays == tuple(g.apply(src.cone_rays[p]) for p in perm)
                    for r in X.rays:
                        assert (sum(a * b for a, b in zip(g.apply(r), tgt.vertex))
                                == sum(a * b for a, b in zip(r, src.vertex)))

    def test_no_smooth_chart_leaves_the_identity(self):
        # P2 modulo Z/3: every chart has index 3
        X = build_model(2, [(2, -1), (-1, 2), (-1, -1)])
        assert X.smooth_chart_indices() == []
        assert [g.matrix for g in X.automorphisms] == [((1, 0), (0, 1))]


class TestBuildModelErrors:
    def test_not_spanning(self):
        with pytest.raises(NotFano):
            build_model(2, [(1, 0), (0, 1)])

    def test_extra_ray_that_cuts_is_fine(self):
        # one blowup of the plane: the added ray carries a facet
        X = build_model(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
        assert anticanonical_volume(X) == 8
        assert len(X.charts) == 4

    def test_redundant_ray(self):
        # (1,0) only touches the polytope at a vertex: no facet, not a
        # Fano fan datum
        with pytest.raises(NotFano):
            build_model(2, [(1, 1), (1, -1), (-1, 0), (1, 0)])

    def test_non_primitive_ray(self):
        with pytest.raises(ValueError):
            build_model(2, [(2, 0), (0, 1), (-1, -1)])

    def test_duplicate_ray(self):
        with pytest.raises(ValueError):
            build_model(2, [(1, 0), (1, 0), (0, 1), (-1, -1)])
