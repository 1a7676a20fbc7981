"""Toric Fano models: moment polytope, vertex charts, catalog.

A model is determined by the primitive ray generators of a complete fan
whose rays support the anticanonical polytope P = {u : <u, ray> >= -1}.
Each vertex of P carries a chart.  For a simple vertex the rows of
``chart.dual`` are the rays of its normal cone (sorted lex); on a smooth
chart the exponent vector of a level-k section u in local coordinates is

    a_i(u) = <dual[i], u> + k,

nonnegative integers, zero exactly at the fixed point.  Singular charts
keep their cone rays and index but expose no exponent map; the pairings
<rho, u> + k over their cone rays still serve as coordinates.
A lattice map of N that permutes the rays is an automorphism of the fan
(Cox-Little-Schenck, Toric Varieties, 3.3); it carries charts to charts
of the same kind and relabels their cone rays.  The barycenter b_P of P
is 0 exactly on the smooth models that carry a Kähler-Einstein metric
(Wang-Zhu 2004); like the volume and the automorphisms it is computed on
first use, off the pulling triangulation of the volume, and kept on the
model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DegeneratePolytope, NotFano, NotSmoothChart, UnboundedPolytope
from .linalg import Vec, exact_int, int_det, int_primitive, int_solve
from .polytope import (RationalPolytope, euclidean_volume, lattice_points, polytope_edges,
                       polytope_from_rays, pulled_moments)


class Chart(NamedTuple):
    """Local data at one vertex of the moment polytope, the position-th
    chart of its model."""

    position: int
    vertex: Vec
    simplicial: bool
    index: int
    cone_rays: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...] | None

    @property
    def smooth(self) -> bool:
        return self.simplicial and self.index == 1

    @property
    def name(self) -> str:
        """The chart as messages name it: 'chart 1 at [-1, 1]'."""
        return f"chart {self.position} at [{', '.join(map(str, self.vertex))}]"

    @property
    def dual(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the exponent map on a smooth chart (= the cone rays)."""
        if not self.smooth:
            raise NotSmoothChart(f"{self.name} has index {self.index}")
        return self.cone_rays

    def exponents(self, u: Sequence, k: int) -> tuple[int, ...]:
        """Local exponent vector of the level-k lattice point u."""
        rows = self.dual
        out = []
        for row in rows:
            val = sum(a * b for a, b in zip(row, u)) + k
            out.append(int(val))
        return tuple(out)


class FanAutomorphism(NamedTuple):
    """A lattice map g of N permuting the rays, with its action on the
    charts: g takes chart i to chart j, where (j, perm) = charts[i], and
    the pairing vector e over chart i's cone rays to the one over chart
    j's whose k-th entry is e[perm[k]]."""

    matrix: tuple[tuple[int, ...], ...]
    charts: dict[int, tuple[int, tuple[int, ...]]]

    def apply(self, v: Sequence) -> tuple:
        """g v for a vector v of N."""
        return tuple(sum(map(mul, row, v)) for row in self.matrix)


class _ModelFields(NamedTuple):
    name: str
    dimension: int
    rays: tuple[tuple[int, ...], ...]
    polytope: RationalPolytope
    r0: int
    charts: tuple[Chart, ...]


class ToricFanoModel(_ModelFields):
    """The fields of a model, fixed at construction, and the values
    computed on first use, kept in the instance's __dict__."""

    @property
    def all_charts_smooth(self) -> bool:
        return all(c.smooth for c in self.charts)

    def smooth_chart_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.charts) if c.smooth]

    @cached_property
    def _anticanonical_volume(self) -> Fraction:
        return factorial(self.dimension) * euclidean_volume(self.polytope)

    @cached_property
    def _moments(self) -> tuple[tuple[tuple[int, ...], ...], int, int, list[int]]:
        """(pts, den, total, first) of polytope.pulled_moments, computed on
        first use: P's vertices pts / den, and the barycenter
        first / ((dimension + 1) den total) in integers."""
        return pulled_moments(self.polytope)

    @cached_property
    def _edges(self) -> list[tuple[int, int]]:
        """polytope.polytope_edges of P, computed on first use: the index
        pairs of the vertices joined by an edge, in the order of pts."""
        return polytope_edges(self.polytope)

    @cached_property
    def automorphisms(self) -> tuple[FanAutomorphism, ...]:
        """The fan's automorphism group, computed on first use.

        An automorphism maps the cone of the first smooth chart onto the
        cone of a smooth chart, so it is fixed by where it sends that
        basis: every ordering of every smooth chart's cone rays is tried,
        and g is kept when it permutes the rays.  g is then integer and
        unimodular, being a product of two unimodular bases.  Without a
        smooth chart only the identity is listed.  The rays are mapped
        once per candidate, and every chart's image and the permutation
        of its cone rays are read off that map.
        """
        n = self.dimension
        smooth = self.smooth_chart_indices()
        matrices = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
        if smooth:
            base = self.charts[smooth[0]].cone_rays
            # row j of g solves <row, base ray i> = image[i][j] for all i
            solved = (int_solve(base, list(zip(*image)))
                      for target in smooth
                      for image in permutations(self.charts[target].cone_rays))
            matrices = [tuple(tuple(v // d for v in row) for row in g_rows)
                        for d, g_rows in solved]
        by_cone = {c.cone_rays: i for i, c in enumerate(self.charts)}
        rays = sorted(self.rays)
        out = []
        for matrix in matrices:
            g = FanAutomorphism(matrix, {})
            images = {ray: g.apply(ray) for ray in self.rays}
            if sorted(images.values()) != rays:
                continue
            for i, chart in enumerate(self.charts):
                moved = [images[ray] for ray in chart.cone_rays]
                j = by_cone[tuple(sorted(moved))]
                g.charts[i] = (j, tuple(map(moved.index, self.charts[j].cone_rays)))
            out.append(g)
        return tuple(out)


def _build_chart(P: RationalPolytope, position: int, vertex: Vec, mask: int) -> Chart:
    """The position-th chart, at a vertex of P, given the bitmask of the
    inequalities tight at it."""
    n = P.dimension
    tight = tuple(sorted(nr for k, (nr, _) in enumerate(P.inequalities) if mask >> k & 1))
    if len(tight) != n:
        return Chart(position=position, vertex=vertex, simplicial=False, index=0,
                     cone_rays=tight, edges=None)
    # n rows tight at a vertex are independent; the edges are the columns
    # of their inverse (of the adjugate, signed by the determinant), each
    # scaled to a primitive vector
    d, cols = int_solve(tight, [[int(i == j) for i in range(n)] for j in range(n)])
    edges = tuple(int_primitive(col if d > 0 else [-a for a in col]) for col in cols)
    return Chart(position=position, vertex=vertex, simplicial=True, index=abs(int_det(edges)),
                 cone_rays=tight, edges=edges)


def build_model(dimension: int, rays: Sequence[Sequence[int]], name: str = "") -> ToricFanoModel:
    """Construct the model for the given primitive fan rays.

    Raises NotFano when the rays do not cut out a bounded full-dimensional
    polytope, or when some ray contributes no facet (the data then does
    not come from a Fano polytope).
    """
    rays_t = tuple(tuple([exact_int(x, f"ray {list(r)}") for x in r]) for r in rays)
    if len(set(rays_t)) != len(rays_t):
        raise ValueError("duplicate rays")
    for r in rays_t:
        if int_primitive(r) != r or all(x == 0 for x in r):
            raise ValueError(f"ray {r} is not primitive")
    try:
        P = polytope_from_rays(dimension, rays_t)
    except (UnboundedPolytope, DegeneratePolytope) as exc:
        raise NotFano(str(exc)) from exc
    facet_normals = {nr for nr, _ in P.inequalities}
    for r in rays_t:
        if r not in facet_normals:
            raise NotFano(f"ray {r} supports no facet of the polytope")
    r0 = P.denominator
    charts = tuple(_build_chart(P, i, v, z)
                   for i, (v, z) in enumerate(zip(P.vertices, P.vertex_masks)))
    return ToricFanoModel(name=name, dimension=dimension, rays=rays_t,
                          polytope=P, r0=r0, charts=charts)


def anticanonical_volume(X: ToricFanoModel) -> Fraction:
    """Top self-intersection of -K: n! times the Euclidean volume of P,
    computed on first use and kept on the (immutable) model."""
    return X._anticanonical_volume


def barycenter(X: ToricFanoModel) -> tuple[Fraction, ...]:
    """The barycenter b_P of the moment polytope, computed on first use
    off the pulling triangulation of its volume and kept on the model."""
    _, den, total, first = X._moments
    return tuple(Fraction(a, (X.dimension + 1) * den * total) for a in first)


def is_kahler_einstein(X: ToricFanoModel) -> bool:
    """True when b_P = 0: a smooth toric Fano manifold carries a
    Kähler-Einstein metric exactly then (Wang-Zhu, *Kähler-Ricci solitons
    on toric manifolds with positive first Chern class*, 2004)."""
    return not any(barycenter(X))


def section_count(X: ToricFanoModel, k) -> int:
    """dim H0 of the k-th anticanonical multiple: lattice points of k*P."""
    return len(lattice_points(X.polytope, k))


CATALOG_RAYS: dict[str, tuple[tuple[int, ...], ...]] = {
    "P1": ((1,), (-1,)),
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "dP6": ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)),
    "P3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    "P1xP2": ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
    "P112": ((1, 0), (0, 1), (-1, -2)),
}


@lru_cache(maxsize=None)
def catalog_model(name: str) -> ToricFanoModel:
    try:
        rays = CATALOG_RAYS[name]
    except KeyError:
        raise KeyError(f"unknown catalog model {name!r}; "
                       f"have {sorted(CATALOG_RAYS)}") from None
    return build_model(len(rays[0]), rays, name=name)


def catalog() -> dict[str, ToricFanoModel]:
    return {name: catalog_model(name) for name in CATALOG_RAYS}
