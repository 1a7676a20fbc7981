"""Toric Fano models: moment polytope, vertex charts, catalog.

A model is determined by the primitive ray generators of a complete fan
whose rays support the anticanonical polytope P = {u : <u, ray> >= -1}.
Each vertex of P carries a chart.  For a simple vertex the rows of
``chart.dual`` are the rays of its normal cone (sorted lex); on a smooth
chart the exponent vector of a level-k section u in local coordinates is

    a_i(u) = <dual[i], u> + k,

nonnegative integers, zero exactly at the fixed point.  Singular charts
keep their cone rays and index but expose no exponent map.
A lattice map of N that permutes the rays is an automorphism of the fan
(Cox-Little-Schenck, Toric Varieties, 3.3); it carries smooth charts to
smooth charts and relabels their local coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DegeneratePolytope, NotFano, NotSmoothChart, UnboundedPolytope
from .linalg import Vec, dot, int_det, int_solve, rational_primitive
from .polytope import (RationalPolytope, euclidean_volume, lattice_points,
                       polytope_from_rays)


@dataclass(frozen=True)
class Chart:
    """Local data at one vertex of the moment polytope."""

    vertex: Vec
    simplicial: bool
    index: int
    cone_rays: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...] | None

    @property
    def smooth(self) -> bool:
        return self.simplicial and self.index == 1

    @property
    def dual(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the exponent map on a smooth chart (= the cone rays)."""
        if not self.smooth:
            raise NotSmoothChart(f"chart at {self.vertex} has index {self.index}")
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
    smooth charts: g takes chart i to chart j, where (j, perm) =
    charts[i], and the exponent vector e of chart i to the one of chart j
    whose k-th entry is e[perm[k]]."""

    matrix: tuple[tuple[int, ...], ...]
    charts: dict[int, tuple[int, tuple[int, ...]]]

    def apply(self, v: Sequence) -> tuple:
        """g v for a vector v of N."""
        return tuple(sum(map(mul, row, v)) for row in self.matrix)


@dataclass(frozen=True)
class ToricFanoModel:
    name: str
    dimension: int
    rays: tuple[tuple[int, ...], ...]
    polytope: RationalPolytope
    r0: int
    charts: tuple[Chart, ...]

    @property
    def all_charts_smooth(self) -> bool:
        return all(c.smooth for c in self.charts)

    def smooth_chart_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.charts) if c.smooth]

    @cached_property
    def _anticanonical_volume(self) -> Fraction:
        return factorial(self.dimension) * euclidean_volume(self.polytope)

    @cached_property
    def automorphisms(self) -> tuple[FanAutomorphism, ...]:
        """The fan's automorphism group, computed on first use.

        An automorphism maps the cone of the first smooth chart onto the
        cone of a smooth chart, so it is fixed by where it sends that
        basis: every ordering of every smooth chart's cone rays is tried,
        and g is kept when it permutes the rays.  g is then integer and
        unimodular, being a product of two unimodular bases.  Without a
        smooth chart only the identity is listed.
        """
        n = self.dimension
        smooth = self.smooth_chart_indices()
        if not smooth:
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            return (FanAutomorphism(identity, {}),)
        base = self.charts[smooth[0]].cone_rays
        by_cone = {self.charts[i].cone_rays: i for i in smooth}
        rays = sorted(self.rays)
        out = []
        for target in smooth:
            for image in permutations(self.charts[target].cone_rays):
                # row j of g solves <row, base ray i> = image[i][j] for all i
                d, g_rows = int_solve(base, list(zip(*image)))
                g = FanAutomorphism(tuple(tuple(v // d for v in row) for row in g_rows), {})
                if sorted(map(g.apply, self.rays)) != rays:
                    continue
                for i in smooth:
                    moved = [g.apply(ray) for ray in self.charts[i].cone_rays]
                    j = by_cone[tuple(sorted(moved))]
                    g.charts[i] = (j, tuple(moved.index(ray)
                                            for ray in self.charts[j].cone_rays))
                out.append(g)
        return tuple(out)


def _build_chart(P: RationalPolytope, vertex: Vec) -> Chart:
    n = P.dimension
    tight = tuple(sorted(nr for nr, off in P.inequalities if dot(nr, vertex) == off))
    if len(tight) != n:
        return Chart(vertex=vertex, simplicial=False, index=0,
                     cone_rays=tight, edges=None)
    # n rows tight at a vertex are independent; the edges are the columns
    # of their inverse (of the adjugate, signed by the determinant), each
    # scaled to a primitive vector
    d, cols = int_solve(tight, [[int(i == j) for i in range(n)] for j in range(n)])
    edges = tuple(rational_primitive(col if d > 0 else [-a for a in col]) for col in cols)
    return Chart(vertex=vertex, simplicial=True, index=abs(int_det(edges)),
                 cone_rays=tight, edges=edges)


def build_model(dimension: int, rays: Sequence[Sequence[int]], name: str = "") -> ToricFanoModel:
    """Construct the model for the given primitive fan rays.

    Raises NotFano when the rays do not cut out a bounded full-dimensional
    polytope, or when some ray contributes no facet (the data then does
    not come from a Fano polytope).
    """
    rays_t = tuple(tuple(int(x) for x in r) for r in rays)
    if len(set(rays_t)) != len(rays_t):
        raise ValueError("duplicate rays")
    for r in rays_t:
        if rational_primitive(r) != r or all(x == 0 for x in r):
            raise ValueError(f"ray {r} is not primitive")
    try:
        P = polytope_from_rays(dimension, rays_t)
    except (UnboundedPolytope, DegeneratePolytope) as exc:
        raise NotFano(str(exc)) from exc
    facet_normals = {nr for nr, _ in P.inequalities}
    for r in rays_t:
        if r not in facet_normals:
            raise NotFano(f"ray {r} supports no facet of the polytope")
    r0 = lcm(*[x.denominator for v in P.vertices for x in v])
    charts = tuple(_build_chart(P, v) for v in P.vertices)
    return ToricFanoModel(name=name, dimension=dimension, rays=rays_t,
                          polytope=P, r0=r0, charts=charts)


def anticanonical_volume(X: ToricFanoModel) -> Fraction:
    """Top self-intersection of -K: n! times the Euclidean volume of P,
    computed on first use and kept on the (frozen) model."""
    return X._anticanonical_volume


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

KE_CATALOG = ("P1", "P2", "P3", "P1xP1", "P1xP2", "dP6")


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
