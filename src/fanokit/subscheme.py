"""Monomial subschemes, Newton polyhedra, and ideal sequences on X x A^1.

A MonomialSubscheme stores one monomial ideal per chart, in that chart's
pairing coordinates y_i = <rho_i, u> + level over its cone rays rho_i:
the exponent coordinates on a smooth chart.  Chart indices missing from
the mapping carry the unit ideal; an explicitly empty generator tuple is
the zero ideal.  The boundary divisor of a ray rho is (y_rho) on every
chart whose cone holds rho, singular charts included; a singular chart
may carry only such an ideal or a power of it (divisor_multiple).
A t-graded ideal, decreasing chart ideals J(j), is one LevelTable per chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import (accumulate, combinations_with_replacement, compress, count, repeat,
                       product as cartesian_product)
from math import lcm
from operator import add, and_, ge, gt, le, mul, sub
from typing import Iterator, Mapping, Sequence

from . import lattice
from .errors import (CombinatorialBlowup, EmptyOrFull, GluingMismatch, NotSmoothPoint,
                     UnsupportedSubscheme, ZeroIdeal)
from .model import ToricFanoModel
from .polytope import _orthant_start, _vertex_bases, polytope_edges

Gens = tuple[tuple[int, ...], ...]
# a Newton dual vertex W / den as its integer key (W, den)
DualVertex = tuple[tuple[int, ...], int]

CELL_CAP = 1_000_000


def _normalize_gens(gens: Sequence[Sequence[int]]) -> Gens | None:
    """Minimalized sorted generators; None signals the unit ideal."""
    cleaned = [tuple(int(x) for x in g) for g in gens]
    if any(all(x == 0 for x in g) for g in cleaned):
        return None
    return tuple(lattice.minimalize(cleaned))


@dataclass(frozen=True)
class MonomialSubscheme:
    label: str
    dimension: int
    chart_gens: Mapping[int, Gens] = field(default_factory=dict)

    def __post_init__(self):
        norm: dict[int, Gens] = {}
        for idx, gens in self.chart_gens.items():
            if len(gens) == 0:
                norm[int(idx)] = ()
                continue
            g = _normalize_gens(gens)
            if g is not None:
                norm[int(idx)] = g
        object.__setattr__(self, "chart_gens", norm)

    def gens_on(self, chart_index: int) -> Gens | None:
        """Generators on a chart; None means the unit ideal there."""
        return self.chart_gens.get(chart_index)

    @property
    def is_empty(self) -> bool:
        """The unit ideal everywhere: the subscheme is the empty scheme."""
        return not self.chart_gens

    @property
    def has_zero_chart(self) -> bool:
        return any(len(g) == 0 for g in self.chart_gens.values())

    def active_chart_indices(self) -> list[int]:
        return sorted(self.chart_gens)

    @cached_property
    def dual_vertices(self) -> dict[int, tuple[DualVertex, ...]]:
        """Each active chart's Newton dual vertices, for lct and profile."""
        return {idx: NewtonPolyhedron(gens).dual_vertices
                for idx, gens in self.chart_gens.items()}

    def require_usable(self) -> None:
        if self.has_zero_chart:
            raise ZeroIdeal(f"{self.label}: zero ideal on a chart")
        if self.is_empty:
            raise EmptyOrFull(f"{self.label}: unit ideal everywhere")

    def power(self, m: int) -> "MonomialSubscheme":
        if m < 1:
            raise ValueError("power must be >= 1")
        acc = self
        for _ in range(m - 1):
            acc = product(acc, self)
        return MonomialSubscheme(label=f"{self.label}^{m}", dimension=self.dimension,
                                 chart_gens=acc.chart_gens)


def check_model_fit(X: ToricFanoModel, Z: MonomialSubscheme) -> None:
    """Refuse a subscheme of another dimension, generators on a chart the
    model lacks, or generators whose arity is not their chart's ray
    count: data written for a different fan, which no public constructor
    produces.  Refuse a negative exponent too: a Laurent monomial names
    no ideal of the chart."""
    if Z.dimension != X.dimension:
        raise UnsupportedSubscheme(f"{Z.label}: dimension does not match {X.dimension}")
    for idx in Z.active_chart_indices():
        if not 0 <= idx < len(X.charts):
            raise UnsupportedSubscheme(f"{Z.label}: chart {idx} is not one of the "
                                       f"{len(X.charts)} charts of {X.name or 'the model'}")
        rows = X.charts[idx].cone_rays
        for g in Z.chart_gens[idx]:
            if len(g) != len(rows):
                raise UnsupportedSubscheme(
                    f"{Z.label}: generator arity does not match the "
                    f"{len(rows)} cone rays of chart {idx}")
            if min(g) < 0:
                raise UnsupportedSubscheme(
                    f"{Z.label}: generator {list(g)} on chart {idx} has a negative exponent")


def divisor_multiple(gens: Gens) -> bool:
    """True for (y_rho^m), one generator with one nonzero entry: m times
    a boundary divisor, the only data a singular chart may carry."""
    return len(gens) == 1 and sum(map(bool, gens[0])) == 1


def _minimal_subscheme(label: str, dimension: int,
                       chart_gens: dict[int, Gens]) -> MonomialSubscheme:
    """A subscheme whose chart generators are already in normal form,
    minimal, lex sorted and no chart unit, so none is minimalised again."""
    Z = MonomialSubscheme(label=label, dimension=dimension)
    object.__setattr__(Z, "chart_gens", chart_gens)
    return Z


def product(a: MonomialSubscheme, b: MonomialSubscheme) -> MonomialSubscheme:
    """Chartwise product ideal, labelled a*b: unit times I is I, zero
    times I is zero."""
    gens: dict[int, Gens] = {}
    for idx in {**a.chart_gens, **b.chart_gens}:
        ga, gb = a.gens_on(idx), b.gens_on(idx)
        if ga is None or gb is None:
            gens[idx] = gb if ga is None else ga
        elif len(ga) == 0 or len(gb) == 0:
            gens[idx] = ()
        else:
            gens[idx] = tuple(lattice.minkowski_sum(ga, gb))
    return MonomialSubscheme(label=f"{a.label}*{b.label}",
                             dimension=a.dimension, chart_gens=gens)


def point_subscheme(X: ToricFanoModel, chart_index: int) -> MonomialSubscheme:
    """Reduced torus-fixed point: the maximal ideal of one smooth chart."""
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"the fixed point of {chart.name} is singular")
    n = X.dimension
    gens = tuple(tuple(int(j == i) for j in range(n)) for i in reversed(range(n)))
    return _minimal_subscheme(f"point@{chart_index}", n, {chart_index: gens})


def thickened_point_subscheme(X: ToricFanoModel, chart_index: int) -> MonomialSubscheme:
    """Square of the maximal ideal at a smooth fixed point."""
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"the fixed point of {chart.name} is singular")
    n = X.dimension
    gens = []
    for i, j in combinations_with_replacement(range(n), 2):
        g = [0] * n
        g[i] += 1
        g[j] += 1
        gens.append(tuple(g))
    return _minimal_subscheme(f"point2@{chart_index}", n, {chart_index: tuple(sorted(gens))})


def boundary_divisor_subscheme(X: ToricFanoModel, ray: Sequence[int]) -> MonomialSubscheme:
    """Reduced toric boundary divisor attached to one fan ray: the ideal
    (y_rho) on every chart whose cone holds the ray, singular and
    non-simplicial charts included."""
    ray_t = tuple(int(x) for x in ray)
    if ray_t not in X.rays:
        raise ValueError(f"{ray_t} is not a ray of {X.name or 'the model'}")
    chart_gens: dict[int, Gens] = {}
    for idx, chart in enumerate(X.charts):
        if ray_t in chart.cone_rays:
            chart_gens[idx] = (tuple(int(r == ray_t) for r in chart.cone_rays),)
    return _minimal_subscheme(f"divisor@{ray_t}", X.dimension, chart_gens)


def standard_battery(X: ToricFanoModel) -> list[MonomialSubscheme]:
    """Fixed candidate set: smooth fixed points, boundary divisors, and
    thickened smooth points, in a reproducible order."""
    out: list[MonomialSubscheme] = []
    for idx in X.smooth_chart_indices():
        out.append(point_subscheme(X, idx))
    for ray in X.rays:
        out.append(boundary_divisor_subscheme(X, ray))
    for idx in X.smooth_chart_indices():
        out.append(thickened_point_subscheme(X, idx))
    return out


class NewtonPolyhedron:
    """conv(generators) + nonnegative orthant, with its facet duals.

    ``dual_vertices`` are the vertices w = W / den of Q = {w >= 0 :
    <g, w> >= 1 for all generators}, kept in integers as sorted (W, den)
    keys: den > 0 and W an integer vector with no factor common to den
    and all of W.  A point a >= 0
    lies in x*N iff <W, a> >= x den for every dual vertex.  Facet
    inequalities of N are the scaled dual vertices plus the coordinate
    halfspaces.  Two shapes of ideal have their vertices in closed form.
    One generator g: Q is the orthant cut by <g, w> >= 1, with one vertex
    e_i / g_i per g_i > 0, as for every boundary divisor.  A diagonal
    ideal, holding a pure power x_i^a_i of every coordinate with every
    generator on or above the simplex through them, <g, 1/a> >= 1: Q is
    1/a + orthant, so its one vertex is 1/a, the key ((L/a_1, ..., L/a_n),
    L) with L = lcm(a), as for every point and thickened point (Howald's
    lct = sum 1/a_i).  Any other ideal is enumerated by double
    description, starting from the orthant w >= 0, whose rays are the
    unit vectors, and adding only the generator rows.
    """

    __slots__ = ("dual_vertices",)

    def __init__(self, generators: Sequence[Sequence[int]]):
        """Generators need not be minimal: a dominated one only adds a
        redundant row <g, w> >= 1 to Q, so the vertices do not change.
        They must be nonnegative and of one arity."""
        gens = sorted({tuple(int(x) for x in g) for g in generators})
        if any(not any(g) for g in gens):
            raise ValueError("unit ideal has no Newton polyhedron here")
        if not gens:
            raise ZeroIdeal("zero ideal has empty Newton polyhedron")
        n = len(gens[0])
        if any(len(g) != n or min(g) < 0 for g in gens):
            raise ValueError("Newton generators must be nonnegative and of one arity")
        axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        if len(gens) == 1:
            keys = [(e, x) for e, x in zip(axes, gens[0]) if x]
        else:
            keys = _diagonal_vertex(n, gens)
            if keys is None:
                keys, _ = _vertex_bases(n, [(*e, 0) for e in axes] + [(*g, 1) for g in gens],
                                        _orthant_start(n))
        self.dual_vertices: tuple[DualVertex, ...] = tuple(sorted(keys))


def _diagonal_vertex(n: int, gens: Sequence[tuple[int, ...]]) -> list[DualVertex] | None:
    """[((L/a_1, ..., L/a_n), L)] when the nonnegative generators hold a
    least pure power a_i of each coordinate and <g, (L/a_i)> >= L for
    every g, L = lcm(a); else None.  No prime divides every L/a_i, since
    some a_i carries its full power in L, so the key is reduced."""
    least = [0] * n
    for g in gens:
        support = [i for i, x in enumerate(g) if x]
        if len(support) == 1:
            i = support[0]
            if not least[i] or g[i] < least[i]:
                least[i] = g[i]
    if not all(least):
        return None
    den = lcm(*least)
    W = tuple([den // a for a in least])
    if any(sum(map(mul, g, W)) < den for g in gens):
        return None
    return [(W, den)]


@dataclass(frozen=True)
class IdealSequenceOnXxA1:
    """I_M <= I_{M-1} <= ... <= I_1 of monomial subschemes on a model,
    encoding the ideal I_M + I_{M-1} t + ... + I_1 t^{M-1} + (t^M)."""

    steps: tuple[MonomialSubscheme, ...]

    def __post_init__(self):
        for j in range(len(self.steps) - 1):
            small, big = self.steps[j + 1], self.steps[j]
            if not _subscheme_contains(big, small):
                raise ValueError(
                    f"step {j + 2} not contained in step {j + 1} chartwise")

    @property
    def M(self) -> int:
        return len(self.steps)


def product_gens(X: ToricFanoModel, steps: Sequence[MonomialSubscheme],
                 chart_index: int) -> Gens:
    """Generators of the induced chart ideal in the chart's cone-ray count
    of exponents and a last one for t: the corners (e, j) of the chart's
    level table as (e, M - j), so (0, M) when no step is unit."""
    table = level_table(steps, chart_index, len(X.charts[chart_index].cone_rays))
    return tuple((*e, len(steps) - j) for e, j in table.corners)


def product_dual_vertices(X: ToricFanoModel, steps: Sequence[MonomialSubscheme]
                          ) -> dict[int, tuple[DualVertex, ...]]:
    """Each active chart's Newton dual vertices ((W, W_t), den) of
    product_gens; W_t > 0, some (0, M - j) with j < M being a generator.
    Charts where every step is unit have no entry."""
    return {c: NewtonPolyhedron(product_gens(X, steps, c)).dual_vertices
            for c in sorted(set().union(*(s.chart_gens for s in steps)))}


def _box(top: Sequence[int]) -> tuple[list[int], list[int]]:
    """Lex-order strides of the box [0, top] and its cells, all at 0.
    Refuses up front a box of more than CELL_CAP cells."""
    strides = list(accumulate((t + 1 for t in top[:0:-1]), mul, initial=1))[::-1]
    size = strides[0] * (top[0] + 1)
    if size > CELL_CAP:
        raise CombinatorialBlowup(f"{size} table cells exceed the cap {CELL_CAP}")
    return strides, [0] * size


class LevelTable:
    """L(e) = max{j : x^e in J(j)} for decreasing monomial ideals J(j) on
    one chart, dense in lex order over a box [0, top]: the one their
    generators span, where past the box L is read at the clip, which
    keeps every membership, or for power_table the box its reads reach.  The corners, the (e, L(e)) whose level beats each lower
    neighbour's, are the minimal generators of sum_j J(j) t^(-j); they
    are kept as flat cell indices plus levels."""

    __slots__ = ("top", "strides", "levels", "corner_cells", "corner_levels")

    def __init__(self, top: tuple[int, ...], strides: list[int], levels: list[int]):
        """levels holds each cell's own tag; each cell then takes the
        largest tag at or below it."""
        self.top, self.strides, self.levels = top, strides, levels
        size, corner = len(levels), [True] * len(levels)
        for t, s in zip(top, self.strides):
            block = (t + 1) * s
            for a in range(0, size, block):
                if s == 1:
                    levels[a:a + block] = accumulate(levels[a:a + block], max)
                    continue
                for b in range(a + s, a + block, s):
                    levels[b:b + s] = map(max, levels[b - s:b], levels[b:b + s])
        for t, s in zip(top, self.strides):
            block = (t + 1) * s
            for a in range(0, size, block):
                corner[a + s:a + block] = map(and_, corner[a + s:a + block], map(
                    gt, levels[a + s:a + block], levels[a:a + block - s]))
        self.corner_cells = list(compress(range(size), corner))
        self.corner_levels = list(compress(levels, corner))

    @property
    def corners(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The corners as (exponent vector, level), in lex order."""
        return tuple((tuple(i // s % (t + 1) for t, s in zip(self.top, self.strides)), j)
                     for i, j in zip(self.corner_cells, self.corner_levels))

    def corner_ranges(self) -> list[tuple[tuple[int, ...], int, int]]:
        """(e, lo, j) per corner (e, j), lo the largest level of a lower
        neighbour of e, -1 at the origin: e is a minimal generator of the
        ideal {L >= i} exactly when lo < i <= j."""
        out = []
        for (e, j), cell in zip(self.corners, self.corner_cells):
            lo = max((self.levels[cell - s] for x, s in zip(e, self.strides) if x), default=-1)
            out.append((e, lo, j))
        return out

    def read(self, columns: Sequence[Sequence[int]]) -> Iterator[int]:
        """L at many nonnegative exponent vectors, given as one column of
        equal length per axis, each vector clipped to the box.  The levels
        come lazily: leave the columns unchanged until they are read.
        Each axis clips and scales through one lookup list over its
        column's values; axes of extent 0 always clip to 0 and are
        skipped."""
        index = repeat(0, len(columns[0]))
        for col, t, s in zip(columns, self.top, self.strides):
            if t:
                lut = [min(x, t) * s for x in range(max(col, default=0) + 1)]
                index = map(add, index, map(lut.__getitem__, col))
        return map(self.levels.__getitem__, index)


def _tagged_table(dim: int, tags: Sequence[tuple[Sequence[int], int]]) -> LevelTable:
    """Table over the box spanned by the tagged vectors: each tag (g, j)
    sets level j at g over 0, so where tags share a vector the last one
    wins: list them in ascending j."""
    top = tuple(max((g[i] for g, _ in tags), default=0) for i in range(dim))
    strides, levels = _box(top)
    for g, j in tags:
        levels[sum(map(mul, g, strides))] = j
    return LevelTable(top, strides, levels)


def level_table(steps: Sequence[MonomialSubscheme], chart_index: int,
                dim: int) -> LevelTable:
    """Table on one chart of the pieces steps[0], steps[1], ... at
    j = 1, 2, ..., the unit ideal at j = 0."""
    tags = []
    for j, s in enumerate(steps, start=1):
        gs = s.gens_on(chart_index)
        tags += [(g, j) for g in ([(0,) * dim] if gs is None else gs)]
    return _tagged_table(dim, tags)


def power_table(gens: Sequence[Sequence[int]], top: Sequence[int]) -> LevelTable:
    """L(e) = max{m : x^e in I^m} over the box [0, top], I the monomial
    ideal of these generators, by the recurrence L(e) = max over the
    generators g <= e of 1 + L(e - g), 0 where none fits: no power of I
    is formed.  A generator outside the box fits no cell and is dropped.
    The cells fill one row along the last axis at a time.  A generator
    off that axis reads an earlier row, shifted by its last entry; one on
    it, (0, ..., 0, s), reads the row itself, L(j) = max(b(j), 1 + L(j - s)),
    which along each residue class mod s is k + the running max of
    b - k, k counting the class.  Only the least such s matters: the
    others are dominated, and dominated generators leave every power
    unchanged."""
    top = tuple(top)
    strides, levels = _box(top)
    gens = [tuple(g) for g in gens if all(map(le, g, top))]
    width = top[-1] + 1
    s_axis = min((g[-1] for g in gens if not any(g[:-1])), default=0)
    off_axis = [(g[:-1], g[-1], sum(map(mul, g[:-1], strides))) for g in gens if any(g[:-1])]
    for row in cartesian_product(*(range(t + 1) for t in top[:-1])):
        start = sum(map(mul, row, strides))
        b = [0] * width
        for head, s, shift in off_axis:
            if all(map(ge, row, head)):
                src = start - shift
                b[s:] = map(max, b[s:], map(add, levels[src:src + width - s], repeat(1)))
        for c in range(s_axis):
            b[c::s_axis] = map(add, accumulate(map(sub, b[c::s_axis], count()), max), count())
        levels[start:start + width] = b
    return LevelTable(top, strides, levels)


def _chart_contains(bg: Gens | None, sg: Gens | None) -> bool:
    """One chart's ideal sg inside bg; None is the unit ideal, () zero."""
    if bg is None or sg is None:
        return bg is None
    if not bg:
        return not sg
    return all(lattice.dominates_any(g, bg) for g in sg)


def _subscheme_contains(big: MonomialSubscheme, small: MonomialSubscheme) -> bool:
    """small subset of big, chart by chart."""
    return all(_chart_contains(big.gens_on(idx), small.gens_on(idx))
               for idx in set(big.chart_gens) | set(small.chart_gens))


def verify_gluing(X: ToricFanoModel, Z: MonomialSubscheme) -> None:
    """Check chart ideals agree on overlaps of adjacent smooth charts.

    For vertices joined by a polytope edge the overlap inverts exactly one
    coordinate on each side; the localized ideals must coincide under the
    monomial coordinate change.  Raises GluingMismatch naming a chart
    index the model lacks, or else the first chart pair that disagrees;
    singular charts are skipped (they carry no exponent coordinates).
    """
    for idx in Z.chart_gens:
        if not 0 <= idx < len(X.charts):
            raise GluingMismatch(f"{Z.label}: chart {idx} is not one of the "
                                 f"{len(X.charts)} charts of {X.name}")
    for i, j in polytope_edges(X.polytope):
        ci, cj = X.charts[i], X.charts[j]
        if not (ci.smooth and cj.smooth):
            continue
        common = [r for r in ci.cone_rays if r in cj.cone_rays]
        if len(common) != X.dimension - 1:
            continue
        inv_i = next(k for k, r in enumerate(ci.cone_rays) if r not in common)
        inv_j = next(k for k, r in enumerate(cj.cone_rays) if r not in common)
        gi = Z.gens_on(i)
        gj = Z.gens_on(j)
        li = _localize(gi, inv_i)
        lj = _localize(gj, inv_j)
        # transported version of chart i's localized gens, in chart j
        # coordinates: exponents map by the transpose of D_i * D_j^{-1},
        # and D_j is unimodular, so its edges are the columns of D_j^{-1}
        T = [[sum(a * b for a, b in zip(r, e)) for r in ci.cone_rays] for e in cj.edges]
        ti = _transport(li, T, inv_j)
        if ti != lj:
            raise GluingMismatch(
                f"{Z.label}: charts {i} and {j} disagree on their overlap: "
                f"{ti} vs {lj}")


def _localize(gens: Gens | None, inverted: int):
    """Canonical localized ideal: None for unit, () for zero, else gens
    with the inverted exponent zeroed and re-minimalized."""
    if gens is None:
        return None
    if len(gens) == 0:
        return ()
    out = [tuple(0 if k == inverted else x for k, x in enumerate(g)) for g in gens]
    norm = _normalize_gens(out)
    return norm


def _transport(local, T, inv_target):
    """Apply the integer exponent transform T then canonicalize at the
    target's inverted coordinate."""
    if local is None or len(local) == 0:
        return local
    moved = [tuple([0 if k == inv_target else sum(a * b for a, b in zip(row, g))
                    for k, row in enumerate(T)]) for g in local]
    if any(any(x < 0 for x in g) for g in moved):
        raise ValueError("transported generator has a negative exponent")
    return _normalize_gens(moved)
