"""Filtrations of anticanonical section spaces and their limit slope.

The filtration is by ideal powers: a section of L^r = -r r0 K sits at
level x when its chart exponents lie in the ceil(x)-th power of a fixed
monomial ideal.  It answers three queries: F^x V_r as a tuple of lattice
points of r*r0*P, the saturation of a level into a monomial ideal plus
its section closure, and the index of the step that holds a level.

Downstream every number follows one chain.  The step ideals at a fixed r
assemble into a t-graded ideal on X x A^1, whose generators on each
chart are the corners of the spec's tagged table there (below).  On
each chart its Newton polyhedron is the hypograph of a concave
function, and their least, G,
is the concave transform of the filtration (Boucksom and Chen, *Okounkov
bodies of filtered linear series*, 2011; Witt Nystrom, *Test
configurations and Okounkov bodies*, 2012): the sample slope d_r reads
off the exact integral of G - r e_minus over r*r0*P, _leading_integral,
the volume of {(u, x) : 0 <= x <= G(u) - r e_minus}, capped, which
volumes.region_integral reads off one vertex enumeration, or, for one
row, off P's moments and one cut.  The r -> infinity limit
is evaluated in closed form through the integral of the blowup volume
profile, read the same way by volumes.blowup_volume_integral.  The
weight sums v_r(k) of the k-th powers of induced_ideal_sequence count
the same thing in lattice points: their (n+1)-st finite difference
tends to that integral.  That
count is a check, in oracles, and no route here.  The integer window
[e_minus, e_plus] of the steps belongs to the filtration:
ideal_power_filtration sets it, and no route takes a window of its own.

Chart exponent vectors here are ray pairings <rho, u> + level over the
cone rays of each chart.  On smooth charts this is the usual exponent
map; on simplicial singular charts it still converts ideal membership,
products, and containment into componentwise arithmetic, which is all
the saturation and integral routes need.

Every membership question, which sections of L^level lie in which chart
ideals, has one reader, _least_levels: each section's least level over
one subscheme.LevelTable per chart.  A spec keeps one _Record per r,
built on first use by _record, the one place that checks r.  It holds
the sections as lattice fibers, runs of points that differ only in the
last coordinate, along which each pairing is affine, so _chart_columns
builds the column of each distinct ray once, a range per fiber, shared
by every chart that has the ray.  Off those columns the record's build
reads two tables per chart.  The order tables, one per active chart,
give each section its step index ord(u) = max{i : u in step i} by the
recurrence of subscheme.power_table, with no power of the ideal formed.
The tagged tables, one per chart tagged with (image of u, ord(u)), level
>= i exactly on the ideal the sections of order >= i generate, are the
t-graded ideal itself: compute_d_infty reads each chart's generators
straight off their corners, (e, M - min(j - r e_minus, M)) from corner
(e, j), with no step ideal formed.  Only saturate reads them at the
sections, each one's saturated index being the least read over the
charts: at step i the value is the sections with ord(u) >= i, the
saturated ideal is the table corners that minimally generate
{level >= i} on each chart, and its closure the sections of saturated
index >= i.  The record derives the saturated indices and the corner
ranges, off columns built again then, and expands the fibers into
points, once each, where they are first read; it keeps no columns, so
the slopes hold no more than their tables.  saturate_points builds the
same record from 0/1 orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import ceil, inf
from operator import ge, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import UnsupportedSubscheme
from .lattice import expand_fibers
from .linalg import int_primitive
from .model import ToricFanoModel, anticanonical_volume
from .polytope import lattice_fibers
from .subscheme import (DualVertex, IdealSequenceOnXxA1, LevelTable, MonomialSubscheme,
                        _minimal_subscheme, _tagged_table, chart_dual_vertices,
                        power_table)
from .volumes import blowup_volume_integral, region_integral

Point = tuple[int, ...]
Fiber = tuple[Point, int, int]


def _level(r) -> int:
    """r itself when it is an int >= 1, not a bool: the one reading of a
    level, so no level is truncated or coerced; else ValueError."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise ValueError(f"level r={r!r} must be a positive integer")
    return r


class _Record:
    """The sections of L^level and what is read off them: the lattice
    fibers, each section's order, and one table per chart tagged with
    (image of u, ord(u)) for the sections u of positive order, images
    that are distinct on a chart; so a cell reads the largest order of a
    section whose image it dominates, and its level >= i exactly on the
    ideal the images of order >= i generate.  The tables come off the
    columns the orders were read at, which are not kept.  The sections
    as points, and each section's saturated index with each chart's
    corner ranges, are built where they are first read."""

    def __init__(self, X: ToricFanoModel, level: int, fibers: list[Fiber],
                 columns: list[list[list[int]]], orders: list[int],
                 points: tuple[Point, ...] | None = None):
        self.X, self.level, self.fibers, self.orders = X, level, fibers, orders
        self.tables = {c: _tagged_table(len(cols), [t for t in zip(zip(*cols), orders) if t[1]])
                       for c, cols in enumerate(columns)}
        self._points, self._saturated = points, None

    @property
    def points(self) -> tuple[Point, ...]:
        """The sections as lattice points, in the fibers' order."""
        if self._points is None:
            self._points = tuple(expand_fibers(self.fibers))
        return self._points

    def saturation(self, i: int, label: str) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
        """The saturation of the sections of order >= i: on each chart the
        corners that minimally generate {level >= i}, and the sections
        whose saturated index, the least read of the tagged tables over
        the charts (the largest order where none reads lower), is >= i.
        No such section gives the zero ideal on every chart and an empty
        closure; all of them, the unit ideal, as every chart's vertex
        section has image 0.  The corners come minimal and in lex order,
        so the ideal is not minimalised again; a chart whose first corner
        is the origin, its only one then, is unit and left out."""
        if self._saturated is None:
            columns = _chart_columns(self.X, self.fibers, self.level)
            self._saturated = (list(_least_levels(columns, max(self.orders, default=0), self.tables)),
                               {c: t.corner_ranges() for c, t in self.tables.items()})
        saturated, corners = self._saturated
        chart_gens = {}
        for c, cs in corners.items():
            gens = tuple(e for e, lo, j in cs if lo < i <= j)
            if not gens or any(gens[0]):
                chart_gens[c] = gens
        closure = tuple(compress(self.points, map(ge, saturated, repeat(i))))
        return _minimal_subscheme(label, self.X.dimension, chart_gens), closure


class FiltrationSpec:
    """Decreasing, multiplicative, linearly bounded filtration of the
    spaces V_r of level-r anticanonical sections by vanishing order along
    a subscheme.

    Build instances with ideal_power_filtration.  e_plus/e_minus are the
    integer window of the weight routes, the spec's own, and every route
    reads it from here.  Every level x at r reads one _Record of the
    sections of L^r, built once for r: its orders give each section its
    step index ord(u), so F^x V_r is the sections with ord(u) >= level_step(x);
    its tagged tables are the t-graded ideal of the window, whose corners
    compute_d_infty reads as generators, and give each section its
    saturated index, which saturate derives from them when it is first
    called at r.  Besides the records the spec keeps saturate's cache.
    """

    def __init__(self, X: ToricFanoModel, subscheme: MonomialSubscheme, *,
                 e_plus: int, e_minus: int, e_max_est: Fraction,
                 profile_integral: Fraction):
        self.X = X
        self.subscheme = subscheme
        self.e_plus = e_plus
        self.e_minus = e_minus
        self.e_max_est = e_max_est
        self.profile_integral = profile_integral
        self._records: dict[int, _Record] = {}
        self._saturations: dict = {}

    def _record(self, r: int) -> _Record:
        """The record of the sections of L^r, built on first use; a level
        r that is not a positive integer raises ValueError (_level).  Each
        section's order is its least level over one power_table per active
        chart, over the box the pairing columns reach.  Where no chart is
        active every power holds the section, ord = inf.  A boundary
        divisor's chart ideal (y_rho) reads as its pairing column
        <rho, u> + level, the order of vanishing along it."""
        r = _level(r)
        if r not in self._records:
            X, Z = self.X, self.subscheme
            level = r * X.r0
            fibers = lattice_fibers(X.polytope, level)
            columns = _chart_columns(X, fibers, level)
            orders = list(_least_levels(columns, inf, {
                c: power_table(Z.chart_gens[c], [max(col, default=0) for col in columns[c]])
                for c in Z.active_chart_indices()}))
            self._records[r] = _Record(X, level, fibers, columns, orders)
        return self._records[r]

    def sections(self, r: int) -> tuple[Point, ...]:
        """All lattice points of r*r0*P, cached."""
        return self._record(r).points

    @staticmethod
    def level_step(x) -> int:
        """The index of the step that contains level x, equal exactly when
        two levels share the step: ceil(x), and 0 from x <= 0."""
        return max(ceil(x), 0)

    def value(self, r: int, x) -> tuple[Point, ...]:
        """F^x V_r as lattice points of r*r0*P."""
        i = self.level_step(x)
        record = self._record(r)
        if i == 0:
            return record.points
        return tuple(compress(record.points, map(ge, record.orders, repeat(i))))

    def orders(self, r: int) -> list[int]:
        """Each section's step index ord(u) = max{i : u in step i} at r, in
        the order of sections(r), cached."""
        return self._record(r).orders


def ideal_power_filtration(X: ToricFanoModel, Z: MonomialSubscheme) -> FiltrationSpec:
    """Filtration of V_r by vanishing order along Z.

    Level x keeps the sections whose chart exponents lie in the
    ceil(x)-th power of Z's ideal; nonpositive x keeps everything.  The
    window is e_minus = -1 and e_plus one past the scaled
    pseudoeffective threshold tau, e_max_est; it brackets 0 and that
    threshold by construction.  tau and the integral of the blowup
    volume profile, which the limit slope reads, come exactly from
    volumes.blowup_volume_integral, with no profile built; it refuses a
    subscheme that does not fit the model.
    """
    tau, integral = blowup_volume_integral(X, Z)
    e_max = X.r0 * tau
    return FiltrationSpec(X, Z, e_plus=ceil(e_max) + 1, e_minus=-1,
                          e_max_est=e_max, profile_integral=integral)


def saturate_points(X: ToricFanoModel, r: int,
                    points: Iterable[Point]) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """Ideal generated by a set of level-r sections, and its closure.

    The ideal collects the minimal chart exponent vectors of the given
    points on every chart; the closure is all sections of L^r inside the
    ideal.  Saturating the closure again changes nothing.  A point that
    is not a section of L^r, or a level r that is not a positive
    integer, raises ValueError.  The saturation is the
    filtration's, read off a _Record with the given points at order 1
    and the rest at 0.
    """
    r = _level(r)
    level = r * X.r0
    fibers = lattice_fibers(X.polytope, level)
    sections = tuple(expand_fibers(fibers))
    chosen = set(points)
    orders = [int(u in chosen) for u in sections]
    if sum(orders) != len(chosen):
        raise ValueError(f"points outside the sections of level r={r}")
    record = _Record(X, level, fibers, _chart_columns(X, fibers, level), orders, sections)
    return record.saturation(1, f"sat(r={r})")


def saturate(F: FiltrationSpec, r: int, x) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """I_(r,x) generated by F^x V_r, plus the saturated value itself.
    Both read the spec's record at r, whose tagged tables compute_d_infty
    reads; the first call at r derives from them each chart's
    corner_ranges and each section's saturated index, building no table:
    at the step's index i the ideal is each chart's minimal corners of
    level >= i, and the value the sections of saturated index >= i.
    Step 0 is all of V_r, with the unit ideal, every chart's origin
    being a corner of level >= 0.  Levels x in one step share one
    saturation, cached and labelled by r and the index."""
    r = _level(r)
    index = F.level_step(x)
    key = (r, index)
    if key not in F._saturations:
        F._saturations[key] = F._record(r).saturation(index, f"sat(r={r},step={index})")
    return F._saturations[key]


def _window_steps(F: FiltrationSpec, r: int) -> list[MonomialSubscheme]:
    """The saturated level ideals at x = j for the integers j in
    (r e_minus, r e_plus], the steps of the spec's window at r.  The
    routes put the unit ideal at x = r e_minus, where F^x V_r is full as
    e_minus < 0."""
    return [saturate(F, r, j)[0] for j in range(r * F.e_minus + 1, r * F.e_plus + 1)]


def _leading_integral(X: ToricFanoModel, r: int, M: int,
                      duals: Mapping[int, Sequence[DualVertex]]) -> Fraction:
    """(n+1)! times the integral over r*r0*P of G - lo, G the level
    function of the t-graded ideal with the unit ideal at j = lo and M
    decreasing steps at j = lo + 1, ..., lo + M: the exact limit of the
    (n+1)-st finite difference of the weight sums v(k) of its k-th
    powers.  Only G - lo enters, so lo does not.

    duals are the steps' dual vertices: product_dual_vertices of the
    steps, or for a filtration those compute_d_infty reads off the
    corners of its tagged tables.  On each active chart G_c(u) - lo is
    M - min{s : (D u + r r0, s) in the Newton polyhedron of the induced
    ideal}, D the chart's cone rays; G is the least G_c, and
    lo + M where no chart is active.  The k-th powers and their integral
    closures count alike to leading order (Rees), so the polyhedron is
    all that matters.  Each dual vertex (W, W_t) / den gives one row of
    {G - lo >= x}, moving in x, in integers and lifted to (u, x):
    (D^T W, -W_t, den - r r0 sum(W) - M W_t) divided by its gcd, meaning
    <D^T W, u> - W_t x >= den - r r0 sum(W) - M W_t.  Charts that see
    the same part of the filtration give the same rows, kept once.  The
    integral is the integral over 0 <= x <= M, where G reaches its cap,
    of that region's volume, with no profile built, by
    volumes.region_integral at the scale r r0 with the cap M: with one
    row, off P's moments and one cut, and otherwise off one vertex
    enumeration of the region lifted to (u, x), started from the cone of
    r r0 P x [0, oo).  Where no chart is active the region is r r0 P at
    every x; where a chart has the zero ideal at lo + 1 the region is
    flat and the integral 0.
    """
    _, integral = region_integral(X, r * X.r0, _leading_rows(X, r, M, duals), cap=M)
    return (X.dimension + 1) * integral


def _leading_rows(X: ToricFanoModel, r: int, M: int,
                  duals: Mapping[int, Sequence[DualVertex]]) -> list[tuple[int, ...]]:
    """The moving rows of _leading_integral's region, in integers and
    lifted to (u, x), each kept once."""
    scale = r * X.r0
    moving = {}
    for c, vertices in duals.items():
        cols = list(zip(*X.charts[c].cone_rays))
        for (*W, wt), den in vertices:
            moving[int_primitive([*[sum(map(mul, col, W)) for col in cols],
                                  -wt, den - scale * sum(W) - M * wt])] = None
    return list(moving)


def _pairing_column(ray: Point, fibers: Sequence[Fiber], level: int) -> list[int]:
    """<ray, u> + level over the points u of the fibers, in order.  Along a
    fiber it is affine in the last coordinate: one range per fiber, with
    the ray's last entry as its step (a constant where that entry is 0)."""
    *head, a = ray
    runs = []
    for p, first, last in fibers:
        b = sum(map(mul, head, p)) + level
        runs.append(range(b + a * first, b + a * (last + 1), a) if a
                    else repeat(b, last - first + 1))
    return list(chain.from_iterable(runs))


def _chart_columns(X: ToricFanoModel, fibers: Sequence[Fiber],
                   level: int) -> list[list[list[int]]]:
    """Each chart's pairing columns <rho, u> + level, in chart order, over
    the sections of L^level given as lattice fibers; each column is built
    once per distinct ray, fiber by fiber, and shared by every chart that
    has the ray."""
    pairings = {ray: _pairing_column(ray, fibers, level)
                for ray in dict.fromkeys(ray for chart in X.charts for ray in chart.cone_rays)}
    return [[pairings[ray] for ray in chart.cone_rays] for chart in X.charts]


def _least_levels(columns: Sequence[Sequence[Sequence[int]]], top,
                  tables: Mapping[int, LevelTable]) -> Iterator[int]:
    """Each section's least level over the tables, chart c's read at its
    columns[c], top where no table reads lower; columns holds every
    chart's _chart_columns, so chart 0's first one counts the sections.
    The levels come lazily: leave the columns unchanged until they are
    read.
    """
    levels = repeat(top, len(columns[0][0]))
    for c, table in tables.items():
        levels = map(min, levels, table.read(columns[c]))
    return levels


class DInftyReport(NamedTuple):
    """Sampled and limiting slopes of one filtration.

    Each A_r is the exact leading integral over r*r0*P divided by
    (n+1)(r r0)^(n+1), and d_r = 1 - (e_plus - e_minus)/r0 + A_r/vol.
    """

    e_plus: int
    e_minus: int
    # always 1, as the window starts below every section; kept because
    # perfbench/run.py still reads it
    r1: int
    a_samples: tuple[tuple[int, Fraction], ...]
    a_limit: Fraction
    d_samples: tuple[tuple[int, Fraction], ...]
    d_infty: Fraction


DEFAULT_R_LIST = (1, 2, 4, 8)


def compute_d_infty(F: FiltrationSpec, r_list: Sequence[int] = DEFAULT_R_LIST,
                    k_max: int = 10) -> DInftyReport:
    """Slope samples d_r over r_list and the limit slope d_infty, over
    the spec's window.

    Each A_r comes from _leading_integral over the window's steps at r,
    exact, with no power budget.  The steps' dual vertices come straight
    off the tagged tables of the spec's record at r, by
    subscheme.chart_dual_vertices:
    corner (e, j) of chart c gives the generator (e, M - min(j - r e_minus,
    M)), M = r (e_plus - e_minus), the one product_gens of the window's
    saturated steps would give, and a chart whose origin reaches M is unit
    there; no step ideal is formed.  k_max is accepted and ignored: the
    benchmark harness, perfbench/run.py, still passes it, and it goes
    when that call does.  The limit value is exact, read off the profile
    integral.
    """
    X, n = F.X, F.X.dimension
    vol = anticanonical_volume(X)
    e = F.e_plus - F.e_minus
    a_samples, d_samples = [], []
    for r in tuple(map(_level, r_list)):
        M, shift = r * e, r * F.e_minus
        duals = chart_dual_vertices({c: tuple([(*g, M - min(j - shift, M)) for g, j in t.corners])
                                     for c, t in F._record(r).tables.items()})
        a_r = Fraction(_leading_integral(X, r, M, duals), (n + 1) * (r * X.r0) ** (n + 1))
        a_samples.append((r, a_r))
        d_samples.append((r, 1 - Fraction(e, X.r0) + a_r / vol))
    a_limit = -Fraction(F.e_minus) * vol / X.r0 + F.profile_integral
    d_infty = 1 - Fraction(e, X.r0) + a_limit / vol
    return DInftyReport(e_plus=F.e_plus, e_minus=F.e_minus, r1=1,
                        a_samples=tuple(a_samples), a_limit=a_limit,
                        d_samples=tuple(d_samples), d_infty=d_infty)


def induced_ideal_sequence(F: FiltrationSpec, r: int) -> IdealSequenceOnXxA1:
    """The t-graded ideal on X x A^1 of the spec's window at r.

    Step j carries the saturated level ideal at x = r*e_minus + j, so the
    sequence has M = r*(e_plus - e_minus) steps over the spec's window,
    the early ones unit and the late ones zero.  Charts must expose
    dimension-many cone rays (every simplicial chart does); otherwise the
    sequence's unit markers would have the wrong arity.
    """
    n = F.X.dimension
    steps = _window_steps(F, _level(r))
    for ideal in steps:
        for idx, gens in ideal.chart_gens.items():
            if any(len(g) != n for g in gens):
                raise UnsupportedSubscheme(
                    f"chart {idx} has {len(F.X.charts[idx].cone_rays)} cone "
                    f"rays; sequences need {n}-variable exponent charts")
    return IdealSequenceOnXxA1(steps=tuple(steps))
