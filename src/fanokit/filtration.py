"""Filtrations of anticanonical section spaces and their limit slope.

The filtration is by ideal powers: a section of L^r = -r r0 K sits at
level x when its chart exponents lie in the ceil(x)-th power of a fixed
monomial ideal.  It answers three queries: F^x V_r as a tuple of lattice
points of r*r0*P, the saturation of a level into a monomial ideal plus
its section closure, and the index of the step that holds a level.

Downstream every number follows one chain.  The step ideals at a fixed r
assemble into a t-graded ideal on X x A^1.  On each chart its Newton
polyhedron is the hypograph of a concave function, and their least, G,
is the concave transform of the filtration (Boucksom and Chen, *Okounkov
bodies of filtered linear series*, 2011; Witt Nystrom, *Test
configurations and Okounkov bodies*, 2012): the sample slope d_r reads
off the exact integral of G - r e_minus over r*r0*P, _leading_integral,
the volume of {(u, x) : 0 <= x <= G(u) - r e_minus}, which
polytope.moving_volume_integral reads off one vertex enumeration.  The
r -> infinity limit is evaluated in closed form through the integral of
the blowup volume profile, read the same way by
volumes.blowup_volume_integral.  The weight sums v_r(k) of the
k-th powers of induced_ideal_sequence count the same thing in lattice
points: their (n+1)-st finite difference tends to that integral.  That
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
one subscheme.LevelTable per chart.  At each r a spec builds two tables
per chart, once, and every level x at r reads them.  The order tables,
one per active chart, give each section its step index
ord(u) = max{i : u in step i} by the recurrence of
subscheme.power_table, with no power of the ideal formed.
The saturated tables, one per chart tagged with (image of u, ord(u)),
give each section its saturated index, the least read over the charts.
At step i the value is the sections with ord(u) >= i, the saturated
ideal is the table corners that minimally generate {level >= i} on each
chart, and its closure the sections of saturated index >= i.  The
reader never lists the sections: it reads them as lattice fibers, runs
of points that differ only in the last coordinate, along which each
pairing is affine.  So it builds the column of each distinct ray once,
a range per fiber, shared by every chart that has the ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import ceil, inf
from operator import ge, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import UnsupportedSubscheme
from .linalg import Vec, matmul_vec, transpose
from .model import ToricFanoModel, anticanonical_volume
from .polytope import lattice_fibers, lattice_points, moving_volume_integral
from .subscheme import (IdealSequenceOnXxA1, LevelTable, MonomialSubscheme,
                        _minimal_subscheme, _tagged_table, power_table,
                        product_dual_vertices)
from .volumes import blowup_volume_integral

Point = tuple[int, ...]
Fiber = tuple[Point, int, int]
# each section's saturated index, and each chart's corner_ranges
Saturated = tuple[list[int], dict[int, list[tuple[Point, int, int]]]]


class FiltrationSpec:
    """Decreasing, multiplicative, linearly bounded filtration of the
    spaces V_r of level-r anticanonical sections by vanishing order along
    a subscheme.

    Build instances with ideal_power_filtration.  e_plus/e_minus are the
    integer window of the weight routes, the spec's own, and every route
    reads it from here.  Every level x at r reads two tables per chart,
    built once for r: the order tables give each section its step index
    ord(u), so F^x V_r is the sections with ord(u) >= level_step(x); the
    saturated tables give each section its saturated index, which
    saturate reads.
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
        self._sections: dict[int, tuple[Point, ...]] = {}
        self._fibers: dict[int, list[Fiber]] = {}
        self._orders: dict[int, list[int]] = {}
        self._saturated: dict[int, Saturated] = {}
        self._saturations: dict = {}

    def sections(self, r: int) -> tuple[Point, ...]:
        """All lattice points of r*r0*P, cached."""
        r = int(r)
        if r < 1:
            raise ValueError("level r must be positive")
        if r not in self._sections:
            self._sections[r] = tuple(lattice_points(self.X.polytope, r * self.X.r0))
        return self._sections[r]

    def fibers(self, r: int) -> list[Fiber]:
        """The sections as lattice fibers, in the same order, cached."""
        r = int(r)
        if r not in self._fibers:
            self._fibers[r] = lattice_fibers(self.X.polytope, r * self.X.r0)
        return self._fibers[r]

    @staticmethod
    def level_step(x) -> int:
        """The index of the step that contains level x, equal exactly when
        two levels share the step: ceil(x), and 0 from x <= 0."""
        return max(ceil(x), 0)

    def value(self, r: int, x) -> tuple[Point, ...]:
        """F^x V_r as lattice points of r*r0*P."""
        i = self.level_step(x)
        if i == 0:
            return self.sections(r)
        return tuple(compress(self.sections(r), map(ge, self.orders(r), repeat(i))))

    def orders(self, r: int) -> list[int]:
        """Each section's step index ord(u) = max{i : u in step i} at r, in
        the order of sections(r), cached: its least level over one
        power_table per active chart, over the box the pairing columns
        reach.  Where no chart is active every power holds the section,
        ord = inf; a boundary ray caps ord at the ray's pairing column
        <ray, u> + level, the order of vanishing along its divisor, so a
        subscheme carried by its ray alone is read too."""
        r = int(r)
        if r not in self._orders:
            X, Z = self.X, self.subscheme

            def table(c: int, columns: list[list[int]]) -> LevelTable:
                return power_table(Z.chart_gens[c], [max(col, default=0) for col in columns])

            fibers, level = self.fibers(r), r * X.r0
            levels = _least_levels(X, fibers, level, inf, Z.active_chart_indices(), table)
            if Z.boundary_ray is not None:
                levels = map(min, levels, _pairing_column(Z.boundary_ray, fibers, level))
            self._orders[r] = list(levels)
        return self._orders[r]


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
    is not a section of L^r raises ValueError.  The saturated tables are
    the filtration's, with the given points at level 1 and the rest at 0.
    """
    r = int(r)
    level = r * X.r0
    sections = tuple(lattice_points(X.polytope, level))
    chosen = set(points)
    orders = [int(u in chosen) for u in sections]
    if sum(orders) != len(chosen):
        raise ValueError(f"points outside the sections of level r={r}")
    return _saturation(X, sections, _saturated_tables(X, lattice_fibers(X.polytope, level),
                                                      level, orders),
                       1, f"sat(r={r})")


def _saturated_tables(X: ToricFanoModel, fibers: Sequence[Fiber], level: int,
                      orders: Sequence[int]) -> Saturated:
    """Each section's saturated index and each chart's corner ranges,
    for the sections of L^level given as lattice fibers with their
    orders.  On every chart one table is tagged with (image of u, ord(u))
    for the sections u of positive order, images that are distinct on a
    chart; so a cell reads the largest order of a section whose image it
    dominates, and its level >= i exactly on the ideal the images of
    order >= i generate.  A section's saturated index is the least such
    read over the charts."""
    corners = {}

    def table(c: int, columns: list[list[int]]) -> LevelTable:
        t = _tagged_table(len(columns), [tag for tag in zip(zip(*columns), orders) if tag[1]])
        corners[c] = t.corner_ranges()
        return t

    saturated = list(_least_levels(X, fibers, level, max(orders, default=0),
                                   range(len(X.charts)), table))
    return saturated, corners


def _saturation(X: ToricFanoModel, sections: tuple[Point, ...], tables: Saturated,
                i: int, label: str) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """The saturation of the sections of order >= i: on each chart the
    corners that minimally generate {level >= i}, and the sections whose
    saturated index is >= i.  No such section gives the zero ideal on
    every chart and an empty closure; all of them, the unit ideal, as
    every chart's vertex section has image 0.  The corners come minimal
    and in lex order, so the ideal is not minimalised again; a chart
    whose first corner is the origin, its only one then, is unit and
    left out."""
    saturated, corners = tables
    chart_gens = {}
    for c, cs in corners.items():
        gens = tuple(e for e, lo, j in cs if lo < i <= j)
        if not gens or any(gens[0]):
            chart_gens[c] = gens
    closure = tuple(compress(sections, map(ge, saturated, repeat(i))))
    return _minimal_subscheme(label, X.dimension, chart_gens), closure


def saturate(F: FiltrationSpec, r: int, x) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """I_(r,x) generated by F^x V_r, plus the saturated value itself.
    Both read the saturated tables at r, built once from the orders: at
    the step's index i the ideal is each chart's minimal corners of
    level >= i, and the value the sections of saturated index >= i.
    Step 0 is all of V_r, with the unit ideal.  Levels x in one step
    share one saturation, cached and labelled by r and the index."""
    r = int(r)
    index = F.level_step(x)
    key = (r, index)
    if key not in F._saturations:
        label = f"sat(r={r},step={index})"
        if index == 0:
            F._saturations[key] = (MonomialSubscheme(label=label, dimension=F.X.dimension),
                                   F.sections(r))
        else:
            if r not in F._saturated:
                F._saturated[r] = _saturated_tables(F.X, F.fibers(r), r * F.X.r0,
                                                    F.orders(r))
            F._saturations[key] = _saturation(F.X, F.sections(r), F._saturated[r], index,
                                              label)
    return F._saturations[key]


def _window_steps(F: FiltrationSpec, r: int) -> list[MonomialSubscheme]:
    """The saturated level ideals at x = j for the integers j in
    (r e_minus, r e_plus], the steps of the spec's window at r.  The
    routes put the unit ideal at x = r e_minus, where F^x V_r is full as
    e_minus < 0."""
    return [saturate(F, r, j)[0] for j in range(r * F.e_minus + 1, r * F.e_plus + 1)]


def _leading_integral(X: ToricFanoModel, r: int, M: int,
                      duals: Mapping[int, Sequence[Vec]]) -> Fraction:
    """(n+1)! times the integral over r*r0*P of G - lo, G the level
    function of the t-graded ideal with the unit ideal at j = lo and M
    decreasing steps at j = lo + 1, ..., lo + M: the exact limit of the
    (n+1)-st finite difference of the weight sums v(k) of its k-th
    powers.  Only G - lo enters, so lo does not.

    duals are the steps' product_dual_vertices, and on each active chart
    G_c(u) - lo is M - min{s : (D u + r r0, s) in the Newton polyhedron of
    the induced ideal}, D the chart's cone rays; G is the least G_c, and
    lo + M where no chart is active.  The k-th powers and their integral
    closures count alike to leading order (Rees), so the polyhedron is
    all that matters.  Each dual vertex (w, w_t) gives one row of
    {G - lo >= x}, moving in x:
    <D^T w / w_t, u> >= x - M + (1 - r r0 sum(w)) / w_t.  Charts that see
    the same part of the filtration give the same rows, kept once.  The
    integral is the integral over 0 <= x <= M, where G reaches its cap,
    of that region's volume: polytope.moving_volume_integral reads it
    off one vertex enumeration of the region lifted to (u, x), capped at
    x = M, with no profile built.  Where no chart is active the region
    is r r0 P at every x; where a chart has the zero ideal at lo + 1 the
    lifted region is flat and the integral 0.
    """
    scale = r * X.r0
    moving = {}
    for c, vertices in duals.items():
        cols = transpose(X.charts[c].cone_rays)
        for *w, wt in vertices:
            moving[(tuple(a / wt for a in matmul_vec(cols, w)),
                    M - (1 - scale * sum(w)) / wt)] = None
    rows = [(nr, scale * off) for nr, off in X.polytope.inequalities]
    _, integral = moving_volume_integral(X.dimension, rows, list(moving), cap=M)
    return (X.dimension + 1) * integral


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


def _least_levels(X: ToricFanoModel, fibers: Sequence[Fiber], level: int,
                  top: int, charts: Iterable[int],
                  table: Callable[[int, list[list[int]]], LevelTable]) -> Iterator[int]:
    """Each section's least level over the charts' tables, top where no
    chart reads lower, for the sections of L^level given as lattice
    fibers.  table(c, columns) is chart c's table, given the pairing
    columns <rho, u> + level of its rays; each column is built once per
    distinct ray, fiber by fiber, and shared by every chart that has the
    ray.  The levels come lazily: the columns live until they are read.
    """
    pairings: dict[Point, list[int]] = {}
    levels = repeat(top, sum(last - first + 1 for _, first, last in fibers))
    for c in charts:
        rays = X.charts[c].cone_rays
        for ray in rays:
            if ray not in pairings:
                pairings[ray] = _pairing_column(ray, fibers, level)
        columns = [pairings[ray] for ray in rays]
        levels = map(min, levels, table(c, columns).read(columns))
    return levels


@dataclass(frozen=True)
class DInftyReport:
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
    exact, with no power budget.  k_max is accepted and ignored: the
    benchmark harness, perfbench/run.py, still passes it, and it goes
    when that call does.  The limit value is exact, read off the profile
    integral.
    """
    X = F.X
    n = X.dimension
    vol = anticanonical_volume(X)
    e = F.e_plus - F.e_minus
    a_samples = []
    d_samples = []
    for r in r_list:
        r = int(r)
        if r < 1:
            raise ValueError(f"level r={r} must be positive")
        steps = _window_steps(F, r)
        lead = _leading_integral(X, r, len(steps), product_dual_vertices(X, steps))
        a_r = lead / ((n + 1) * Fraction(r * X.r0) ** (n + 1))
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
    steps = _window_steps(F, int(r))
    for ideal in steps:
        for idx, gens in ideal.chart_gens.items():
            if any(len(g) != n for g in gens):
                raise UnsupportedSubscheme(
                    f"chart {idx} has {len(F.X.charts[idx].cone_rays)} cone "
                    f"rays; sequences need {n}-variable exponent charts")
    return IdealSequenceOnXxA1(steps=tuple(steps))
