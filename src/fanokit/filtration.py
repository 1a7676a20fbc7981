"""Filtrations of anticanonical section spaces and their limit slope.

Two kinds are supported.  An ideal-power filtration places a section of
L^r = -r r0 K at level x when its chart exponents lie in the ceil(x)-th
power of a fixed monomial ideal; an explicit filtration reads its level
ideals from a finite table.  Both answer the same queries: F^x V_r as a
tuple of lattice points of r*r0*P, the saturation of a level into a
monomial ideal plus its section closure, and the level ideal itself.

Downstream every number follows one chain.  The step ideals at a fixed r
assemble into a t-graded ideal on X x A^1.  On each chart its Newton
polyhedron is the hypograph of a concave function, and their least, G,
is the concave transform of the filtration (Boucksom and Chen, *Okounkov
bodies of filtered linear series*, 2011; Witt Nystrom, *Test
configurations and Okounkov bodies*, 2012): the sample slope d_r reads
off the exact integral of G - r e_minus over r*r0*P, _leading_integral,
the volume of {(u, x) : 0 <= x <= G(u) - r e_minus}, which
polytope.moving_volume_integral reads off one vertex enumeration.  For
ideal-power filtrations the r -> infinity limit is evaluated in closed
form through the integral of the blowup volume profile, read the same
way by volumes.blowup_volume_integral.  The weight sums v_r(k) and
w_r(k) of the k-th powers, compute_weight_series, count the same thing
in lattice points: the (n+1)-st finite difference of v_r tends to that
integral, and the acceptance checks and tests hold the two routes
against each other.  The integer window [e_minus, e_plus] of the steps
belongs to the filtration: the constructor that builds a spec checks it,
and no route takes a window of its own.

Chart exponent vectors here are ray pairings <rho, u> + level over the
cone rays of each chart.  On smooth charts this is the usual exponent
map; on simplicial singular charts it still converts ideal membership,
products, and containment into componentwise arithmetic, which is all
the saturation, weight and integral routes need.

Every membership question, which sections of L^level lie in which chart
ideals, has one reader, _least_levels: each section's least level over
one subscheme.LevelTable per active chart.  Filtration values and
saturation closures read single-step tables and keep the sections at
level 1; weight records read the tables of a power and count the
sections at each level.  The reader never lists the sections: it reads
them as lattice fibers, runs of points that differ only in the last
coordinate, along which each pairing is affine.  So it builds the column
of each distinct ray once, a range per fiber, shared by every chart that
has the ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import ceil
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import NoStabilization, R1NotFound, UnsupportedSubscheme
from .linalg import Vec, matmul_vec, transpose
from .model import ToricFanoModel, anticanonical_volume
from .polytope import lattice_fibers, lattice_points, moving_volume_integral
from .subscheme import (IdealSequenceOnXxA1, LevelTable, MonomialSubscheme,
                        _subscheme_contains, ideal_table, level_table, product,
                        product_dual_vertices)
from .volumes import blowup_volume_integral

IDEAL_POWER = "ideal-power"
EXPLICIT = "explicit"

R1_CAP = 64

Point = tuple[int, ...]
Fiber = tuple[Point, int, int]


def _zero_subscheme(X: ToricFanoModel, label: str = "zero") -> MonomialSubscheme:
    return MonomialSubscheme(label=label, dimension=X.dimension,
                             chart_gens={i: () for i in range(len(X.charts))})


def _check_arity(X: ToricFanoModel, ideal: MonomialSubscheme) -> None:
    """Refuse an ideal of another dimension, or generators whose arity is
    not their chart's ray count: data written for a different fan, which
    no public constructor produces."""
    if ideal.dimension != X.dimension:
        raise UnsupportedSubscheme(f"{ideal.label}: dimension does not match {X.dimension}")
    for idx in ideal.active_chart_indices():
        rows = X.charts[idx].cone_rays
        if any(len(g) != len(rows) for g in ideal.chart_gens[idx]):
            raise UnsupportedSubscheme(
                f"{ideal.label}: generator arity does not match the "
                f"{len(rows)} cone rays of chart {idx}")


class FiltrationSpec:
    """Decreasing, multiplicative, linearly bounded filtration of the
    spaces V_r of level-r anticanonical sections.

    Build instances with ideal_power_filtration or explicit_filtration.
    e_plus/e_minus are the integer window of the weight routes, the
    spec's own: the constructors check it once, e_minus < e_min_est,
    e_max_est < e_plus and e_minus < e_plus, and every route reads it
    from here.  F^x V_r is read off one single-step level table per
    active chart of the level ideal: the sections whose least level is 1.
    """

    def __init__(self, X: ToricFanoModel, kind: str, *,
                 subscheme: MonomialSubscheme | None = None,
                 table: Mapping[int, tuple[tuple[Fraction, MonomialSubscheme | None], ...]] | None = None,
                 e_plus: int, e_minus: int,
                 e_min_est, e_max_est,
                 profile_integral: Fraction | None = None):
        if kind not in (IDEAL_POWER, EXPLICIT):
            raise ValueError(f"unknown filtration kind {kind!r}")
        self.X = X
        self.kind = kind
        self.subscheme = subscheme
        self.table = table
        self.e_plus = int(e_plus)
        self.e_minus = int(e_minus)
        self.e_min_est = Fraction(e_min_est)
        self.e_max_est = Fraction(e_max_est)
        self.profile_integral = profile_integral
        self._sections: dict[int, tuple[Point, ...]] = {}
        self._fibers: dict[int, list[Fiber]] = {}
        self._powers: list[MonomialSubscheme] = []
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

    def level_step(self, r: int, x) -> tuple[int, MonomialSubscheme | None]:
        """The step of the filtration at r that contains level x: its
        index, equal exactly when two levels share the step, and the
        defining ideal of F^x V_r, None for the unit ideal.  The powers
        of an ideal-power filtration are cached, each the product of the
        one before and the ideal."""
        x = Fraction(x)
        if self.kind == IDEAL_POWER:
            m = ceil(x)
            if m <= 0:
                return 0, None
            Z = self.subscheme
            for k in range(len(self._powers) + 1, m + 1):
                self._powers.append(Z if k == 1 else product(
                    self._powers[-1], Z, label=f"{Z.label}^{k}"))
            return m, self._powers[m - 1]
        rows = self.table.get(int(r))
        if rows is None:
            raise KeyError(f"filtration table has no row for r={r}")
        for i, (threshold, ideal) in enumerate(rows):
            if x <= threshold:
                return i, ideal
        return len(rows), _zero_subscheme(self.X)

    def value(self, r: int, x) -> tuple[Point, ...]:
        """F^x V_r as lattice points of r*r0*P."""
        _, ideal = self.level_step(r, x)
        return tuple(compress(self.sections(r), self._members(r, ideal)))

    def _members(self, r: int, ideal: MonomialSubscheme | None) -> Iterable[int]:
        """Per section of V_r, in order, whether it lies in the ideal."""
        if ideal is None:
            return repeat(True, len(self.sections(r)))
        _check_arity(self.X, ideal)
        gens = ideal.chart_gens
        return _least_levels(self.X, self.fibers(r), int(r) * self.X.r0, 1, gens,
                             lambda c, columns: ideal_table(gens[c], columns))


def ideal_power_filtration(X: ToricFanoModel, Z: MonomialSubscheme) -> FiltrationSpec:
    """Filtration of V_r by vanishing order along Z.

    Level x keeps the sections whose chart exponents lie in the
    ceil(x)-th power of Z's ideal; nonpositive x keeps everything.  The
    window is e_minus = -1 and e_plus one past the scaled
    pseudoeffective threshold tau; it brackets the slope estimates 0 and
    that threshold by construction.  tau and the integral of the blowup
    volume profile, which the limit slope reads, come exactly from
    volumes.blowup_volume_integral, with no profile built.
    """
    tau, integral = blowup_volume_integral(X, Z)
    e_max = X.r0 * tau
    return FiltrationSpec(X, IDEAL_POWER, subscheme=Z,
                          e_plus=ceil(e_max) + 1, e_minus=-1,
                          e_min_est=0, e_max_est=e_max, profile_integral=integral)


def explicit_filtration(X: ToricFanoModel,
                        table: Mapping[int, Sequence[tuple]],
                        *, e_plus: int, e_minus: int,
                        e_min_est=None, e_max_est=None) -> FiltrationSpec:
    """Filtration read off a finite table of step ideals.

    ``table[r]`` is a sequence of (threshold, ideal) pairs with strictly
    increasing thresholds; the ideal applies on the half-open interval up
    to and including its threshold, the first entry (which must be the
    unit ideal, spelled None) covers everything below, and past the last
    threshold the filtration is zero.  Ideals must decrease along each
    row.  Slope estimates are read from the table unless supplied.  The
    window must be nonempty and bracket them strictly: e_minus < e_min_est
    and e_max_est < e_plus.  It is checked here, once, and every route
    reads it from the spec.
    """
    norm: dict[int, tuple[tuple[Fraction, MonomialSubscheme | None], ...]] = {}
    for r, rows in table.items():
        r = int(r)
        if r < 1:
            raise ValueError("table rows need positive r")
        entries = [(Fraction(x), ideal) for x, ideal in rows]
        if not entries:
            raise ValueError(f"empty table row for r={r}")
        if entries[0][1] is not None:
            raise ValueError(f"r={r}: first entry must be the unit ideal")
        for (xa, _), (xb, _) in zip(entries, entries[1:]):
            if not xa < xb:
                raise ValueError(f"r={r}: thresholds must increase")
        for (_, a), (_, b) in zip(entries, entries[1:]):
            if a is None:
                continue
            if b is None or not _subscheme_contains(a, b):
                raise ValueError(f"r={r}: entries must decrease")
        norm[r] = tuple(entries)

    if e_min_est is None:
        e_min_est = min(max(x for x, ideal in rows if ideal is None) / r
                        for r, rows in norm.items())
    if e_max_est is None:
        e_max_est = max(rows[-1][0] / r for r, rows in norm.items())
    e_plus, e_minus = int(e_plus), int(e_minus)
    if not Fraction(e_plus) > Fraction(e_max_est):
        raise ValueError(f"e_plus={e_plus} must exceed e_max_est={e_max_est}")
    if not Fraction(e_minus) < Fraction(e_min_est):
        raise ValueError(f"e_minus={e_minus} must sit below e_min_est={e_min_est}")
    if not e_plus > e_minus:
        raise ValueError(f"e_plus={e_plus} must exceed e_minus={e_minus}")
    return FiltrationSpec(X, EXPLICIT, table=norm, e_plus=e_plus,
                          e_minus=e_minus, e_min_est=e_min_est,
                          e_max_est=e_max_est)


def saturate_points(X: ToricFanoModel, r: int, points: Iterable[Point],
                    label: str = "") -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """Ideal generated by a set of level-r sections, and its closure.

    The ideal collects the minimal chart exponent vectors of the given
    points on every chart; the closure is all sections of L^r inside the
    ideal.  Saturating the closure again changes nothing.  A point that
    is not a section of L^r raises ValueError.
    """
    r = int(r)
    sections = tuple(lattice_points(X.polytope, r * X.r0))
    chosen = set(points)
    kept = [u in chosen for u in sections]
    if sum(kept) != len(chosen):
        raise ValueError(f"points outside the sections of level r={r}")
    return _saturate_core(X, r, kept, lattice_fibers(X.polytope, r * X.r0),
                          sections, label or f"sat(r={r})")


def _saturate_core(X: ToricFanoModel, r: int, kept: Sequence[bool],
                   fibers: Sequence[Fiber], sections: tuple[Point, ...],
                   label: str) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """Saturation of the kept sections.  On each chart a table is tagged
    with the kept sections' images: its corners at level 1 are the
    ideal's minimal generators, and the sections it reads at level 1 on
    every chart are the closure."""
    if all(kept):
        return MonomialSubscheme(label=label, dimension=X.dimension), sections
    if not any(kept):
        return _zero_subscheme(X, label=label), ()
    chart_gens = {}

    def table(c: int, columns: list[list[int]]) -> LevelTable:
        t = ideal_table(compress(zip(*columns), kept), columns)
        chart_gens[c] = tuple(e for e, j in t.corners if j)
        return t

    levels = _least_levels(X, fibers, r * X.r0, 1, range(len(X.charts)), table)
    closure = tuple(compress(sections, levels))
    return MonomialSubscheme(label=label, dimension=X.dimension,
                             chart_gens=chart_gens), closure


def saturate(F: FiltrationSpec, r: int, x) -> tuple[MonomialSubscheme, tuple[Point, ...]]:
    """I_(r,x) generated by F^x V_r, plus the saturated value itself.
    Levels x in one step of the filtration share one saturation, cached
    and labelled by r and the step's index."""
    r = int(r)
    index, ideal = F.level_step(r, x)
    key = (r, index)
    if key not in F._saturations:
        F._saturations[key] = _saturate_core(
            F.X, r, list(F._members(r, ideal)), F.fibers(r), F.sections(r),
            f"sat(r={r},step={index})")
    return F._saturations[key]


def find_r1(F: FiltrationSpec) -> int:
    """Smallest r1 <= R1_CAP with F^{r e_minus} V_r full for all r in
    [r1, 2 r1], at the spec's e_minus.

    Fullness is checked both as a point count and through the saturated
    ideal being the unit ideal.
    """
    for r1 in range(1, R1_CAP + 1):
        good = True
        for r in range(r1, 2 * r1 + 1):
            if len(F.value(r, r * F.e_minus)) != len(F.sections(r)):
                good = False
                break
            ideal, _ = saturate(F, r, r * F.e_minus)
            if not ideal.is_empty:
                good = False
                break
        if good:
            return r1
    raise R1NotFound(R1_CAP)


def _diffs(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def _stable_leading_difference(values: Sequence, order: int, budget: int) -> Fraction:
    """Last entry of the order-th finite difference, once stable.

    Stability means the (order+1)-st difference vanishes on its last
    three entries; anything less raises NoStabilization rather than
    extrapolating silently.
    """
    d = [Fraction(v) for v in values]
    for _ in range(order):
        d = _diffs(d)
    tail = _diffs(d)
    if len(tail) < 3 or any(t != 0 for t in tail[-3:]):
        raise NoStabilization(budget)
    return d[-1]


@dataclass(frozen=True)
class WeightRecord:
    """One k-slice of a weight series.

    level_dims lists (j, dim of the j-th graded piece at level kr); the
    weight identity w = -k (hi - lo) h0 + v over the step window [lo, hi]
    holds by construction and is cross-checked against the direct
    quotient count in the test suite.
    """

    k: int
    h0: int
    v: int
    w: int
    level_dims: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WeightSeries:
    records: tuple[WeightRecord, ...]


def _window_steps(F: FiltrationSpec, r: int) -> list[MonomialSubscheme]:
    """The saturated level ideals at x = j for the integers j in
    (r e_minus, r e_plus], the steps of the spec's window at r.  The
    routes put the unit ideal at the bottom, so F^x V_r must be full at
    x = r e_minus."""
    lo = r * F.e_minus
    if len(F.value(r, lo)) != len(F.sections(r)):
        raise ValueError(
            f"F^x V_r not full at x = {lo}; r={r} is below r1")
    return [saturate(F, r, j)[0] for j in range(lo + 1, r * F.e_plus + 1)]


def compute_weight_series(F: FiltrationSpec, r: int, k_max: int = 10) -> WeightSeries:
    """Weight sums of the k-th powers of the level-r step ideals.

    Step j of the window [r e_minus, r e_plus] is the saturated level
    ideal at x = j; _weight_records turns the steps into one record per k,
    the route ding_weight_series takes as well.  This is the lattice
    count that the leading integral of compute_d_infty is held against.
    """
    r, k_max = int(r), int(k_max)
    if r < 1 or k_max < 1:
        raise ValueError("r and k_max must be positive")
    records = _weight_records(F.X, r, _window_steps(F, r), r * F.e_minus, k_max,
                              lambda s: lattice_fibers(F.X.polytope, s * F.X.r0))
    return WeightSeries(records=records)


def _leading_integral(X: ToricFanoModel, r: int, M: int,
                      duals: Mapping[int, Sequence[Vec]]) -> Fraction:
    """(n+1)! times the integral over r*r0*P of G - lo, G the level
    function of the t-graded ideal with the unit ideal at j = lo and M
    decreasing steps at j = lo + 1, ..., lo + M: the exact limit of the
    (n+1)-st finite difference of the weight sums v(k) that
    _weight_records counts.  Only G - lo enters, so lo does not.

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


def _weight_records(X: ToricFanoModel, r: int,
                    steps: Sequence[MonomialSubscheme], lo: int, k_max: int,
                    fibers: Callable[[int], Sequence[Fiber]]
                    ) -> tuple[WeightRecord, ...]:
    """Records k = 1..k_max of the t-graded ideal with the unit ideal at
    j = lo and the decreasing steps at j = lo + 1, ..., hi; fibers(s)
    lists the lattice points of s*r0*P as polytope.lattice_fibers does.
    Each active chart holds the k-th power as a level table, the (k-1)-st
    times the first, and a section's top level is the least of its
    charts' levels: membership is chartwise.  Each record pairs the
    fibers with each ray of the active charts once; charts that share a
    ray read the same column.
    """
    hi = lo + len(steps)
    base = {c: level_table(steps, c, len(X.charts[c].cone_rays), lo, k_max)
            for c in set().union(*(s.chart_gens for s in steps))}
    records = []
    tables = base
    for k in range(1, k_max + 1):
        if k > 1:
            tables = {c: t.times(base[c]) for c, t in tables.items()}
        records.append(_weight_record(X, fibers(k * r), k * r * X.r0, k,
                                      lo, hi, tables))
    return tuple(records)


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


def _weight_record(X: ToricFanoModel, fibers: Sequence[Fiber], level: int,
                   k: int, lo: int, hi: int,
                   tables: Mapping[int, LevelTable]) -> WeightRecord:
    """Record of the sections of L^level, given as lattice fibers, under
    the k-th power tables: the histogram of their least levels."""
    klo, khi = k * lo, k * hi
    h0 = sum(last - first + 1 for _, first, last in fibers)
    histogram = [0] * (khi - klo + 1)
    for top in _least_levels(X, fibers, level, khi, tables,
                             lambda c, columns: tables[c]):
        histogram[khi - top] += 1
    dims = list(zip(range(khi, klo, -1), accumulate(histogram[:-1])))[::-1]
    v = sum(d for _, d in dims)
    w = -k * (hi - lo) * h0 + v
    return WeightRecord(k=k, h0=h0, v=v, w=w, level_dims=tuple(dims))


@dataclass(frozen=True)
class DInftyReport:
    """Sampled and limiting slopes of one filtration.

    Each A_r is the exact leading integral over r*r0*P divided by
    (n+1)(r r0)^(n+1), and d_r = 1 - (e_plus - e_minus)/r0 + A_r/vol.
    """

    e_plus: int
    e_minus: int
    r1: int
    a_samples: tuple[tuple[int, Fraction], ...]
    a_limit: Fraction
    d_samples: tuple[tuple[int, Fraction], ...]
    d_infty: Fraction
    approximate: bool


DEFAULT_R_LIST = (1, 2, 4, 8)


def compute_d_infty(F: FiltrationSpec, r_list: Sequence[int] = DEFAULT_R_LIST,
                    k_max: int = 10) -> DInftyReport:
    """Slope samples d_r over r_list and the limit slope d_infty, over
    the spec's window.

    Each A_r comes from _leading_integral over the window's steps at r,
    exact, with no power budget: k_max is accepted and ignored, kept for
    callers of the weight-count route this replaced.  The weight series
    of compute_weight_series is the lattice count it is checked against.
    The limit value is the exact profile integral for ideal-power
    filtrations and the last sample, flagged approximate, otherwise.
    """
    X = F.X
    n = X.dimension
    vol = anticanonical_volume(X)
    e = F.e_plus - F.e_minus
    r1 = find_r1(F)
    a_samples = []
    d_samples = []
    for r in r_list:
        r = int(r)
        if r < r1:
            raise ValueError(f"r={r} is below r1={r1}")
        steps = _window_steps(F, r)
        lead = _leading_integral(X, r, len(steps), product_dual_vertices(X, steps))
        a_r = lead / ((n + 1) * Fraction(r * X.r0) ** (n + 1))
        a_samples.append((r, a_r))
        d_samples.append((r, 1 - Fraction(e, X.r0) + a_r / vol))
    approximate = F.kind != IDEAL_POWER
    if approximate:
        a_limit = a_samples[-1][1]
    else:
        a_limit = -Fraction(F.e_minus) * vol / X.r0 + F.profile_integral
    d_infty = 1 - Fraction(e, X.r0) + a_limit / vol
    return DInftyReport(e_plus=F.e_plus, e_minus=F.e_minus, r1=r1,
                        a_samples=tuple(a_samples), a_limit=a_limit,
                        d_samples=tuple(d_samples), d_infty=d_infty,
                        approximate=approximate)


def induced_ideal_sequence(F: FiltrationSpec, r: int) -> IdealSequenceOnXxA1:
    """The t-graded ideal on X x A^1 whose powers drive the weight series.

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
