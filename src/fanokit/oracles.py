"""Independent cross-check routes.

Everything here recomputes a quantity the main modules produce, using a
deliberately different algorithm: lattice counts instead of exact
integrals, plain enumeration loops instead of the lattice kernels,
Howald's primal test on the Newton polyhedron instead of the dual vertex
scan.  Keep it that way; the whole point is that a bug would have to
occur twice, in two unrelated pieces of code, to slip through.

The weight count, oracle_weight_records, the fast check of the leading
integrals in dimension 3, shares level tables, lattice fibers and
filtration._least_levels with the saturation route.  Of the integral
route it shares the corners of subscheme.level_table, which
product_dual_vertices reads too, and nothing past them: no Newton
polyhedron, no vertex enumeration.  So a wrong corner would pass it; the
acceptance criteria also hold the count against oracle_h0_quotient,
which shares none of that.  Only the acceptance criteria and the tests
read this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import prod
from operator import add, floordiv, mod, mul
from typing import Mapping, Sequence

from .errors import CombinatorialBlowup, NoStabilization, SizeCap
from .filtration import _least_levels
from .linalg import solve
from .model import ToricFanoModel
from .polytope import lattice_fibers, lattice_points
from .subscheme import CELL_CAP, IdealSequenceOnXxA1, LevelTable, _box, level_table

_ORACLE_CAP = 2_000_000

ORACLE_METHODS = ("LATTICE_COUNT", "HOWALD_PRIMAL", "HAND_FORMULA")


@dataclass(frozen=True)
class OracleResult:
    """One independently recomputed quantity, as stored in golden reports.

    parameters is a sorted tuple of (name, value-string) pairs; together
    with the method it pins the computation down, so equal parameters
    must reproduce the value bit for bit.
    """

    quantity: str
    method: str
    value: Fraction
    parameters: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.method not in ORACLE_METHODS:
            raise ValueError(f"unknown oracle method {self.method!r}")
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "parameters", tuple(
            (str(k), str(v)) for k, v in sorted(self.parameters)))


def oracle_h0_quotient(X: ToricFanoModel, sequence: IdealSequenceOnXxA1,
                       r: int, k: int) -> int:
    """Dimension of sections of L^{kr} x O(A^1) modulo the k-th ideal power.

    Direct (n+1)-variable enumeration: a monomial section survives in the
    quotient when at least one chart fails to put it inside the power.
    No shared code with the weight-series path; the inner loops are
    written out longhand on purpose.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    M = sequence.M
    level = k * r * X.r0
    pts = lattice_points(X.polytope, level)
    if len(pts) * k * M > _ORACLE_CAP:
        raise SizeCap(f"oracle refuses {len(pts)} points x {k * M} levels")

    # k-th power of the (x, t)-ideal on each chart, by brute composition
    chart_powers: dict[int, list[tuple[tuple[int, ...], int]] | None] = {}
    for idx in range(len(X.charts)):
        base = _xt_gens(sequence, idx)
        if base is None:            # unit on this chart: power stays unit
            chart_powers[idx] = None
            continue
        power = base
        for _ in range(k - 1):
            power = _xt_product(power, base)
        chart_powers[idx] = power

    survivors = 0
    for u in pts:
        for m in range(k * M):
            for idx, chart in enumerate(X.charts):
                gens = chart_powers[idx]
                if gens is None:
                    continue
                a = chart.exponents(u, level)
                if not any(all(ai >= gi for ai, gi in zip(a, g)) and m >= gm
                           for g, gm in gens):
                    survivors += 1
                    break
    return survivors


@dataclass(frozen=True)
class WeightRecord:
    """One k-slice of the weight count of an ideal sequence at level r.

    level_dims lists (j, dim of the j-th graded piece at level kr) for
    j = 1..kM; v is their sum, and the weight w = -k M h0 + v is minus
    the dimension oracle_h0_quotient counts.
    """

    k: int
    h0: int
    v: int
    w: int
    level_dims: tuple[tuple[int, int], ...]


def oracle_weight_records(X: ToricFanoModel, sequence: IdealSequenceOnXxA1,
                          r: int, k_max: int) -> tuple[WeightRecord, ...]:
    """Records k = 1..k_max of the k-th powers of the sequence ideal on the
    sections of L^{kr}.  Each active chart holds the k-th power as a level
    table, the (k-1)-st times the first; a section's top level is the
    least of its charts' levels, and a record is the histogram of those.
    Refuses up front a k_max-th power table of more than CELL_CAP cells.
    """
    if k_max < 1 or r < 1:
        raise ValueError("k_max and r must be positive")
    base = {c: level_table(sequence.steps, c, len(X.charts[c].cone_rays))
            for c in set().union(*(s.chart_gens for s in sequence.steps))}
    for table in base.values():
        size = prod(k_max * t + 1 for t in table.top)
        if size > CELL_CAP:
            raise CombinatorialBlowup(f"{size} table cells exceed the cap {CELL_CAP}")
    records = []
    tables = base
    for k in range(1, k_max + 1):
        if k > 1:
            tables = {c: _times(t, base[c]) for c, t in tables.items()}
        records.append(_weight_record(X, k * r * X.r0, k, sequence.M, tables))
    return tuple(records)


def _cells_in(table: LevelTable, strides: Sequence[int]):
    """The table's corner cells re-encoded for a box with the given
    strides over axes at least as long."""
    index = repeat(0, len(table.corner_cells))
    for t, s, new in zip(table.top, table.strides, strides):
        if t:
            index = map(add, index, map(mul, map(mod, map(
                floordiv, table.corner_cells, repeat(s)), repeat(t + 1)), repeat(new)))
    return index


def _times(a: LevelTable, b: LevelTable) -> LevelTable:
    """Table of the product, with piece j the sum over j1 + j2 = j of
    J1(j1) J2(j2): each sum of two corners takes their summed levels."""
    top = tuple(map(add, a.top, b.top))
    strides, levels = _box(top)
    mine = list(zip(_cells_in(a, strides), a.corner_levels))
    for cell, j2 in zip(_cells_in(b, strides), b.corner_levels):
        for other, j1 in mine:
            if j1 + j2 > levels[other + cell]:
                levels[other + cell] = j1 + j2
    return LevelTable(top, strides, levels)


def _weight_record(X: ToricFanoModel, level: int, k: int, M: int,
                   tables: Mapping[int, LevelTable]) -> WeightRecord:
    """Record of the sections of L^level under the k-th power tables: the
    histogram of their least levels, read off the lattice fibers."""
    fibers = lattice_fibers(X.polytope, level)
    top = k * M
    h0 = sum(last - first + 1 for _, first, last in fibers)
    histogram = [0] * (top + 1)
    for j in _least_levels(X, fibers, level, top, tables, lambda c, columns: tables[c]):
        histogram[top - j] += 1
    dims = list(zip(range(top, 0, -1), accumulate(histogram[:-1])))[::-1]
    v = sum(d for _, d in dims)
    return WeightRecord(k=k, h0=h0, v=v, w=-top * h0 + v, level_dims=tuple(dims))


def _diffs(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def stable_leading_difference(values: Sequence, order: int) -> Fraction:
    """Last entry of the order-th finite difference of values k = 1..k_max,
    once stable.

    Stability means the (order+1)-st difference vanishes on its last
    three entries; anything less raises NoStabilization at the budget
    k_max rather than extrapolating silently.
    """
    d = [Fraction(v) for v in values]
    for _ in range(order):
        d = _diffs(d)
    tail = _diffs(d)
    if len(tail) < 3 or any(t != 0 for t in tail[-3:]):
        raise NoStabilization(len(values))
    return d[-1]


def _xt_gens(sequence: IdealSequenceOnXxA1,
             idx: int) -> list[tuple[tuple[int, ...], int]] | None:
    M = sequence.M
    out: list[tuple[tuple[int, ...], int]] = [(tuple([0] * sequence.steps[0].dimension), M)]
    unit = False
    for j, step in enumerate(sequence.steps, start=1):
        gens = step.gens_on(idx)
        if gens is None:
            if M - j == 0:
                unit = True
            out.append((tuple([0] * step.dimension), M - j))
        else:
            out.extend((g, M - j) for g in gens)
    if unit:
        return None
    return _xt_minimal(out)


def _xt_product(a: list[tuple[tuple[int, ...], int]],
                b: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    summed = {(tuple(x + y for x, y in zip(ga, gb)), ma + mb)
              for ga, ma in a for gb, mb in b}
    return _xt_minimal(list(summed))


def _xt_minimal(gens: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for g, m in gens:
        keep = True
        for h, mh in gens:
            if (h, mh) != (g, m) and mh <= m and all(hi <= gi for hi, gi in zip(h, g)):
                keep = False
                break
        if keep:
            out.append((g, m))
    return sorted(set(out))


def bruteforce_lct(gens) -> Fraction | None:
    """Log canonical threshold by Howald's primal test.

    lct = 1/t* for the least t with t (1, ..., 1) in the Newton polyhedron
    conv(gens) + R^n_{>=0} (Howald, Multiplier ideals of monomial ideals).
    The least t is a basic solution of t (1, ..., 1) = sum lam_i g_i +
    sum mu_j e_j, sum lam_i = 1, lam, mu >= 0: by Caratheodory it uses
    k <= n generators and n - k unit vectors, and each choice is one square
    system solved by Gauss-Jordan elimination.  Returns None for the unit
    ideal (a generator is 1) and for an empty generator list.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens or any(not any(g) for g in gens):
        return None
    n = len(gens[0])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    best = None
    for k in range(1, n + 1):
        for chosen in combinations(gens, k):
            for free in combinations(units, n - k):
                cols = chosen + free
                # unknowns lam (k), mu (n - k), t
                rows = [[c[i] for c in cols] + [-1] for i in range(n)]
                rows.append([1] * k + [0] * (n - k + 1))
                sol = solve(rows, [0] * n + [1])
                if sol is None or any(x < 0 for x in sol[:n]):
                    continue
                if best is None or sol[n] < best:
                    best = sol[n]
    return 1 / best
