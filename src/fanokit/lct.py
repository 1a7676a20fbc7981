"""Log canonical thresholds of monomial data, exactly.

On a smooth chart the threshold of a monomial ideal is the least weight
sum over the dual region {w >= 0 : <g, w> >= 1 for every generator g},
attained at one of its vertices: the dual vertices of the ideal's Newton
polyhedron.  The global value is the minimum over charts carrying a
proper ideal.  Reduced toric boundary divisors short-circuit to 1 through
the global valuation of their ray, which also covers divisors passing
through singular charts.

For ideals on X x A^1 of the form I_M + I_{M-1} t + ... + (t^M) the
routine computes the largest c2 with (X x A^1, ideal^c1 * (t)^c2) sub log
canonical, again chart by chart; the inner minimum over generators is
linearized with one extra variable s, and the optimum is read off the
vertices of the lifted region in (w, s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import lattice
from .errors import FamilyNotGraded, NotSmoothChart
from .model import ToricFanoModel
from .polytope import enumerate_basic_feasible
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme, NewtonPolyhedron,
                        _subscheme_contains, product)


def lct_chart(gens: Sequence[Sequence[int]]) -> Fraction | None:
    """Threshold of one chart ideal; None when the chart gives no bound
    (a generator is 1, so the ideal is the unit ideal)."""
    if any(not any(g) for g in gens):
        return None
    return min(sum(w) for w in NewtonPolyhedron(gens).dual_vertices)


def lct_monomial(X: ToricFanoModel, Z: MonomialSubscheme, power: int = 1) -> Fraction:
    """lct(X, I_Z^power) for a monomial subscheme with smooth-chart data."""
    if power < 1:
        raise ValueError("power must be >= 1")
    Z.require_usable()
    if Z.boundary_ray is not None:
        # (X, sum of boundary divisors) is log canonical and the ray's own
        # valuation has log discrepancy 1, so the threshold is exactly 1
        return Fraction(1, power)
    for idx in Z.active_chart_indices():
        chart = X.charts[idx]
        if not chart.smooth:
            raise NotSmoothChart(
                f"{Z.label} lives on the singular chart at {chart.vertex}")
    return min(sum(w) for duals in Z.dual_vertices.values()
               for w in duals) / power


def lct_on_product_with_line(X: ToricFanoModel, S: IdealSequenceOnXxA1,
                             c1) -> Fraction:
    """Largest c2 with (X x A^1, induced-ideal^c1 * (t)^c2) sub log canonical.

    Requires every chart of X to be smooth, since the log discrepancy of
    a monomial valuation is its weight sum only there.  The value is
    always finite: the generator t^M of the induced ideal bounds s.
    """
    c1 = Fraction(c1)
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    n = X.dimension
    units = [(tuple(int(i == j) for i in range(n + 1)), 0) for j in range(n + 1)]
    best: Fraction | None = None
    for idx, chart in enumerate(X.charts):
        if not chart.smooth:
            raise NotSmoothChart(f"chart at {chart.vertex} is singular")
        # 1 + min sum(w) - c1*s over w, s >= 0 with s <= <w, g_x> + g_t
        # for every generator g; s <= M, so a vertex attains the minimum
        rows = units + [((*g[:n], -1), -g[n]) for g in S.product_gens(idx)]
        val = 1 + min(sum(v[:n]) - c1 * v[n]
                      for v in enumerate_basic_feasible(n + 1, rows))
        if best is None or val < best:
            best = val
    assert best is not None
    return best


@dataclass(frozen=True)
class GradedFamilyReport:
    r_values: tuple[tuple[int, Fraction | None], ...]
    estimate: Fraction | None
    unbounded: bool
    non_decreasing: bool


def graded_family_lct_estimate(X: ToricFanoModel,
                               family: Mapping[int, object],
                               c=1) -> GradedFamilyReport:
    """Threshold estimates along a graded family of ideals.

    ``family`` maps the index r to either a MonomialSubscheme (value is
    lct * r / c) or an IdealSequenceOnXxA1 (value is the product-line c2
    at c1 = c/r).  Pairs r, s with r+s also in the family must satisfy the
    graded inclusion I_r * I_s <= I_{r+s}, checked generator-wise; the
    estimate is the supremum of the values and the report records whether
    they are monotone along increasing r.
    """
    c = Fraction(c)
    r_list = sorted(int(r) for r in family)
    if not r_list or any(r <= 0 for r in r_list):
        raise ValueError("family indices must be positive integers")
    _check_graded(family, r_list)

    values: list[tuple[int, Fraction | None]] = []
    unbounded = False
    for r in r_list:
        member = family[r]
        if isinstance(member, MonomialSubscheme):
            if member.is_empty:
                values.append((r, None))
                unbounded = True
                continue
            values.append((r, lct_monomial(X, member) * r / c))
        elif isinstance(member, IdealSequenceOnXxA1):
            values.append((r, lct_on_product_with_line(X, member, c1=c / r)))
        else:
            raise TypeError(f"unsupported family member type {type(member)!r}")

    finite = [v for _, v in values if v is not None]
    estimate = max(finite) if finite and not unbounded else None
    ordered = [v for _, v in values]
    non_decreasing = all(
        a is None or (b is not None and b >= a)
        for a, b in zip(ordered, ordered[1:]))
    return GradedFamilyReport(r_values=tuple(values), estimate=estimate,
                              unbounded=unbounded, non_decreasing=non_decreasing)


def _check_graded(family: Mapping[int, object], r_list: Sequence[int]) -> None:
    for r in r_list:
        for s in r_list:
            if r > s or (r + s) not in family:
                continue
            a, b, ab = family[r], family[s], family[r + s]
            if isinstance(a, MonomialSubscheme) and isinstance(b, MonomialSubscheme) \
                    and isinstance(ab, MonomialSubscheme):
                if not _subscheme_contains(ab, product(a, b)):
                    raise FamilyNotGraded(f"I_{r} * I_{s} not inside I_{r + s}")
            elif isinstance(a, IdealSequenceOnXxA1) and isinstance(b, IdealSequenceOnXxA1) \
                    and isinstance(ab, IdealSequenceOnXxA1):
                if not _sequence_product_contained(a, b, ab):
                    raise FamilyNotGraded(f"ideal_{r} * ideal_{s} not inside ideal_{r + s}")
            else:
                raise FamilyNotGraded(f"mixed member types at {r}, {s}, {r + s}")


def _sequence_product_contained(a: IdealSequenceOnXxA1, b: IdealSequenceOnXxA1,
                                target: IdealSequenceOnXxA1) -> bool:
    idxs = set()
    for seq in (a, b, target):
        for s in seq.steps:
            idxs.update(s.active_chart_indices())
    # charts with no content are unit for every sequence: nothing to check
    for idx in sorted(idxs):
        ga = a.product_gens(idx)
        gb = b.product_gens(idx)
        gt = target.product_gens(idx)
        for g in lattice.minkowski_sum(ga, gb):
            if not lattice.dominates_any(g, gt):
                return False
    return True
