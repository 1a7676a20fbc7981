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

from fractions import Fraction
from typing import Sequence

from .errors import NotSmoothChart
from .model import ToricFanoModel
from .polytope import enumerate_basic_feasible
from .subscheme import IdealSequenceOnXxA1, MonomialSubscheme, NewtonPolyhedron


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
