"""Log canonical thresholds of monomial data, exactly.

On a smooth chart the threshold of a monomial ideal is the least weight
sum over the dual region {w >= 0 : <g, w> >= 1 for every generator g},
attained at one of its vertices: the dual vertices of the ideal's Newton
polyhedron.  The global value is the minimum over charts carrying a
proper ideal.  Reduced toric boundary divisors short-circuit to 1 through
the global valuation of their ray, which also covers divisors passing
through singular charts.

For ideals on X x A^1 of the form I_M + I_{M-1} t + ... + (t^M) the
largest c2 with (X x A^1, ideal^c1 * (t)^c2) sub log canonical is read
off the dual vertices (w, w_t) of each active chart's induced ideal, the
Newton polyhedra the leading integral reads.  Each point of the dual
region bounds c2 by 1 + (sum(w) - c1) / w_t, linear-fractional there with
w_t > 0, so the least bound is at a vertex or is the limit 1 along t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import NotSmoothChart
from .linalg import Vec
from .model import ToricFanoModel
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme, NewtonPolyhedron,
                        check_model_fit, product_dual_vertices)


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
    check_model_fit(X, Z)
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


def lct_on_product_with_line(X: ToricFanoModel, S: IdealSequenceOnXxA1, c1) -> Fraction:
    """Largest c2 with (X x A^1, induced-ideal^c1 * (t)^c2) sub log canonical."""
    return product_line_threshold(X, product_dual_vertices(X, S.steps), c1)


def product_line_threshold(X: ToricFanoModel, duals: Mapping[int, Sequence[Vec]],
                           c1) -> Fraction:
    """The threshold at weight c1 from a sequence's product_dual_vertices.
    Requires every chart of X to be smooth, since the log discrepancy of
    a monomial valuation is its weight sum only there."""
    c1 = Fraction(c1)
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    for chart in X.charts:
        if not chart.smooth:
            raise NotSmoothChart(f"chart at {chart.vertex} is singular")
    return 1 + min([Fraction(0), *((sum(w) - c1) / wt for vertices in duals.values()
                                   for *w, wt in vertices)])
