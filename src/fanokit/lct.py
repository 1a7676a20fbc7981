"""Log canonical thresholds of monomial data, exactly.

On a smooth chart the threshold of a monomial ideal is the least weight
sum over the dual region {w >= 0 : <g, w> >= 1 for every generator g},
attained at one of its vertices: the dual vertices of the ideal's Newton
polyhedron.  A diagonal ideal, holding a pure power x_i^a_i of every
coordinate with every generator on or above the simplex through them,
has the one dual vertex 1/a, so its threshold is sum 1/a_i (Howald,
*Multiplier ideals of monomial ideals*, 2001): n for a smooth point,
n/2 for a thickened one.  The global value is the minimum over charts
carrying a proper ideal.  A singular chart may carry only m times a
boundary divisor, (y_rho^m) in pairing coordinates, whose one dual
vertex e_rho / m gives 1/m: the divisor's valuation has log
discrepancy 1.

For ideals on X x A^1 of the form I_M + I_{M-1} t + ... + (t^M) the
largest c2 with (X x A^1, ideal^c1 * (t)^c2) sub log canonical is read
off the dual vertices (w, w_t) of each active chart's induced ideal, the
Newton polyhedra the leading integral reads.  Each point of the dual
region bounds c2 by 1 + (sum(w) - c1) / w_t, linear-fractional there with
w_t > 0, so the least bound is at a vertex or is the limit 1 along t.
The vertices come in integers, (W, W_t) / den, and the bound is read as
1 + (sum(W) - c1 den) / W_t, as the least weight sum is sum(W) / den.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import NotSmoothChart
from .model import ToricFanoModel
from .subscheme import (DualVertex, IdealSequenceOnXxA1, MonomialSubscheme,
                        NewtonPolyhedron, check_model_fit, divisor_multiple,
                        product_dual_vertices)


def _least_weight(vertices: Iterable[DualVertex]) -> Fraction:
    """The least weight sum sum(W) / den over dual vertices W / den."""
    return min([Fraction(sum(W), den) for W, den in vertices])


def lct_chart(gens: Sequence[Sequence[int]]) -> Fraction | None:
    """Threshold of one chart ideal; None when the chart gives no bound
    (a generator is 1, so the ideal is the unit ideal)."""
    if any(not any(g) for g in gens):
        return None
    return _least_weight(NewtonPolyhedron(gens).dual_vertices)


def lct_monomial(X: ToricFanoModel, Z: MonomialSubscheme, power: int = 1) -> Fraction:
    """lct(X, I_Z^power) for a monomial subscheme whose data on singular
    charts is a multiple of a boundary divisor."""
    if power < 1:
        raise ValueError("power must be >= 1")
    check_model_fit(X, Z)
    Z.require_usable()
    for idx in Z.active_chart_indices():
        chart = X.charts[idx]
        if not (chart.smooth or divisor_multiple(Z.chart_gens[idx])):
            raise NotSmoothChart(f"{Z.label} lives on the singular {chart.name}")
    return _least_weight(chain.from_iterable(Z.dual_vertices.values())) / power


def lct_on_product_with_line(X: ToricFanoModel, S: IdealSequenceOnXxA1, c1) -> Fraction:
    """Largest c2 with (X x A^1, induced-ideal^c1 * (t)^c2) sub log canonical."""
    return product_line_threshold(X, product_dual_vertices(X, S.steps), c1)


def product_line_threshold(X: ToricFanoModel, duals: Mapping[int, Sequence[DualVertex]],
                           c1) -> Fraction:
    """The threshold at weight c1 from a sequence's product_dual_vertices,
    each vertex (W, W_t) / den bounding c2 by 1 + (sum(W) - c1 den) / W_t.
    Requires every chart of X to be smooth, since the log discrepancy of
    a monomial valuation is its weight sum only there."""
    c1 = Fraction(c1)
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    for chart in X.charts:
        if not chart.smooth:
            raise NotSmoothChart(f"{chart.name} is singular")
    return 1 + min([Fraction(0), *((sum(W) - c1 * den) / wt for vertices in duals.values()
                                   for (*W, wt), den in vertices)])
