"""Volume profiles along blowups, Seshadri constants, thresholds.

The profile of a subscheme Z is x -> vol of (pullback of -K_X) minus x
times the exceptional divisor, as an exact piecewise polynomial.  It is
n! times the volume of the part of the moment polytope P where the
sections vanish to order >= x along Z, a region cut from P by rows
moving linearly in x.  Each chart's ideal gives, for every dual vertex w
of its Newton polyhedron, the row <D^T w, u> >= x - sum(w) that puts the
pairing coordinates D u + 1 into x times the polyhedron, D the chart's
cone-ray matrix.  The vertex is kept in integers, w = W / den, and so is
the row, lifted to (u, x): (D^T W, -den, -sum(W)) divided by its gcd,
meaning <D^T W, u> - den x >= -sum(W).  On a smooth chart D u + 1 are
the exponents.  A singular chart may carry only m times a boundary
divisor, (y_rho^m), whose one dual vertex e_rho / m gives the row
<rho, u> + 1 >= m x: the divisor's valuation, which needs no exponents.

blowup_volume_integral reads the pseudoeffective threshold tau and the
profile's integral, all that beta, pseudoeffective_threshold and
ideal-power filtrations need, through region_integral, the one place
that chooses between two routes; the slopes' capped leading integral
goes through it too.  When the region has one moving row, as every
point, thickened point and boundary divisor has, it is
{(u, x) : u in P, 0 <= x <= l(u)} for an affine l >= 0 on P: tau is
the largest l at a vertex of P, and the integral is vol(-K) l(b_P),
b_P the barycenter of P, kept on the model
(polytope.single_row_integral).  Any other region is read off the
triangulation of one vertex enumeration of it lifted to (u, x), in
polytope.moving_volume_integral, which starts from the cone of
P x [0, oo), its rays read off P's vertices and their tight rows, so
that only the moving rows go through it.  The tests hold the
first route against the second.  blowup_volume_profile, for `fanokit
volume`, seshadri_constant and acceptance criterion 3, returns the
profile itself as a PiecewisePolynomial, off that lifted enumeration:
its breakpoints are the x-coordinates of the lifted vertices, and each
piece is fitted through a few slice volumes, each read off where the
lifted region's edges cross the slice, in
polytope.moving_volume_function.  The tests hold its integral against
blowup_volume_integral.

The Newton polyhedron sees only the integral closure of a chart ideal.
That is exact for every monomial ideal, closed or not: by Rees's
theorem there is a fixed k with closure(I^(m+k)) inside I^m for every
m, so I and its closure have the same volume profile.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionTooSmall, NotSmoothPoint, UnsupportedSubscheme
from .linalg import int_primitive
from .model import ToricFanoModel
from .piecewise import PiecewisePolynomial, poly_trim
from .polytope import moving_volume_function, moving_volume_integral, single_row_integral
from .subscheme import (MonomialSubscheme, check_model_fit, divisor_multiple,
                        point_subscheme)


def _moving_rows(X: ToricFanoModel, Z: MonomialSubscheme) -> list[tuple[int, ...]]:
    """The rows of Z's profile region lifted to (u, x), as the integer
    moving rows (*a, c, b), <a, u> + c x >= b, of moving_volume_integral:
    on each chart, for each Newton dual vertex W / den, (D^T W, -den,
    -sum(W)) divided by its gcd, D the chart's cone-ray matrix, each row
    kept once.  Z is taken as checked against X (_checked_rows)."""
    moving = {}
    for idx in Z.active_chart_indices():
        chart = X.charts[idx]
        if not (chart.smooth or divisor_multiple(Z.chart_gens[idx])):
            raise UnsupportedSubscheme(f"{Z.label} touches the singular {chart.name}")
        cols = list(zip(*chart.cone_rays))
        for W, den in Z.dual_vertices[idx]:
            moving[int_primitive([*[sum(map(mul, col, W)) for col in cols],
                                  -den, -sum(W)])] = None
    return list(moving)


def _checked_rows(X: ToricFanoModel, Z: MonomialSubscheme) -> list[tuple[int, ...]]:
    """_moving_rows, once Z is refused if written for another fan or
    empty, full or zero on a chart."""
    check_model_fit(X, Z)
    Z.require_usable()
    return _moving_rows(X, Z)


def blowup_volume_profile(X: ToricFanoModel, Z: MonomialSubscheme) -> PiecewisePolynomial:
    """x -> vol(sigma^*(-K) - x F) on [0, tau], zero afterwards: tau is
    its last breakpoint and vol(-K) its value at 0."""
    return moving_volume_function(X.polytope, 1, _checked_rows(X, Z))


def blowup_volume_integral(X: ToricFanoModel, Z: MonomialSubscheme) -> tuple[Fraction, Fraction]:
    """(tau, integral) of Z's profile, with no profile built: its last
    breakpoint and its integral over [0, tau], by region_integral.  With
    one moving row, l = (<a, u> - b) / -c is sum W_i (<rho_i, u> + 1) / den
    for every subscheme, so l >= 0 on P and the integral is vol(-K) l(b_P)."""
    return region_integral(X, 1, _checked_rows(X, Z))


def region_integral(X: ToricFanoModel, scale: int, moving: Sequence[Sequence[int]],
                    cap=None) -> tuple[Fraction, Fraction]:
    """moving_volume_integral(X.polytope, scale, moving, cap), by the one
    choice of route there is: a lone moving row (*a, c, b) with c < 0
    goes through polytope.single_row_integral, off X's moments and edges
    with no enumeration, and any other rows through the lifted vertex
    enumeration of polytope.moving_volume_integral.

    A cap, a nonnegative integer, caps the row's l = (<a, u> - b) / -c:
    min(l, cap)^+ = l^+ - (l - cap)^+, so the integral is the row's less
    that of the row (*a, c, b - c cap), and tau is cut at the cap."""
    if len(moving) != 1 or moving[0][-2] >= 0:
        return moving_volume_integral(X.polytope, scale, moving, cap)
    tau, integral = single_row_integral(X.polytope, scale, moving[0], X._moments, X._edges)
    if cap is None:
        return tau, integral
    *a, c, b = moving[0]
    beyond = single_row_integral(X.polytope, scale, (*a, c, b - c * cap), X._moments, X._edges)
    return min(tau, cap), integral - beyond[1]


def seshadri_constant(X: ToricFanoModel, chart_index: int) -> Fraction:
    """Largest x below which the point profile still equals vol - x^n."""
    if X.dimension < 2:
        raise DimensionTooSmall("Seshadri scan needs dimension >= 2")
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"the fixed point of {chart.name} is singular")
    profile = blowup_volume_profile(X, point_subscheme(X, chart_index))
    n = X.dimension
    target = poly_trim([profile.evaluate(0)] + [Fraction(0)] * (n - 1) + [Fraction(-1)])
    eps = profile.breakpoints[0]
    for i, piece in enumerate(profile.pieces):
        if poly_trim(piece) != target:
            break
        eps = profile.breakpoints[i + 1]
    return eps


def pseudoeffective_threshold(X: ToricFanoModel, Z: MonomialSubscheme) -> Fraction:
    """Smallest x past which the profile is identically zero."""
    return blowup_volume_integral(X, Z)[0]
