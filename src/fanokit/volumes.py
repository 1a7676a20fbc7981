"""Volume profiles along blowups, Seshadri constants, thresholds.

The profile of a subscheme Z is x -> vol of (pullback of -K_X) minus x
times the exceptional divisor, as an exact piecewise polynomial.  It is
n! times the volume of the part of the moment polytope P where the
sections vanish to order >= x along Z, a region cut from P by rows
moving linearly in x:

  * a reduced boundary divisor gives the one row <rho, u> >= x - 1, the
    global valuation of its ray, which needs no chart and so also works
    through singular charts;
  * monomial data on smooth charts gives, for every dual vertex w of the
    chart's Newton polyhedron, the row <D^T w, u> >= x - sum(w) that
    puts the chart exponents D u + 1 into x times the polyhedron.

Both readers of that region start from one vertex enumeration of it
lifted to (u, x).  blowup_volume_integral reads the pseudoeffective
threshold tau and the profile's integral off its triangulation, in
polytope.moving_volume_integral; beta, pseudoeffective_threshold and
ideal-power filtrations need nothing more.  blowup_volume_profile, for
`fanokit volume`, seshadri_constant and acceptance criterion 3, returns
the profile itself as a PiecewisePolynomial: its breakpoints are the
x-coordinates of the lifted vertices and each piece is fitted through a
few slice volumes, in polytope.moving_volume_function.  The tests hold
its integral against the first reader.

The Newton polyhedron sees only the integral closure of a chart ideal.
That is exact for every monomial ideal, closed or not: by Rees's
theorem there is a fixed k with closure(I^(m+k)) inside I^m for every
m, so I and its closure have the same volume profile.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionTooSmall, NotSmoothPoint, UnsupportedSubscheme
from .linalg import matmul_vec, transpose
from .model import ToricFanoModel
from .piecewise import PiecewisePolynomial, poly_trim
from .polytope import moving_volume_function, moving_volume_integral
from .subscheme import MonomialSubscheme, check_model_fit, point_subscheme


def _moving_rows(X: ToricFanoModel, Z: MonomialSubscheme) -> list[tuple]:
    """The rows <a, u> >= x - b of Z's profile region, as (a, b)."""
    check_model_fit(X, Z)
    Z.require_usable()
    if Z.boundary_ray is not None:
        return [(Z.boundary_ray, 1)]
    moving = []
    for idx in Z.active_chart_indices():
        chart = X.charts[idx]
        if not chart.smooth:
            raise UnsupportedSubscheme(
                f"{Z.label} touches the singular chart at {chart.vertex}")
        cols = transpose(chart.dual)
        moving.extend((matmul_vec(cols, w), sum(w))
                      for w in Z.dual_vertices[idx])
    return moving


def blowup_volume_profile(X: ToricFanoModel, Z: MonomialSubscheme) -> PiecewisePolynomial:
    """x -> vol(sigma^*(-K) - x F) on [0, tau], zero afterwards: tau is
    its last breakpoint and vol(-K) its value at 0."""
    return moving_volume_function(X.dimension, X.polytope.inequalities, _moving_rows(X, Z))


def blowup_volume_integral(X: ToricFanoModel, Z: MonomialSubscheme) -> tuple[Fraction, Fraction]:
    """(tau, integral) of Z's profile, read off the lifted region with no
    profile built: its last breakpoint and its integral over [0, tau]."""
    return moving_volume_integral(X.dimension, X.polytope.inequalities, _moving_rows(X, Z))


def seshadri_constant(X: ToricFanoModel, chart_index: int) -> Fraction:
    """Largest x below which the point profile still equals vol - x^n."""
    if X.dimension < 2:
        raise DimensionTooSmall("Seshadri scan needs dimension >= 2")
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"fixed point at {chart.vertex} is singular")
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
