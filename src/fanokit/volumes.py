"""Volume profiles along blowups, Seshadri constants, thresholds.

The profile of a subscheme Z is x -> vol of (pullback of -K_X) minus x
times the exceptional divisor, as an exact piecewise polynomial.  Three
routes, all exact:

  * reduced boundary divisors slice the moment polytope by the global
    valuation of their ray (works through singular charts);
  * a reduced smooth fixed point slices by the total chart degree;
  * general monomial data on smooth charts cuts P by the scaled Newton
    membership constraints of every chart, a polytope moving linearly in
    x, handled by candidate breakpoints plus per-interval interpolation.
    Each sample volume comes from the rows that cut the region out
    (polytope.volume), never from a hull rebuilt over its vertices.

The Newton polyhedron sees only the integral closure of a chart ideal.
That is exact for every monomial ideal, closed or not: by Rees's
theorem there is a fixed k with closure(I^(m+k)) inside I^m for every
m, so I and its closure have the same volume profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import (DimensionTooSmall, EmptyOrFull, NotSmoothPoint,
                     UnsupportedSubscheme)
from .linalg import Vec, cramer, matmul_vec, rational_primitive, transpose
from .model import ToricFanoModel, anticanonical_volume
from .piecewise import PiecewisePolynomial, fit_polynomial, poly_trim
from .polytope import enumerate_basic_feasible, sliced_volume_function, volume
from .subscheme import MonomialSubscheme, NewtonPolyhedron


@dataclass(frozen=True)
class BlowupVolumeProfile:
    """vol(sigma^*(-K) - x F) on [0, tau], zero afterwards."""

    subscheme_label: str
    total_volume: Fraction
    tau: Fraction
    function: PiecewisePolynomial

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if x >= self.tau:
            return Fraction(0)
        return self.function.evaluate(x)

    def integral(self) -> Fraction:
        """Integral over [0, infinity), which is the integral to tau."""
        return self.function.integrate(0, self.tau)


def _profile_from_slice(label: str, pp: PiecewisePolynomial,
                        vol: Fraction) -> BlowupVolumeProfile:
    if pp.breakpoints[0] != 0:
        raise ValueError(f"profile domain starts at {pp.breakpoints[0]}, not 0")
    return BlowupVolumeProfile(subscheme_label=label, total_volume=vol,
                               tau=pp.breakpoints[-1], function=pp)


def _is_reduced_point(Z: MonomialSubscheme) -> int | None:
    """Chart index when Z is exactly one smooth-chart maximal ideal."""
    idxs = Z.active_chart_indices()
    if len(idxs) != 1 or Z.boundary_ray is not None:
        return None
    gens = Z.gens_on(idxs[0])
    n = Z.dimension
    expected = sorted(tuple(1 if j == i else 0 for j in range(n))
                      for i in range(n))
    if gens is not None and sorted(gens) == expected:
        return idxs[0]
    return None


def blowup_volume_profile(X: ToricFanoModel, Z: MonomialSubscheme) -> BlowupVolumeProfile:
    Z.require_usable()
    vol = anticanonical_volume(X)
    P = X.polytope

    if Z.boundary_ray is not None:
        pp = sliced_volume_function(P, Z.boundary_ray, 1)
        return _profile_from_slice(Z.label, pp, vol)

    point_chart = _is_reduced_point(Z)
    if point_chart is not None:
        chart = X.charts[point_chart]
        lam = [sum(col) for col in zip(*chart.dual)]
        pp = sliced_volume_function(P, lam, X.dimension)
        return _profile_from_slice(Z.label, pp, vol)

    for idx in Z.active_chart_indices():
        if not X.charts[idx].smooth:
            raise UnsupportedSubscheme(
                f"{Z.label} touches the singular chart at {X.charts[idx].vertex}")
    return _newton_region_profile(X, Z, vol)


def _newton_region_profile(X: ToricFanoModel, Z: MonomialSubscheme,
                           vol: Fraction) -> BlowupVolumeProfile:
    """Exact profile for smooth-chart monomial data."""
    n = X.dimension
    P = X.polytope
    static_rows: list[tuple[Vec, Fraction]] = [
        (tuple(Fraction(a) for a in nr), Fraction(off)) for nr, off in P.inequalities]
    moving_rows: list[tuple[Vec, Fraction]] = []  # (normal, base): <normal,u> >= x - base
    for idx in Z.active_chart_indices():
        chart = X.charts[idx]
        N = NewtonPolyhedron(Z.gens_on(idx))
        D_rows = [list(r) for r in chart.dual]
        for w in N.dual_vertices:
            normal = matmul_vec(transpose(tuple(tuple(Fraction(v) for v in r)
                                                for r in D_rows)), w)
            moving_rows.append((normal, sum(w, Fraction(0))))

    # (u, x) rows <normal, u> - x * moves >= offset, scaled to integers
    lifted = ([rational_primitive((*nr, 0, off)) for nr, off in static_rows]
              + [rational_primitive((*nr, -1, -base)) for nr, base in moving_rows])
    candidates = {Fraction(0)}
    for sub in combinations(lifted, n + 1):
        sol = cramer([r[:n + 1] for r in sub], [r[n + 1] for r in sub])
        if sol is not None and sol[0][n] > 0:
            candidates.add(Fraction(sol[0][n], sol[1]))

    cuts = sorted(candidates)
    nfact = factorial(n)

    def region_volume(x: Fraction) -> Fraction:
        rows = list(static_rows) + [(nr, x - base) for nr, base in moving_rows]
        verts = enumerate_basic_feasible(n, rows)
        return volume(n, rows, verts)

    pieces: list[tuple[Fraction, ...]] = []
    spans: list[tuple[Fraction, Fraction]] = []
    for a, b in zip(cuts, cuts[1:]):
        xs = [a + (b - a) * Fraction(i, n) for i in range(n + 1)]
        ys = [nfact * region_volume(x) for x in xs]
        pieces.append(fit_polynomial(xs, ys))
        spans.append((a, b))

    # trim the identically-zero tail, then merge equal adjacent pieces
    while pieces and poly_trim(pieces[-1]) == ():
        pieces.pop()
        spans.pop()
    if not pieces:
        raise EmptyOrFull(f"{Z.label}: region empty already at x = 0")
    tau = spans[-1][1]
    merged_b = [spans[0][0]]
    merged_p: list[tuple[Fraction, ...]] = []
    for (a, b), p in zip(spans, pieces):
        if merged_p and poly_trim(p) == poly_trim(merged_p[-1]):
            merged_b[-1] = b
        else:
            merged_p.append(p)
            merged_b.append(b)
    pp = PiecewisePolynomial(merged_b, merged_p, degree_bound=n)
    return BlowupVolumeProfile(subscheme_label=Z.label, total_volume=vol,
                               tau=tau, function=pp)


def seshadri_constant(X: ToricFanoModel, chart_index: int) -> Fraction:
    """Largest x below which the point profile still equals vol - x^n."""
    if X.dimension < 2:
        raise DimensionTooSmall("Seshadri scan needs dimension >= 2")
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"fixed point at {chart.vertex} is singular")
    from .subscheme import point_subscheme
    profile = blowup_volume_profile(X, point_subscheme(X, chart_index))
    vol = profile.total_volume
    n = X.dimension
    target = poly_trim([vol] + [Fraction(0)] * (n - 1) + [Fraction(-1)])
    eps = profile.function.breakpoints[0]
    for i, piece in enumerate(profile.function.pieces):
        if poly_trim(piece) != target:
            break
        eps = profile.function.breakpoints[i + 1]
    return eps


def pseudoeffective_threshold(X: ToricFanoModel, Z: MonomialSubscheme) -> Fraction:
    """Smallest x past which the profile is identically zero."""
    return blowup_volume_profile(X, Z).tau
