"""Monomial subschemes, Newton polyhedra, and ideal sequences on X x A^1.

A MonomialSubscheme stores one monomial ideal per chart, in that chart's
local exponent coordinates.  Chart indices missing from the mapping carry
the unit ideal; an explicitly empty generator tuple is the zero ideal.
Reduced toric boundary divisors additionally remember their ray, which
lets global valuation routes work even through singular charts where no
exponent coordinates exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from . import lattice
from .errors import CombinatorialBlowup, EmptyOrFull, NotSmoothPoint, ZeroIdeal
from .linalg import Vec, dot, invert, matmul_vec, transpose
from .model import ToricFanoModel
from .polytope import enumerate_basic_feasible, polytope_edges

Gens = tuple[tuple[int, ...], ...]

GENERATOR_CAP = 20_000


def _normalize_gens(gens: Sequence[Sequence[int]]) -> Gens | None:
    """Minimalized sorted generators; None signals the unit ideal."""
    cleaned = [tuple(int(x) for x in g) for g in gens]
    if any(all(x == 0 for x in g) for g in cleaned):
        return None
    return tuple(lattice.minimalize(cleaned))


@dataclass(frozen=True)
class MonomialSubscheme:
    label: str
    dimension: int
    chart_gens: Mapping[int, Gens] = field(default_factory=dict)
    boundary_ray: tuple[int, ...] | None = None

    def __post_init__(self):
        norm: dict[int, Gens] = {}
        for idx, gens in self.chart_gens.items():
            if len(gens) == 0:
                norm[int(idx)] = ()
                continue
            g = _normalize_gens(gens)
            if g is not None:
                norm[int(idx)] = g
        object.__setattr__(self, "chart_gens", norm)

    def gens_on(self, chart_index: int) -> Gens | None:
        """Generators on a chart; None means the unit ideal there."""
        return self.chart_gens.get(chart_index)

    @property
    def is_empty(self) -> bool:
        """The unit ideal everywhere: the subscheme is the empty scheme."""
        return not self.chart_gens and self.boundary_ray is None

    @property
    def has_zero_chart(self) -> bool:
        return any(len(g) == 0 for g in self.chart_gens.values())

    def active_chart_indices(self) -> list[int]:
        return sorted(self.chart_gens)

    def require_usable(self) -> None:
        if self.has_zero_chart:
            raise ZeroIdeal(f"{self.label}: zero ideal on a chart")
        if self.is_empty:
            raise EmptyOrFull(f"{self.label}: unit ideal everywhere")

    def power(self, m: int) -> "MonomialSubscheme":
        if m < 1:
            raise ValueError("power must be >= 1")
        acc = self
        for _ in range(m - 1):
            acc = product(acc, self)
        return MonomialSubscheme(label=f"{self.label}^{m}", dimension=self.dimension,
                                 chart_gens=acc.chart_gens, boundary_ray=None)


def product(a: MonomialSubscheme, b: MonomialSubscheme) -> MonomialSubscheme:
    """Chartwise product ideal: unit times I is I, zero times I is zero."""
    gens: dict[int, Gens] = {}
    for idx in {**a.chart_gens, **b.chart_gens}:
        ga, gb = a.gens_on(idx), b.gens_on(idx)
        if ga is None or gb is None:
            gens[idx] = gb if ga is None else ga
        elif len(ga) == 0 or len(gb) == 0:
            gens[idx] = ()
        else:
            gens[idx] = tuple(lattice.minkowski_sum(ga, gb))
    return MonomialSubscheme(label=f"{a.label}*{b.label}",
                             dimension=a.dimension, chart_gens=gens)


def point_subscheme(X: ToricFanoModel, chart_index: int) -> MonomialSubscheme:
    """Reduced torus-fixed point: the maximal ideal of one smooth chart."""
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"fixed point at {chart.vertex} is singular")
    n = X.dimension
    gens = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return MonomialSubscheme(label=f"point@{chart_index}", dimension=n,
                             chart_gens={chart_index: gens})


def thickened_point_subscheme(X: ToricFanoModel, chart_index: int) -> MonomialSubscheme:
    """Square of the maximal ideal at a smooth fixed point."""
    chart = X.charts[chart_index]
    if not chart.smooth:
        raise NotSmoothPoint(f"fixed point at {chart.vertex} is singular")
    n = X.dimension
    gens = []
    for i, j in combinations_with_replacement(range(n), 2):
        g = [0] * n
        g[i] += 1
        g[j] += 1
        gens.append(tuple(g))
    return MonomialSubscheme(label=f"point2@{chart_index}", dimension=n,
                             chart_gens={chart_index: tuple(gens)})


def boundary_divisor_subscheme(X: ToricFanoModel, ray: Sequence[int]) -> MonomialSubscheme:
    """Reduced toric boundary divisor attached to one fan ray.

    Chart data is recorded on every smooth chart whose cone contains the
    ray; singular charts are covered by the remembered ray itself, which
    global valuation formulas use directly.
    """
    ray_t = tuple(int(x) for x in ray)
    if ray_t not in X.rays:
        raise ValueError(f"{ray_t} is not a ray of {X.name or 'the model'}")
    chart_gens: dict[int, Gens] = {}
    n = X.dimension
    for idx, chart in enumerate(X.charts):
        if not chart.smooth or ray_t not in chart.cone_rays:
            continue
        pos = chart.cone_rays.index(ray_t)
        gen = tuple(1 if j == pos else 0 for j in range(n))
        chart_gens[idx] = (gen,)
    return MonomialSubscheme(label=f"divisor@{ray_t}", dimension=n,
                             chart_gens=chart_gens, boundary_ray=ray_t)


def standard_battery(X: ToricFanoModel) -> list[MonomialSubscheme]:
    """Fixed candidate set: smooth fixed points, boundary divisors, and
    thickened smooth points, in a reproducible order."""
    out: list[MonomialSubscheme] = []
    for idx in X.smooth_chart_indices():
        out.append(point_subscheme(X, idx))
    for ray in X.rays:
        out.append(boundary_divisor_subscheme(X, ray))
    for idx in X.smooth_chart_indices():
        out.append(thickened_point_subscheme(X, idx))
    return out


class NewtonPolyhedron:
    """conv(generators) + nonnegative orthant, with its facet duals.

    ``dual_vertices`` are the vertices of Q = {w >= 0 : <g, w> >= 1 for
    all generators}; a point a >= 0 lies in x*N iff <w, a> >= x for every
    dual vertex w.  Facet inequalities of N are the scaled dual vertices
    plus the coordinate halfspaces.
    """

    __slots__ = ("generators", "dual_vertices")

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = _normalize_gens(generators)
        if gens is None:
            raise ValueError("unit ideal has no Newton polyhedron here")
        if len(gens) == 0:
            raise ZeroIdeal("zero ideal has empty Newton polyhedron")
        self.generators = gens
        n = len(gens[0])
        rows: list[tuple[tuple, object]] = []
        for i in range(n):
            rows.append((tuple(Fraction(1 if j == i else 0) for j in range(n)),
                         Fraction(0)))
        for g in gens:
            rows.append((tuple(Fraction(x) for x in g), Fraction(1)))
        self.dual_vertices: tuple[Vec, ...] = tuple(
            enumerate_basic_feasible(n, rows))

    def scaled_contains(self, point: Sequence, x) -> bool:
        """Membership of a rational point in x * (this polyhedron)."""
        x = Fraction(x)
        if any(Fraction(p) < 0 for p in point):
            return False
        return all(dot(w, point) >= x for w in self.dual_vertices)

    def contains(self, point: Sequence) -> bool:
        return self.scaled_contains(point, 1)


@dataclass(frozen=True)
class IdealSequenceOnXxA1:
    """I_M <= I_{M-1} <= ... <= I_1 of monomial subschemes on a model,
    encoding the ideal I_M + I_{M-1} t + ... + I_1 t^{M-1} + (t^M)."""

    steps: tuple[MonomialSubscheme, ...]

    def __post_init__(self):
        for j in range(len(self.steps) - 1):
            small, big = self.steps[j + 1], self.steps[j]
            if not _subscheme_contains(big, small):
                raise ValueError(
                    f"step {j + 2} not contained in step {j + 1} chartwise")

    @property
    def M(self) -> int:
        return len(self.steps)

    def step(self, j: int) -> MonomialSubscheme:
        """I_j for 1 <= j <= M; the unit subscheme for j <= 0."""
        if j <= 0:
            return MonomialSubscheme(label="unit", dimension=self.steps[0].dimension)
        return self.steps[j - 1]

    def product_gens(self, chart_index: int) -> tuple[tuple[int, ...], ...]:
        """Generators of the induced (n+1)-variable chart ideal; the last
        coordinate is the t-exponent.  None never occurs: (0, M) is always
        a generator, and unit I_j contribute (0, M-j)."""
        n = self.steps[0].dimension
        out: set[tuple[int, ...]] = {tuple([0] * n + [self.M])}
        for j in range(1, self.M + 1):
            gens = self.step(j).gens_on(chart_index)
            if gens is None:
                out.add(tuple([0] * n + [self.M - j]))
            else:
                for g in gens:
                    out.add(tuple(list(g) + [self.M - j]))
        return tuple(lattice.minimalize(out))

    def power(self, m: int) -> "IdealSequenceOnXxA1":
        """Sequence inducing the m-th power of the induced ideal: the new
        step s is the sum over j_1 + ... + j_m = s of the products
        I_{j_1} ... I_{j_m}, built by m - 1 convolutions of the steps."""
        if m < 1:
            raise ValueError("power must be >= 1")
        base = {s: self.step(s).chart_gens for s in range(self.M + 1)}
        universe = sorted(set().union(*base.values()))
        table = base
        for k in range(2, m + 1):
            table = _convolve_step(base, table, 0, self.M, k, universe)
        dim = self.steps[0].dimension
        return IdealSequenceOnXxA1(steps=tuple(
            MonomialSubscheme(label=f"pow{m}[{s}]", dimension=dim,
                              chart_gens=table[s])
            for s in range(1, m * self.M + 1)))


def _convolve_step(base: dict, prev: dict, lo: int, hi: int, k: int,
                   universe: Sequence[int]) -> dict:
    """J(k, .) from J(k-1, .): sum over j' of step[j'] * prev[j - j'].

    base maps each step j in [lo, hi] to its chart generators (a missing
    chart is the unit ideal, an empty tuple the zero ideal); prev holds
    the (k-1)-st power on [(k-1) lo, (k-1) hi].  Every chart is
    minimalised after the merge.
    """
    plo, phi = (k - 1) * lo, (k - 1) * hi
    out = {}
    for j in range(k * lo, k * hi + 1):
        terms = [(base[j1], prev[j - j1])
                 for j1 in range(max(lo, j - phi), min(hi, j - plo) + 1)]
        per_chart = {}
        for c in universe:
            acc: list[tuple[int, ...]] = []
            unit = False
            for first, second in terms:
                ga = first.get(c)
                gb = second.get(c)
                if ga is None and gb is None:
                    unit = True
                    break
                if ga is None:
                    prod = gb
                elif gb is None:
                    prod = ga
                elif len(ga) == 0 or len(gb) == 0:
                    continue
                else:
                    prod = lattice.minkowski_sum(ga, gb)
                if len(prod) == 0:
                    continue
                acc.extend(prod)
            if unit:
                continue
            gens = lattice.minimalize(acc)
            if len(gens) > GENERATOR_CAP:
                raise CombinatorialBlowup(
                    f"{len(gens)} generators at (k={k}, j={j}) "
                    f"exceed the cap {GENERATOR_CAP}")
            per_chart[c] = tuple(gens)
        out[j] = per_chart
    return out


def _subscheme_contains(big: MonomialSubscheme, small: MonomialSubscheme) -> bool:
    """small subset of big, checked generator-wise on every chart."""
    idxs = set(big.active_chart_indices()) | set(small.active_chart_indices())
    for idx in idxs:
        bg = big.gens_on(idx)
        sg = small.gens_on(idx)
        if bg is None:
            continue
        if sg is None:
            return False
        if len(bg) == 0:
            if len(sg) != 0:
                return False
            continue
        for g in sg:
            if not lattice.dominates_any(g, bg):
                return False
    return True


def verify_gluing(X: ToricFanoModel, Z: MonomialSubscheme) -> None:
    """Check chart ideals agree on overlaps of adjacent smooth charts.

    For vertices joined by a polytope edge the overlap inverts exactly one
    coordinate on each side; the localized ideals must coincide under the
    monomial coordinate change.  Raises ValueError on a mismatch; singular
    charts are skipped (they carry no exponent coordinates).
    """
    for i, j in polytope_edges(X.polytope):
        ci, cj = X.charts[i], X.charts[j]
        if not (ci.smooth and cj.smooth):
            continue
        common = [r for r in ci.cone_rays if r in cj.cone_rays]
        if len(common) != X.dimension - 1:
            continue
        inv_i = next(k for k, r in enumerate(ci.cone_rays) if r not in common)
        inv_j = next(k for k, r in enumerate(cj.cone_rays) if r not in common)
        gi = Z.gens_on(i)
        gj = Z.gens_on(j)
        li = _localize(gi, inv_i)
        lj = _localize(gj, inv_j)
        # transported version of chart i's localized gens, in chart j
        # coordinates: exponents map by the transpose of D_i * D_j^{-1}
        E_j = invert([list(r) for r in cj.cone_rays])
        assert E_j is not None
        M_cols = [matmul_vec([list(r) for r in ci.cone_rays], col)
                  for col in transpose(E_j)]
        T = tuple(M_cols)  # columns of D_i E_j as rows = the transpose
        ti = _transport(li, T, inv_j)
        if ti != lj:
            raise ValueError(
                f"{Z.label}: charts {i} and {j} disagree on their overlap: "
                f"{ti} vs {lj}")


def _localize(gens: Gens | None, inverted: int):
    """Canonical localized ideal: None for unit, () for zero, else gens
    with the inverted exponent zeroed and re-minimalized."""
    if gens is None:
        return None
    if len(gens) == 0:
        return ()
    out = [tuple(0 if k == inverted else x for k, x in enumerate(g)) for g in gens]
    norm = _normalize_gens(out)
    return norm


def _transport(local, T, inv_target):
    """Apply the exponent transform T then canonicalize at the target's
    inverted coordinate."""
    if local is None or len(local) == 0:
        return local
    moved = []
    for g in local:
        img = matmul_vec([list(row) for row in T], g)
        img_int = []
        for k, x in enumerate(img):
            frac = Fraction(x)
            if frac.denominator != 1:
                raise ValueError("non-integral exponent transport")
            img_int.append(int(frac))
        moved.append(tuple(0 if k == inv_target else x
                           for k, x in enumerate(img_int)))
    if any(any(x < 0 for x in g) for g in moved):
        raise ValueError("transported generator has a negative exponent")
    return _normalize_gens(moved)