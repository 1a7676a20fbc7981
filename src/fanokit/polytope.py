"""Exact rational polytopes in dimension <= 4.

H-representation rows are (normal, offset) meaning <normal, u> >= offset
with a primitive integer normal.  V-representation is the lex-sorted tuple
of rational vertices.  Construction from either side derives the other, so
a RationalPolytope always carries both and they always describe the same
set.

Vertices are enumerated in integers by the double description method
(Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996) on
the rows scaled to primitive integer vectors: the rows are added one at
a time to a start cone inside the homogenised cone, whose rays with a
positive last entry are the vertices, while a ray with last entry 0 is
a recession direction.  Its work follows the rays it meets, not the
n-subsets of the rows, most of which are not vertices.  Where the caller
already knows the cone of some rows, the enumeration starts there: a
lifted region (below) from the cone of P x [0, oo), whose rays are P's
vertices and the direction of x, so that only its moving rows and cap
are added, and a Newton polyhedron from the orthant of its rows
w_i >= 0.  Only from_inequalities and hull_facets start from scratch,
from the simplicial cone of dim + 1 independent rows.  A polytope is
enumerated once, and its faces are read off which rows are tight at
which vertices (Ziegler, *Lectures on Polytopes*),
incidences the enumeration keeps as it goes, one bitmask of tight rows
per vertex, so no row is tested at a vertex afterwards: the facets are
the rows with maximal tight sets, and a pulling triangulation sums
integer simplex determinants down chains of facets, for the volume, and
those determinants times the simplices' vertex sums for the barycenter
(pulled_moments).  Rows are tested at
points by integer dot products (_incidences), over the points' common
denominator, only where no enumeration met the points: the
constructor's check, which reads the inequalities as the primitive
integer rows a polytope keeps (integer_rows), and its vertices as the
integer vectors it keeps over their least common denominator
(integer_vertices, denominator), and keeps each vertex's mask
(vertex_masks) for euclidean_volume, the edges, the charts and the
lifted start cones.  The same integers give the bounding box of a
dilation by integer division, and a model's r0 is that denominator.  Only points need a hull: the facets of conv(V) are
the vertices of its polar about an interior point, and from_vertices
is from_inequalities of those facets.  A region whose rows
move linearly in a parameter x is the slice at x of the region lifted
to (u, x) and cut by x >= 0, and one vertex enumeration of those lifted
rows in dim + 1 variables serves both readers of such a region.  They
take the static rows as a polytope P and a positive integer scale, the
region being cut from scale*P, and the moving rows in integers, already
lifted, as (*a, c, b), meaning <a, u> + c x >= b with c < 0.  The
integral of the slice volumes over x needs no slice: it is the volume
of the lifted region itself, perhaps cut by a cap on x, read off that
enumeration's triangulation (moving_volume_integral), or, for one
moving row x <= l(u), off P's moments and one cut of P by l = 0
(single_row_integral), with no enumeration.  The slices
change combinatorial type only at the x-coordinates of the lifted
vertices (Ziegler, *Lectures on Polytopes*), so those are the
breakpoints of the volume as a function of x, and between them the
volume is one polynomial, fitted through the volumes of a few slices
(moving_volume_function), which the tests hold the integral against.
Each slice is read off the same enumeration: it holds no lifted
vertex, so its vertices are the points where the lifted region's edges
cross it, each tight at the rows both ends share (_crossings), as the
cut of single_row_integral is read off P's edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence

from . import lattice
from .errors import DegeneratePolytope, UnboundedPolytope
from .linalg import Vec, int_det, int_primitive, int_solve, rational_primitive
from .piecewise import PiecewisePolynomial, fit_polynomial, poly_trim

Ineq = tuple[tuple[int, ...], Fraction]


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _independent_rows(rows: Sequence[Sequence[int]], size: int) -> list[int] | None:
    """Indices of the first ``size`` rows that are linearly independent,
    taken greedily in order; None when the rows have smaller rank."""
    picked, echelon = [], []
    for i, r in enumerate(rows):
        for c, e in echelon:
            f, ec = r[c], e[c]
            if f:
                r = [a * ec - f * b for a, b in zip(r, e)]
        c = next((c for c, a in enumerate(r) if a), None)
        if c is not None:
            picked.append(i)
            echelon.append((c, r))
            if len(picked) == size:
                return picked
    return None


def _simplicial_start(cone: Sequence[Sequence[int]], size: int) -> tuple[int, list] | None:
    """The from-scratch start of _vertex_bases: the simplicial cone of the
    first ``size`` independent homogenised rows, as (covered, rays), its
    rays the signed columns of their adjugate; None when the rows have
    smaller rank."""
    start = _independent_rows(cone, size)
    if start is None:
        return None
    d, cols = int_solve([cone[i] for i in start],
                        [[int(i == j) for i in range(size)] for j in range(size)])
    covered = sum(1 << i for i in start)
    rays = []
    for i, col in zip(start, cols):
        g = gcd(*col) if d > 0 else -gcd(*col)
        rays.append(([a // g for a in col], covered ^ (1 << i)))
    return covered, rays


def _orthant_start(dim: int) -> tuple[int, list]:
    """The start cone of rows whose first dim are u_i >= 0, as a Newton
    polyhedron's dual rows are: with lam >= 0 they are the identity, so
    the cone is the orthant and its rays are the unit vectors, e_i tight
    at every row but u_i >= 0 and e_dim at every row but lam >= 0."""
    covered = (1 << (dim + 1)) - 1
    return covered, [(tuple([int(i == j) for j in range(dim + 1)]),
                      covered ^ (1 << (i + 1) % (dim + 1))) for i in range(dim + 1)]


def _vertex_bases(dim: int, irows: Sequence[Sequence[int]],
                  start: tuple[int, list] | None = None) -> tuple[dict, bool]:
    """Vertices of {u : <r[:dim], u> >= r[dim] for all integer rows r}, as
    Cramer's reduced (nums, den) keys, each mapped to the bitmask of the
    rows tight at it (bit k for irows[k]), by integer double description,
    and whether the set is bounded (no direction recedes).

    The vertices are the extreme rays (nums, den) with den > 0 of the cone
    {(u, lam) : <r[:dim], u> - r[dim] lam >= 0, lam >= 0}, and those with
    den = 0 recede.  That cone is pointed exactly when its rows have rank
    dim + 1; otherwise the set has no vertex and a line recedes.  Its
    rows are added one at a time to a start cone.  A caller that knows
    the cone of some of the rows passes it as ``start``, (covered, rays):
    covered the bitmask of those rows, bit 0 for lam >= 0 and bit k + 1
    for irows[k], and rays its extreme rays, each a primitive integer
    vector with the bitmask of the covered rows tight at it; the cone
    must be pointed.  Otherwise the start is the simplicial cone of
    dim + 1 independent rows (_simplicial_start).  A row keeps the rays
    on its side and joins each adjacent pair it separates; two rays are
    adjacent when no third ray is tight at every row tight at both.  Each
    ray is a primitive integer vector, kept with the bitmask of the rows
    it is tight at.  That mask is exact: a joined ray is tight at an
    earlier row exactly when both its parents are, since it is a positive
    combination of them, and at the joining row by construction.
    """
    cone = [(0,) * dim + (1,)] + [(*r[:dim], -r[dim]) for r in irows]
    if start is None:
        start = _simplicial_start(cone, dim + 1)
        if start is None:
            return {}, False
    covered, rays = start
    for k, row in enumerate(cone):
        bit = 1 << k
        if covered & bit:
            continue
        kept, pos, neg = [], [], []
        for ray, z in rays:
            v = sum(map(mul, row, ray))
            if v > 0:
                pos.append((v, ray, z))
                kept.append((ray, z))
            elif v < 0:
                neg.append((v, ray, z))
            else:
                kept.append((ray, z | bit))
        for vp, rp, zp in pos:
            for vn, rn, zn in neg:
                common = zp & zn
                if (common.bit_count() < dim - 1
                        or sum(z & common == common for _, z in rays) > 2):
                    continue
                ray = [vp * a - vn * b for a, b in zip(rn, rp)]
                g = gcd(*ray)
                kept.append(([a // g for a in ray], common | bit))
        rays = kept
    return ({(tuple(ray[:dim]), ray[dim]): z >> 1 for ray, z in rays if ray[dim] > 0},
            all(ray[dim] for ray, _ in rays))


def _common_denominator(keys) -> tuple[list[list[int]], int]:
    """(pts, den): the points nums / d of (nums, d) pairs, _vertex_bases'
    keys or _crossings' points, as integer vectors over their least
    common denominator den."""
    den = lcm(*[d for _, d in keys])
    return [[a * (den // d) for a in nums] for nums, d in keys], den


def _over_common_denominator(points: Sequence[Vec]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(pts, den): rational points as integer vectors over their least
    common denominator den."""
    den = lcm(*[x.denominator for v in points for x in v])
    return tuple(tuple([x.numerator * (den // x.denominator) for x in v]) for v in points), den


def _incidences(irows: Sequence[Sequence[int]], pts: Sequence[Sequence[int]],
                den: int) -> list[int]:
    """For each point p / den, the bitmask of the integer rows r tight at
    it, <r[:-1], p> = r[-1] den, by dot products: the incidences of points
    that no vertex enumeration met."""
    return [sum([1 << k for k, r in enumerate(irows) if sum(map(mul, r, p)) == r[-1] * den])
            for p in pts]


def _tight_faces(dim: int, irows: Sequence[Sequence[int]], masks) -> dict | None:
    """The faces that single rows cut out of the convex hull of points
    0, 1, ..., masks[i] the bitmask of the rows tight at point i:
    {bitmask of the points a row is tight at: the first such row}, over
    the rows with a nonzero normal tight at some point, read by
    transposing the masks.  None when the points are flat: at most dim of
    them, or all tight at one row."""
    if len(masks) <= dim:
        return None
    tight = [0] * len(irows)
    for i, z in enumerate(masks):
        bit = 1 << i
        while z:
            low = z & -z
            tight[low.bit_length() - 1] |= bit
            z ^= low
    every = (1 << len(masks)) - 1
    faces = {}
    for mask, r in zip(tight, irows):
        if mask and any(r[:dim]):
            if mask == every:
                return None
            faces.setdefault(mask, r)
    return faces


def _maximal(sets) -> list[int]:
    """The distinct bitmasks ``sets`` that no other one contains: taken in
    decreasing size, each is kept unless a kept one contains it."""
    kept: list[int] = []
    for f in sorted(sets, key=int.bit_count, reverse=True):
        for g in kept:
            if f & g == f:
                break
        else:
            kept.append(f)
    return kept


def _pulling_simplices(dim: int, irows: Sequence[Sequence[int]], masks):
    """Pulling triangulation of {u : <r[:dim], u> >= r[dim]} from its
    vertices 0, 1, ..., masks[i] the bitmask of the rows tight at vertex i.

    Each face is a set of vertices, and the facets of a face F are the
    maximal proper nonempty sets F ∩ {row tight} (rows with a zero normal
    are skipped): no rank test and no hull.  Yields each simplex as the
    indices of the first vertex of each face down a chain of facets, and
    none when some row is tight at every vertex (a flat set).
    """
    tight_sets = _tight_faces(dim, irows, masks)
    if tight_sets is None:
        return
    every = (1 << len(masks)) - 1
    facets_of: dict[int, list[int]] = {}
    stack = [(every, ())]
    while stack:
        face, chain = stack.pop()
        apex_bit = face & -face
        chain += (apex_bit.bit_length() - 1,)
        if face == apex_bit:
            yield chain
            continue
        facets = facets_of.get(face)
        if facets is None:
            faces = {face & m for m in tight_sets} - {face, 0}
            facets = [f for f in _maximal(faces) if not f & apex_bit]
            facets_of[face] = facets
        stack.extend((f, chain) for f in facets)


def _simplex_det(pts: Sequence[Sequence[int]], simplex: Sequence[int]) -> int:
    last = pts[simplex[-1]]
    return int_det([[a - b for a, b in zip(pts[i], last)] for i in simplex[:-1]])


def _pulled_volume(dim: int, irows: Sequence[Sequence[int]],
                   pts: Sequence[Sequence[int]], masks, den: int) -> Fraction:
    """Volume of {u : <r[:dim], u> >= r[dim]}, its vertices given as pts
    over one common denominator den, with their row masks: the integer
    |det| summed over a pulling triangulation, divided by dim! den^dim."""
    total = sum(abs(_simplex_det(pts, s)) for s in _pulling_simplices(dim, irows, masks))
    return Fraction(total, factorial(dim) * den ** dim)


def hull_facets(dim: int, vertices: Sequence[Vec]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Facets of conv(vertices) as sorted (inward primitive normal, offset)
    pairs; none when the points are not full-dimensional.

    With c the mean of the points, the facets are the vertices y of the
    polar {y : <v - c, y> >= -1 for every point v}, each the normal of the
    facet <y, u - c> = -1.  The polar has a vertex only when the v - c have
    rank dim, and it is bounded when they do, since c is then interior.
    With the k points as integer vectors p over their common denominator
    den, its rows are <k p - sum(p), y> >= -k den, and each vertex key
    (nums, d) of their enumeration gives the normal nums made primitive.
    """
    pts, den = _over_common_denominator(vertices)
    k, total = len(pts), [sum(xs) for xs in zip(*pts)]
    polar = [(*[k * a - s for a, s in zip(p, total)], -k * den) for p in pts]
    normals = [int_primitive(nums) for nums, _ in _vertex_bases(dim, polar)[0]]
    return sorted((a, Fraction(min(sum(map(mul, a, p)) for p in pts), den)) for a in normals)


class RationalPolytope:
    """Bounded full-dimensional rational polytope with both representations."""

    __slots__ = ("dimension", "vertices", "inequalities", "integer_rows", "integer_vertices",
                 "denominator", "vertex_masks")

    def __init__(self, dimension: int, vertices: Sequence[Vec],
                 inequalities: Sequence[Ineq]):
        """vertices are tuples of Fractions and inequalities (integer
        normal, Fraction offset) pairs, as from_vertices and
        from_inequalities build them; neither is converted again."""
        self.dimension = dimension
        self.vertices: tuple[Vec, ...] = tuple(vertices)
        self.inequalities: tuple[Ineq, ...] = tuple(inequalities)
        # the inequalities as primitive integer rows (*normal, offset)
        self.integer_rows: tuple[tuple[int, ...], ...] = tuple(
            rational_primitive((*nr, off)) for nr, off in self.inequalities)
        # the vertices as integer vectors over their least common
        # denominator, the r0 of a model's polytope
        self.integer_vertices, self.denominator = _over_common_denominator(self.vertices)
        # for each vertex, the bitmask of the inequalities tight at it
        # (bit k for inequalities[k])
        self.vertex_masks: tuple[int, ...] = self._validate()

    def _validate(self) -> tuple[int, ...]:
        """Refuse repeated vertices, vertices of another arity, and vertices
        tight at fewer than dimension rows or outside a row, tested in
        integers over the vertices' common denominator, and return each
        vertex's tight rows as a bitmask.  A normal of another arity is
        refused when a vertex is tested against it."""
        n = self.dimension
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for v in self.vertices:
            if len(v) != n:
                raise ValueError(f"vertex arity {len(v)} != {n}")
        pts, den = self.integer_vertices, self.denominator
        masks = tuple(_incidences(self.integer_rows, pts, den))
        for v, p, z in zip(self.vertices, pts, masks):
            tight = z.bit_count()
            if tight < n:
                raise ValueError(f"vertex {v} tight on only {tight} inequalities")
            for r in self.integer_rows:
                if len(r) != n + 1:
                    raise ValueError(f"normal arity {len(r) - 1} != {n}")
                if sum(map(mul, r, p)) < r[n] * den:
                    raise ValueError(f"vertex {v} violates an inequality")
        return masks

    @classmethod
    def from_vertices(cls, dimension: int, vertices: Sequence[Sequence]) -> "RationalPolytope":
        """The hull of the points: from_inequalities of its facets."""
        points = sorted({tuple(Fraction(x) for x in v) for v in vertices})
        for v in points:
            if len(v) != dimension:
                raise ValueError(f"vertex arity {len(v)} != {dimension}")
        ineqs = hull_facets(dimension, points)
        if not ineqs:
            raise DegeneratePolytope(f"vertex set is not {dimension}-dimensional")
        return cls.from_inequalities(dimension, ineqs)

    @classmethod
    def from_inequalities(cls, dimension: int, rows: Sequence[tuple[Sequence, object]]) -> "RationalPolytope":
        """Off one vertex enumeration; each facet is the maximal tight set
        of some row, kept once: ((2, 0), 1) gives ((1, 0), 1/2)."""
        irows = [rational_primitive([*nr, off]) for nr, off in rows]
        keys, bounded = _vertex_bases(dimension, irows)
        if not bounded:
            raise UnboundedPolytope("inequality system has a nonzero recession direction")
        faces = _tight_faces(dimension, irows, keys.values())
        if faces is None:
            raise DegeneratePolytope("inequality system has no "
                                     f"{dimension}-dimensional solution set")
        ineqs = []
        for f in _maximal(faces):
            *normal, off = faces[f]
            g = gcd(*normal)
            ineqs.append((tuple([a // g for a in normal]), Fraction(off, g)))
        verts = sorted(tuple([Fraction(a, d) for a in nums]) for nums, d in keys)
        return cls(dimension, verts, sorted(ineqs))

    def bounding_box(self, scale: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
        """The least integer box around scale*P, by integer division of the
        integer vertices scaled by scale = a / b over b den."""
        a, b = Fraction(scale).as_integer_ratio()
        cols, den = list(zip(*self.integer_vertices)), b * self.denominator
        return ([-(-min([a * x for x in c]) // den) for c in cols],
                [max([a * x for x in c]) // den for c in cols])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolytope):
            return NotImplemented
        return (self.dimension == other.dimension
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dimension, self.vertices))

    def __repr__(self) -> str:
        return f"RationalPolytope(dim={self.dimension}, vertices={list(self.vertices)})"


def polytope_from_rays(dimension: int, rays: Sequence[Sequence[int]]) -> RationalPolytope:
    """The polytope {u : <u, ray> >= -1 for every ray}.

    Raises UnboundedPolytope when the rays do not positively span, and
    DegeneratePolytope when the result is not full-dimensional.
    """
    rows = [(tuple(int(x) for x in ray), -1) for ray in rays]
    for ray, _ in rows:
        if len(ray) != dimension:
            raise ValueError(f"ray arity {len(ray)} != {dimension}")
        if all(x == 0 for x in ray):
            raise ValueError("zero ray")
    return RationalPolytope.from_inequalities(dimension, rows)


def _lattice_system(P: RationalPolytope, r):
    """(normals, offsets, lo, hi) of the integer points of r*P for the
    lattice kernels; None when the bounding box holds no integer point."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative scale")
    lo, hi = P.bounding_box(r)
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return ([nr for nr, _ in P.inequalities],
            [_ceil(r * off) for _, off in P.inequalities], lo, hi)


def lattice_points(P: RationalPolytope, r) -> list[tuple[int, ...]]:
    """Integer points of r*P in ascending lex order, exactly."""
    system = _lattice_system(P, r)
    return [] if system is None else lattice.enum_points(*system)


def lattice_fibers(P: RationalPolytope, r) -> list[tuple[tuple[int, ...], int, int]]:
    """The integer points of r*P as lattice.enum_fibers lists them: one
    (prefix, first, last) per nonempty fiber of the last coordinate."""
    system = _lattice_system(P, r)
    return [] if system is None else lattice.enum_fibers(*system)


def euclidean_volume(P: RationalPolytope) -> Fraction:
    """Exact Lebesgue volume via a pulling triangulation of P's own
    vertices and their masks, with no vertex enumeration."""
    return _pulled_volume(P.dimension, P.integer_rows, P.integer_vertices, P.vertex_masks,
                          P.denominator)


def pulled_moments(P: RationalPolytope) -> tuple[tuple[tuple[int, ...], ...], int, int, list[int]]:
    """(pts, den, total, first): P's vertices as integer vectors pts over
    their common denominator den, and the moments of the pulling
    triangulation of euclidean_volume in integers.  total is the sum of
    its simplices' |det|, dim! den^dim vol(P), and first the sum of each
    |det| times the sum of its simplex's vertices, so that the barycenter
    of P is first / ((dim + 1) den total): a simplex's barycenter is the
    mean of its dim + 1 vertices."""
    pts, den = P.integer_vertices, P.denominator
    return (pts, den, *_pulled_sums(P.dimension, P.integer_rows, pts, P.vertex_masks))


def _pulled_sums(dim: int, irows: Sequence[Sequence[int]],
                 pts: Sequence[Sequence[int]], masks) -> tuple[int, list[int]]:
    """(total, first) of pulled_moments for the set of _pulling_simplices
    with integer vertices pts and their row masks."""
    total, first = 0, [0] * dim
    for s in _pulling_simplices(dim, irows, masks):
        w = abs(_simplex_det(pts, s))
        total += w
        first = [f + w * sum(col) for f, col in zip(first, zip(*[pts[i] for i in s]))]
    return total, first


def _affine_moment(a: Sequence[int], b: int, den: int, total: int, first: Sequence[int]) -> int:
    """dim! times the integral of <a, u> - b over a set whose pulled sums
    over the common denominator den are total and first, times
    (dim + 1) den^(dim + 1): its dim! volume total / den^dim times the
    row's value at its barycenter, in integers."""
    return sum(map(mul, a, first)) - (len(first) + 1) * den * b * total


def single_row_integral(P: RationalPolytope, scale: int, row: Sequence[int],
                        moments, edges: Sequence[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """moving_volume_integral(P, scale, [row]) for one moving row
    (*a, c, b), c < 0, with no enumeration, given P's pulled_moments and
    polytope_edges: tau is the largest l^+ / -c at a vertex of scale*P,
    l = <a, u> - b, and the integral is dim! times that of l^+ / -c over
    scale*P, read as scale^dim times the same over P of l = <scale a, u> - b.

    With l >= 0 at every vertex the integral is read off the moments, and
    with l <= 0 it is 0.  Otherwise only the side of the cut l = 0 with
    fewer vertices is triangulated: P's vertices on that side, tight at
    their rows of P and at the cut where l = 0, and the crossing point of
    each edge whose ends lie strictly on opposite sides, tight at the rows
    its ends share and at the cut.  That side's integral is the answer,
    or, on the side l <= 0, is taken off the whole.
    """
    *a, c, b = row
    a = [scale * x for x in a]
    pts, den, total, first = moments
    heights = [sum(map(mul, a, p)) - b * den for p in pts]
    top = max(heights)
    if top <= 0:
        return Fraction(0), Fraction(0)
    n = P.dimension
    tau = Fraction(top, -c * den)
    whole = scale ** n * _affine_moment(a, b, den, total, first)
    if min(heights) >= 0:
        return tau, Fraction(whole, -c * (n + 1) * den ** (n + 1))
    # the side l >= 0 when at most as many vertices lie above as below
    sign = 1 if sum([(h > 0) - (h < 0) for h in heights]) <= 0 else -1
    masks, cut = P.vertex_masks, 1 << len(P.integer_rows)
    points, tight = [], []
    for p, h, z in zip(pts, heights, masks):
        if sign * h >= 0:
            points.append((p, 1))
            tight.append(z | cut * (h == 0))
    crossing, shared = _crossings(pts, heights, masks, edges)
    points += crossing
    tight += [z | cut for z in shared]
    side, m = _common_denominator(points)
    # the triangulation reads only which rows are tight where, and which
    # have a nonzero normal
    part = scale ** n * _affine_moment(
        a, b, den * m, *_pulled_sums(n, (*P.integer_rows, (*a, b)), side, tight))
    return tau, Fraction(part if sign > 0 else whole * m ** (n + 1) - part,
                         -c * (n + 1) * (den * m) ** (n + 1))


def _crossings(pts: Sequence[Sequence[int]], heights: Sequence[int], masks: Sequence[int],
               edges: Sequence[tuple[int, int]]) -> tuple[list[tuple[list[int], int]], list[int]]:
    """Where the edges (i, j) whose ends have heights of strictly opposite
    signs cross height 0: each point as (p, d), the point p / d in the
    units of pts, and the bitmask of the rows tight at it, those tight at
    both ends.  A positive multiple of the heights gives the same points."""
    points, tight = [], []
    for i, j in edges:
        hi, hj = heights[i], heights[j]
        if hi * hj < 0:
            points.append(([hi * y - hj * x for x, y in zip(pts[i], pts[j])], hi - hj))
            tight.append(masks[i] & masks[j])
    return points, tight


def _lone_on_face(tight: Sequence[int]) -> list[tuple[int, int]]:
    """Index pairs of vertices alone on the smallest face holding them, the
    face the rows tight at both cut out, given the bitmask of the rows
    tight at each vertex: the polytope's edges."""
    out = []
    for i, j in combinations(range(len(tight)), 2):
        common = tight[i] & tight[j]
        if sum(t & common == common for t in tight) == 2:
            out.append((i, j))
    return out


def polytope_edges(P: RationalPolytope) -> list[tuple[int, int]]:
    """Index pairs of vertices joined by an edge: the pairs alone on the
    smallest face holding them."""
    return _lone_on_face(P.vertex_masks)


def _lifted_region(P: RationalPolytope, scale: int, moving: Sequence[Sequence[int]],
                   cap=None) -> tuple[list[Sequence[int]], dict, bool]:
    """(rows, keys, bounded): the integer rows (*normal, c, offset),
    meaning <normal, u> + c x >= offset, of scale*P lifted to (u, x),
    then x >= 0, then the ``moving`` rows, already lifted, then x <= cap
    if a cap is given; and _vertex_bases of those rows in dim + 1
    variables, started from the cone of the rows of P x [0, oo).

    That cone's rays are known: one ray (den v, 0, den) per vertex v of
    scale*P, tight at v's rows of P (P.vertex_masks) and at x >= 0, and
    the ray (0, 1, 0), tight at every row of P.  P is bounded, so these
    are all of its rays, and only the moving rows and the cap go through
    the enumeration.  scale is a positive integer.
    """
    dim = P.dimension
    rows: list[Sequence[int]] = [(*r[:dim], 0, scale * r[dim]) for r in P.integer_rows]
    # the bit of x >= 0 in the masks, bit 0 being lam >= 0
    x_bit = 1 << (len(rows) + 1)
    rays = [((0,) * dim + (1, 0), x_bit - 1)]
    for p, z in zip(P.integer_vertices, P.vertex_masks):
        ray = (*[scale * a for a in p], 0, P.denominator)
        g = gcd(*ray)
        rays.append(([a // g for a in ray], z << 1 | x_bit))
    rows += [(0,) * dim + (1, 0), *moving]
    if cap is not None:
        num, cap_den = cap.as_integer_ratio()
        rows.append((0,) * dim + (-cap_den, -num))
    return (rows, *_vertex_bases(dim + 1, rows, (2 * x_bit - 1, rays)))


def moving_volume_function(P: RationalPolytope, scale: int,
                           moving: Sequence[Sequence[int]]) -> PiecewisePolynomial:
    """x -> dim! * vol of the region cut out of scale*P by the ``moving``
    integer rows (*a, c, b), meaning <a, u> + c x >= b with c < 0, on
    [0, tau].

    The region shrinks as x grows and tau is where its volume reaches 0.
    Its combinatorial type changes only at the x-coordinates of the
    vertices of the lifted polyhedron {(u, x) : x >= 0} (Ziegler,
    *Lectures on Polytopes*), so those and 0 are the breakpoints: one
    vertex enumeration of the rows moving_volume_integral reads, started
    from the cone of P x [0, oo) (_lifted_region).  Between breakpoints
    the volume is a polynomial of degree <= dim, fitted through the
    volumes of dim + 1 slices inside the piece, and equal neighbouring
    pieces are merged.  Each slice is read off the same enumeration: no
    lifted vertex lies at its x, so its vertices are the points where the
    lifted region's edges cross x, each tight at the rows both ends share
    (_crossings), and those incidences triangulate it (_pulled_volume).
    Raises DegeneratePolytope when the region has no volume for any x > 0,
    and UnboundedPolytope when the lifted region is unbounded.
    """
    dim = P.dimension
    lifted, keys, bounded = _lifted_region(P, scale, moving)
    if keys and not bounded:
        raise UnboundedPolytope("the lifted region is unbounded")
    pts, den = _common_denominator(keys)
    masks = list(keys.values())
    edges = _lone_on_face(masks)

    def slice_volume(x):
        s, q = x.as_integer_ratio()
        points, tight = _crossings(pts, [q * p[dim] - s * den for p in pts], masks, edges)
        side, m = _common_denominator(points)
        # the lifted rows' first dim entries are the slice's normals
        return factorial(dim) * _pulled_volume(dim, lifted, [p[:dim] for p in side],
                                               tight, den * m)

    cuts = sorted({Fraction(0)} | {Fraction(p[dim], den) for p in pts})
    breakpoints, pieces, last = [cuts[0]], [], None
    for a, b in zip(cuts, cuts[1:]):
        xs = [a + (b - a) * k / (dim + 2) for k in range(1, dim + 2)]
        piece = fit_polynomial(xs, [slice_volume(x) for x in xs])
        trimmed = poly_trim(piece)
        if trimmed == last:
            breakpoints[-1] = b
        else:
            pieces.append(piece)
            breakpoints.append(b)
            last = trimmed
    # rows that flatten the region at some x include a moving row, which
    # empties it past x, as P is full-dimensional: so a zero piece can
    # only be the only piece
    if not pieces or last == ():
        raise DegeneratePolytope("region has no volume for x > 0")
    return PiecewisePolynomial(breakpoints, pieces, degree_bound=dim)


def moving_volume_integral(P: RationalPolytope, scale: int,
                           moving: Sequence[Sequence[int]],
                           cap=None) -> tuple[Fraction, Fraction]:
    """(tau, integral) for the region of moving_volume_function, with no
    profile built: the integral over 0 <= x <= cap of dim! * vol of the
    region at x, and tau, the largest such x at which it is nonempty.

    That integral is dim! times the (dim+1)-volume of the region lifted
    to (u, x) and cut by x >= 0 and x <= cap, so it is read off one
    vertex enumeration of the lifted rows, started from the cone of
    P x [0, oo) (_lifted_region), by _pulled_volume.  An empty lifted
    region gives (0, 0), a flat one the integral 0.  Each moving row
    with c < 0 bounds x, and with neither a moving row nor a cap the
    region is unbounded in x.  A nonempty lifted region that is
    unbounded, as moving rows with c >= 0 alone make it, raises
    UnboundedPolytope.
    """
    if cap is None and not moving:
        raise UnboundedPolytope("no moving row and no cap: x is unbounded")
    dim = P.dimension
    lifted, keys, bounded = _lifted_region(P, scale, moving, cap)
    if not keys:
        return Fraction(0), Fraction(0)
    if not bounded:
        raise UnboundedPolytope("the lifted region is unbounded")
    pts, den = _common_denominator(keys)
    return (Fraction(max(p[dim] for p in pts), den),
            factorial(dim) * _pulled_volume(dim + 1, lifted, pts, keys.values(), den))
