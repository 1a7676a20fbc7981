"""Exact rational polytopes in dimension <= 4.

H-representation rows are (normal, offset) meaning <normal, u> >= offset
with a primitive integer normal.  V-representation is the lex-sorted tuple
of rational vertices.  Construction from either side derives the other, so
a RationalPolytope always carries both and they always describe the same
set.

Vertices are enumerated in integers by the double description method
(Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996) on
the rows scaled to primitive integer vectors: the rows are added one at
a time to the homogenised cone, whose rays with a positive last entry
are the vertices, while a ray with last entry 0 is a recession
direction.  Its work follows the rays it meets, not the n-subsets of the
rows, most of which are not vertices.  A polytope is enumerated once,
and its faces are read off which rows are tight at which vertices
(Ziegler, *Lectures on Polytopes*): the facets are the rows with maximal
tight sets, and a pulling triangulation sums integer simplex
determinants down chains of facets.  Only points need a hull: the facets
of conv(V) are the vertices of its polar about an interior point.  A
region whose rows move linearly in a parameter x is the slice at x of
the region lifted to (u, x) and cut by x >= 0, and one vertex
enumeration of those lifted rows in dim + 1 variables serves both
readers of such a region.  The integral of the slice volumes over x
needs no slice: it is the volume of the lifted region itself, perhaps
cut by a cap on x, read off that enumeration's triangulation
(moving_volume_integral).  The slices change combinatorial type only at
the x-coordinates of the lifted vertices (Ziegler, *Lectures on
Polytopes*), so those are the breakpoints of the volume as a function of
x, and between them the volume is one polynomial, fitted through the
volumes of a few slices (moving_volume_function), which the tests hold
the integral against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial, gcd, lcm
from operator import and_, mul
from typing import Sequence

from . import lattice
from .errors import DegeneratePolytope, UnboundedPolytope
from .linalg import Vec, dot, int_det, int_solve, rational_primitive
from .piecewise import PiecewisePolynomial, fit_polynomial, poly_trim

Ineq = tuple[tuple[int, ...], Fraction]


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


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


def _vertex_bases(dim: int, irows: Sequence[Sequence[int]]) -> tuple[set, bool]:
    """Vertices of {u : <r[:dim], u> >= r[dim] for all integer rows r}, as
    Cramer's reduced (nums, den) keys, by integer double description, and
    whether the set is bounded (no direction recedes).

    The vertices are the extreme rays (nums, den) with den > 0 of the cone
    {(u, lam) : <r[:dim], u> - r[dim] lam >= 0, lam >= 0}, and those with
    den = 0 recede.  That cone is pointed exactly when its rows have rank
    dim + 1; otherwise the set has no vertex and a line recedes.  Its
    rows are added one at a time to the simplicial cone of dim + 1
    independent ones, whose rays are the signed columns of their
    adjugate.  A row keeps the rays on its side and joins each adjacent
    pair it separates; two rays are adjacent when no third ray is tight
    at every row tight at both.  Each ray is a primitive integer vector,
    kept with the bitmask of the rows it is tight at.
    """
    cone = [(0,) * dim + (1,)] + [(*r[:dim], -r[dim]) for r in irows]
    size = dim + 1
    start = _independent_rows(cone, size)
    if start is None:
        return set(), False
    d, cols = int_solve([cone[i] for i in start],
                        [[int(i == j) for i in range(size)] for j in range(size)])
    start_mask = sum(1 << i for i in start)
    rays = []
    for i, col in zip(start, cols):
        g = gcd(*col) if d > 0 else -gcd(*col)
        rays.append(([a // g for a in col], start_mask ^ (1 << i)))
    for k, row in enumerate(cone):
        bit = 1 << k
        if start_mask & bit:
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
    return ({(tuple(ray[:dim]), ray[dim]) for ray, _ in rays if ray[dim] > 0},
            all(ray[dim] for ray, _ in rays))


def enumerate_basic_feasible(dim: int, rows: Sequence[tuple[Sequence, object]]) -> list[Vec]:
    """Vertices of {u : <normal, u> >= offset for all rows}, lex sorted.

    Rows may have rational normals.  The set may be unbounded, as a
    Newton polyhedron is: its recession directions are not vertices.
    """
    irows = [rational_primitive((*nr, off)) for nr, off in rows]
    return sorted(tuple([Fraction(x, den) for x in nums])
                  for nums, den in _vertex_bases(dim, irows)[0])


def _common_denominator(keys) -> tuple[list[list[int]], int]:
    """(pts, den): the points nums / d of _vertex_bases' (nums, d) keys as
    integer vectors over their least common denominator den."""
    den = lcm(*[d for _, d in keys])
    return [[a * (den // d) for a in nums] for nums, d in keys], den


def _tight_faces(dim: int, irows: Sequence[Sequence[int]],
                 pts: Sequence[Sequence[int]], den: int) -> dict | None:
    """The faces of conv(pts) that single rows cut out, pts scaled to
    integers by den: {bitmask of the points a row is tight at: the first
    such row}, over the rows with a nonzero normal tight at some point.
    None when pts are flat: at most dim of them, or all tight at one row."""
    if len(pts) <= dim:
        return None
    every = (1 << len(pts)) - 1
    faces = {}
    for r in irows:
        if not any(r[:dim]):
            continue
        target = r[dim] * den
        mask = 0
        for i, p in enumerate(pts):
            if sum(map(mul, r, p)) == target:
                mask |= 1 << i
        if mask == every:
            return None
        if mask:
            faces.setdefault(mask, r)
    return faces


def _pulling_simplices(dim: int, irows: Sequence[Sequence[int]],
                       pts: Sequence[Sequence[int]], den: int):
    """Pulling triangulation of {u : <r[:dim], u> >= r[dim]} from ``pts``,
    every vertex of that set once, scaled to integers by den.

    Each face is a set of vertices, and the facets of a face F are the
    maximal proper nonempty sets F ∩ {row tight} (rows with a zero normal
    are skipped): no rank test and no hull.  Yields each simplex as the
    indices of the first vertex of each face down a chain of facets, and
    none when some row is tight at every vertex (a flat set).
    """
    tight_sets = _tight_faces(dim, irows, pts, den)
    if tight_sets is None:
        return
    every = (1 << len(pts)) - 1
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
            facets = [f for f in faces if not f & apex_bit
                      and not any(f != g and f & g == f for g in faces)]
            facets_of[face] = facets
        stack.extend((f, chain) for f in facets)


def _simplex_det(pts: Sequence[Sequence[int]], simplex: Sequence[int]) -> int:
    last = pts[simplex[-1]]
    return int_det([[a - b for a, b in zip(pts[i], last)] for i in simplex[:-1]])


def _pulled_volume(dim: int, irows: Sequence[Sequence[int]],
                   pts: Sequence[Sequence[int]], den: int) -> Fraction:
    """Volume of {u : <r[:dim], u> >= r[dim]}, its vertices given as pts
    over one common denominator den: the integer |det| summed over a
    pulling triangulation, divided by dim! den^dim."""
    total = sum(abs(_simplex_det(pts, s)) for s in _pulling_simplices(dim, irows, pts, den))
    return Fraction(total, factorial(dim) * den ** dim)


def volume(dim: int, rows: Sequence[tuple[Sequence, object]]) -> Fraction:
    """Exact volume of the bounded set {u : <normal, u> >= offset for all
    rows}, off one vertex enumeration of its rows."""
    irows = [rational_primitive((*nr, off)) for nr, off in rows]
    return _pulled_volume(dim, irows, *_common_denominator(_vertex_bases(dim, irows)[0]))


def hull_facets(dim: int, vertices: Sequence[Vec]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Facets of conv(vertices) as sorted (inward primitive normal, offset)
    pairs; none when the points are not full-dimensional.

    With c the mean of the points, the facets are the vertices y of the
    polar {y : <v - c, y> >= -1 for every point v}, each the normal of the
    facet <y, u - c> = -1.  The polar has a vertex only when the v - c have
    rank dim, and it is bounded when they do, since c is then interior.
    """
    c = [Fraction(sum(xs), len(vertices)) for xs in zip(*vertices)]
    polar = [([x - m for x, m in zip(v, c)], -1) for v in vertices]
    facets = []
    for y in enumerate_basic_feasible(dim, polar):
        normal = rational_primitive(y)
        facets.append((normal, min(dot(normal, v) for v in vertices)))
    return sorted(facets)


class RationalPolytope:
    """Bounded full-dimensional rational polytope with both representations."""

    __slots__ = ("dimension", "vertices", "inequalities")

    def __init__(self, dimension: int, vertices: Sequence[Sequence],
                 inequalities: Sequence[Ineq]):
        self.dimension = dimension
        self.vertices: tuple[Vec, ...] = tuple(
            tuple(Fraction(x) for x in v) for v in vertices)
        self.inequalities: tuple[Ineq, ...] = tuple(
            (tuple(int(a) for a in nr), Fraction(off)) for nr, off in inequalities)
        self._validate()

    def _validate(self) -> None:
        n = self.dimension
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for v in self.vertices:
            if len(v) != n:
                raise ValueError(f"vertex arity {len(v)} != {n}")
            tight = sum(1 for nr, off in self.inequalities if dot(nr, v) == off)
            if tight < n:
                raise ValueError(f"vertex {v} tight on only {tight} inequalities")
            if any(dot(nr, v) < off for nr, off in self.inequalities):
                raise ValueError(f"vertex {v} violates an inequality")

    @classmethod
    def from_vertices(cls, dimension: int, vertices: Sequence[Sequence]) -> "RationalPolytope":
        points = sorted({tuple(Fraction(x) for x in v) for v in vertices})
        ineqs = hull_facets(dimension, points)
        if not ineqs:
            raise DegeneratePolytope(f"vertex set is not {dimension}-dimensional")
        return cls(dimension, [points[i] for (i,) in _lone_on_face(ineqs, points, 1)], ineqs)

    @classmethod
    def from_inequalities(cls, dimension: int, rows: Sequence[tuple[Sequence, object]]) -> "RationalPolytope":
        """Off one vertex enumeration; each facet is the maximal tight set
        of some row, kept once: ((2, 0), 1) gives ((1, 0), 1/2)."""
        irows = [rational_primitive([*map(Fraction, nr), Fraction(off)]) for nr, off in rows]
        keys, bounded = _vertex_bases(dimension, irows)
        if not bounded:
            raise UnboundedPolytope("inequality system has a nonzero recession direction")
        pts, den = _common_denominator(keys)
        faces = _tight_faces(dimension, irows, pts, den)
        if faces is None:
            raise DegeneratePolytope("inequality system has no "
                                     f"{dimension}-dimensional solution set")
        ineqs = []
        for f, (*normal, off) in faces.items():
            if not any(f != h and f & h == f for h in faces):
                g = gcd(*normal)
                ineqs.append((tuple([a // g for a in normal]), Fraction(off, g)))
        verts = sorted(tuple([Fraction(a, den) for a in p]) for p in pts)
        return cls(dimension, verts, sorted(ineqs))

    def bounding_box(self, scale: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
        lo = [_ceil(scale * min(v[i] for v in self.vertices)) for i in range(self.dimension)]
        hi = [_floor(scale * max(v[i] for v in self.vertices)) for i in range(self.dimension)]
        return lo, hi

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
    rows = [(tuple(int(x) for x in ray), Fraction(-1)) for ray in rays]
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
    vertices, with no vertex enumeration."""
    irows = [rational_primitive((*nr, off)) for nr, off in P.inequalities]
    den = lcm(*[x.denominator for v in P.vertices for x in v])
    pts = [[int(x * den) for x in v] for v in P.vertices]
    return _pulled_volume(P.dimension, irows, pts, den)


def _lone_on_face(ineqs: Sequence[Ineq], points: Sequence[Vec],
                  k: int) -> list[tuple[int, ...]]:
    """Index k-tuples of points alone on the smallest face holding them,
    the face the rows tight at all k cut out: k = 1 picks a polytope's
    vertices among its points, and k = 2 its edges among its vertices."""
    tight = [sum(1 << r for r, (nr, off) in enumerate(ineqs) if dot(nr, p) == off)
             for p in points]
    out = []
    for subset in combinations(range(len(points)), k):
        common = reduce(and_, [tight[i] for i in subset])
        if sum(t & common == common for t in tight) == k:
            out.append(subset)
    return out


def polytope_edges(P: RationalPolytope) -> list[tuple[int, int]]:
    """Index pairs of vertices joined by an edge: the pairs alone on the
    smallest face holding them."""
    return _lone_on_face(P.inequalities, P.vertices, 2)


def _lifted_rows(dim: int, rows: Sequence[tuple[Sequence, object]],
                 moving: Sequence[tuple[Sequence, object]]) -> list[tuple[int, ...]]:
    """The region cut out by the static ``rows`` and, for each moving
    (a, b), the row <a, u> >= x - b, lifted to (u, x) and cut by x >= 0:
    integer rows (*normal, c, offset) meaning <normal, u> + c x >= offset."""
    return ([rational_primitive((*nr, 0, off)) for nr, off in rows]
            + [rational_primitive((*a, -1, -b)) for a, b in moving]
            + [(0,) * dim + (1, 0)])


def moving_volume_function(dim: int, rows: Sequence[tuple[Sequence, object]],
                           moving: Sequence[tuple[Sequence, object]]) -> PiecewisePolynomial:
    """x -> dim! * vol of the region cut out by the static ``rows`` and, for
    each moving (a, b), the row <a, u> >= x - b, on [0, tau].

    The region shrinks as x grows and tau is where its volume reaches 0.
    Its combinatorial type changes only at the x-coordinates of the
    vertices of the lifted polyhedron {(u, x) : x >= 0} (Ziegler,
    *Lectures on Polytopes*), so those and 0 are the breakpoints: one
    vertex enumeration of the rows moving_volume_integral reads.  Between
    breakpoints the volume is a polynomial of degree <= dim, fitted
    through the volumes of dim + 1 slices inside the piece, and equal
    neighbouring pieces are merged.
    Raises DegeneratePolytope when the region has no volume for any x > 0.
    """
    def slice_volume(x):
        at_x = [*rows, *[(a, x - b) for a, b in moving]]
        return factorial(dim) * volume(dim, at_x)

    keys, _ = _vertex_bases(dim + 1, _lifted_rows(dim, rows, moving))
    cuts = sorted({Fraction(0)} | {Fraction(nums[dim], den) for nums, den in keys})
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
    # empties it past x, unless static rows flatten it at every x: so a
    # zero piece can only be the only piece
    if not pieces or last == ():
        raise DegeneratePolytope("region has no volume for x > 0")
    return PiecewisePolynomial(breakpoints, pieces, degree_bound=dim)


def moving_volume_integral(dim: int, rows: Sequence[tuple[Sequence, object]],
                           moving: Sequence[tuple[Sequence, object]],
                           cap=None) -> tuple[Fraction, Fraction]:
    """(tau, integral) for the region of moving_volume_function, with no
    profile built: the integral over 0 <= x <= cap of dim! * vol of the
    region at x, and tau, the largest such x at which it is nonempty.

    That integral is dim! times the (dim+1)-volume of the region lifted
    to (u, x) and cut by x >= 0 and x <= cap, so it is read off one
    vertex enumeration of the lifted rows, by _pulled_volume.  An empty
    lifted region gives (0, 0), a flat one the integral 0.  The static
    rows must cut out a bounded set; each moving row then bounds x, and
    with neither a moving row nor a cap the region is unbounded in x.
    """
    if cap is None and not moving:
        raise UnboundedPolytope("no moving row and no cap: x is unbounded")
    lifted = _lifted_rows(dim, rows, moving)
    if cap is not None:
        lifted.append(rational_primitive((0,) * dim + (-1, -Fraction(cap))))
    keys, _ = _vertex_bases(dim + 1, lifted)
    if not keys:
        return Fraction(0), Fraction(0)
    pts, den = _common_denominator(keys)
    return (Fraction(max(p[dim] for p in pts), den),
            factorial(dim) * _pulled_volume(dim + 1, lifted, pts, den))
