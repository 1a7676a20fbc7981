"""Exact rational polytopes in dimension <= 4.

H-representation rows are (normal, offset) meaning <normal, u> >= offset
with a primitive integer normal.  V-representation is the lex-sorted tuple
of rational vertices.  Construction from either side derives the other, so
a RationalPolytope always carries both and they always describe the same
set.

Sizes here are tiny (at most a dozen facets, a handful of vertices), so
vertex enumeration by n-subsets of inequalities (Cramer's rule on rows
scaled to integers) and hull facets by n-subsets of vertices are entirely
adequate and keep every step exact.  Volumes build no hulls: the rows
that cut a polytope out already say which vertices lie on which face, so
a pulling triangulation reads the facets of every face off those row
incidences and sums integer simplex determinants.  A region whose rows
move linearly in a parameter x takes its breakpoints in x from the
vertices of the region lifted to (u, x), so one vertex enumeration serves
volumes, volume profiles and the recession check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from typing import Sequence

from . import lattice
from .errors import DegeneratePolytope, UnboundedPolytope
from .linalg import Vec, cramer, det, dot, int_det, rational_primitive, vsub
from .piecewise import PiecewisePolynomial, fit_polynomial, poly_trim

Ineq = tuple[tuple[int, ...], Fraction]


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def enumerate_basic_feasible(dim: int, rows: Sequence[tuple[Sequence, object]]) -> list[Vec]:
    """Vertices of {u : <normal, u> >= offset for all rows}, lex sorted.

    Rows may have rational normals.  Unbounded directions are not detected
    here; callers that care run a recession-cone check first.
    """
    irows = [rational_primitive((*nr, off)) for nr, off in rows]
    found: set[tuple[tuple[int, ...], int]] = set()
    for sub in combinations(irows, dim):
        sol = cramer([r[:dim] for r in sub], [r[dim] for r in sub])
        if sol is None:
            continue
        nums, den = sol
        if all(sum(a * x for a, x in zip(r, nums)) >= r[dim] * den for r in irows):
            found.add(sol)
    return sorted(tuple([Fraction(x, den) for x in nums]) for nums, den in found)


def volume(dim: int, rows: Sequence[tuple[Sequence, object]],
           vertices: Sequence[Vec]) -> Fraction:
    """Exact volume of {u : <normal, u> >= offset for all rows}.

    ``vertices`` must be every vertex of that set, each once, as
    enumerate_basic_feasible returns them.  Rows with a zero normal cut out
    no face and are skipped.  The set is lower-dimensional, and the volume
    0, exactly when some other row is tight at every vertex.
    Otherwise each face is a set of vertices, and the facets of a face F
    are the maximal proper nonempty sets F ∩ {row tight}: no rank test and
    no hull is needed.  The pulling triangulation from the first vertex of
    each face gives simplices whose vertices are scaled to integers by the
    common denominator den; the volume is the sum of their |det| over
    dim! * den^dim.
    """
    if len(vertices) <= dim:
        return Fraction(0)
    den = lcm(*[x.denominator for v in vertices for x in v])
    pts = [[x.numerator * (den // x.denominator) for x in v] for v in vertices]
    every = (1 << len(pts)) - 1
    tight_sets = set()
    for nr, off in rows:
        r = rational_primitive((*nr, off))
        if not any(r[:dim]):
            continue
        target = r[dim] * den
        mask = 0
        for i, p in enumerate(pts):
            if sum(a * x for a, x in zip(r, p)) == target:
                mask |= 1 << i
        if mask == every:
            return Fraction(0)
        if mask:
            tight_sets.add(mask)

    facets_of: dict[int, list[int]] = {}
    total = 0
    stack = [(every, ())]
    while stack:
        face, chain = stack.pop()
        apex_bit = face & -face
        chain += (pts[apex_bit.bit_length() - 1],)
        if face == apex_bit:
            total += abs(int_det([[a - b for a, b in zip(p, chain[-1])]
                                  for p in chain[:-1]]))
            continue
        facets = facets_of.get(face)
        if facets is None:
            faces = {face & m for m in tight_sets} - {face, 0}
            facets = [f for f in faces if not f & apex_bit
                      and not any(f != g and f & g == f for g in faces)]
            facets_of[face] = facets
        stack.extend((f, chain) for f in facets)
    return Fraction(total, factorial(dim) * den ** dim)


def _affine_rank(points: Sequence[Vec]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [list(vsub(p, base)) for p in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        piv = next((i for i in range(rank, len(diffs)) if diffs[i][col] != 0), None)
        if piv is None:
            continue
        diffs[rank], diffs[piv] = diffs[piv], diffs[rank]
        for i in range(len(diffs)):
            if i != rank and diffs[i][col]:
                f = diffs[i][col] / diffs[rank][col]
                diffs[i] = [a - f * b for a, b in zip(diffs[i], diffs[rank])]
        rank += 1
    return rank


def _hyperplane_normal(points: Sequence[Vec]) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane through dim points, or None."""
    dim = len(points[0])
    diffs = [vsub(p, points[0]) for p in points[1:]]
    normal = []
    idx = list(range(dim))
    for j in range(dim):
        sub = [[row[c] for c in idx if c != j] for row in diffs]
        minor = det(sub) if sub else Fraction(1)
        normal.append(minor if j % 2 == 0 else -minor)
    if all(x == 0 for x in normal):
        return None
    return rational_primitive(normal)


def hull_facets(dim: int, vertices: Sequence[Vec]) -> list[tuple[tuple[int, ...], Fraction, tuple[Vec, ...]]]:
    """Facets of conv(vertices) as (inward normal, offset, member vertices)."""
    if dim == 1:
        xs = sorted(v[0] for v in vertices)
        return [((1,), xs[0], ((xs[0],),)), ((-1,), -xs[-1], ((xs[-1],),))]
    facets: dict[tuple, tuple] = {}
    for sub in combinations(vertices, dim):
        normal = _hyperplane_normal(list(sub))
        if normal is None:
            continue
        offset = dot(normal, sub[0])
        sides = [dot(normal, v) - offset for v in vertices]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            normal = tuple(-x for x in normal)
            offset = -offset
        else:
            continue
        members = tuple(v for v in vertices if dot(normal, v) == offset)
        if _affine_rank(members) == dim - 1:
            facets[(normal, offset)] = (normal, offset, members)
    return sorted(facets.values(), key=lambda f: (f[0], f[1]))


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
        verts = sorted({tuple(Fraction(x) for x in v) for v in vertices})
        if _affine_rank(verts) < dimension:
            raise DegeneratePolytope(
                f"vertex set spans affine dimension {_affine_rank(verts)} < {dimension}")
        facets = hull_facets(dimension, verts)
        ineqs = [(nr, off) for nr, off, _ in facets]
        hull_verts = enumerate_basic_feasible(dimension, ineqs)
        return cls(dimension, hull_verts, ineqs)

    @classmethod
    def from_inequalities(cls, dimension: int, rows: Sequence[tuple[Sequence, object]]) -> "RationalPolytope":
        norm_rows = [(tuple(Fraction(x) for x in nr), Fraction(off)) for nr, off in rows]
        if _recession_cone_nontrivial(dimension, [nr for nr, _ in norm_rows]):
            raise UnboundedPolytope("inequality system has a nonzero recession direction")
        verts = enumerate_basic_feasible(dimension, norm_rows)
        if not verts:
            raise DegeneratePolytope("inequality system is infeasible")
        if _affine_rank(verts) < dimension:
            raise DegeneratePolytope("solution set is not full-dimensional")
        return cls.from_vertices(dimension, verts)

    def bounding_box(self, scale: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
        lo = [_ceil(scale * min(v[i] for v in self.vertices)) for i in range(self.dimension)]
        hi = [_floor(scale * max(v[i] for v in self.vertices)) for i in range(self.dimension)]
        return lo, hi

    def contains(self, point: Sequence) -> bool:
        return all(dot(nr, point) >= off for nr, off in self.inequalities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolytope):
            return NotImplemented
        return (self.dimension == other.dimension
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dimension, self.vertices))

    def __repr__(self) -> str:
        return f"RationalPolytope(dim={self.dimension}, vertices={list(self.vertices)})"


def _recession_cone_nontrivial(dim: int, normals: Sequence[Vec]) -> bool:
    """True when {d : <normal, d> >= 0 for all normals} contains d != 0.

    The cone is {0} exactly when 0 is interior to the convex hull of the
    normals: the hull is full-dimensional and every facet offset is
    strictly negative.
    """
    if _affine_rank(normals) < dim:
        return True
    return any(off >= 0 for _, off, _ in hull_facets(dim, normals))


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


def lattice_points(P: RationalPolytope, r) -> list[tuple[int, ...]]:
    """Integer points of r*P in ascending lex order, exactly."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative scale")
    if r == 0:
        return [tuple([0] * P.dimension)]
    normals = [nr for nr, _ in P.inequalities]
    offsets = [_ceil(r * off) for _, off in P.inequalities]
    lo, hi = P.bounding_box(r)
    if any(a > b for a, b in zip(lo, hi)):
        return []
    return lattice.enum_points(normals, offsets, lo, hi)


def euclidean_volume(P: RationalPolytope) -> Fraction:
    """Exact Lebesgue volume via a pulling triangulation from the lex-min vertex."""
    return volume(P.dimension, P.inequalities, P.vertices)


def polytope_edges(P: RationalPolytope) -> list[tuple[int, int]]:
    """Index pairs of vertices joined by an edge.

    Two vertices span an edge iff the normals tight at both have rank n-1,
    i.e. the smallest face containing both is one-dimensional.
    """
    n = P.dimension
    tight_sets = []
    for v in P.vertices:
        tight_sets.append([nr for nr, off in P.inequalities if dot(nr, v) == off])
    out = []
    for i in range(len(P.vertices)):
        for j in range(i + 1, len(P.vertices)):
            common = [nr for nr in tight_sets[i]
                      if any(nr == m for m in tight_sets[j])]
            if not common:
                continue
            origin = tuple(Fraction(0) for _ in range(n))
            rank = _affine_rank([origin] + [tuple(Fraction(x) for x in nr)
                                            for nr in common])
            if rank == n - 1:
                out.append((i, j))
    return out


def moving_volume_function(dim: int, rows: Sequence[tuple[Sequence, object]],
                           moving: Sequence[tuple[Sequence, object]]) -> PiecewisePolynomial:
    """x -> dim! * vol of the region cut out by the static ``rows`` and, for
    each moving (a, b), the row <a, u> >= x - b, on [0, tau].

    The region shrinks as x grows and tau is where its volume reaches 0.
    Its combinatorial type changes only at the x-coordinates of the
    vertices of the lifted polyhedron {(u, x)}, so those (the positive
    ones) and 0 are the breakpoints.  Between them the volume is a
    polynomial of degree <= dim, recovered by exact interpolation at dim+1
    samples, and equal neighbouring pieces are merged.  Raises
    DegeneratePolytope when the region has no volume for any x > 0.
    """
    lifted = ([((*nr, 0), off) for nr, off in rows]
              + [((*a, -1), -b) for a, b in moving])
    cuts = sorted({Fraction(0)} | {v[dim] for v in enumerate_basic_feasible(dim + 1, lifted)
                                   if v[dim] > 0})
    nfact = factorial(dim)

    def region_volume(x: Fraction) -> Fraction:
        at_x = list(rows) + [(a, x - b) for a, b in moving]
        return nfact * volume(dim, at_x, enumerate_basic_feasible(dim, at_x))

    breakpoints, pieces = [cuts[0]], []
    for a, b in zip(cuts, cuts[1:]):
        xs = [a + (b - a) * Fraction(i, dim) for i in range(dim + 1)]
        piece = fit_polynomial(xs, [region_volume(x) for x in xs])
        if pieces and poly_trim(piece) == poly_trim(pieces[-1]):
            breakpoints[-1] = b
        else:
            pieces.append(piece)
            breakpoints.append(b)
    # rows that flatten the region at some x include a moving row, which
    # empties it past x, unless static rows flatten it at every x: so a
    # zero piece can only be the only piece
    if not pieces or poly_trim(pieces[-1]) == ():
        raise DegeneratePolytope("region has no volume for x > 0")
    return PiecewisePolynomial(breakpoints, pieces, degree_bound=dim)
