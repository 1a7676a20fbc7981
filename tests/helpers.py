"""Independent oracles used by the test suite.

Nothing in here imports computational code from the package beyond plain
data types; every quantity is recomputed with a different algorithm and,
where feasible, different arithmetic (explicit Fraction loops instead of
the integer kernels).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd, lcm

from fanokit.subscheme import IdealSequenceOnXxA1, MonomialSubscheme


def _pseudo_angle(dx: Fraction, dy: Fraction):
    """Exact rational key strictly increasing with the true angle in [0, 2pi)."""
    if dx > 0 and dy >= 0:
        return (0, dy / (dx + dy))
    if dx <= 0 < dy:
        return (1, -dx / (-dx + dy))
    if dx < 0 and dy <= 0:
        return (2, -dy / (-dx - dy))
    return (3, dx / (dx - dy))


def shoelace_area(vertices) -> Fraction:
    """Area of a convex polygon given in any order (sorted internally by angle)."""
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    ordered = sorted(verts, key=lambda v: _pseudo_angle(v[0] - cx, v[1] - cy))
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def box_lattice_points(inequalities, lo, hi) -> list[tuple[int, ...]]:
    """Integer points in the box satisfying <normal,u> >= offset rows, sorted.

    Fraction arithmetic and reversed iteration order on purpose: this is
    the independent twin of the package's integer kernel.
    """
    rows = [(tuple(Fraction(a) for a in nr), Fraction(off)) for nr, off in inequalities]
    ranges = [range(int(b), int(a) - 1, -1) for a, b in zip(lo, hi)]
    return sorted(u for u in product(*ranges)
                  if all(sum(a * x for a, x in zip(nr, u)) >= off for nr, off in rows))


def lattice_barycenter(X) -> tuple[Fraction, ...]:
    """The barycenter of X's polytope P from lattice sums, with no
    triangulation: over the multiples k r0 P, lattice polytopes, the
    number of integer points and their coordinate sums are polynomials in
    k of degrees n and n + 1 (Ehrhart; weighted Ehrhart for the sums),
    with leading coefficients r0^n vol(P) and r0^(n+1) times the
    integral of u over P.  Each leading difference is read from k = 0 and
    from k = 1, and the two must agree: the difference has stabilised."""
    P, n, s = X.polytope, X.dimension, X.r0
    counts, sums = [], []
    for k in range(n + 3):
        lo = [k * s * min(v[i] for v in P.vertices) for i in range(n)]
        hi = [k * s * max(v[i] for v in P.vertices) for i in range(n)]
        pts = box_lattice_points([(nr, k * s * off) for nr, off in P.inequalities], lo, hi)
        counts.append(len(pts))
        sums.append([sum(u[i] for u in pts) for i in range(n)])

    def lead(values, degree):
        first, second = (finite_difference_leading(values[j:], degree) for j in (0, 1))
        assert first == second, "the leading difference has not stabilised"
        return first

    size = lead(counts, n)
    return tuple(lead([m[i] for m in sums], n + 1) / (s * size) for i in range(n))


def basic_feasible_points(dim, rows):
    """Vertices of {u : <normal, u> >= offset for all rows}, lex sorted.

    Gauss-Jordan elimination in Fractions over every dim-subset of rows,
    then a feasibility check against all rows; the package enumerates the
    vertices by integer double description instead.
    """
    rows = [(tuple(Fraction(a) for a in nr), Fraction(off)) for nr, off in rows]
    found = set()
    for sub in combinations(rows, dim):
        m = [list(nr) + [off] for nr, off in sub]
        for col in range(dim):
            piv = next((r for r in range(col, dim) if m[r][col] != 0), None)
            if piv is None:
                break
            m[col], m[piv] = m[piv], m[col]
            m[col] = [x / m[col][col] for x in m[col]]
            for r in range(dim):
                if r != col and m[r][col] != 0:
                    m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
        else:
            u = tuple(m[i][dim] for i in range(dim))
            if all(sum(a * x for a, x in zip(nr, u)) >= off for nr, off in rows):
                found.add(u)
    return sorted(found)


def newton_dual_points(gens):
    """Vertices of {w >= 0 : <g, w> >= 1 for every generator g}, lex
    sorted, in Fractions: basic_feasible_points on those rows."""
    n = len(gens[0])
    rows = [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
    return basic_feasible_points(n, rows + [(g, 1) for g in gens])


def lifted_rays(int_rows) -> set:
    """Each integer row (*a, c, b) with c < 0 on its ray, scaled in
    Fractions to x entry c = -1; AssertionError unless the rows are
    distinct and primitive."""
    assert len(set(int_rows)) == len(int_rows), "a row is repeated"
    out = set()
    for row in int_rows:
        assert gcd(*row) == 1 and row[-2] < 0, f"{row} is not primitive with c < 0"
        out.add(tuple(Fraction(a, -row[-2]) for a in row))
    return out


def least_edge_length(rays, vertex) -> Fraction:
    """Least lattice length of the edges of P = {u : <u, ray> >= -1} at a
    smooth vertex: the Seshadri constant of -K at its fixed point (Di
    Rocco, *Generation of k-jets on toric varieties*, 1999).

    The edges leave the vertex v along the basis e_j dual to the n rays
    tight at v, <rho_i, e_j> = delta_ij, which is primitive because the
    chart is smooth: the columns of the inverse of those rays, by
    Gauss-Jordan elimination in Fractions.  The edge along e_j ends at
    max{t : v + t e_j in P}, the least (<rho, v> + 1) / -<rho, e_j> over
    the rays rho with <rho, e_j> < 0.
    """
    def pair(a, b):
        return sum(Fraction(x) * y for x, y in zip(a, b))

    n = len(vertex)
    tight = [ray for ray in rays if pair(ray, vertex) == -1]
    assert len(tight) == n, "not a simple vertex"
    m = [[Fraction(a) for a in ray] + [Fraction(int(i == j)) for j in range(n)]
         for i, ray in enumerate(tight)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    lengths = []
    for j in range(n):
        e = [m[i][n + j] for i in range(n)]
        lengths.append(min((pair(ray, vertex) + 1) / -pair(ray, e)
                           for ray in rays if pair(ray, e) < 0))
    return min(lengths)


def leibniz_det(rows) -> Fraction:
    """Determinant as the signed sum over all permutations (Leibniz); the
    empty matrix has determinant 1."""
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def fraction_horner(coeffs, x) -> Fraction:
    """sum(c_j x^j), one Fraction multiply and add per coefficient."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


def subscheme_to_dict(Z) -> dict:
    """A subscheme in the file format that config and reportio read."""
    return {"label": Z.label, "dim": Z.dimension,
            "charts": {str(i): [list(g) for g in gens]
                       for i, gens in sorted(Z.chart_gens.items())}}


def fan_image(X, matrix, Z, label):
    """Z moved by the lattice map of N with the given rows, which must
    permute the rays, found through the chart vertices: the chart at v
    goes to the chart at the vertex v' with <g rho, v'> = <rho, v> for
    every ray rho, and the exponent there on g rho is Z's exponent on
    rho."""
    def image(v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in matrix)

    def pair(a, b):
        return sum(Fraction(x) * y for x, y in zip(a, b))

    preimage = {image(rho): rho for rho in X.rays}
    gens = {}
    for idx, chart_gens in Z.chart_gens.items():
        src = X.charts[idx]
        j = next(j for j, c in enumerate(X.charts)
                 if all(pair(r, c.vertex) == pair(preimage[r], src.vertex)
                        for r in X.rays))
        at = [src.cone_rays.index(preimage[r]) for r in X.charts[j].cone_rays]
        gens[j] = tuple(tuple(e[i] for i in at) for e in chart_gens)
    return MonomialSubscheme(label=label, dimension=Z.dimension, chart_gens=gens)


def sequence_power(S, m):
    """The sequence whose induced ideal on X x A^1 is the m-th power of
    S's: its step s, for s = 1 .. m M, is the sum over j_1 + ... + j_m = s
    of the products I_{j_1} ... I_{j_m}, with I_0 the unit ideal.

    Products are expanded generator by generator, one factor at a time;
    the package reads the same power off level tables instead.
    """
    dim, M = S.steps[0].dimension, S.M
    unit = {(0,) * dim}
    charts = sorted(set().union(*(step.chart_gens for step in S.steps)))
    sums = {}
    for c in charts:
        factor = [unit] + [unit if step.gens_on(c) is None else set(step.gens_on(c))
                           for step in S.steps]
        acc = factor
        for _ in range(m - 1):
            acc = [{tuple(a + b for a, b in zip(g, h))
                    for i in range(max(0, s - M), min(s, len(acc) - 1) + 1)
                    for g in acc[i] for h in factor[s - i]}
                   for s in range(len(acc) + M)]
        sums[c] = acc
    return IdealSequenceOnXxA1(steps=tuple(
        MonomialSubscheme(label=f"pow{m}[{s}]", dimension=dim,
                          chart_gens={c: tuple(sums[c][s]) for c in charts})
        for s in range(1, m * M + 1)))


def hull_facets_longhand(dim, points):
    """Facets of conv(points) as sorted (primitive inward normal, offset)
    pairs, or None when the points are not full-dimensional.

    Tries the hyperplane through every dim of the points, in Fractions: its
    normal is the vector of signed maximal minors of their differences,
    zero when they are affinely dependent.  It is a facet when every point
    lies on one side of it; a hyperplane holding every point, or none
    found at all, means a flat set.
    """
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    facets = set()
    for sub in combinations(pts, dim):
        diffs = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        normal = [(-1) ** j * leibniz_det([r[:j] + r[j + 1:] for r in diffs])
                  for j in range(dim)]
        if not any(normal):
            continue
        sides = [sum(a * (x - y) for a, x, y in zip(normal, p, sub[0])) for p in pts]
        if all(s == 0 for s in sides):
            return None
        if all(s <= 0 for s in sides):
            normal = [-a for a in normal]
        elif not all(s >= 0 for s in sides):
            continue
        den = lcm(*[a.denominator for a in normal])
        ints = [int(a * den) for a in normal]
        g = gcd(*ints)
        normal = tuple(a // g for a in ints)
        facets.add((normal, min(sum(a * x for a, x in zip(normal, p)) for p in pts)))
    return sorted(facets) or None


def finite_difference_leading(values, degree) -> Fraction:
    """Leading coefficient of the degree-d polynomial through values at 0,1,2,...

    Requires len(values) >= degree + 1; uses the first degree+1 entries.
    """
    diffs = [Fraction(v) for v in values]
    for _ in range(degree):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs[0] / factorial(degree)


def ehrhart_volume(count_at, dim, stride=1) -> Fraction:
    """Volume of a polytope from lattice counts c(stride*k), k = 0..dim.

    The counts grow like vol * (stride*k)^dim, so the dim-th finite
    difference recovers vol * stride^dim * dim! exactly once the counting
    function is polynomial along the stride.
    """
    values = [count_at(stride * k) for k in range(dim + 1)]
    lead = finite_difference_leading(values, dim)
    return lead / Fraction(stride) ** dim


def bruteforce_lct_chart(gens, wmax=6):
    """min (sum w) / (min_g <w,g>) over nonzero integer weights 0 <= w_i <= wmax.

    Returns None when every enumerated weight has valuation 0 on the ideal
    (unit-like within the box).  The box is verified against lct_chart on the
    fixed seeds used by the suite.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens:
        return None
    n = len(gens[0])
    best = None
    for w in product(range(wmax + 1), repeat=n):
        if all(x == 0 for x in w):
            continue
        val = min(sum(a * b for a, b in zip(w, g)) for g in gens)
        if val <= 0:
            continue
        ratio = Fraction(sum(w), val)
        if best is None or ratio < best:
            best = ratio
    return best


def monomial_power_membership(exponent, gens, power) -> bool:
    """Is x^exponent in the power I^power of the monomial ideal with these gens?

    Direct expansion of all ways to write the exponent as a sum of `power`
    generators plus slack; done by recursion so it shares nothing with the
    Minkowski-sum route in the package.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    exponent = tuple(int(x) for x in exponent)
    if power <= 0:
        return all(e >= 0 for e in exponent)

    def rec(remaining, k):
        if any(e < 0 for e in remaining):
            return False
        if k == 0:
            return True
        for g in gens:
            if rec(tuple(e - x for e, x in zip(remaining, g)), k - 1):
                return True
        return False

    return rec(exponent, power)
