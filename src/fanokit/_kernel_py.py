"""The integer lattice kernels.

These are the only implementations of the package's hot loops:
enumerating integer points of a box that satisfy integer inequality
systems, and testing monomial-ideal membership of chart images of many
points at once.  ``fanokit.lattice`` re-exports them.

All arguments are plain ints / tuples of ints.  Rational scaling happens
in the callers, never here.  Python ints cannot overflow, so large
dilations and coordinates give exact results.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence


def enum_points(normals: Sequence[Sequence[int]], offsets: Sequence[int],
                lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer points u with lo <= u <= hi and <normal, u> >= offset for all rows.

    Output in ascending lexicographic order (itertools.product over ranges
    guarantees it).
    """
    rows = [tuple(int(x) for x in r) for r in normals]
    offs = [int(c) for c in offsets]
    ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
    out = []
    for u in product(*ranges):
        ok = True
        for row, c in zip(rows, offs):
            s = 0
            for a, b in zip(row, u):
                s += a * b
            if s < c:
                ok = False
                break
        if ok:
            out.append(u)
    return out


def dominates_any(point: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """True when point >= g componentwise for at least one generator g."""
    for g in gens:
        if all(p >= e for p, e in zip(point, g)):
            return True
    return False


def filter_points_in_ideals(points: Sequence[Sequence[int]],
                            charts: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Keep points whose image under every chart map lands in that chart's ideal.

    Each chart entry is (rows, shift, gens): the image of u is
    ``rows @ u + shift`` (integer matrix, integer vector), and membership
    means the image dominates some generator.  An empty chart list keeps
    everything.
    """
    out = []
    for u in points:
        keep = True
        for rows, shift, gens in charts:
            img = tuple(sum(a * b for a, b in zip(row, u)) + s
                        for row, s in zip(rows, shift))
            if not dominates_any(img, gens):
                keep = False
                break
        if keep:
            out.append(tuple(int(x) for x in u))
    return out


def minkowski_sum(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All pairwise sums, deduplicated, sorted lex."""
    seen = {tuple(x + y for x, y in zip(g, h)) for g in a for h in b}
    return sorted(seen)


def minimalize(gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Drop generators that dominate another (componentwise), sorted lex.

    One ascending pass suffices: componentwise domination implies lex
    order, so a generator can only dominate entries already kept.
    """
    uniq = sorted({tuple(int(x) for x in g) for g in gens})
    out: list[tuple[int, ...]] = []
    for g in uniq:
        if not dominates_any(g, out):
            out.append(g)
    return out
