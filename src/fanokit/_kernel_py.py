"""The integer lattice kernels.

These are the only implementations of the package's hot loops:
enumerating the integer points that satisfy an integer inequality system
inside a box as fibers of the last coordinate (``enum_fibers``, which
``enum_points`` expands into points), and the dominance, sum and
minimalisation of monomial generators.
``fanokit.lattice`` re-exports them.

All arguments are plain ints / tuples of ints.  Rational scaling happens
in the callers, never here.  Python ints cannot overflow, so large
dilations and coordinates give exact results.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import mul
from typing import Sequence


def enum_fibers(normals: Sequence[Sequence[int]], offsets: Sequence[int],
                lo: Sequence[int], hi: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
    """Fibers (prefix, first, last) of the integer points u with
    lo <= u <= hi and <normal, u> >= offset for all rows: the points are
    (*prefix, x) for first <= x <= last.  Only nonempty fibers are listed,
    prefixes in ascending lexicographic order; the box has n >= 1 axes.

    For each prefix u[:-1], every row is solved for the last coordinate:
    a positive coefficient gives a ceiling bound, a negative one a floor
    bound, and a zero one tests the prefix alone.  Prefixes come from
    itertools.product over ascending ranges.
    """
    rows = [(r[:-1], r[-1], c) for r, c in zip(normals, offsets)]
    above = [(h, a, c) for h, a, c in rows if a > 0]
    below = [(h, a, c) for h, a, c in rows if a < 0]
    flat = [(h, c) for h, a, c in rows if a == 0]
    out: list[tuple[tuple[int, ...], int, int]] = []
    for p in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        if any(sum(map(mul, h, p)) < c for h, c in flat):
            continue
        first = max([lo[-1]] + [(c - sum(map(mul, h, p)) + a - 1) // a
                                for h, a, c in above])
        last = min([hi[-1]] + [(c - sum(map(mul, h, p))) // a
                               for h, a, c in below])
        if first <= last:
            out.append((p, first, last))
    return out


def enum_points(normals: Sequence[Sequence[int]], offsets: Sequence[int],
                lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer points u with lo <= u <= hi and <normal, u> >= offset for all
    rows, in ascending lexicographic order: the expansion of enum_fibers,
    whose fibers each ascend."""
    out: list[tuple[int, ...]] = []
    for p, first, last in enum_fibers(normals, offsets, lo, hi):
        out.extend(zip(*map(repeat, p), range(first, last + 1)))
    return out


def dominates_any(point: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """True when point >= g componentwise for at least one generator g."""
    for g in gens:
        if all(p >= e for p, e in zip(point, g)):
            return True
    return False


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
