"""The integer lattice kernels, the package's hot loops.

``enum_fibers`` enumerates the integer points that satisfy an integer
inequality system inside a box as fibers of the last coordinate,
``expand_fibers`` expands fibers into points, and ``enum_points`` is the
two in one; ``dominates_any``, ``minkowski_sum`` and ``minimalize`` are
the dominance, sum and minimalisation of monomial generators.  The only
calls among them are enum_points' calls of enum_fibers and
expand_fibers, which filtration also calls on the fibers it keeps;
minimalize tests dominance itself, so a tracer that wraps these names at
their callers counts outside calls only:

    from fanokit.lattice import enum_points, minimalize

All arguments are plain ints / tuples of ints.  Rational scaling happens
in the callers, never here.  Python ints cannot overflow, so large
dilations and coordinates give exact results.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import floordiv, ge, mul, sub
from typing import Iterator, Sequence

# the benchmark stamps its records with this and compares only like stamps
BACKEND = "python"


def enum_fibers(normals: Sequence[Sequence[int]], offsets: Sequence[int],
                lo: Sequence[int], hi: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
    """Fibers (prefix, first, last) of the integer points u with
    lo <= u <= hi and <normal, u> >= offset for all rows: the points are
    (*prefix, x) for first <= x <= last.  Only nonempty fibers are listed,
    prefixes in ascending lexicographic order; the box has n >= 1 axes.

    For each prefix u[:-1], every row a x >= v is solved for the last
    coordinate x, v being the row's residual offset - <normal[:-1],
    prefix>: a positive a gives the bound x >= ceil(v / a) = -(v // -a),
    a negative one x <= v // a, and a zero one tests v <= 0.
    """
    # rows ordered by their last coefficient: zero, positive, negative
    rows = sorted(zip(normals, offsets), key=lambda rc: (rc[0][-1] > 0) + 2 * (rc[0][-1] < 0))
    flat = sum(r[-1] == 0 for r, _ in rows)
    cut = sum(r[-1] >= 0 for r, _ in rows)
    up = [-r[-1] for r, _ in rows[flat:cut]]
    down = [r[-1] for r, _ in rows[cut:]]
    out: list[tuple[tuple[int, ...], int, int]] = []
    for p, res in _prefix_residuals(rows, lo, hi):
        if any(v > 0 for v in res[:flat]):
            continue
        first = -min([-lo[-1], *map(floordiv, res[flat:cut], up)])
        last = min([hi[-1], *map(floordiv, res[cut:], down)])
        if first <= last:
            out.append((p, first, last))
    return out


def _prefix_residuals(rows: Sequence[tuple[Sequence[int], int]], lo: Sequence[int],
                      hi: Sequence[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(prefix, [offset - <normal[:-1], prefix> per row]) for the prefixes
    u[:-1] of the box in ascending lex order.  Prefixes come from
    itertools.product over all but the innermost prefix axis; along that
    axis each row's residual steps by minus its coefficient there, so the
    pairing is computed once per row and outer prefix."""
    if len(lo) == 1:
        yield (), [c for _, c in rows]
        return
    k = len(lo) - 2
    step = [r[k] for r, _ in rows]
    for q in product(*(range(a, b + 1) for a, b in zip(lo[:k], hi[:k]))):
        res = [c - sum(map(mul, r, q)) - s * lo[k] for (r, c), s in zip(rows, step)]
        for t in range(lo[k], hi[k] + 1):
            yield (*q, t), res
            res = list(map(sub, res, step))


def expand_fibers(fibers: Sequence[tuple[tuple[int, ...], int, int]]) -> list[tuple[int, ...]]:
    """The points (*prefix, x), first <= x <= last, of the fibers, fiber
    by fiber in order."""
    out: list[tuple[int, ...]] = []
    for p, first, last in fibers:
        out.extend(zip(*map(repeat, p), range(first, last + 1)))
    return out


def enum_points(normals: Sequence[Sequence[int]], offsets: Sequence[int],
                lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer points u with lo <= u <= hi and <normal, u> >= offset for all
    rows, in ascending lexicographic order: the expansion of enum_fibers,
    whose fibers each ascend."""
    return expand_fibers(enum_fibers(normals, offsets, lo, hi))


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
        if not any(all(map(ge, g, h)) for h in out):
            out.append(g)
    return out
