"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from math import floor
from operator import mul

from hypothesis import strategies as st

from fanokit.linalg import int_primitive
from fanokit.model import CATALOG_RAYS, catalog_model
from fanokit.subscheme import IdealSequenceOnXxA1, MonomialSubscheme, product

# drawn per chart and factor; hypothesis shrinks towards the first entry
_CHART_KINDS = ("unit",) * 4 + ("zero",) + ("gens",) * 5


@st.composite
def decreasing_sequences(draw, models=("P1", "P2", "P1xP1", "dP6"),
                         max_steps=3):
    """(model, sequence) whose steps are cumulative products A_1 ... A_j
    of random monomial subschemes, so they decrease by construction.

    Each factor is the unit ideal, the zero ideal, or up to three random
    monomials on every chart independently, so steps are unit on some
    charts and zero on others.
    """
    X = catalog_model(draw(st.sampled_from(models)))
    n = X.dimension
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    steps = []
    for j in range(draw(st.integers(1, max_steps))):
        gens = {}
        for c in range(len(X.charts)):
            kind = draw(st.sampled_from(_CHART_KINDS))
            if kind == "zero":
                gens[c] = ()
            elif kind == "gens":
                gens[c] = tuple(draw(st.lists(monomials, min_size=1,
                                              max_size=3)))
        factor = MonomialSubscheme(label=f"a{j + 1}", dimension=n,
                                   chart_gens=gens)
        steps.append(factor if not steps else product(steps[-1], factor))
    return X, IdealSequenceOnXxA1(steps=tuple(steps))


@st.composite
def single_rows(draw):
    """(model, scale, row, cap): a catalog model, a scale s in 1..3, one
    moving row (*a, c, b), c < 0, meaning <a, u> + c x >= b on s*P, and
    a cap on x: none, 0, small, or past the row's largest value
    l = (<a, u> - b) / -c on s*P.

    b is the height <a, v> of a vertex v of s*P, so that the row is >= 0
    and tight at its lowest vertex, <= 0 with a flat region at its
    highest, and cut through a vertex otherwise, or any integer from just
    below the lowest to just above the highest, where one side of the cut
    may be empty.  Every catalog polytope is a lattice polytope, so the
    heights are integers.
    """
    X = catalog_model(draw(st.sampled_from(sorted(CATALOG_RAYS))))
    scale = draw(st.integers(1, 3))
    a = draw(st.tuples(*[st.integers(-3, 3)] * X.dimension))
    heights = sorted(int(scale * sum(map(mul, a, v)))
                     for v in X.polytope.vertices)
    b = draw(st.sampled_from(heights) | st.integers(heights[0] - 2, heights[-1] + 2))
    *a, c, b = int_primitive((*a, -draw(st.integers(1, 3)), b))
    top = floor(max(scale * sum(map(mul, a, v)) - b
                    for v in X.polytope.vertices) / -c)
    cap = draw(st.sampled_from([None, 0]) | st.integers(1, 3)
               | st.integers(max(top, 0) + 1, max(top, 0) + 3))
    return X, scale, (*a, c, b), cap
