"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from fanokit.model import catalog_model
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
