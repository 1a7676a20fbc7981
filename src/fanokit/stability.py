"""Headline semistability invariants: beta, Ding, and the volume bound.

beta pairs the log canonical threshold of a monomial subscheme with the
integral of its blowup volume profile; a negative value certifies that
the model is not Ding semistable, while nonnegative values certify
nothing.  Ding invariants of t-graded ideal sequences on X x A^1 are
evaluated in the product-space form: the limit self-intersection of the
polarisation comes from quotient weight counts w(k), stabilised as a
degree-(n+1) polynomial, and the threshold term is one LP per chart.
verify_volume_bound compares the anticanonical volume against (n+1)^n
exactly and, in the equality case, fingerprints the Seshadri constants
at the fixed points.

The w(k) route here shares no counting code with oracle_h0_quotient;
the test suite holds the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import lattice
from .errors import EmptyOrFull, FanokitError, OutOfDomain, UnsupportedSubscheme
from .filtration import _convolve_step, _stable_leading_difference
from .lct import lct_monomial, lct_on_product_with_line
from .model import ToricFanoModel, anticanonical_volume
from .polytope import lattice_points
from .subscheme import IdealSequenceOnXxA1, MonomialSubscheme
from .volumes import blowup_volume_profile, seshadri_constant

CONSISTENT = "CONSISTENT"
OBSTRUCTS_SEMISTABILITY = "OBSTRUCTS_SEMISTABILITY"


@dataclass(frozen=True)
class BetaReport:
    """One beta evaluation.

    beta = lct_value * anticanonical_volume - volume_integral, always
    exact; the verdict is OBSTRUCTS_SEMISTABILITY exactly when beta is
    negative.
    """

    model: str
    subscheme: str
    lct_value: Fraction
    volume_integral: Fraction
    anticanonical_volume: Fraction
    beta: Fraction
    verdict: str


def beta(X: ToricFanoModel, Z: MonomialSubscheme) -> BetaReport:
    """Threshold-versus-volume invariant of a nonzero proper subscheme.

    The profile integral runs over [0, tau] only, the profile being zero
    past the pseudoeffective threshold.  Both terms are exact: chart data
    on a singular chart is refused by the threshold before any profile is
    built.
    """
    if Z.is_empty or Z.has_zero_chart:
        raise EmptyOrFull(f"{Z.label}: beta needs a nonzero proper subscheme")
    lct_value = lct_monomial(X, Z)
    profile = blowup_volume_profile(X, Z)
    vol = profile.total_volume
    integral = profile.integral()
    value = lct_value * vol - integral
    verdict = OBSTRUCTS_SEMISTABILITY if value < 0 else CONSISTENT
    return BetaReport(model=X.name, subscheme=Z.label, lct_value=lct_value,
                      volume_integral=integral, anticanonical_volume=vol,
                      beta=value, verdict=verdict)


@dataclass(frozen=True)
class DingReport:
    """Ding invariant of one ideal sequence at level r.

    L_power_top is the computed (L-bar^{n+1}): the stabilised (n+1)-st
    finite difference of w(k).  The slope term satisfies
    d = 1 + L_power_top / ((n+1) r^{n+1} r0^{n+1} vol), and
    ding = lct_product - d.  Semiampleness of the induced polarisation
    over the line is an assumption of this evaluation form, recorded in
    the flag, never verified.
    """

    r: int
    r0: int
    M: int
    L_power_top: Fraction
    d: Fraction
    lct_product: Fraction
    ding: Fraction
    hypothesis_semiample_assumed: bool = True


def _sequence_kernel_triples(X: ToricFanoModel, chart_gens: dict,
                             level: int) -> list[tuple]:
    triples = []
    for idx in sorted(chart_gens):
        rows = X.charts[idx].cone_rays
        gens = chart_gens[idx]
        if any(len(g) != len(rows) for g in gens):
            raise UnsupportedSubscheme(
                f"sequence generators on chart {idx} do not match its "
                f"{len(rows)} cone rays")
        triples.append((rows, (level,) * len(rows), gens))
    return triples


def ding_weight_series(X: ToricFanoModel, S: IdealSequenceOnXxA1, r: int,
                       k_max: int = 10) -> tuple[int, ...]:
    """w(k) for k = 1..k_max: minus the dimension of the sections of
    L^{kr} x O(A^1) modulo the k-th power of the sequence ideal.

    The k-th power's t-graded pieces come from the same chartwise
    convolution that drives the filtration weight series; each piece is
    then counted against the section lattice directly, so the quotient
    dimension is k M h0 minus the sum of the piece counts.
    """
    r, k_max = int(r), int(k_max)
    if r < 1 or k_max < 1:
        raise ValueError("r and k_max must be positive")
    M = S.M
    base = {s: dict(S.step(s).chart_gens) for s in range(0, M + 1)}
    universe = sorted(set().union(*(set(d) for d in base.values())))

    ws = []
    table = base
    for k in range(1, k_max + 1):
        if k > 1:
            table = _convolve_step(base, table, 0, M, k, universe)
        level = k * r * X.r0
        pts = lattice_points(X.polytope, level)
        inside = 0
        for s in range(1, k * M + 1):
            triples = _sequence_kernel_triples(X, table[s], level)
            if triples:
                inside += lattice.count_points_in_ideals(pts, triples)
            else:
                inside += len(pts)
        ws.append(-k * M * len(pts) + inside)
    return tuple(ws)


def ding_invariant(X: ToricFanoModel, S: IdealSequenceOnXxA1, r: int,
                   k_max: int = 10) -> DingReport:
    """Ding invariant of the test configuration attached to S at level r.

    Needs -r r0 K to be the Cartier multiple the sequence was written
    for.  The weight counts must stabilise to degree n+1 within k_max
    steps (three vanishing top differences) or NoStabilization is
    raised.  A sequence always carries the (t^M) generator, which keeps
    the threshold LP bounded; the OutOfDomain branch below is defensive.
    """
    ws = ding_weight_series(X, S, r, k_max)
    n = X.dimension
    lead = _stable_leading_difference(ws, n + 1, k_max)
    vol = anticanonical_volume(X)
    d = 1 + lead / ((n + 1) * Fraction(r * X.r0) ** (n + 1) * vol)
    lct_product = lct_on_product_with_line(X, S, Fraction(1, r * X.r0))
    if lct_product is None:
        raise OutOfDomain(
            f"no finite (t)-threshold against the ideal to weight "
            f"1/{r * X.r0}")
    return DingReport(r=r, r0=X.r0, M=S.M, L_power_top=lead, d=d,
                      lct_product=lct_product, ding=lct_product - d)


class VolumeBound(NamedTuple):
    bound: Fraction
    volume: Fraction
    satisfied: bool
    seshadri_check: tuple[tuple[int, Fraction], ...] | None


def verify_volume_bound(X: ToricFanoModel) -> VolumeBound:
    """Compare the anticanonical volume against (n+1)^n exactly.

    When the bound is attained on a smooth model the equality-case
    signature is also computed: the Seshadri constant at every fixed
    point, expected to be n+1 there.  Curves carry no signature, the
    Seshadri scan needing at least two directions.
    """
    n = X.dimension
    bound = Fraction(n + 1) ** n
    volume = anticanonical_volume(X)
    check = None
    if volume == bound and n >= 2 and X.all_charts_smooth:
        check = tuple((idx, seshadri_constant(X, idx))
                      for idx in range(len(X.charts)))
    return VolumeBound(bound=bound, volume=volume,
                       satisfied=volume <= bound, seshadri_check=check)


@dataclass(frozen=True)
class ScanEntry:
    subscheme: str
    report: BetaReport | None
    error: str | None


@dataclass(frozen=True)
class ScanReport:
    """beta over a candidate battery, entry order following input order."""

    model: str
    entries: tuple[ScanEntry, ...]

    @property
    def obstructed(self) -> bool:
        """True when some candidate certifies non-semistability."""
        return any(e.report is not None
                   and e.report.verdict == OBSTRUCTS_SEMISTABILITY
                   for e in self.entries)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f"{e.subscheme}: {e.error}"
                     for e in self.entries if e.error is not None)


def semistability_scan(X: ToricFanoModel,
                       candidates: Iterable[MonomialSubscheme]) -> ScanReport:
    """Run beta over every candidate in input order, collecting
    per-candidate errors: a failed candidate contributes an error entry
    instead of aborting the scan.
    """
    entries = []
    for Z in candidates:
        try:
            entries.append(ScanEntry(subscheme=Z.label, report=beta(X, Z),
                                     error=None))
        except FanokitError as exc:
            entries.append(ScanEntry(subscheme=Z.label, report=None,
                                     error=f"{type(exc).__name__}: {exc}"))
    return ScanReport(model=X.name, entries=tuple(entries))
