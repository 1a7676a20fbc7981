"""Headline semistability invariants: beta, Ding, and the volume bound.

beta pairs the log canonical threshold of a monomial subscheme with the
integral of its blowup volume profile, read with no profile built
(volumes.region_integral): off the barycenter of P when the region has
one moving row, else off the lifted region's vertices; a
negative value certifies that the model is not Ding semistable, while
nonnegative values certify nothing.  Ding invariants of t-graded ideal
sequences on X x A^1 are evaluated in the product-space form: the limit
self-intersection of the polarisation is the exact leading integral that
filtration slopes read (filtration._leading_integral, the integral of
the concave transform over r*r0*P, off the same kind of region),
less the (n+1) M (r r0)^n vol(-K) of the t^M shift, and the threshold
term is read off the same dual vertices, built once per chart.  The
quotient weight counts w(k) of the k-th powers count the same
self-intersection in lattice points; they are checks, in oracles, that
the acceptance criteria and the tests hold the integral against.
verify_volume_bound compares the anticanonical volume against (n+1)^n
exactly and, in the equality case, fingerprints the Seshadri constants
at the fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import EmptyOrFull, FanokitError
from .filtration import _leading_integral, _level
from .lct import lct_monomial, product_line_threshold
from .model import ToricFanoModel, anticanonical_volume
from .subscheme import IdealSequenceOnXxA1, MonomialSubscheme, product_dual_vertices
from .volumes import _moving_rows, region_integral, seshadri_constant

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

    The volume integral is the profile's integral over [0, tau], the
    profile being zero past the pseudoeffective threshold, read by
    volumes.region_integral with no profile built: for
    one moving row, as points, thickened points and boundary divisors
    give, it is vol(-K) times that row's height at the barycenter of P,
    and otherwise the volume of the lifted region, off one vertex
    enumeration of it.  Both terms are exact: data on a singular chart
    other than a multiple of a boundary divisor, and data written for
    another fan, is refused by the threshold, once, before the region
    is read.
    """
    if Z.is_empty or Z.has_zero_chart:
        raise EmptyOrFull(f"{Z.label}: beta needs a nonzero proper subscheme")
    lct_value = lct_monomial(X, Z)
    _, integral = region_integral(X, 1, _moving_rows(X, Z))
    vol = anticanonical_volume(X)
    value = lct_value * vol - integral
    verdict = OBSTRUCTS_SEMISTABILITY if value < 0 else CONSISTENT
    return BetaReport(model=X.name, subscheme=Z.label, lct_value=lct_value,
                      volume_integral=integral, anticanonical_volume=vol,
                      beta=value, verdict=verdict)


class DingReport(NamedTuple):
    """Ding invariant of one ideal sequence at level r.

    L_power_top is the computed (L-bar^{n+1}): the exact leading
    integral of the sequence over r*r0*P less (n+1) M (r r0)^n vol(-K),
    the limit of the (n+1)-st finite difference of the quotient weight
    counts w(k) of its k-th powers.  The slope term satisfies
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


def ding_invariant(X: ToricFanoModel, S: IdealSequenceOnXxA1, r: int,
                   k_max: int = 10) -> DingReport:
    """Ding invariant of the test configuration attached to S at level r.

    Needs -r r0 K to be the Cartier multiple the sequence was written
    for; r must be a positive integer (filtration._level).  L_power_top is exact, read off the leading integral with no
    power budget.  k_max is accepted and ignored: the benchmark harness,
    perfbench/run.py, still passes it, and it goes when that call does.
    """
    r = _level(r)
    n = X.dimension
    vol = anticanonical_volume(X)
    scale = r * X.r0
    duals = product_dual_vertices(X, S.steps)
    lead = _leading_integral(X, r, S.M, duals) - (n + 1) * S.M * scale ** n * vol
    d = 1 + lead / ((n + 1) * scale ** (n + 1) * vol)
    lct_product = product_line_threshold(X, duals, Fraction(1, scale))
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


class ScanReport(NamedTuple):
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


def _scan_key(chart_gens) -> tuple:
    return tuple(sorted(chart_gens.items()))


def _orbit_keys(X: ToricFanoModel, Z: MonomialSubscheme) -> list[tuple]:
    """The scan keys of Z's images under the fan automorphisms, in the
    group's order: on each chart the exponents permuted and the
    generators re-sorted, and the chart renumbered, singular charts
    included.  Many automorphisms move a chart by the same permutation,
    so each chart's image under each permutation is built once."""
    images: dict[tuple[int, tuple[int, ...]], tuple] = {}
    keys = []
    for g in X.automorphisms:
        gens = {}
        for idx, chart_gens in Z.chart_gens.items():
            j, perm = g.charts[idx]
            image = images.get((idx, perm))
            if image is None:
                image = images[idx, perm] = tuple(sorted(
                    [tuple([e[p] for p in perm]) for e in chart_gens]))
            gens[j] = image
        keys.append(_scan_key(gens))
    return keys


def semistability_scan(X: ToricFanoModel,
                       candidates: Iterable[MonomialSubscheme]) -> ScanReport:
    """Run beta over every candidate in input order, collecting
    per-candidate errors: a failed candidate contributes an error entry
    instead of aborting the scan.

    beta is invariant under the automorphisms of X, so it runs once per
    orbit of the fan's automorphism group: every later candidate in the
    orbit of an evaluated one reuses that report under its own label;
    candidates with the same chart ideals, whatever their labels, share
    one report.  An evaluated candidate's orbit keys come from a table,
    local to the call, of each chart's generators permuted once per
    distinct (chart, permutation) pair that the automorphisms use.
    Errors are not shared, their texts naming the candidate.
    """
    entries = []
    known: dict[tuple, BetaReport] = {}
    for Z in candidates:
        report = known.get(_scan_key(Z.chart_gens))
        if report is not None:
            report = BetaReport(report.model, Z.label, report.lct_value, report.volume_integral,
                                report.anticanonical_volume, report.beta, report.verdict)
        else:
            try:
                report = beta(X, Z)
            except FanokitError as exc:
                entries.append(ScanEntry(subscheme=Z.label, report=None,
                                         error=f"{type(exc).__name__}: {exc}"))
                continue
            known.update(dict.fromkeys(_orbit_keys(X, Z), report))
        entries.append(ScanEntry(subscheme=Z.label, report=report, error=None))
    return ScanReport(model=X.name, entries=tuple(entries))
