"""The nine go/no-go checks behind `fanokit test-acceptance`.

Each criterion recomputes its target from scratch and reports one
CriterionResult; hand-expected values, brute-force enumerations, and
lattice counts travel along as OracleResult records, so a report shows
not only that a check passed but what it was held against.  Criterion
failures aggregate into the summary, errors raised inside a criterion
included.  The criteria take no parameters, so no input but the build
itself moves a verdict.

Nothing here depends on wall-clock state or iteration order of hashes:
all loops run over sorted keys and every random draw comes from a
criterion-local seeded generator, so two runs of the same build produce
byte-identical reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import FanokitError
from .filtration import (_leading_integral, compute_d_infty, ideal_power_filtration,
                         induced_ideal_sequence, saturate, saturate_points)
from .lct import lct_chart, lct_monomial
from .model import (CATALOG_RAYS, anticanonical_volume, catalog_model,
                    is_kahler_einstein)
from .oracles import (OracleResult, bruteforce_lct, oracle_h0_quotient,
                      oracle_weight_records, stable_leading_difference)
from .piecewise import poly_trim
from .stability import beta, ding_invariant, semistability_scan
from .subscheme import (IdealSequenceOnXxA1, MonomialSubscheme,
                        _subscheme_contains, point_subscheme, product,
                        product_dual_vertices, standard_battery)
from .volumes import blowup_volume_profile, seshadri_constant

# criteria 7 and 8 hold exact values against the weight records k <= K_MAX
K_MAX = 10


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    oracles: tuple[OracleResult, ...] = ()


@dataclass(frozen=True)
class AcceptanceSummary:
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def report(self) -> dict:
        return {"passed": self.passed, "criteria": list(self.results)}


def _verdict(problems: list[str], ok_detail: str, oracles=()) -> tuple:
    if problems:
        return False, "; ".join(problems), tuple(oracles)
    return True, ok_detail, tuple(oracles)


# ---------------------------------------------------------------------------
# 1. anticanonical volume against (n+1)^n, equality exactly on projective space

def _criterion_volume_bound() -> tuple:
    problems: list[str] = []
    oracles = []
    equal = []
    for name in sorted(CATALOG_RAYS):
        X = catalog_model(name)
        n = X.dimension
        if n > 3:
            continue
        bound = Fraction((n + 1) ** n)
        vol = anticanonical_volume(X)
        oracles.append(OracleResult(
            quantity=f"volume_bound({name})", method="HAND_FORMULA",
            value=bound, parameters=(("dimension", n), ("model", name))))
        if vol > bound:
            problems.append(f"{name}: volume {vol} exceeds {bound}")
        if vol == bound:
            equal.append(name)
    if equal != ["P1", "P2", "P3"]:
        problems.append(f"equality cases {equal}, expected P1/P2/P3")
    return _verdict(problems,
                    f"{len(oracles)} models within bound; equality on "
                    f"{', '.join(equal)}", oracles)


# ---------------------------------------------------------------------------
# 2. Seshadri constant n+1 at every fixed point of projective space

def _criterion_seshadri() -> tuple:
    problems: list[str] = []
    oracles = []
    count = 0
    for name in ("P2", "P3"):
        X = catalog_model(name)
        expected = Fraction(X.dimension + 1)
        oracles.append(OracleResult(
            quantity=f"seshadri({name}, fixed points)", method="HAND_FORMULA",
            value=expected, parameters=(("model", name),)))
        for idx in range(len(X.charts)):
            eps = seshadri_constant(X, idx)
            count += 1
            if eps != expected:
                problems.append(f"{name} chart {idx}: {eps} != {expected}")
    return _verdict(problems, f"{count} fixed points at the expected value",
                    oracles)


# ---------------------------------------------------------------------------
# 3. blowup profile of a point on projective space, coefficient by coefficient

def _criterion_blowup_profile() -> tuple:
    problems: list[str] = []
    for n, name in ((1, "P1"), (2, "P2"), (3, "P3")):
        X = catalog_model(name)
        profile = blowup_volume_profile(X, point_subscheme(X, 0))
        target = poly_trim([Fraction((n + 1) ** n)]
                           + [Fraction(0)] * (n - 1) + [Fraction(-1)])
        start, tau = profile.domain
        if tau != n + 1 or start != 0:
            problems.append(f"{name}: domain [{start}, {tau}] != [0, {n + 1}]")
        for i, piece in enumerate(profile.pieces):
            if poly_trim(piece) != target:
                problems.append(f"{name} piece {i}: {list(piece)} != "
                                f"{list(target)}")
    return _verdict(problems, "profiles match (n+1)^n - x^n on [0, n+1]")


# ---------------------------------------------------------------------------
# 4. beta of a point on projective space degenerates to exactly zero

def _criterion_beta_point() -> tuple:
    problems: list[str] = []
    oracles = []
    for n, name in ((1, "P1"), (2, "P2"), (3, "P3")):
        X = catalog_model(name)
        Z = point_subscheme(X, 0)
        rep = beta(X, Z)
        gens = Z.gens_on(0)
        oracle_lct = bruteforce_lct(gens)
        oracles.append(OracleResult(
            quantity=f"lct({name}, {Z.label})", method="HOWALD_PRIMAL",
            value=oracle_lct, parameters=(("gens", str(gens)),)))
        expected_integral = Fraction(n * (n + 1) ** n)
        if rep.lct_value != n or oracle_lct != n:
            problems.append(f"{name}: lct {rep.lct_value} (oracle "
                            f"{oracle_lct}) != {n}")
        if rep.volume_integral != expected_integral:
            problems.append(f"{name}: integral {rep.volume_integral} != "
                            f"{expected_integral}")
        if rep.beta != 0:
            problems.append(f"{name}: beta {rep.beta} != 0")
    return _verdict(problems, "beta = 0, lct = n, integral = n(n+1)^n "
                    "for n = 1, 2, 3", oracles)


# ---------------------------------------------------------------------------
# 5. beta >= 0 across the standard battery on the KE catalog models, those
#    whose barycenter b_P is 0

def _criterion_ke_battery() -> tuple:
    problems: list[str] = []
    entries = 0
    models = [X for X in map(catalog_model, CATALOG_RAYS) if is_kahler_einstein(X)]
    for X in models:
        for entry in semistability_scan(X, standard_battery(X)).entries:
            entries += 1
            if entry.error is not None:
                problems.append(f"{X.name}/{entry.subscheme}: {entry.error}")
            elif entry.report.beta < 0:
                problems.append(f"{X.name}/{entry.subscheme}: beta "
                                f"{entry.report.beta}")
    return _verdict(problems, f"{entries} battery entries nonnegative across "
                              f"{len(models)} models")


# ---------------------------------------------------------------------------
# 6. saturation laws on random samples of the ideal-power filtrations

def _criterion_saturation_laws() -> tuple:
    problems: list[str] = []
    samples = 0
    for offset, name in enumerate(sorted(CATALOG_RAYS)):
        X = catalog_model(name)
        Z = standard_battery(X)[0]
        F = ideal_power_filtration(X, Z)
        rng = random.Random(640 + offset)
        e_hi = ceil(F.e_max_est)
        for _ in range(20):
            samples += 1
            r = rng.randint(1, 3)
            den = r * X.r0
            x = Fraction(rng.randint(-2 * den, (e_hi + 2) * den), den)
            r2 = rng.randint(1, 2)
            den2 = r2 * X.r0
            x2 = Fraction(rng.randint(-den2, (e_hi + 1) * den2), den2)
            tag = f"{name} (r={r}, x={x})"

            ideal, closure = saturate(F, r, x)
            other, _ = saturate(F, r2, x2)
            combined, _ = saturate(F, r + r2, x + x2)
            # (1) products of step ideals land in the summed step
            if not _subscheme_contains(combined, product(ideal, other)):
                problems.append(f"{tag}: product law fails against "
                                f"(r={r + r2}, x={x + x2})")
            # (2) monotone in x, on values and on ideals
            dx = Fraction(rng.randint(1, 2 * den), den)
            if not set(F.value(r, x + dx)) <= set(F.value(r, x)):
                problems.append(f"{tag}: value not decreasing at x+{dx}")
            deeper, _ = saturate(F, r, x + dx)
            if not _subscheme_contains(ideal, deeper):
                problems.append(f"{tag}: ideal not decreasing at x+{dx}")
            # (3) vanishing above r * e_max
            if F.value(r, r * F.e_max_est + 1) != ():
                problems.append(f"{tag}: nonzero above r*e_max")
            # (4) triviality at r * e_minus
            full, _ = saturate(F, r, r * F.e_minus)
            if not full.is_empty or len(F.value(r, r * F.e_minus)) != len(F.sections(r)):
                problems.append(f"{tag}: not full at x = r*e_minus")
            # (5) the saturated value; ideal powers are saturated, so equal
            if set(closure) != set(F.value(r, x)):
                problems.append(f"{tag}: closure differs from value")
            # (6) idempotence of saturation
            ideal2, closure2 = saturate_points(X, r, closure)
            if closure2 != closure or dict(ideal2.chart_gens) != dict(ideal.chart_gens):
                problems.append(f"{tag}: saturation not idempotent")
    return _verdict(problems,
                    f"six laws over {samples} samples on "
                    f"{len(CATALOG_RAYS)} models")


# ---------------------------------------------------------------------------
# 7. weight identity, the leading integral against the weight counts, and
#    the A_r limit for the point on the line

def _criterion_weight_limit() -> tuple:
    problems: list[str] = []
    oracles = []
    X = catalog_model("P1")
    F = ideal_power_filtration(X, point_subscheme(X, 0))
    e = F.e_plus - F.e_minus
    for r in (1, 2):
        sequence = induced_ideal_sequence(F, r)
        records = oracle_weight_records(X, sequence, r, K_MAX)
        counted = stable_leading_difference([rec.v for rec in records], X.dimension + 1)
        integral = _leading_integral(X, r, sequence.M,
                                     product_dual_vertices(X, sequence.steps))
        if integral != counted:
            problems.append(f"r={r}: leading integral {integral} != weight "
                            f"count {counted}")
        for rec in records:
            if rec.w != -rec.k * r * e * rec.h0 + rec.v:
                problems.append(f"r={r}, k={rec.k}: identity fails")
            if rec.w != -4 * (rec.k * r) ** 2 - 2 * rec.k * r:
                problems.append(f"r={r}, k={rec.k}: w={rec.w} off the "
                                f"hand value")
        for k in range(1, 7):
            count = oracle_h0_quotient(X, sequence, r, k)
            if records[k - 1].w != -count:
                problems.append(f"r={r}, k={k}: w != -oracle ({count})")
        oracles.append(OracleResult(
            quantity=f"w(P1 point, r={r})", method="HAND_FORMULA",
            value=Fraction(-4 * r * r - 2 * r),
            parameters=(("form", "-4(kr)^2 - 2kr at k=1"), ("r", r))))
    rep = compute_d_infty(F)
    oracles.append(OracleResult(
        quantity="A_limit(P1 point)", method="HAND_FORMULA",
        value=rep.a_limit, parameters=(("integral", "vol + int_0^2 (2-x)"),)))
    gaps = [abs(a - rep.a_limit) for _, a in rep.a_samples]
    if any(b > a for a, b in zip(gaps, gaps[1:])) or gaps[-1] > gaps[0]:
        problems.append(f"A_r gaps {gaps} not shrinking toward the integral")
    return _verdict(problems,
                    f"identity, hand values and leading integral for r in "
                    f"(1, 2), k <= {K_MAX}; A_r gaps "
                    f"{[str(g) for g in gaps]}",
                    oracles)


# ---------------------------------------------------------------------------
# 8. Ding invariant: trivial configuration and the normal-cone deformation,
#    each top term against the weight counts

def _weight_count_gap(X, S: IdealSequenceOnXxA1, rep) -> list[str]:
    """The Ding report's exact top term against the stabilised leading
    difference of the weight counts w(k), k <= K_MAX."""
    counted = stable_leading_difference(
        [rec.w for rec in oracle_weight_records(X, S, 1, K_MAX)], X.dimension + 1)
    if rep.L_power_top == counted:
        return []
    return [f"{X.name}, M={S.M}: top {rep.L_power_top} != weight count {counted}"]


def _criterion_ding() -> tuple:
    problems: list[str] = []
    oracles = []
    for name in ("P1", "P2"):
        X = catalog_model(name)
        unit = MonomialSubscheme(label="unit", dimension=X.dimension)
        trivial = IdealSequenceOnXxA1(steps=(unit,))
        rep = ding_invariant(X, trivial, 1)
        problems += _weight_count_gap(X, trivial, rep)
        if rep.ding != 0 or rep.L_power_top != 0:
            problems.append(f"trivial sequence on {name}: ding {rep.ding}, "
                            f"top {rep.L_power_top}")
    X = catalog_model("P1")
    point = point_subscheme(X, 0)
    dnc = IdealSequenceOnXxA1(steps=(point, point))
    rep = ding_invariant(X, dnc, 1)
    problems += _weight_count_gap(X, dnc, rep)
    if rep.ding < 0:
        problems.append(f"normal-cone deformation: ding {rep.ding} < 0")
    for rec in oracle_weight_records(X, dnc, 1, K_MAX):
        count = oracle_h0_quotient(X, dnc, 1, rec.k)
        if rec.w != -count:
            problems.append(f"k={rec.k}: w {rec.w} != -oracle ({count})")
    oracles.append(OracleResult(
        quantity="h0_quotient(P1, point normal cone)", method="LATTICE_COUNT",
        value=Fraction(oracle_h0_quotient(X, dnc, 1, K_MAX)),
        parameters=(("k", K_MAX), ("r", 1))))
    return _verdict(problems,
                    f"trivial ding 0; normal-cone ding {rep.ding} >= 0, "
                    f"oracle-matched to k = {K_MAX}; top terms match the "
                    f"weight counts", oracles)


# ---------------------------------------------------------------------------
# 9. the lct engine against brute force, hand values, and the scaling law

def _criterion_lct_engine() -> tuple:
    problems: list[str] = []
    oracles = []
    rng = random.Random(900)
    for trial in range(10):
        n = rng.randint(1, 3)
        size = rng.randint(1, 4)
        gens: set[tuple[int, ...]] = set()
        while len(gens) < size:
            g = tuple(rng.randint(0, 4) for _ in range(n))
            if any(g):
                gens.add(g)
        ideal = tuple(sorted(gens))
        Z = MonomialSubscheme(label=f"random ideal {trial}", dimension=n,
                              chart_gens={0: ideal})
        main = lct_chart(ideal)
        orac = bruteforce_lct(ideal)
        oracles.append(OracleResult(
            quantity=f"lct(random ideal {trial})", method="HOWALD_PRIMAL",
            value=orac, parameters=(("gens", str(ideal)),)))
        if main != orac:
            problems.append(f"ideal {ideal}: lct_chart {main} != Howald {orac}")
        for m in (2, 3):
            powered = lct_chart(Z.power(m).gens_on(0))
            if powered != main / m:
                problems.append(f"ideal {ideal}: lct(I^{m}) = {powered} != "
                                f"{main}/{m}")
    for n, name in ((1, "P1"), (2, "P2"), (3, "P3")):
        X = catalog_model(name)
        Z = point_subscheme(X, 0)
        if lct_monomial(X, Z) != n:
            problems.append(f"{name}: point lct != {n}")
        for m in (2, 3):
            if lct_monomial(X, Z.power(m)) != Fraction(n, m):
                problems.append(f"{name}: lct of the {m}-th power != {n}/{m}")
    return _verdict(problems, "10 random ideals, point values, and the "
                    "scaling law all agree", oracles)


# ---------------------------------------------------------------------------
# driver

_REGISTRY: tuple[tuple[int, str, object], ...] = (
    (1, "volume-bound", _criterion_volume_bound),
    (2, "seshadri-equality", _criterion_seshadri),
    (3, "blowup-profile", _criterion_blowup_profile),
    (4, "beta-point-zero", _criterion_beta_point),
    (5, "ke-battery", _criterion_ke_battery),
    (6, "saturation-laws", _criterion_saturation_laws),
    (7, "weight-identity-limit", _criterion_weight_limit),
    (8, "ding-values", _criterion_ding),
    (9, "lct-engine", _criterion_lct_engine),
)

def run_acceptance_suite_timed() -> tuple[AcceptanceSummary, dict[int, float]]:
    """Summary plus wall-clock seconds per criterion.

    Timings stay out of the summary object so that serialized reports
    remain byte-identical across runs; the CLI prints them separately.
    """
    results, timings = [], {}
    for number, name, fn in _REGISTRY:
        start = time.perf_counter()
        try:
            passed, detail, oracles = fn()
        except FanokitError as exc:
            passed, detail, oracles = False, f"{type(exc).__name__}: {exc}", ()
        results.append(CriterionResult(number=number, name=name, passed=passed,
                                       detail=detail, oracles=oracles))
        timings[number] = time.perf_counter() - start
    return AcceptanceSummary(results=tuple(results)), timings
