"""Independent cross-check routes.

Everything here recomputes a quantity the main modules produce, using a
deliberately different algorithm: plain enumeration loops instead of the
lattice kernels, Howald's primal test on the Newton polyhedron instead of
the dual vertex scan.  Keep it that way; the whole point is that a bug
would have to occur twice, in two unrelated pieces of code, to slip
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SizeCap
from .linalg import solve
from .model import ToricFanoModel
from .polytope import lattice_points
from .subscheme import IdealSequenceOnXxA1

_ORACLE_CAP = 2_000_000

ORACLE_METHODS = ("LATTICE_COUNT", "HOWALD_PRIMAL", "HAND_FORMULA")


@dataclass(frozen=True)
class OracleResult:
    """One independently recomputed quantity, as stored in golden reports.

    parameters is a sorted tuple of (name, value-string) pairs; together
    with the method it pins the computation down, so equal parameters
    must reproduce the value bit for bit.
    """

    quantity: str
    method: str
    value: Fraction
    parameters: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.method not in ORACLE_METHODS:
            raise ValueError(f"unknown oracle method {self.method!r}")
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "parameters", tuple(
            (str(k), str(v)) for k, v in sorted(self.parameters)))


def oracle_h0_quotient(X: ToricFanoModel, sequence: IdealSequenceOnXxA1,
                       r: int, k: int) -> int:
    """Dimension of sections of L^{kr} x O(A^1) modulo the k-th ideal power.

    Direct (n+1)-variable enumeration: a monomial section survives in the
    quotient when at least one chart fails to put it inside the power.
    No shared code with the weight-series path; the inner loops are
    written out longhand on purpose.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    M = sequence.M
    level = k * r * X.r0
    pts = lattice_points(X.polytope, level)
    if len(pts) * k * M > _ORACLE_CAP:
        raise SizeCap(f"oracle refuses {len(pts)} points x {k * M} levels")

    # k-th power of the (x, t)-ideal on each chart, by brute composition
    chart_powers: dict[int, list[tuple[tuple[int, ...], int]] | None] = {}
    for idx in range(len(X.charts)):
        base = _xt_gens(sequence, idx)
        if base is None:            # unit on this chart: power stays unit
            chart_powers[idx] = None
            continue
        power = base
        for _ in range(k - 1):
            power = _xt_product(power, base)
        chart_powers[idx] = power

    survivors = 0
    for u in pts:
        for m in range(k * M):
            for idx, chart in enumerate(X.charts):
                gens = chart_powers[idx]
                if gens is None:
                    continue
                a = chart.exponents(u, level)
                if not any(all(ai >= gi for ai, gi in zip(a, g)) and m >= gm
                           for g, gm in gens):
                    survivors += 1
                    break
    return survivors


def _xt_gens(sequence: IdealSequenceOnXxA1,
             idx: int) -> list[tuple[tuple[int, ...], int]] | None:
    M = sequence.M
    out: list[tuple[tuple[int, ...], int]] = [(tuple([0] * sequence.steps[0].dimension), M)]
    unit = False
    for j, step in enumerate(sequence.steps, start=1):
        gens = step.gens_on(idx)
        if gens is None:
            if M - j == 0:
                unit = True
            out.append((tuple([0] * step.dimension), M - j))
        else:
            out.extend((g, M - j) for g in gens)
    if unit:
        return None
    return _xt_minimal(out)


def _xt_product(a: list[tuple[tuple[int, ...], int]],
                b: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    summed = {(tuple(x + y for x, y in zip(ga, gb)), ma + mb)
              for ga, ma in a for gb, mb in b}
    return _xt_minimal(list(summed))


def _xt_minimal(gens: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for g, m in gens:
        keep = True
        for h, mh in gens:
            if (h, mh) != (g, m) and mh <= m and all(hi <= gi for hi, gi in zip(h, g)):
                keep = False
                break
        if keep:
            out.append((g, m))
    return sorted(set(out))


def bruteforce_lct(gens) -> Fraction | None:
    """Log canonical threshold by Howald's primal test.

    lct = 1/t* for the least t with t (1, ..., 1) in the Newton polyhedron
    conv(gens) + R^n_{>=0} (Howald, Multiplier ideals of monomial ideals).
    The least t is a basic solution of t (1, ..., 1) = sum lam_i g_i +
    sum mu_j e_j, sum lam_i = 1, lam, mu >= 0: by Caratheodory it uses
    k <= n generators and n - k unit vectors, and each choice is one square
    system solved by Gauss-Jordan elimination.  Returns None for the unit
    ideal (a generator is 1) and for an empty generator list.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens or any(not any(g) for g in gens):
        return None
    n = len(gens[0])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    best = None
    for k in range(1, n + 1):
        for chosen in combinations(gens, k):
            for free in combinations(units, n - k):
                cols = chosen + free
                # unknowns lam (k), mu (n - k), t
                rows = [[c[i] for c in cols] + [-1] for i in range(n)]
                rows.append([1] * k + [0] * (n - k + 1))
                sol = solve(rows, [0] * n + [1])
                if sol is None or any(x < 0 for x in sol[:n]):
                    continue
                if best is None or sol[n] < best:
                    best = sol[n]
    return 1 / best
