"""Exact linear algebra on small dense matrices.

Sizes are tiny throughout the package (n <= 4, systems of at most a
dozen rows).  The geometry scales its rows to integers
(rational_primitive) and solves them with int_det (fraction-free
elimination) and Cramer's rule, which stay in Python ints until one final
Fraction.  solve, Gauss-Jordan elimination over fractions.Fraction, is the
independent reference that the oracles and tests hold that integer route
against.  The integer paths build tuples and star-arguments from lists,
not generators: CPython resizes a tuple built from a generator, and the
resized tuples pile up on its tuple free lists, which raised the peak
memory of a long scan by about 1 MB.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot: length mismatch {len(a)} vs {len(b)}")
    return Fraction(sum(x * y for x, y in zip(a, b)))


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate division is exact."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk = m[k]
        pk = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pk - mik * mk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


def cramer_numerators(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int]:
    """The determinants of rows with column j replaced by rhs, j = 0..n-1:
    rows * x = rhs has x = these / int_det(rows) when that is nonzero."""
    return [int_det([(*r[:j], b, *r[j + 1:]) for r, b in zip(rows, rhs)])
            for j in range(len(rows))]


def cramer(rows: Sequence[Sequence[int]],
           rhs: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Solve the square integer system rows * x = rhs by Cramer's rule.

    Returns (nums, den) with x = nums / den, den > 0 and gcd(nums, den) = 1,
    so equal solutions have equal keys; None when singular.
    """
    den = int_det(rows)
    if den == 0:
        return None
    nums = cramer_numerators(rows, rhs)
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = gcd(den, *nums)
    return tuple([x // g for x in nums]), den // g


def _gauss_jordan(m: list[list[Fraction]]) -> bool:
    """Reduce the augmented matrix [A | B] in place to [I | A^-1 B], A
    being its first len(m) columns; False when A is singular."""
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        pivval = m[col][col]
        m[col] = [x / pivval for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return True


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """Solve the square system rows * x = rhs; None when singular."""
    m = [[Fraction(x) for x in r] + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    if not _gauss_jordan(m):
        return None
    return tuple(row[-1] for row in m)


def matmul_vec(rows: Sequence[Sequence], x: Sequence) -> Vec:
    return tuple(dot(r, x) for r in rows)


def transpose(rows: Mat) -> Mat:
    return tuple(zip(*rows))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    ints = [int(x) for x in v]
    if any(Fraction(x) != ints[i] for i, x in enumerate(v)):
        raise ValueError(f"primitive: non-integer vector {v!r}")
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def rational_primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to the primitive integer vector
    on the same ray (zero stays zero)."""
    den = lcm(*[x.denominator for x in v])
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g else tuple(ints)

