"""Exact linear algebra on small dense matrices.

Sizes are tiny throughout the package (n <= 5, systems of a few dozen
rows at most).  The geometry scales its rows to integers
(rational_primitive) and solves them in Python ints: int_solve runs one
fraction-free (Bareiss) elimination of a square system with any number
of right-hand sides and returns the determinant d with d times each
solution, the numerators of Cramer's rule; int_det is its d, written out
up to 4 x 4, the simplices of a lifted 3-fold region.  Callers divide
once, at the end, if at all.
solve, Gauss-Jordan elimination over fractions.Fraction, is the
independent reference that the tests hold that integer route against.
The integer paths build tuples and star-arguments from lists, not
generators: CPython resizes a tuple built from a generator, and the
resized tuples pile up on its tuple free lists, which raised the peak
memory of a long scan by about 1 MB.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: expanded up to 4 x 4, else
    int_solve's d.  4 x 4 is the Laplace expansion along its first two
    rows, six products of 2 x 2 minors."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    return int_solve(rows, ())[0]


def int_solve(rows: Sequence[Sequence[int]],
              rhs_columns: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, [d * x for each column b]) with d = det(rows) and rows * x = b.

    One fraction-free (Bareiss) elimination of [rows | b1 | b2 ...] gives
    d; fraction-free back substitution then gives each d * x, the
    numerators of Cramer's rule.  Every division is exact, and when d is
    0 the list is empty.
    """
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        if det == 0:
            return 0, []
        return det, [[u * d - b * v, a * v - c * u] for u, v in rhs_columns]
    m = ([[*r, *b] for r, b in zip(rows, zip(*rhs_columns))] if rhs_columns
         else [list(r) for r in rows])
    sign, prev = 1, 1
    for k in range(n):
        mk = m[k]
        if mk[k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0, []
            m[k], m[piv] = m[piv], mk
            mk = m[k]
            sign = -sign
        pk = mk[k]
        tail = mk[k + 1:]
        for mi in m[k + 1:]:
            f = mi[k]
            mi[k + 1:] = [(a * pk - f * b) // prev for a, b in zip(mi[k + 1:], tail)]
        prev = pk
    # m is upper triangular, m[k][k] the k-th leading minor and prev = d
    # up to the sign of the row swaps; y = d * x is an integer vector, so
    # each division below is exact
    cols = []
    for c in range(n, n + len(rhs_columns)):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            mk = m[k]
            acc = prev * mk[c]
            for j in range(k + 1, n):
                acc -= mk[j] * y[j]
            y[k] = acc // mk[k]
        cols.append(y if sign > 0 else [-a for a in y])
    return sign * prev, cols


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


def int_primitive(v: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries (zero stays
    zero): the primitive vector on its ray."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g else tuple(v)


def exact_int(value, where: str) -> int:
    """value itself when it is an int, not a bool; else ValueError naming
    where it was read, so no entry is truncated or coerced: the one
    reading of an integer in file data and in the records' constructors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {value!r} is not an integer")
    return value


def rational_primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to the primitive integer vector
    on the same ray (zero stays zero)."""
    den = lcm(*[x.denominator for x in v])
    return int_primitive([x.numerator * (den // x.denominator) for x in v])
