"""Piecewise polynomials with exact rational coefficients.

A PiecewisePolynomial is a list of closed-left pieces: piece i is the
polynomial valid on [breakpoints[i], breakpoints[i+1]), except that the
final breakpoint belongs to the last piece.  Coefficients are stored in
ascending degree in the *global* variable x (no per-piece shift), which
makes piece-by-piece comparison against reference polynomials a plain
tuple comparison after trimming trailing zeros.

Interpolation and evaluation run in integers: fit_polynomial clears the
nodes and values to common denominators and sums Lagrange's numerators,
and poly_eval runs Horner's rule on the numerator and denominator of x
apart; each builds one Fraction per result, not one per step.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .errors import OutOfDomain

Poly = tuple[Fraction, ...]


def poly_eval(coeffs: Sequence, x) -> Fraction:
    """sum(c_j x^j) for int and Fraction coefficients c_j, by Horner's rule
    in integers: with x = p/q and c_j = a_j/C, it is
    sum(a_j p^j q^(m-j)) / (C q^m), m the degree, one Fraction at the end."""
    if not coeffs:
        return Fraction(0)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    den = lcm(*[c.denominator for c in coeffs])
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c.numerator * (den // c.denominator) * qpow
        qpow *= q
    return Fraction(acc, den * qpow // q)


def poly_trim(coeffs: Sequence) -> Poly:
    """The coefficients without trailing zeros, each value kept as given."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def poly_antiderivative(coeffs: Sequence) -> Poly:
    return tuple([Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(coeffs)])


def fit_polynomial(xs: Sequence, ys: Sequence) -> Poly:
    """Exact polynomial of degree < len(xs) through the given points, by
    Lagrange's formula in integers.

    With the nodes cleared to integers X_k = E x_k and the values to
    Y_i = V y_i, the basis polynomial of node i is N_i / W_i, where
    N_i(x) = prod_{k != i} (E x - X_k) and W_i = prod_{k != i} (X_i - X_k).
    So the coefficients are sum_i Y_i (L / W_i) N_i over V L, L the lcm of
    the W_i, summed in integers with one Fraction per coefficient.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("fit_polynomial needs equally many xs and ys")
    xs = [Fraction(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes are not distinct")
    ys = [Fraction(y) for y in ys]
    e = lcm(*[x.denominator for x in xs])
    v = lcm(*[y.denominator for y in ys])
    nodes = [x.numerator * (e // x.denominator) for x in xs]
    weights = [prod([a - b for b in nodes if b != a]) for a in nodes]
    big = lcm(*weights)
    sums = [0] * len(nodes)
    for a, y, w in zip(nodes, ys, weights):
        if not y:
            continue
        num = [y.numerator * (v // y.denominator) * (big // w)]
        for b in nodes:
            if b != a:
                num = [e * c - b * d for c, d in zip([0, *num], [*num, 0])]
        sums = [s + c for s, c in zip(sums, num)]
    return tuple([Fraction(s, v * big) for s in sums])


class PiecewisePolynomial:
    """Continuous piecewise polynomial on [breakpoints[0], breakpoints[-1]]."""

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Sequence],
                 degree_bound: int | None = None):
        bps = tuple(Fraction(b) for b in breakpoints)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError(f"breakpoints not strictly increasing: {bps}")
        pcs = tuple(tuple(Fraction(c) for c in p) for p in pieces)
        if len(pcs) != len(bps) - 1:
            raise ValueError(f"{len(pcs)} pieces for {len(bps)} breakpoints")
        for i in range(len(pcs) - 1):
            left = poly_eval(pcs[i], bps[i + 1])
            right = poly_eval(pcs[i + 1], bps[i + 1])
            if left != right:
                raise ValueError(
                    f"discontinuity at {bps[i + 1]}: {left} != {right}")
        if degree_bound is not None:
            deg = max(len(poly_trim(p)) - 1 for p in pcs)
            if deg > degree_bound:
                raise ValueError(f"piece degree {deg} exceeds bound {degree_bound}")
        self.breakpoints = bps
        self.pieces = pcs

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, x) -> int:
        x = Fraction(x)
        lo, hi = self.domain
        if x < lo or x > hi:
            raise OutOfDomain(f"{x} outside [{lo}, {hi}]")
        if x == hi:
            return len(self.pieces) - 1
        return bisect_right(self.breakpoints, x) - 1

    def evaluate(self, x) -> Fraction:
        return poly_eval(self.pieces[self.piece_index(x)], x)

    def integrate(self, a, b) -> Fraction:
        """Exact integral over [a, b], which must lie inside the domain."""
        a, b = Fraction(a), Fraction(b)
        if a > b:
            raise ValueError(f"reversed interval [{a}, {b}]")
        lo, hi = self.domain
        if a < lo or b > hi:
            raise OutOfDomain(f"[{a}, {b}] outside [{lo}, {hi}]")
        total = Fraction(0)
        for i, poly in enumerate(self.pieces):
            left = max(a, self.breakpoints[i])
            right = min(b, self.breakpoints[i + 1])
            if left < right:
                anti = poly_antiderivative(poly)
                total += poly_eval(anti, right) - poly_eval(anti, left)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return (self.breakpoints == other.breakpoints
                and tuple(poly_trim(p) for p in self.pieces)
                == tuple(poly_trim(p) for p in other.pieces))

    def __hash__(self):
        return hash((self.breakpoints,
                     tuple(poly_trim(p) for p in self.pieces)))

    def __repr__(self) -> str:
        return (f"PiecewisePolynomial(breakpoints={list(self.breakpoints)}, "
                f"pieces={[list(p) for p in self.pieces]})")
