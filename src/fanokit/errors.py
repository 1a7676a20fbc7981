"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
generic ValueError/TypeError are reserved for plain misuse (wrong argument
shapes and the like).
"""


class FanokitError(Exception):
    """Base class for all package-specific errors."""


class UnboundedPolytope(FanokitError):
    """The ray data does not positively span, so the polytope is unbounded."""


class DegeneratePolytope(FanokitError):
    """The inequality system has no full-dimensional solution set."""


class OutOfDomain(FanokitError):
    """Evaluation or integration requested outside a function's support."""


class NotFano(FanokitError):
    """Ray data does not define a Fano model (polytope unbounded or not full-dimensional)."""


class NotSmoothChart(FanokitError):
    """A chart required to be smooth has |det| != 1."""


class NotSmoothPoint(FanokitError):
    """The fixed point is singular, but the operation needs a smooth one."""


class DimensionTooSmall(FanokitError):
    """Operation undefined in this dimension (e.g. Seshadri scan on curves)."""


class ZeroIdeal(FanokitError):
    """A monomial ideal was the zero ideal where a nonzero one is required."""


class EmptyOrFull(FanokitError):
    """Subscheme is empty or all of X; the invariant is undefined."""


class GluingMismatch(FanokitError):
    """A subscheme's chart ideals disagree on the overlap of two charts."""


class UnsupportedSubscheme(FanokitError):
    """Subscheme touches a singular chart along a route that needs smoothness."""


class ConfigError(FanokitError):
    """Run configuration is unusable: bad caps, unreadable sources, unwritable paths."""


class R1NotFound(FanokitError):
    """No r1 below the cap satisfied the stabilisation test."""

    def __init__(self, cap: int):
        super().__init__(f"no admissible r1 found below cap {cap}")
        self.cap = cap


class NoStabilization(FanokitError):
    """Finite differences did not stabilise within the k budget."""

    def __init__(self, k_max: int):
        super().__init__(f"leading coefficient did not stabilise for k <= {k_max}")
        self.k_max = k_max


class CombinatorialBlowup(FanokitError):
    """A generator set or composition enumeration exceeded its cap."""


class SizeCap(FanokitError):
    """Oracle enumeration exceeded its size budget."""
