"""Backend selection for the integer lattice kernels.

The compiled extension is optional; the pure-Python module implements the
same five functions.  Import-time selection keeps call sites oblivious:

    from fanokit.lattice import enum_points, filter_points_in_ideals, BACKEND
"""

from __future__ import annotations

try:
    from . import _kernel as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import _kernel_py as _impl

BACKEND: str = _impl.BACKEND_NAME

enum_points = _impl.enum_points
dominates_any = _impl.dominates_any
filter_points_in_ideals = _impl.filter_points_in_ideals
minkowski_sum = _impl.minkowski_sum
minimalize = _impl.minimalize
