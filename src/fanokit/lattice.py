"""The integer lattice kernels, re-exported under the names call sites use.

The five functions live in ``_kernel_py``: the fiber kernel
``enum_fibers`` and its point expansion ``enum_points``, and the
dominance, sum and minimalisation kernels on monomial generators.
Callers import them from here, so a tracer that wraps these names sees
every outside call, while the calls the kernels make to each other stay
internal:

    from fanokit.lattice import enum_points, minimalize
"""

from __future__ import annotations

from . import _kernel_py as _impl

BACKEND = "python"

enum_fibers = _impl.enum_fibers
enum_points = _impl.enum_points
dominates_any = _impl.dominates_any
minkowski_sum = _impl.minkowski_sum
minimalize = _impl.minimalize
