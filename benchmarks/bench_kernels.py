#!/usr/bin/env python3
"""Time the pure-Python lattice kernels against the compiled twin.

Workloads mirror the three hot paths: section counting (enum_points over
a dilated polytope), saturation membership (filter_points_in_ideals on a
power of a point), and ideal powering (minkowski_sum + minimalize).  Each
workload is checked for agreement before timing, then the median of
--repeat runs is reported per backend.

Run after building the extension:

    python3 benchmarks/bench_kernels.py [--repeat 5] [--scale 6]
"""

from __future__ import annotations

import argparse
import sys
import time
from math import ceil
from statistics import median

from fanokit import _kernel_py
from fanokit.filtration import _ideal_kernel_charts
from fanokit.model import catalog_model
from fanokit.polytope import lattice_points
from fanokit.subscheme import point_subscheme

try:
    from fanokit import _kernel
except ImportError:
    _kernel = None


def _enum_args(name: str, k: int) -> tuple:
    P = catalog_model(name).polytope
    normals = [nr for nr, _ in P.inequalities]
    offsets = [ceil(k * off) for _, off in P.inequalities]
    lo, hi = P.bounding_box(k)
    return normals, offsets, lo, hi


def _membership_args(k: int) -> tuple:
    X = catalog_model("P2")
    Z = point_subscheme(X, 0).power(k)
    points = lattice_points(X.polytope, 2 * k)
    charts = _ideal_kernel_charts(X, Z, 2 * k)
    return points, charts


def _power_chain(impl, gens, m: int):
    acc = list(gens)
    for _ in range(m - 1):
        acc = impl.minimalize(impl.minkowski_sum(acc, gens))
    return acc


def build_workloads(scale: int) -> list[tuple[str, object, tuple]]:
    """(label, callable-by-backend, args); callables take (impl, *args)."""
    def call(fn_name):
        return lambda impl, *args: getattr(impl, fn_name)(*args)

    gens = [(3, 0, 1), (0, 2, 1), (1, 1, 0), (0, 0, 4)]
    return [
        (f"enum_points P1xP2 k={scale}",
         call("enum_points"), _enum_args("P1xP2", scale)),
        (f"enum_points dP6 k={6 * scale}",
         call("enum_points"), _enum_args("dP6", 6 * scale)),
        (f"filter_points_in_ideals P2 point^{2 * scale}",
         call("filter_points_in_ideals"), _membership_args(2 * scale)),
        (f"minkowski+minimalize 3d power {scale + 4}",
         _power_chain, (gens, scale + 4)),
    ]


def bench(fn, impl, args, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(impl, *args)
        times.append(time.perf_counter() - t0)
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per workload, median reported")
    parser.add_argument("--scale", type=int, default=6,
                        help="dilation factor controlling workload size")
    args = parser.parse_args(argv)
    if _kernel is None:
        print("compiled kernel not built; install with the gcc/cython "
              "toolchain available and rerun", file=sys.stderr)
        return 1

    print(f"{'workload':44s} {'python':>10s} {'cython':>10s} {'speedup':>8s}")
    for label, fn, fn_args in build_workloads(args.scale):
        expected = fn(_kernel_py, *fn_args)
        got = fn(_kernel, *fn_args)
        if expected != got:
            print(f"{label}: BACKENDS DISAGREE", file=sys.stderr)
            return 2
        t_py = bench(fn, _kernel_py, fn_args, args.repeat)
        t_cy = bench(fn, _kernel, fn_args, args.repeat)
        print(f"{label:44s} {1e3 * t_py:8.1f}ms {1e3 * t_cy:8.1f}ms "
              f"{t_py / t_cy:7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
