#!/usr/bin/env python3
"""Time the package's numeric hot paths.

Workloads mirror them: evaluating the field components over a (theta, phi)
surface grid (singular-set scans; one matrix product on every backend) and
stepping one RK4 trajectory (drift and periodicity checks; numba kernel
against the pure python fallback).

Run:  python benchmarks/bench_kernels.py [--grid 512] [--steps 50000]
"""

import argparse
import math
import time
from fractions import Fraction

from torusfields import CubicParams, MultiPoly, Scalar, X, Y, build_cubic
from torusfields import kernels

M = Fraction(4)


def time_call(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--steps", type=int, default=50_000)
    args = ap.parse_args()

    field = build_cubic(CubicParams(MultiPoly.constant(1), X * Y,
                                    Scalar(0), Scalar(0)), M)
    arrays = [kernels.compile_poly(c) for c in field.components()]
    start = (math.sqrt(5.0), 0.0, 0.0)

    have_numba = False
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        pass

    rows = []

    def grid_surface():
        for term_arrays in arrays:
            kernels.eval_surface(term_arrays, float(M), args.grid)

    rows.append(("grid eval  %dx%d x3 polys" % (args.grid, args.grid),
                 "any", time_call(grid_surface)))

    def rk4_py():
        kernels._rk4_orbit_py(*arrays[0], *arrays[1], *arrays[2], *start,
                              1e-3, args.steps, False, 4.0)

    rows.append(("rk4 orbit  %d steps" % args.steps, "python", time_call(rk4_py)))

    if have_numba:
        def rk4_nb():
            kernels._rk4_orbit_nb(*arrays[0], *arrays[1], *arrays[2], *start,
                                  1e-3, args.steps, False, 4.0)

        rk4_nb()   # JIT warmup
        rows.append(("rk4 orbit  %d steps" % args.steps, "numba",
                     time_call(rk4_nb)))
    else:
        print("numba not importable; timing the fallback only")

    print(f"\nactive backend: {kernels.backend()}")
    print(f"{'workload':<34} {'backend':<8} {'best of 3':>12}")
    print("-" * 58)
    for name, backend, seconds in rows:
        print(f"{name:<34} {backend:<8} {seconds * 1e3:>10.2f} ms")

    if have_numba:
        by_work = {}
        for name, backend, seconds in rows:
            by_work.setdefault(name, {})[backend] = seconds
        print()
        for name, timings in by_work.items():
            slow = timings.get("numpy", timings.get("python"))
            fast = timings.get("numba")
            if slow and fast:
                print(f"{name}: numba is {slow / fast:.1f}x faster")


if __name__ == "__main__":
    main()
