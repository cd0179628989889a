"""Numeric hot paths: polynomial evaluation, torus surface grids and RK4 stepping.

``compile_poly`` turns an exact polynomial into one generated python function
of ``(x, y, z)``: a straight-line sum, starting from ``0.0``, of terms
``c*x*...*y*...*z*...`` in sorted term order.  Called with floats it gives
point values (``eval_point`` and the ``rk4_orbit`` loop); called with numpy
arrays it does the same arithmetic elementwise (``eval_grid``, the 1-D
meridian scan).  Surface grid scans (``eval_surface``) are one matrix
product over the same float terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .poly import MultiPoly

# Compiled polynomials kept: the singular scan and chart_gradient compile the
# same derivatives again and again.
_CACHE_SIZE = 256
# Factors per generated expression: a product nests once per factor, and the
# parser accepts degrees (e.g. (x^64)^64) deeper than the compiler's limit.
_FACTORS_PER_LINE = 256


def backend() -> str:
    """Name of the float evaluator (there is only one)."""
    return "numpy"


@dataclass(frozen=True)
class CompiledPoly:
    """Float terms ((i, j, k), c) in sorted order and the function summing them."""

    terms: tuple[tuple[tuple[int, int, int], float], ...]
    fn: Callable


def compile_poly(p: MultiPoly, m_float: float | None = None) -> CompiledPoly:
    """Compile a polynomial to float terms and a generated evaluator.

    ``m_float`` is substituted for m in sqrt(m) coefficients; by default the
    m those coefficients carry is used.
    """
    # resolved before the cache lookup, so a call that passes m_float and one
    # that leaves it to the coefficients share one cache entry
    if m_float is None:
        m_float = next((float(c.m) for c in p.terms.values() if c.q), None)
    return _compile(p, m_float)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _compile(p: MultiPoly, m_float: float | None) -> CompiledPoly:
    terms = tuple(
        (exp, float(c.p) if c.q == 0
         else float(c.p) + float(c.q) * math.sqrt(m_float))
        for exp, c in sorted(p.terms.items()))
    # only repr(float) and the names x, y, z, t, acc, inf reach exec
    lines = ["def f(x, y, z):", "    acc = 0.0"]
    for (i, j, k), c in terms:
        factors = [repr(c)] + ["x"] * i + ["y"] * j + ["z"] * k
        while len(factors) > _FACTORS_PER_LINE:
            lines.append("    t = " + "*".join(factors[:_FACTORS_PER_LINE]))
            factors = ["t", *factors[_FACTORS_PER_LINE:]]
        lines.append("    acc += " + "*".join(factors))
    lines.append("    return acc")
    # repr of a coefficient that overflowed to a float is "inf" or "-inf"
    namespace = {"__builtins__": {}, "inf": math.inf}
    exec("\n".join(lines), namespace)
    return CompiledPoly(terms, namespace["f"])


def eval_point(compiled: CompiledPoly, x: float, y: float, z: float) -> float:
    return compiled.fn(float(x), float(y), float(z))


def eval_grid(compiled: CompiledPoly, xs: np.ndarray, ys: np.ndarray,
              zs: np.ndarray) -> np.ndarray:
    """Evaluate over coordinate arrays, broadcast against each other."""
    xs, ys, zs = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64)
                                       for v in (xs, ys, zs)))
    # a constant polynomial evaluates to a float: fill the shape with it
    return np.full(xs.shape, compiled.fn(xs, ys, zs), dtype=np.float64)


@functools.lru_cache(maxsize=8)
def surface_angles(m: float, n: int) -> tuple[np.ndarray, ...]:
    """Read-only (angles, cos, sin, sqrt(m + cos)) of the n-point angle grid."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    table = (angles, np.cos(angles), np.sin(angles), np.sqrt(m + np.cos(angles)))
    for arr in table:
        arr.flags.writeable = False
    return table


def eval_surface(compiled: CompiledPoly, m: float, n: int) -> np.ndarray:
    """Compiled terms on the n x n torus grid, indexed [theta, phi], as U @ V.T:
    x^i y^j z^k = (cos^i sin^j)(theta) * (r^(i+j) sin^k)(phi), a column per (i, j)."""
    _, cos, sin, r = surface_angles(float(m), n)
    phi_parts: dict[tuple[int, int], np.ndarray] = {}
    for (i, j, k), c in compiled.terms:
        phi_parts[i, j] = phi_parts.get((i, j), 0.0) + c * sin ** k
    u, v = np.empty((2, n, len(phi_parts)))
    for col, ((i, j), part) in enumerate(phi_parts.items()):
        u[:, col] = cos ** i * sin ** j
        v[:, col] = r ** (i + j) * part
    return u @ v.T


def rk4_orbit(p_poly: CompiledPoly, q_poly: CompiledPoly, r_poly: CompiledPoly,
              start: tuple[float, float, float], dt: float, nsteps: int,
              project: bool, m: float) -> tuple[np.ndarray, int]:
    """Fixed-step RK4; returns the state history and -1, or the overflow step.

    With ``project`` set, each step is followed by one Newton correction
    along the torus gradient to re-impose F = 0.
    """
    fp, fq, fr = p_poly.fn, q_poly.fn, r_poly.fn
    dt, m = float(dt), float(m)
    nsteps = int(nsteps)
    x, y, z = (float(v) for v in start)
    out = np.empty((nsteps + 1, 3), dtype=np.float64)
    out[0] = (x, y, z)
    for step in range(1, nsteps + 1):
        k1x = fp(x, y, z); k1y = fq(x, y, z); k1z = fr(x, y, z)
        ax = x + 0.5 * dt * k1x; ay = y + 0.5 * dt * k1y; az = z + 0.5 * dt * k1z
        k2x = fp(ax, ay, az); k2y = fq(ax, ay, az); k2z = fr(ax, ay, az)
        bx = x + 0.5 * dt * k2x; by = y + 0.5 * dt * k2y; bz = z + 0.5 * dt * k2z
        k3x = fp(bx, by, bz); k3y = fq(bx, by, bz); k3z = fr(bx, by, bz)
        cx = x + dt * k3x; cy = y + dt * k3y; cz = z + dt * k3z
        k4x = fp(cx, cy, cz); k4y = fq(cx, cy, cz); k4z = fr(cx, cy, cz)
        x += dt / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += dt / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += dt / 6.0 * (k1z + 2.0 * (k2z + k3z) + k4z)
        if project:
            s = x * x + y * y - m
            f = s * s + z * z - 1.0
            gx = 4.0 * x * s; gy = 4.0 * y * s; gz = 2.0 * z
            g2 = gx * gx + gy * gy + gz * gz
            if g2 > 0.0:
                lam = f / g2
                x -= lam * gx; y -= lam * gy; z -= lam * gz
        out[step] = (x, y, z)
        if abs(x) > 1e6 or abs(y) > 1e6 or abs(z) > 1e6:
            return out, step
    return out, -1
