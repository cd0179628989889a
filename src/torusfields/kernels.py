"""Numeric hot paths: polynomial evaluation, torus surface grids and RK4 stepping.

``compile_poly`` turns an exact polynomial into one generated python function
of ``(x, y, z)``: a straight-line sum, starting from ``0.0``, of terms
``c*x*...*y*...*z*...`` in sorted term order.  Called with floats it gives
point values (``eval_point``); called with numpy arrays it does the same
arithmetic elementwise (``eval_grid``, which no stage of the package calls).
``rk4_orbit`` runs one generated loop per field with those statements
written out at each RK4 stage, so its states are bit for bit the ones the
compiled functions give.  A surface grid scan (``surface_blocks``, which
the singular scan's level grids and the |chi| minima use) writes the matrix
product ``U @ V.T`` of one polynomial's float terms into its grid, or into
one reused block, by blocks of theta rows, each block about 256 KB of
float64, so every pass a scan makes over a block runs in the cache (loop
blocking; Lam, Rothberg & Wolf, ASPLOS 1991).  The factors U and V are
built from powers of cos and sin kept per n and of r kept per (m, n)
across scans (``_surface_power``), and a factor with one column is
multiplied out by broadcasting, not by BLAS.
"""

from __future__ import annotations

import array
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .poly import MultiPoly

# Compiled polynomials kept: repeated reports and classifications on one
# field compile the same polynomials and derivatives again.
_CACHE_SIZE = 256
# Factors per generated expression: a product nests once per factor, and the
# parser accepts degrees (e.g. (x^64)^64) deeper than the compiler's limit.
_FACTORS_PER_LINE = 256
# float64 values per theta-row block of a surface scan (256 KB).
_BLOCK_VALUES = 32768
# Powers of cos, sin and r kept across surface scans: 1 MB of tables at the
# default grid of 512 points.
_POWERS_KEPT = 256


def backend() -> str:
    """Name of the float evaluator (there is only one)."""
    return "numpy"


@dataclass(frozen=True)
class CompiledPoly:
    """Float terms ((i, j, k), c) in sorted order and the function summing them."""

    terms: tuple[tuple[tuple[int, int, int], float], ...]
    fn: Callable


def _sum_lines(terms: tuple, at: tuple[str, str, str], acc: str,
               indent: str) -> list[str]:
    """Statements that set ``acc`` to the terms' sum at the point named ``at``."""
    lines = [f"{indent}{acc} = 0.0"]
    for (i, j, k), c in terms:
        factors = [repr(c)] + [at[0]] * i + [at[1]] * j + [at[2]] * k
        while len(factors) > _FACTORS_PER_LINE:
            lines.append(f"{indent}t = " + "*".join(factors[:_FACTORS_PER_LINE]))
            factors = ["t", *factors[_FACTORS_PER_LINE:]]
        lines.append(f"{indent}{acc} += " + "*".join(factors))
    return lines


def _define(lines: list[str], name: str) -> Callable:
    # only repr(float), local names, range and inf reach exec; the repr of
    # a coefficient that overflowed to a float is "inf" or "-inf"
    namespace = {"__builtins__": {}, "range": range, "inf": math.inf}
    exec("\n".join(lines), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def compile_poly(p: MultiPoly, m_float: float) -> CompiledPoly:
    """Compile a polynomial to float terms and a generated evaluator, with
    ``m_float`` substituted for m in sqrt(m) coefficients."""
    terms = p.float_terms(m_float)
    lines = ["def f(x, y, z):", *_sum_lines(terms, ("x", "y", "z"), "acc", "    "),
             "    return acc"]
    return CompiledPoly(terms, _define(lines, "f"))


def compile_finite(p: MultiPoly, m_float: float, what: str) -> CompiledPoly:
    """:func:`compile_poly` for a float stage, which needs finite coefficients.

    Raises ValueError naming ``what`` when a coefficient overflows to an
    infinite float, or is a rational too large for a float.
    """
    try:
        compiled = compile_poly(p, m_float)
    except OverflowError:
        compiled = None
    if compiled is None or not all(math.isfinite(c) for _, c in compiled.terms):
        raise ValueError(f"{what} has a coefficient beyond the float range, "
                         "which the numeric stages cannot evaluate")
    return compiled


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
def _circle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (angles, cos, sin) of the n-point angle grid."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    table = (angles, np.cos(angles), np.sin(angles))
    for arr in table:
        arr.flags.writeable = False
    return table


def float_m(m) -> float:
    """m as a float; ValueError naming m when it is beyond the float range."""
    try:
        return float(m)
    except OverflowError:
        raise ValueError("m is beyond the float range (at most "
                         f"{sys.float_info.max:.6g})") from None


@functools.lru_cache(maxsize=8)
def surface_angles(m: float, n: int) -> tuple[np.ndarray, ...]:
    """Read-only (angles, cos, sin, sqrt(m + cos)) of the n-point angle grid;
    the angle, cos and sin tables are the same arrays for every m."""
    if not m > 1.0:
        raise ValueError(f"m is {m!r} as a float, not above 1: every grid's radius "
                         "sqrt(m + cos(phi)) is 0 at phi = pi")
    angles, cos, sin = _circle(n)
    r = np.sqrt(m + cos)
    r.flags.writeable = False
    return angles, cos, sin, r


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of the theta-row blocks of an n x n grid, in order.

    A block holds at most ``_BLOCK_VALUES`` values (at least one row).  The
    rows are split evenly over the blocks, so no block of a grid up to 16384
    rows is a single row: numpy hands a one-row product to a matrix-vector
    routine that rounds differently.
    """
    count = -(-n // max(1, _BLOCK_VALUES // n))
    bounds = [n * b // count for b in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


@functools.lru_cache(maxsize=_POWERS_KEPT)
def _surface_power(m: float | None, n: int, table: int, e: int) -> np.ndarray:
    """Read-only ``surface_angles(m, n)[table] ** e``, table 1, 2 or 3 for cos,
    sin or r: the scans of one grid ask for the same few powers every call.
    The cos and sin powers do not depend on m and are asked for with m None,
    so every m shares them."""
    power = (_circle(n) if m is None else surface_angles(m, n))[table] ** e
    power.flags.writeable = False
    return power


def _surface_factors(compiled: CompiledPoly, m: float,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, V.T) with U @ V.T the polynomial on the n x n grid: a column per
    (i, j), U's holding cos^i sin^j and V's r^(i+j) times the sum of c sin^k."""
    phi_parts: dict[tuple[int, int], np.ndarray] = {}
    for (i, j, k), c in compiled.terms:
        phi_parts[i, j] = phi_parts.get((i, j), 0.0) + c * _surface_power(None, n, 2, k)
    u, v = np.empty((2, n, len(phi_parts)))
    for col, ((i, j), part) in enumerate(phi_parts.items()):
        u[:, col] = _surface_power(None, n, 1, i) * _surface_power(None, n, 2, j)
        v[:, col] = _surface_power(m, n, 3, i + j) * part
    return u, v.T


def surface_blocks(compiled: CompiledPoly, m: float, n: int,
                   out: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """The polynomial on the n x n torus grid ``out``, indexed [theta, phi],
    by theta-row blocks in turn: yields (rows, out[rows]) once those rows
    hold its values.  Without ``out`` each block is written over the last
    one in a buffer of one block, and no grid is kept.

    On the torus x^i y^j z^k = (cos^i sin^j)(theta) * (r^(i+j) sin^k)(phi),
    so a polynomial on the grid is U @ V.T with a column per (i, j); a block
    is the product of U's rows with V.T.  With OpenBLAS a block is
    bit-equal to the same rows of the full product when n is a multiple of
    8.  A one-column product is a single multiply per value, with no sum,
    so broadcasting gives the same bits without a BLAS call.
    """
    u, vt = _surface_factors(compiled, float(m), n)
    product = np.multiply if u.shape[1] == 1 else np.matmul
    blocks = row_blocks(n)
    buffer = np.empty((max(b - a for a, b in blocks), n)) if out is None else None
    for a, b in blocks:
        target = out[a:b] if buffer is None else buffer[:b - a]
        yield slice(a, b), product(u[a:b], vt, out=target)


# One RK4 step with the stage evaluations of P, Q, R written out in place,
# from the state (x, y, z); h = dt/2 and s6 = dt/6.
_RK4_STAGES = (("k1", ("x", "y", "z"), "ax = x + h * k1x; ay = y + h * k1y; az = z + h * k1z"),
               ("k2", ("ax", "ay", "az"), "bx = x + h * k2x; by = y + h * k2y; bz = z + h * k2z"),
               ("k3", ("bx", "by", "bz"), "cx = x + dt * k3x; cy = y + dt * k3y; cz = z + dt * k3z"),
               ("k4", ("cx", "cy", "cz"), None))
_RK4_UPDATE = """\
x += s6 * (k1x + 2.0 * (k2x + k3x) + k4x)
y += s6 * (k1y + 2.0 * (k2y + k3y) + k4y)
z += s6 * (k1z + 2.0 * (k2z + k3z) + k4z)
if project:
    s = x * x + y * y - m
    f = s * s + z * z - 1.0
    gx = 4.0 * x * s; gy = 4.0 * y * s; gz = 2.0 * z
    g2 = gx * gx + gy * gy + gz * gz
    if g2 > 0.0:
        lam = f / g2
        x -= lam * gx; y -= lam * gy; z -= lam * gz
push((x, y, z))
# written so that a nan state, for which every comparison is False, stops too
if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6 and -1e6 <= z <= 1e6):
    return step"""


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _orbit_loop(p_terms: tuple, q_terms: tuple, r_terms: tuple) -> Callable:
    """Generated RK4 loop for one field: the statements of the three compiled
    polynomials inlined at each stage, so a step makes no function calls
    but ``push((x, y, z))``, which stores the state it reached."""
    body = []
    for k, at, advance in _RK4_STAGES:
        for terms, comp in zip((p_terms, q_terms, r_terms), "xyz"):
            body += _sum_lines(terms, at, k + comp, "        ")
        if advance:
            body.append("        " + advance)
    body += ["        " + line for line in _RK4_UPDATE.splitlines()]
    lines = ["def orbit(x, y, z, dt, nsteps, project, m, push):",
             "    h = 0.5 * dt; s6 = dt / 6.0",
             "    for step in range(1, nsteps + 1):", *body,
             "    return -1"]
    return _define(lines, "orbit")


def rk4_orbit(p_poly: CompiledPoly, q_poly: CompiledPoly, r_poly: CompiledPoly,
              start: tuple[float, float, float], dt: float, nsteps: int,
              project: bool, m: float) -> tuple[np.ndarray, int]:
    """Fixed-step RK4; returns the states from the start on, shape (n, 3), and
    -1 after all ``nsteps`` steps, or the first step whose state is
    non-finite or beyond 1e6 in some coordinate, which is the last state.

    With ``project`` set, each step is followed by one Newton correction
    along the torus gradient to re-impose F = 0.  The arithmetic is that of
    evaluating the compiled polynomials at each stage, bit for bit.
    """
    loop = _orbit_loop(p_poly.terms, q_poly.terms, r_poly.terms)
    x, y, z = (float(v) for v in start)
    states = array.array("d", (x, y, z))
    stop = loop(x, y, z, float(dt), int(nsteps), bool(project), float(m), states.extend)
    return np.frombuffer(states, dtype=np.float64).reshape(-1, 3), stop
