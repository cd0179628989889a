"""Numeric hot paths: batched polynomial evaluation and RK4 stepping.

The exact-arithmetic layer compiles a polynomial down to two flat arrays
(term exponents and float coefficients); everything here operates on those
arrays.  Two interchangeable backends exist:

* a numba ``@njit`` backend (default whenever numba imports), and
* a pure numpy/python fallback.

Surface grid scans (``eval_surface``) are one matrix product on both.

numba is optional (the ``numba`` extra: ``pip install -e .[numba]``).
Selection is controlled by the ``TORUSFIELDS_NUMBA`` environment variable:
``"1"`` forces numba and raises ``ImportError`` at import when numba is not
importable, ``"0"`` forces the fallback, anything else (or unset)
auto-detects.  ``benchmarks/bench_kernels.py`` times the two side by side.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .poly import MultiPoly

_FLAG = os.environ.get("TORUSFIELDS_NUMBA", "auto").strip().lower()

if _FLAG == "0":
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit as _njit

        _HAVE_NUMBA = True
    except ImportError as exc:
        if _FLAG == "1":
            raise ImportError(
                "TORUSFIELDS_NUMBA=1 forces the numba backend, but numba is "
                "not importable; install the numba extra "
                "(pip install -e .[numba]) or unset TORUSFIELDS_NUMBA "
                "(or set it to 0) to use the numpy fallback") from exc
        _HAVE_NUMBA = False

NUMBA_ENABLED = _HAVE_NUMBA


def backend() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


TermArrays = tuple[np.ndarray, np.ndarray]


def compile_poly(p: MultiPoly, m_float: float | None = None) -> TermArrays:
    """Flatten a polynomial into (exponent array, float coefficient array)."""
    exps = np.zeros((len(p.terms), 3), dtype=np.int64)
    coefs = np.zeros(len(p.terms), dtype=np.float64)
    for row, (exp, coeff) in enumerate(sorted(p.terms.items())):
        exps[row] = exp
        if coeff.q == 0:
            coefs[row] = float(coeff.p)
        else:
            mf = float(coeff.m) if m_float is None else m_float
            coefs[row] = float(coeff.p) + float(coeff.q) * math.sqrt(mf)
    return exps, coefs


# -- pure numpy / python backend ---------------------------------------------


def _eval_grid_np(exps: np.ndarray, coefs: np.ndarray,
                  xs: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    acc = np.zeros(np.broadcast(xs, ys, zs).shape, dtype=np.float64)
    for (i, j, k), c in zip(exps, coefs):
        acc += c * xs ** int(i) * ys ** int(j) * zs ** int(k)
    return acc


def _eval_point_py(exps: np.ndarray, coefs: np.ndarray,
                   x: float, y: float, z: float) -> float:
    acc = 0.0
    for row in range(exps.shape[0]):
        v = coefs[row]
        for _ in range(exps[row, 0]):
            v *= x
        for _ in range(exps[row, 1]):
            v *= y
        for _ in range(exps[row, 2]):
            v *= z
        acc += v
    return acc


def _rk4_orbit_py(pe, pc, qe, qc, re_, rc, x0, y0, z0,
                  dt, nsteps, project, m):
    # term data as plain python lists: float loops beat numpy scalars here
    terms = []
    for exps, coefs in ((pe, pc), (qe, qc), (re_, rc)):
        terms.append([(int(i), int(j), int(k), float(c))
                      for (i, j, k), c in zip(exps, coefs)])

    def ev(tl, x, y, z):
        acc = 0.0
        for i, j, k, c in tl:
            v = c
            for _ in range(i):
                v *= x
            for _ in range(j):
                v *= y
            for _ in range(k):
                v *= z
            acc += v
        return acc

    tp, tq, tr = terms
    out = np.empty((nsteps + 1, 3), dtype=np.float64)
    out[0] = (x0, y0, z0)
    x, y, z = float(x0), float(y0), float(z0)
    for step in range(1, nsteps + 1):
        k1x = ev(tp, x, y, z); k1y = ev(tq, x, y, z); k1z = ev(tr, x, y, z)
        ax = x + 0.5 * dt * k1x; ay = y + 0.5 * dt * k1y; az = z + 0.5 * dt * k1z
        k2x = ev(tp, ax, ay, az); k2y = ev(tq, ax, ay, az); k2z = ev(tr, ax, ay, az)
        bx = x + 0.5 * dt * k2x; by = y + 0.5 * dt * k2y; bz = z + 0.5 * dt * k2z
        k3x = ev(tp, bx, by, bz); k3y = ev(tq, bx, by, bz); k3z = ev(tr, bx, by, bz)
        cx = x + dt * k3x; cy = y + dt * k3y; cz = z + dt * k3z
        k4x = ev(tp, cx, cy, cz); k4y = ev(tq, cx, cy, cz); k4z = ev(tr, cx, cy, cz)
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


# -- numba backend ------------------------------------------------------------

if _HAVE_NUMBA:

    @_njit(cache=True)
    def _eval_point_nb(exps, coefs, x, y, z):  # pragma: no cover - jitted
        acc = 0.0
        for row in range(exps.shape[0]):
            v = coefs[row]
            for _ in range(exps[row, 0]):
                v *= x
            for _ in range(exps[row, 1]):
                v *= y
            for _ in range(exps[row, 2]):
                v *= z
            acc += v
        return acc

    @_njit(cache=True)
    def _eval_grid_nb(exps, coefs, xs, ys, zs):  # pragma: no cover - jitted
        flat_x = xs.ravel()
        flat_y = ys.ravel()
        flat_z = zs.ravel()
        out = np.empty(flat_x.shape[0], dtype=np.float64)
        for n in range(flat_x.shape[0]):
            out[n] = _eval_point_nb(exps, coefs, flat_x[n], flat_y[n], flat_z[n])
        return out.reshape(xs.shape)

    @_njit(cache=True)
    def _rk4_orbit_nb(pe, pc, qe, qc, re_, rc, x0, y0, z0,
                      dt, nsteps, project, m):  # pragma: no cover - jitted
        out = np.empty((nsteps + 1, 3), dtype=np.float64)
        out[0, 0] = x0; out[0, 1] = y0; out[0, 2] = z0
        x = x0; y = y0; z = z0
        for step in range(1, nsteps + 1):
            k1x = _eval_point_nb(pe, pc, x, y, z)
            k1y = _eval_point_nb(qe, qc, x, y, z)
            k1z = _eval_point_nb(re_, rc, x, y, z)
            ax = x + 0.5 * dt * k1x; ay = y + 0.5 * dt * k1y; az = z + 0.5 * dt * k1z
            k2x = _eval_point_nb(pe, pc, ax, ay, az)
            k2y = _eval_point_nb(qe, qc, ax, ay, az)
            k2z = _eval_point_nb(re_, rc, ax, ay, az)
            bx = x + 0.5 * dt * k2x; by = y + 0.5 * dt * k2y; bz = z + 0.5 * dt * k2z
            k3x = _eval_point_nb(pe, pc, bx, by, bz)
            k3y = _eval_point_nb(qe, qc, bx, by, bz)
            k3z = _eval_point_nb(re_, rc, bx, by, bz)
            cx = x + dt * k3x; cy = y + dt * k3y; cz = z + dt * k3z
            k4x = _eval_point_nb(pe, pc, cx, cy, cz)
            k4y = _eval_point_nb(qe, qc, cx, cy, cz)
            k4z = _eval_point_nb(re_, rc, cx, cy, cz)
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
            out[step, 0] = x; out[step, 1] = y; out[step, 2] = z
            if abs(x) > 1e6 or abs(y) > 1e6 or abs(z) > 1e6:
                return out, step
        return out, -1


# -- dispatching front ---------------------------------------------------------


def eval_grid(term_arrays: TermArrays, xs: np.ndarray, ys: np.ndarray,
              zs: np.ndarray) -> np.ndarray:
    """Evaluate compiled terms over same-shape coordinate arrays."""
    exps, coefs = term_arrays
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    if NUMBA_ENABLED:
        xs, ys, zs = np.broadcast_arrays(xs, ys, zs)
        return _eval_grid_nb(exps, coefs, np.ascontiguousarray(xs),
                             np.ascontiguousarray(ys), np.ascontiguousarray(zs))
    return _eval_grid_np(exps, coefs, xs, ys, zs)


@functools.lru_cache(maxsize=8)
def surface_angles(m: float, n: int) -> tuple[np.ndarray, ...]:
    """Read-only (angles, cos, sin, sqrt(m + cos)) of the n-point angle grid."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    table = (angles, np.cos(angles), np.sin(angles), np.sqrt(m + np.cos(angles)))
    for arr in table:
        arr.flags.writeable = False
    return table


def eval_surface(term_arrays: TermArrays, m: float, n: int) -> np.ndarray:
    """Compiled terms on the n x n torus grid, indexed [theta, phi], as U @ V.T:
    x^i y^j z^k = (cos^i sin^j)(theta) * (r^(i+j) sin^k)(phi), a column per (i, j)."""
    _, cos, sin, r = surface_angles(float(m), n)
    phi_parts: dict[tuple[int, int], np.ndarray] = {}
    for (i, j, k), c in zip(term_arrays[0].tolist(), term_arrays[1].tolist()):
        phi_parts[i, j] = phi_parts.get((i, j), 0.0) + c * sin ** k
    u, v = np.empty((2, n, len(phi_parts)))
    for col, ((i, j), part) in enumerate(phi_parts.items()):
        u[:, col] = cos ** i * sin ** j
        v[:, col] = r ** (i + j) * part
    return u @ v.T


def eval_point(term_arrays: TermArrays, x: float, y: float, z: float) -> float:
    exps, coefs = term_arrays
    if NUMBA_ENABLED:
        return float(_eval_point_nb(exps, coefs, float(x), float(y), float(z)))
    return float(_eval_point_py(exps, coefs, float(x), float(y), float(z)))


def rk4_orbit(p_arrays: TermArrays, q_arrays: TermArrays, r_arrays: TermArrays,
              start: tuple[float, float, float], dt: float, nsteps: int,
              project: bool, m: float) -> tuple[np.ndarray, int]:
    """Fixed-step RK4; returns the state history and -1, or the overflow step.

    With ``project`` set, each step is followed by one Newton correction
    along the torus gradient to re-impose F = 0.
    """
    x0, y0, z0 = (float(v) for v in start)
    args = (*p_arrays, *q_arrays, *r_arrays, x0, y0, z0,
            float(dt), int(nsteps), bool(project), float(m))
    if NUMBA_ENABLED:
        return _rk4_orbit_nb(*args)
    return _rk4_orbit_py(*args)


def make_evaluator(p: MultiPoly, m_float: float | None = None):
    """Closure evaluating one polynomial at float points."""
    arrays = compile_poly(p, m_float)

    def ev(x: float, y: float, z: float) -> float:
        return eval_point(arrays, x, y, z)

    return ev
