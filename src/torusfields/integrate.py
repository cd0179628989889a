"""Fixed-step RK4 trajectories on the torus, with CSV/JSON export.

Runs are reproducible byte for byte: a fixed step, no adaptivity, and
17-significant-digit float formatting in both export formats.  Projection
(one Newton step along the torus gradient after each RK4 step) is off by
default so that invariance claims are tested honestly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import compile_finite, rk4_orbit
from .vfield import VectorField

COLUMNS = ("t", "x", "y", "z", "theta", "phi")
# RK4 steps one call may ask for; 10M steps is 240 MB of states
MAX_STEPS = 10_000_000


class StepOverflow(RuntimeError):
    """State norm exceeded 1e6: off-torus start or a non-invariant field."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: rows of (t, x, y, z, theta, phi)."""

    data: np.ndarray            # shape (n, 6), float64
    m: float
    projected: bool = False

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def states(self) -> np.ndarray:
        return self.data[:, 1:4]

    @property
    def thetas(self) -> np.ndarray:
        return self.data[:, 4]

    @property
    def phis(self) -> np.ndarray:
        return self.data[:, 5]

    def final_state(self) -> tuple[float, float, float]:
        x, y, z = self.data[-1, 1:4]
        return float(x), float(y), float(z)

    def torus_drift(self) -> float:
        """Max |F - F(start)| along the samples (max |F| for on-torus starts)."""
        x, y, z = self.data[:, 1], self.data[:, 2], self.data[:, 3]
        f = (x * x + y * y - self.m) ** 2 + z * z - 1.0
        return float(np.max(np.abs(f - f[0])))


def _angles(states: np.ndarray, m: float) -> np.ndarray:
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    theta = np.arctan2(y, x)
    phi = np.arctan2(z, x * x + y * y - m)
    return np.column_stack([theta, phi])


def integrate(field: VectorField, start: tuple[float, float, float],
              t_end: float, dt: float, m: Fraction | float,
              project: bool = False) -> Trajectory:
    """Classical RK4 with a fixed step from t = 0 to t_end."""
    if not all(math.isfinite(v) for v in (*start, dt, t_end)):
        raise ValueError(f"start, dt and t_end must be finite: {start}, {dt}, {t_end}")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end/dt = {t_end / dt:.6g} asks for more than "
                         f"{MAX_STEPS} RK4 steps")
    mf = float(m)
    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= dt * 1e-9:
        remainder = 0.0
    compiled = tuple(compile_finite(c, mf, name)
                     for c, name in zip(field.components(), "PQR"))

    def run(origin, step, count):
        states, overflow = rk4_orbit(*compiled, origin, step, count, project, mf)
        if overflow >= 0:
            raise StepOverflow(
                f"state exceeded 1e6 (t ~ {overflow * step:.6g})")
        return states

    if n_full > 0:
        states = run(start, dt, n_full)
        times = np.arange(n_full + 1, dtype=np.float64) * dt
        if remainder:
            tail = run(tuple(states[-1]), remainder, 1)
            states = np.vstack([states, tail[-1:]])
            times = np.append(times, t_end)
    else:
        states = run(start, remainder or t_end, 1)
        times = np.array([0.0, t_end])
    data = np.column_stack([times, states, _angles(states, mf)])
    return Trajectory(data, mf, project)


def _format_value(v: float) -> str:
    return format(float(v), ".17g")


def export(traj: Trajectory, fmt: str) -> bytes:
    """Serialize a trajectory as CSV or JSON bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(COLUMNS) + "\n")
        for row in traj.data:
            buf.write(",".join(_format_value(v) for v in row) + "\n")
        return buf.getvalue().encode()
    if fmt == "json":
        payload = {
            "m": _format_value(traj.m),
            "projected": traj.projected,
            "columns": list(COLUMNS),
            "samples": [[_format_value(v) for v in row] for row in traj.data],
        }
        return json.dumps(payload, sort_keys=True, indent=2).encode()
    raise ValueError(f"unknown export format {fmt!r} (want csv or json)")


def trajectory_from_json(blob: bytes) -> Trajectory:
    payload = json.loads(blob.decode())
    samples = [[float(v) for v in row] for row in payload["samples"]]
    data = (np.array(samples, dtype=np.float64).reshape(-1, 6)
            if samples else np.empty((0, 6)))
    return Trajectory(data, float(payload["m"]), bool(payload["projected"]))
