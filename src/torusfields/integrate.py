"""Fixed-step RK4 trajectories on the torus, with CSV/JSON export.

Runs are reproducible byte for byte: a fixed step, no adaptivity, and
17-significant-digit float formatting in both export formats.  Projection
(one Newton step along the torus gradient after each RK4 step) is off by
default so that invariance claims are tested honestly.  A state that leaves
the box |x|, |y|, |z| <= 1e6 or becomes non-finite (inf or nan) stops the
run with :class:`StepOverflow`; the CLI reports it as an error, exit 1.

Export format (a contract: the same trajectory always gives the same bytes):

* every float is written as ``"%.17g"`` (17 significant digits, which read
  back to the same float; ``-0``, ``inf``, ``-inf`` and ``nan`` as such);
* CSV: the header line ``t,x,y,z,theta,phi``, then one line per sample of
  six comma-separated values, every line ending in a newline;
* JSON: ``json.dumps(..., sort_keys=True, indent=2)`` of the object with
  keys ``columns`` (the six names), ``m`` (a string), ``projected`` (a
  bool) and ``samples`` (a list of six-string rows), in that key order,
  two-space indent and no trailing newline (the CLI writes one after it).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import compile_finite, float_m, rk4_orbit
from .vfield import VectorField

COLUMNS = ("t", "x", "y", "z", "theta", "phi")
# RK4 steps one call may ask for; 10M steps is 240 MB of states
MAX_STEPS = 10_000_000


class StepOverflow(RuntimeError):
    """A state left |x|, |y|, |z| <= 1e6 or became non-finite: an off-torus
    start, a non-invariant field or float overflow in the field's values."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: rows of (t, x, y, z, theta, phi).

    ``data`` is a read-only float64 view of the array passed in: the samples
    are formatted once, on the first export, and that text is reused.
    """

    data: np.ndarray            # shape (n, 6), float64
    m: float
    projected: bool = False

    def __post_init__(self):
        shape = np.shape(self.data)
        if len(shape) != 2 or shape[1] != len(COLUMNS):
            raise ValueError(f"trajectory data must have shape (n, {len(COLUMNS)}), "
                             f"got {shape}")
        data = np.asarray(self.data, dtype=np.float64).view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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

    @functools.cached_property
    def _csv(self) -> bytes:
        """The CSV export, whose value text the JSON export reuses."""
        values = tuple(self.data.ravel().tolist())
        return (_CSV_HEADER + (_CSV_ROW * len(self)) % values).encode()


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
    mf = float_m(m)
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
                f"state became non-finite or exceeded 1e6 "
                f"(t ~ {overflow * step:.6g})")
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


# The text of "%.17g" (digits, "-", "+", ".", "e", "inf", "nan") holds no
# comma, newline or quote and never needs JSON escaping.  The CSV fills one
# template per trajectory with one %-format call over all the values; the
# JSON samples are that CSV text with its separators rewritten.
_FIELD = "%.17g"
_CSV_HEADER = ",".join(COLUMNS) + "\n"
_CSV_ROW = ",".join([_FIELD] * len(COLUMNS)) + "\n"
# the row list opens with _JSON_OPEN, a CSV "," becomes _JSON_VALUE, a
# newline between rows _JSON_ROW (by way of ";", as both new separators hold
# what the other replaces) and the last newline _JSON_CLOSE
_JSON_OPEN = b'[\n    [\n      "'
_JSON_VALUE = b'",\n      "'
_JSON_ROW = b'"\n    ],\n    [\n      "'
_JSON_CLOSE = b'"\n    ]\n  ]\n}'
# sort_keys puts "samples" last, so the header ends in its empty list
_JSON_EMPTY_SAMPLES = "[]\n}"
_JSON_KEYS = {"columns", "m", "projected", "samples"}


def export(traj: Trajectory, fmt: str) -> bytes:
    """Serialize a trajectory as CSV or JSON bytes (format in the module doc)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r} (want csv or json)")
    csv = traj._csv
    if fmt == "csv":
        return csv
    header = json.dumps({"columns": list(COLUMNS), "m": _FIELD % float(traj.m),
                         "projected": traj.projected, "samples": []},
                        sort_keys=True, indent=2).encode()
    if not len(traj):
        return header
    rows = csv[len(_CSV_HEADER):-1]
    return (header[:-len(_JSON_EMPTY_SAMPLES)] + _JSON_OPEN
            + rows.replace(b"\n", b";").replace(b",", _JSON_VALUE).replace(b";", _JSON_ROW)
            + _JSON_CLOSE)


def trajectory_from_json(blob: bytes) -> Trajectory:
    """Read back :func:`export` JSON.

    Raises ValueError unless the blob is an object with the four keys,
    ``columns`` is the six names and every sample row holds six numbers
    (strings as :func:`export` writes them, or JSON numbers).
    """
    payload = json.loads(blob.decode())
    if not isinstance(payload, dict) or not _JSON_KEYS <= payload.keys():
        raise ValueError(f"want a JSON object with the keys {sorted(_JSON_KEYS)}")
    if payload["columns"] != list(COLUMNS):
        raise ValueError(f"columns must be {list(COLUMNS)}, got {payload['columns']!r}")
    samples = payload["samples"]
    bad_rows = f"samples must be rows of {len(COLUMNS)} numbers"
    try:
        data = (np.array(samples, dtype=np.float64) if samples
                else np.empty((0, len(COLUMNS))))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{bad_rows}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != len(COLUMNS):
        raise ValueError(f"{bad_rows}, got an array of shape {data.shape}")
    # numpy reads a JSON null as nan; only a table holding nan can have one
    if np.isnan(data).any() and any(None in row for row in samples):
        raise ValueError(f"{bad_rows}, got null")
    return Trajectory(data, float(payload["m"]), bool(payload["projected"]))
