import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from torusfields import (KolmogorovParams, MultiPoly, PseudoTypeParams,
                         Scalar, StepOverflow, Trajectory, VectorField, X, Y,
                         build_kolmogorov, build_pseudo_type, export,
                         integrate, parse, trajectory_from_json)
from torusfields.integrate import COLUMNS, MAX_STEPS

M = Fraction(4)
ROTATION = VectorField(Y, -X, MultiPoly.zero())


def torus_point(theta, phi, m=4.0):
    r = math.sqrt(m + math.cos(phi))
    return r * math.cos(theta), r * math.sin(theta), math.sin(phi)


def test_rotation_closes():
    start = torus_point(0.0, 0.0)
    traj = integrate(ROTATION, start, 2 * math.pi, 1e-3, M)
    assert max(abs(a - b) for a, b in zip(traj.final_state(), start)) < 1e-8
    assert traj.torus_drift() < 1e-12


def test_drift_shrinks_with_rk4_order():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    start = torus_point(0.3, 0.7)
    coarse = integrate(ko, start, 10.0, 0.05, M).torus_drift()
    fine = integrate(ko, start, 10.0, 0.025, M).torus_drift()
    assert coarse / fine >= 8.0


def test_first_integral_drift_pseudo_type():
    field = build_pseudo_type(PseudoTypeParams(3, parse("x^2 - y^2", M)))
    start = torus_point(0.4, 1.1)
    traj = integrate(field, start, 50.0, 1e-3, M)
    x, y, z = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
    radial = x * x + y * y
    assert np.max(np.abs(radial - radial[0])) < 1e-9
    assert np.max(np.abs(z - z[0])) < 1e-9


def test_time_reversal_returns():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    start = torus_point(1.2, 0.5)
    forward = integrate(ko, start, 5.0, 1e-3, M)
    backward = integrate(VectorField(-ko.P, -ko.Q, -ko.R),
                         forward.final_state(), 5.0, 1e-3, M)
    assert max(abs(a - b) for a, b in zip(backward.final_state(), start)) < 1e-6


def test_projection_pins_surface():
    ko = build_kolmogorov(KolmogorovParams(Scalar(3), Scalar(1)), M)
    start = torus_point(2.0, 2.5)
    traj = integrate(ko, start, 20.0, 5e-3, M, project=True)
    assert traj.torus_drift() < 1e-10
    assert traj.projected


def test_overflow_detection():
    runaway = VectorField(X * X, MultiPoly.zero(), MultiPoly.zero())
    with pytest.raises(StepOverflow):
        integrate(runaway, (5.0, 0.0, 0.0), 10.0, 1e-2, M)


def test_fractional_final_step():
    traj = integrate(ROTATION, (2.0, 0.0, 0.0), 0.0025, 1e-3, M)
    assert traj.times[-1] == pytest.approx(0.0025)
    traj = integrate(ROTATION, (2.0, 0.0, 0.0), 5e-4, 1e-3, M)
    assert len(traj) == 2 and traj.times[-1] == pytest.approx(5e-4)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        integrate(ROTATION, (2.0, 0.0, 0.0), -1.0, 1e-3, M)
    with pytest.raises(ValueError):
        integrate(ROTATION, (2.0, 0.0, 0.0), 1.0, 0.0, M)


@pytest.mark.parametrize("t_end, dt", [((MAX_STEPS + 1) * 1e-3, 1e-3),
                                        (1e30, 1e-3), (1e300, 1e-300)])
def test_step_count_over_cap_rejected(t_end, dt):
    # the cap is checked before any state array is allocated
    with pytest.raises(ValueError, match="RK4 steps"):
        integrate(ROTATION, (2.0, 0.0, 0.0), t_end, dt, M)


def test_angles_recorded():
    start = torus_point(0.5, 0.25)
    traj = integrate(ROTATION, start, 1.0, 1e-2, M)
    assert traj.thetas[0] == pytest.approx(0.5)
    assert traj.phis[0] == pytest.approx(0.25)


# -- export format ---------------------------------------------------------------
# The reference below formats one value at a time with format(v, ".17g") and
# json.dumps over a list of strings; export must match it byte for byte.


def reference_format(v):
    return format(float(v), ".17g")


def reference_export(traj, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(COLUMNS) + "\n")
        for row in traj.data:
            buf.write(",".join(reference_format(v) for v in row) + "\n")
        return buf.getvalue().encode()
    payload = {
        "m": reference_format(traj.m),
        "projected": traj.projected,
        "columns": list(COLUMNS),
        "samples": [[reference_format(v) for v in row] for row in traj.data],
    }
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def reference_from_json(blob):
    payload = json.loads(blob.decode())
    samples = [[float(v) for v in row] for row in payload["samples"]]
    return np.array(samples, dtype=np.float64).reshape(-1, 6)


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def golden_trajectories():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    start = torus_point(0.8, 0.1)
    for project in (False, True):
        yield f"empty-{project}", Trajectory(np.empty((0, 6)), 4.0, project)
        yield f"extremes-{project}", Trajectory(np.array([EXTREMES]), 4.0, project)
        yield (f"orbit-{project}",
               integrate(ko, start, 600 * 1e-3, 1e-3, M, project=project))
    # a non-integer m and a column-sliced (non-contiguous) array
    wide = np.random.default_rng(3).standard_normal((7, 12))
    yield "strided", Trajectory(wide[:, ::2], 4.5)


@pytest.mark.parametrize("name, traj", list(golden_trajectories()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_export_matches_reference_bytes(name, traj):
    for fmt in ("csv", "json"):
        assert export(traj, fmt) == reference_export(traj, fmt)
    blob = export(traj, "json")
    back = trajectory_from_json(blob)
    assert back.data.tobytes() == reference_from_json(blob).tobytes()
    assert back.data.shape == (len(traj), 6)
    assert (back.m, back.projected) == (traj.m, traj.projected)
    assert export(back, "json") == blob


def test_export_order_and_read_only_data():
    # the samples are formatted on the first export, whichever format it is
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    traj = integrate(ko, torus_point(0.8, 0.1), 0.05, 1e-3, M)
    blob = export(traj, "json")
    assert export(traj, "csv") == reference_export(traj, "csv")
    assert blob == reference_export(traj, "json")
    with pytest.raises(ValueError):
        traj.data[0, 0] = 1.0
    mine = np.zeros((2, 6))
    Trajectory(mine, 4.0)
    mine[0, 0] = 1.0        # the caller's own array stays writable


def test_csv_export():
    empty = Trajectory(np.empty((0, 6)), 4.0)
    assert export(empty, "csv") == b"t,x,y,z,theta,phi\n"

    one = Trajectory(np.array([[0.0, 2.0, 0.0, 0.0, 0.0, 0.0]]), 4.0)
    lines = export(one, "csv").decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,2,0,0,")

    with pytest.raises(ValueError):
        export(one, "xml")


@pytest.mark.parametrize("shape", [(3, 5), (3, 7), (6,), (0,), (2, 3, 6)])
def test_trajectory_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"shape \(n, 6\), got " + re.escape(str(shape))):
        Trajectory(np.zeros(shape), 4.0)


def test_empty_trajectory_exports():
    empty = Trajectory(np.zeros((0, 6)), 4.0)
    assert export(empty, "csv") == b"t,x,y,z,theta,phi\n"
    back = trajectory_from_json(export(empty, "json"))
    assert back.data.shape == (0, 6) and back.m == 4.0


def test_json_round_trip_byte_identical():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    traj = integrate(ko, torus_point(0.8, 0.1), 0.5, 1e-2, M)
    blob = export(traj, "json")
    again = export(trajectory_from_json(blob), "json")
    assert blob == again


def json_blob(samples, columns=COLUMNS):
    return json.dumps({"columns": list(columns), "m": "4", "projected": False,
                       "samples": samples}).encode()


@pytest.mark.parametrize("samples", [
    [["1"] * 5] * 6,                    # 30 values: reshape(-1, 6) would make 5 rows
    [["1"] * 7] * 3,
    [["1"] * 6, ["1"] * 5],
    [["1"] * 6, ["1"] * 6 + [["1"]]],
    [["1"] * 6, "123456"],
    ["1"] * 6,
    [[["1"] * 6]],
    [["1"] * 5 + [None]],
    [["1"] * 5 + ["x"]],
], ids=["6x5", "3x7", "ragged", "nested-entry", "string-row", "flat", "3d",
        "null", "not-a-number"])
def test_from_json_rejects_malformed_samples(samples):
    with pytest.raises(ValueError, match="samples must be rows of 6 numbers"):
        trajectory_from_json(json_blob(samples))


@pytest.mark.parametrize("columns", [COLUMNS[:5], COLUMNS[::-1],
                                     (*COLUMNS, "speed")])
def test_from_json_rejects_other_columns(columns):
    with pytest.raises(ValueError, match="columns must be"):
        trajectory_from_json(json_blob([["1"] * 6], columns))


@pytest.mark.parametrize("blob", [b"[]", b'"samples"', b'{"columns": [], "samples": []}',
                                  b'{"m": "4", "projected": false, "samples": []}'])
def test_from_json_rejects_other_documents(blob):
    with pytest.raises(ValueError, match="want a JSON object with the keys"):
        trajectory_from_json(blob)


def test_from_json_reads_numbers_and_nan():
    back = trajectory_from_json(json_blob([[0, 1.5, "-0", "inf", "-inf", "nan"]]))
    assert back.data.shape == (1, 6)
    assert back.data[0, :2].tolist() == [0.0, 1.5]
    assert math.copysign(1.0, back.data[0, 2]) == -1.0
    assert back.data[0, 3:5].tolist() == [math.inf, -math.inf]
    assert math.isnan(back.data[0, 5])


def test_non_finite_state_raises_step_overflow():
    # 1e308*(z^2 - 1/4)*y has finite float coefficients, but its values
    # overflow on the way and the state turns nan after one step
    field = VectorField(parse("(10^44)^7*(z^2 - 1/4)*y", M),
                        parse("-(10^44)^7*(z^2 - 1/4)*x", M), MultiPoly.zero())
    with pytest.raises(StepOverflow, match="non-finite"):
        integrate(field, (3.0, 0.0, 0.0), 0.002, 1e-3, M)


def test_perturbed_unstable_meridian_flows_to_stable():
    # worked cubic example: a start just off the x = 0 meridian drifts to
    # the nearest stable meridian angle (theta = 0 or pi)
    from torusfields import CubicParams, MultiPoly, Scalar, X, Y, build_cubic

    field = build_cubic(CubicParams(MultiPoly.constant(1), X * Y,
                                    Scalar(0), Scalar(0)), M)
    start = torus_point(math.pi / 2 + 1e-3, 0.3)
    traj = integrate(field, start, 30.0, 1e-3, M)
    xf, yf, _ = traj.final_state()
    theta_final = math.atan2(yf, xf) % (2 * math.pi)
    assert abs(theta_final - math.pi) < 1e-4

    start = torus_point(math.pi / 2 - 1e-3, 0.3)
    traj = integrate(field, start, 30.0, 1e-3, M)
    xf, yf, _ = traj.final_state()
    theta_final = math.atan2(yf, xf) % (2 * math.pi)
    assert min(theta_final, 2 * math.pi - theta_final) < 1e-4
