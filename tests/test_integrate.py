import math
from fractions import Fraction

import numpy as np
import pytest

from torusfields import (KolmogorovParams, MultiPoly, PseudoTypeParams,
                         Scalar, StepOverflow, Trajectory, VectorField, X, Y,
                         build_kolmogorov, build_pseudo_type, export,
                         integrate, parse, trajectory_from_json)
from torusfields.integrate import MAX_STEPS

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


def test_csv_export():
    empty = Trajectory(np.empty((0, 6)), 4.0)
    assert export(empty, "csv") == b"t,x,y,z,theta,phi\n"

    one = Trajectory(np.array([[0.0, 2.0, 0.0, 0.0, 0.0, 0.0]]), 4.0)
    lines = export(one, "csv").decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,2,0,0,")

    with pytest.raises(ValueError):
        export(one, "xml")


def test_json_round_trip_byte_identical():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    traj = integrate(ko, torus_point(0.8, 0.1), 0.5, 1e-2, M)
    blob = export(traj, "json")
    again = export(trajectory_from_json(blob), "json")
    assert blob == again


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
