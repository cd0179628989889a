import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import torusfields.kernels as kernels
from torusfields import parse
from torusfields.kernels import (compile_poly, eval_grid, eval_point,
                                 eval_surface, surface_angles)

M = Fraction(4)


def test_compile_poly_embeds_sqrt_m():
    arrays = compile_poly(parse("a*x + 2", M))
    value = eval_point(arrays, 3.0, 0.0, 0.0)
    assert value == pytest.approx(2.0 * 3.0 + 2.0)


def test_grid_matches_pointwise():
    arrays = compile_poly(parse("x^2*y - 3*z + 1/2", M))
    xs = np.linspace(-2, 2, 7)
    ys = np.linspace(-1, 1, 7)
    zs = np.linspace(0, 1, 7)
    grid = eval_grid(arrays, xs, ys, zs)
    for i in range(7):
        assert grid[i] == pytest.approx(eval_point(arrays, xs[i], ys[i], zs[i]))


def test_zero_polynomial_kernel():
    arrays = compile_poly(parse("0", M))
    assert eval_point(arrays, 1.0, 2.0, 3.0) == 0.0
    assert np.all(eval_grid(arrays, np.ones(4), np.ones(4), np.ones(4)) == 0.0)


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
@pytest.mark.parametrize("n", [17, 32])
@pytest.mark.parametrize("expr", ["a*x*z + y^3 - 2", "0", "-5/3"])
def test_surface_grid_matches_pointwise(expr, n, m):
    mf = float(m)
    arrays = compile_poly(parse(expr, m), mf)
    grid = eval_surface(arrays, mf, n)
    assert grid.shape == (n, n)
    expected = np.empty((n, n))
    for i in range(n):
        theta = 2.0 * math.pi * i / n
        for j in range(n):
            phi = 2.0 * math.pi * j / n
            r = math.sqrt(mf + math.cos(phi))
            expected[i, j] = eval_point(arrays, r * math.cos(theta),
                                        r * math.sin(theta), math.sin(phi))
    assert np.max(np.abs(grid - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_surface_angle_tables_keyed_by_m():
    n = 16
    at_4, at_3 = surface_angles(4.0, n), surface_angles(3.0, n)
    assert at_4 is not at_3
    assert np.array_equal(at_4[0], at_3[0])
    assert np.array_equal(at_4[3], np.sqrt(4.0 + np.cos(at_4[0])))
    assert np.array_equal(at_3[3], np.sqrt(3.0 + np.cos(at_3[0])))
    assert not at_4[3].flags.writeable


def test_backends_agree():
    if not kernels.NUMBA_ENABLED:
        pytest.skip("numba backend not active")
    arrays = compile_poly(parse("x^3 - 2*x*y*z + (1/4)*z^2", M))
    xs = np.linspace(-2.0, 2.0, 33)
    ys = np.linspace(-1.5, 1.5, 33)
    zs = np.linspace(-1.0, 1.0, 33)
    via_np = kernels._eval_grid_np(*arrays, xs, ys, zs)
    via_nb = kernels._eval_grid_nb(*arrays, xs, ys, zs)
    assert np.max(np.abs(via_np - via_nb)) < 1e-12

    p = compile_poly(parse("y", M))
    q = compile_poly(parse("-x", M))
    r = compile_poly(parse("0", M))
    args = (*p, *q, *r, 2.0, 0.0, 0.0, 1e-2, 500, False, 4.0)
    states_py, flag_py = kernels._rk4_orbit_py(*args)
    states_nb, flag_nb = kernels._rk4_orbit_nb(*args)
    assert flag_py == flag_nb == -1
    assert np.max(np.abs(states_py - states_nb)) < 1e-12


def test_rk4_projection_branch_consistency():
    if not kernels.NUMBA_ENABLED:
        pytest.skip("numba backend not active")
    p = compile_poly(parse("y", M))
    q = compile_poly(parse("-x", M))
    r = compile_poly(parse("0", M))
    start = (np.sqrt(5.0), 0.0, 0.0)
    args = (*p, *q, *r, *start, 1e-2, 200, True, 4.0)
    states_py, _ = kernels._rk4_orbit_py(*args)
    states_nb, _ = kernels._rk4_orbit_nb(*args)
    assert np.max(np.abs(states_py - states_nb)) < 1e-12


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, TORUSFIELDS_NUMBA="0")
    code = ("import torusfields.kernels as k; "
            "print(k.backend(), k.NUMBA_ENABLED)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["numpy", "False"]


def test_env_flag_forces_numba():
    # "1" must give the numba backend, or fail loudly at import when numba
    # is missing -- never a silent numpy backend
    env = dict(os.environ, TORUSFIELDS_NUMBA="1")
    code = "import torusfields.kernels as k; print(k.backend())"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    if importlib.util.find_spec("numba") is not None:
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numba"
    else:
        assert out.returncode != 0
        assert out.stdout == ""
        last = out.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError:")
        assert "TORUSFIELDS_NUMBA" in last and "numba" in last


def test_fallback_full_pipeline():
    # the pure-numpy path must run the worked example end to end
    env = dict(os.environ, TORUSFIELDS_NUMBA="0")
    code = (
        "import math\n"
        "from fractions import Fraction\n"
        "import torusfields as tf\n"
        "m = Fraction(4)\n"
        "params = tf.CubicParams(tf.MultiPoly.constant(1), tf.X * tf.Y,\n"
        "                        tf.Scalar(0), tf.Scalar(0))\n"
        "verdicts = tf.meridian_periodicity(params, m)\n"
        "assert [v.verdict.stability for v in verdicts] == "
        "['stable', 'unstable', 'stable', 'unstable']\n"
        "field = tf.build_cubic(params, m)\n"
        "traj = tf.integrate(field, (math.sqrt(5), 0, 0), 1.0, 1e-3, m)\n"
        "assert traj.torus_drift() < 1e-10\n"
        "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "ok"
