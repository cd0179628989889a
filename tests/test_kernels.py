import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusfields import (CubicParams, MultiPoly, Scalar, X, Y, build_cubic,
                         integrate, meridian_periodicity, parse)
from torusfields.kernels import (compile_poly, eval_grid, eval_point,
                                 eval_surface, rk4_orbit, surface_angles)

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


# The paper's named fields (worked cubic, rotation, pseudo-type, bowl,
# two-parallel, Kolmogorov, quadratic) as (P, Q, R).
NAMED_FIELDS = [
    ("(1/4)*x*z + x*y^2", "(1/4)*y*z - x^2*y",
     "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"),
    ("y", "-x", "0"),
    ("(x^2 - y^2)*y", "-(x^2 - y^2)*x", "0"),
    ("(y^2 + (z - 1/2)^2)*y", "-(y^2 + (z - 1/2)^2)*x", "0"),
    ("(1/2)*x^2*z + (y^2 + a^2 + 1)*y - (1/2)*a^2*z",
     "(1/2)*x*y*z - (y^2 + a^2 + 1)*x", "x*(z^2 - 1)"),
    ("(1/4)*(2*z)*x*z + (x*y)*y", "(1/4)*(2*z)*y*z - (x*y)*x",
     "(1/2)*(2*z)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"),
    ("(1/4)*2*x*z + (x - 2*y + z + 1)*y", "(1/4)*2*y*z - (x - 2*y + z + 1)*x",
     "(1/2)*2*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"),
]
M_VALUES = [Fraction(4), Fraction(3), Fraction(9, 2)]


# -- reference: the term loop the generated evaluator must reproduce ----------


def reference_terms(p, m_float):
    exps = np.zeros((len(p.terms), 3), dtype=np.int64)
    coefs = np.zeros(len(p.terms), dtype=np.float64)
    for row, (exp, coeff) in enumerate(sorted(p.terms.items())):
        exps[row] = exp
        if coeff.q == 0:
            coefs[row] = float(coeff.p)
        else:
            coefs[row] = float(coeff.p) + float(coeff.q) * math.sqrt(m_float)
    return exps, coefs


def reference_eval_point(exps, coefs, x, y, z):
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
    return float(acc)


def reference_rk4_orbit(p, q, r, start, dt, nsteps, project, m):
    def ev(terms, x, y, z):
        return reference_eval_point(*terms, x, y, z)

    out = np.empty((nsteps + 1, 3), dtype=np.float64)
    out[0] = start
    x, y, z = (float(v) for v in start)
    for step in range(1, nsteps + 1):
        k1x = ev(p, x, y, z); k1y = ev(q, x, y, z); k1z = ev(r, x, y, z)
        ax = x + 0.5 * dt * k1x; ay = y + 0.5 * dt * k1y; az = z + 0.5 * dt * k1z
        k2x = ev(p, ax, ay, az); k2y = ev(q, ax, ay, az); k2z = ev(r, ax, ay, az)
        bx = x + 0.5 * dt * k2x; by = y + 0.5 * dt * k2y; bz = z + 0.5 * dt * k2z
        k3x = ev(p, bx, by, bz); k3y = ev(q, bx, by, bz); k3z = ev(r, bx, by, bz)
        cx = x + dt * k3x; cy = y + dt * k3y; cz = z + dt * k3z
        k4x = ev(p, cx, cy, cz); k4y = ev(q, cx, cy, cz); k4z = ev(r, cx, cy, cz)
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


def assert_same_orbit(got, want):
    (states, flag), (ref_states, ref_flag) = got, want
    assert flag == ref_flag
    last = len(states) if flag < 0 else flag + 1
    assert np.array_equal(states[:last], ref_states[:last])


@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("field", NAMED_FIELDS)
def test_eval_point_matches_term_loop(field, m):
    mf = float(m)
    rng = random.Random(7)
    for expr in field:
        p = parse(expr, m)
        compiled = compile_poly(p, mf)
        ref = reference_terms(p, mf)
        for _ in range(50):
            pt = [rng.uniform(-3.0, 3.0) for _ in range(3)]
            assert eval_point(compiled, *pt) == reference_eval_point(*ref, *pt)


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("field", NAMED_FIELDS)
def test_rk4_orbit_matches_term_loop(field, m, project):
    mf = float(m)
    polys = [parse(expr, m) for expr in field]
    r = math.sqrt(mf + math.cos(0.3))
    start = (r * math.cos(0.7), r * math.sin(0.7), math.sin(0.3))
    got = rk4_orbit(*(compile_poly(p, mf) for p in polys), start, 1e-2, 300,
                    project, mf)
    want = reference_rk4_orbit(*(reference_terms(p, mf) for p in polys),
                               start, 1e-2, 300, project, mf)
    assert_same_orbit(got, want)


def test_rk4_overflow_step_matches_term_loop():
    polys = [parse(expr, M) for expr in ("x^2", "0", "z")]
    got = rk4_orbit(*(compile_poly(p, 4.0) for p in polys), (5.0, 0.0, 0.5),
                    1e-2, 1000, False, 4.0)
    want = reference_rk4_orbit(*(reference_terms(p, 4.0) for p in polys),
                               (5.0, 0.0, 0.5), 1e-2, 1000, False, 4.0)
    assert 0 < got[1] < 1000
    assert_same_orbit(got, want)


# a degree-4097 term (one product per term would pass the compiler's nesting
# limit) and a coefficient that overflows to inf; m = 5 keeps a irrational,
# since at a square m it folds into a rational too large for a float
@pytest.mark.parametrize("expr", ["(x^64)^64*y - 3*z",
                                  "15*(10^60)^5*10^7*a*x + 1"])
def test_extreme_polynomials_compile(expr):
    p = parse(expr, Fraction(5))
    ref = reference_terms(p, 5.0)
    assert eval_point(compile_poly(p), 1.0001, 0.5, 2.0) == \
        reference_eval_point(*ref, 1.0001, 0.5, 2.0)


@pytest.mark.parametrize("expr, value", [("0", 0.0), ("-5/3", -5.0 / 3.0)])
def test_constant_grid_broadcasts(expr, value):
    compiled = compile_poly(parse(expr, M))
    xs = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    grid = eval_grid(compiled, xs, np.ones(3), 0.5)
    assert grid.shape == (2, 3) and grid.dtype == np.float64
    assert np.all(grid == value)
    grid[0, 0] = 1.0    # a fresh array, not a read-only broadcast view


def test_compile_cache_keyed_on_m_float():
    p = parse("a*x + z", Fraction(3))
    at_4, at_3 = compile_poly(p, 4.0), compile_poly(p, 3.0)
    assert eval_point(at_4, 1.0, 0.0, 0.0) == 2.0
    assert eval_point(at_3, 1.0, 0.0, 0.0) == math.sqrt(3.0)
    assert compile_poly(p, 4.0) is at_4
    # without m_float, the m the coefficients carry: a*x parsed at m = 5 and
    # at m = 3 must not share an entry
    at_5, at_3 = (compile_poly(parse("a*x", m)) for m in (Fraction(5), Fraction(3)))
    assert eval_point(at_5, 1.0, 0.0, 0.0) == math.sqrt(5.0)
    assert eval_point(at_3, 1.0, 0.0, 0.0) == math.sqrt(3.0)


def test_fallback_full_pipeline():
    # the worked example end to end on the generated evaluator
    params = CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0))
    verdicts = meridian_periodicity(params, M)
    assert [v.verdict.stability for v in verdicts] == \
        ["stable", "unstable", "stable", "unstable"]
    traj = integrate(build_cubic(params, M), (math.sqrt(5), 0, 0), 1.0, 1e-3, M)
    assert traj.torus_drift() < 1e-10
