import math
import random
from fractions import Fraction

import numpy as np
import pytest

import warnings

from torusfields import (CubicParams, MultiPoly, QuadraticParams, Scalar,
                         VectorField, X, Y, build_cubic, build_quadratic,
                         recognize, singular_points,
                         integrate, parse)
from torusfields import dynamics, kernels
from torusfields.kernels import (compile_finite, compile_poly, eval_grid,
                                 eval_point, rk4_orbit, row_blocks,
                                 surface_angles, surface_blocks)

from conftest import meridian_verdicts

M = Fraction(4)


def test_compile_poly_embeds_sqrt_m():
    arrays = compile_poly(parse("a*x + 2", M), float(M))
    value = eval_point(arrays, 3.0, 0.0, 0.0)
    assert value == pytest.approx(2.0 * 3.0 + 2.0)


def test_grid_matches_pointwise():
    arrays = compile_poly(parse("x^2*y - 3*z + 1/2", M), float(M))
    xs = np.linspace(-2, 2, 7)
    ys = np.linspace(-1, 1, 7)
    zs = np.linspace(0, 1, 7)
    grid = eval_grid(arrays, xs, ys, zs)
    for i in range(7):
        assert grid[i] == pytest.approx(eval_point(arrays, xs[i], ys[i], zs[i]))


def test_zero_polynomial_kernel():
    arrays = compile_poly(parse("0", M), float(M))
    assert eval_point(arrays, 1.0, 2.0, 3.0) == 0.0
    assert np.all(eval_grid(arrays, np.ones(4), np.ones(4), np.ones(4)) == 0.0)


def reference_factors(compiled, m, n):
    """U and V of the compiled terms on the n x n grid, every power of cos,
    sin and r computed afresh."""
    _, cos, sin, r = surface_angles(float(m), n)
    phi_parts = {}
    for (i, j, k), c in compiled.terms:
        phi_parts[i, j] = phi_parts.get((i, j), 0.0) + c * sin ** k
    u, v = np.empty((2, n, len(phi_parts)))
    for col, ((i, j), part) in enumerate(phi_parts.items()):
        u[:, col] = cos ** i * sin ** j
        v[:, col] = r ** (i + j) * part
    return u, v


def eval_surface(compiled, m, n):
    """Full-grid reference: the compiled terms on the n x n torus grid,
    indexed [theta, phi], as one product U @ V.T."""
    u, v = reference_factors(compiled, m, n)
    return u @ v.T


def blocked_surface(compiled, m, n):
    """The grid ``surface_blocks`` fills, checking each block it yields."""
    grid = np.empty((n, n))
    for rows, block in surface_blocks(compiled, m, n, grid):
        assert np.shares_memory(block, grid) and block.shape == grid[rows].shape
    return grid


@pytest.mark.parametrize("n", [32, 100, 181, 182, 200, 512, 1000, 4096])
def test_row_blocks_cover_the_grid(n):
    blocks = row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
    sizes = [b - a for a, b in blocks]
    assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 2
    assert max(sizes) * n <= 32768      # at most 256 KB of float64 a block


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
@pytest.mark.parametrize("n", [17, 32])
@pytest.mark.parametrize("expr", ["a*x*z + y^3 - 2", "0", "-5/3"])
def test_surface_grid_matches_pointwise(expr, n, m):
    mf = float(m)
    arrays = compile_poly(parse(expr, m), mf)
    grid = blocked_surface(arrays, mf, n)
    assert np.array_equal(grid, eval_surface(arrays, mf, n))
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
    # the angle, cos and sin tables do not depend on m: one array each
    assert all(at_4[t] is at_3[t] for t in (0, 1, 2))
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
        if not all(abs(v) <= 1e6 for v in (x, y, z)):
            return out, step
    return out, -1


def assert_same_orbit(got, want):
    (states, flag), (ref_states, ref_flag) = got, want
    assert flag == ref_flag
    last = len(states) if flag < 0 else flag + 1
    assert np.array_equal(states[:last], ref_states[:last], equal_nan=True)


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


# 1e308*(z^2 - 1/4)*y overflows to inf at z = 0, and inf*0 makes the next
# state nan: a nan state stops the orbit as a state beyond 1e6 does
@pytest.mark.parametrize("m", [4.0, 5.0])
def test_rk4_non_finite_state_stops_orbit(m):
    polys = [parse(expr, Fraction(m)) for expr in
             ("(10^44)^7*(z^2 - 1/4)*y", "-(10^44)^7*(z^2 - 1/4)*x", "0")]
    got = rk4_orbit(*(compile_poly(p, m) for p in polys), (3.0, 0.0, 0.0),
                    1e-3, 5, False, m)
    with np.errstate(over="ignore", invalid="ignore"):     # numpy scalars warn
        want = reference_rk4_orbit(*(reference_terms(p, m) for p in polys),
                                   (3.0, 0.0, 0.0), 1e-3, 5, False, m)
    assert got[1] == 1
    assert not np.isfinite(got[0][1]).all()
    assert_same_orbit(got, want)


# a degree-4097 term (one product per term would pass the compiler's nesting
# limit) and a coefficient that overflows to inf; m = 5 keeps a irrational,
# since at a square m it folds into a rational too large for a float
@pytest.mark.parametrize("expr", ["(x^64)^64*y - 3*z",
                                  "15*(10^60)^5*10^7*a*x + 1"])
def test_extreme_polynomials_compile(expr):
    p = parse(expr, Fraction(5))
    ref = reference_terms(p, 5.0)
    assert eval_point(compile_poly(p, 5.0), 1.0001, 0.5, 2.0) == \
        reference_eval_point(*ref, 1.0001, 0.5, 2.0)
    # and written out in the RK4 loop
    polys = [p, parse("y", Fraction(5)), parse("-z", Fraction(5))]
    start = (1.0001, 0.5, 2.0)
    got = rk4_orbit(*(compile_poly(poly, 5.0) for poly in polys), start, 1e-4,
                    20, False, 5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_rk4_orbit(*(reference_terms(poly, 5.0) for poly in polys),
                                   start, 1e-4, 20, False, 5.0)
    assert_same_orbit(got, want)


@pytest.mark.parametrize("expr, value", [("0", 0.0), ("-5/3", -5.0 / 3.0)])
def test_constant_grid_broadcasts(expr, value):
    compiled = compile_poly(parse(expr, M), float(M))
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


def test_fallback_full_pipeline():
    # the worked example end to end on the generated evaluator
    params = CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0))
    verdicts = meridian_verdicts(params, M)
    assert [v.verdict.stability for v in verdicts] == \
        ["stable", "unstable", "stable", "unstable"]
    traj = integrate(build_cubic(params, M), (math.sqrt(5), 0, 0), 1.0, 1e-3, M)
    assert traj.torus_drift() < 1e-10


# -- reference: the full-grid singular scan the blocked one must reproduce ---


def reference_cell_reduce(op, a):
    out = np.roll(a, -1, axis=0)
    op(out, a, out=out)
    return op(out, np.roll(out, -1, axis=1), out=out)


def row_extremes(vals):
    """Each grid row's (min, max), the form ``dynamics._level_grid`` gives."""
    return np.array([vals.min(axis=1), vals.max(axis=1)])


def reference_level_grid(levels, whats, mf, n):
    """``dynamics._level_grid`` from full-grid products, one per level."""
    vals = np.array([eval_surface(level, mf, n) for level in levels])
    return vals, np.array([row_extremes(v) for v in vals]), np.abs(vals).max(axis=(1, 2))


def reference_level_masks(vals, tau):
    """(has_sign_change, flagged) of one level on the full grid."""
    has_sign_change = ((reference_cell_reduce(np.minimum, vals) < 0.0)
                       & (reference_cell_reduce(np.maximum, vals) > 0.0))
    flagged = has_sign_change | (reference_cell_reduce(np.minimum, np.abs(vals)) < tau)
    return has_sign_change, flagged


def reference_cell_masks(vals, extremes, taus):
    """``dynamics._cell_masks``: the cells that change sign, or are flagged,
    for every level, from each level's full-grid masks."""
    masks = [reference_level_masks(v, t) for v, t in zip(vals, taus)]
    return tuple(np.logical_and.reduce([mask[i] for mask in masks]) for i in (0, 1))


def cell_masks(vals, extremes, tau):
    """``dynamics._cell_masks`` of a single level."""
    return dynamics._cell_masks(vals[None], extremes[None], [tau])


def reference_components(flagged, has_sign_change):
    grid = flagged.shape[0]
    visited = np.zeros_like(flagged, dtype=bool)
    for ci, cj in np.argwhere(flagged):
        if visited[ci, cj]:
            continue
        stack = [(int(ci), int(cj))]
        visited[ci, cj] = True
        cells = []
        sign_change = False
        while stack:
            i, j = stack.pop()
            cells.append((i, j))
            if has_sign_change[i, j]:
                sign_change = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = (i + di) % grid, (j + dj) % grid
                    if flagged[ni, nj] and not visited[ni, nj]:
                        visited[ni, nj] = True
                        stack.append((ni, nj))
        yield cells, sign_change


def reference_component_arrays(flagged, has_sign_change):
    """The walk's components in ``dynamics._components``'s form: (cells,
    bounds, sign_change), each component's flat indices ascending."""
    n = flagged.shape[0]
    parts, signs = [], []
    for cells, sign_change in reference_components(flagged, has_sign_change):
        parts.append(sorted(i * n + j for i, j in cells))
        signs.append(sign_change)
    bounds = np.cumsum([0] + [len(part) for part in parts])
    return (np.array([c for part in parts for c in part], dtype=np.intp),
            bounds, np.array(signs, dtype=bool))


def assert_same_components(flagged, has_sign_change):
    """The labeller and the walk agree on the partition, on each component's
    sign change and on the component order; cells come in row-major order."""
    cells, bounds, sign_change = dynamics._components(flagged, has_sign_change)
    n = flagged.shape[0]
    got = [([divmod(int(c), n) for c in cells[a:b]], bool(s))
           for a, b, s in zip(bounds, bounds[1:], sign_change)]
    want = [(sorted(part), s) for part, s in reference_components(flagged, has_sign_change)]
    assert got == want
    assert bounds[-1] == cells.size == np.count_nonzero(flagged)


def reference_grid_min_speed(field, m, grid=512):
    """Full-grid reference of ``dynamics.grid_min_speed``: the square root
    of the least P^2 + Q^2 + R^2 over the grid, whatever the field."""
    mf = float(m)
    total = sum(eval_surface(compile_finite(component, mf, name), mf, grid) ** 2
                for component, name in zip(field.components(), "PQR"))
    return float(np.sqrt(np.min(total)))


def named_field(expr, m):
    return VectorField(*(parse(e, m) for e in expr))


def normal_form(field, m):
    """(K', f) of a field whose singular set is empty by its cubic form:
    K' = alpha and beta = gamma = 0, with alpha != 0 or f a nonzero
    constant; else None."""
    cubic = recognize(field, m).cubic
    if cubic is None or cubic.beta or cubic.gamma or not cubic.Kprime.is_scalar():
        return None
    if cubic.Kprime or (cubic.f.is_scalar() and cubic.f):
        return cubic.Kprime, cubic.f
    return None


def scan_levels(field, m):
    """The levels a scan samples for ``field``, compiled, and their names:
    A of a field (A*y, -A*x, 0), else the pair (L, M) of its cubic form, or
    (G2, G1)."""
    tag = recognize(field, m)
    if tag.rotation is not None:
        return [compile_poly(tag.rotation, float(m))], ["A"]
    pair, whats, _ = dynamics._tangential_pair(field, tag.cubic, m)
    return [compile_poly(p, float(m)) for p in pair], whats


def singular_set_and_warnings(field, m, n):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sing = singular_points(field, recognize(field, m), m, n)
    return sing, [str(w.message) for w in caught]


# 32 and 33 fit one block, 100 is one block smaller than the buffer, 200 is
# two blocks of 100 rows in a 163-row buffer, 512 is eight blocks of 64
@pytest.mark.parametrize("n", [32, 33, 100, 200, 512])
def test_blocked_scan_matches_full_grid(n, monkeypatch):
    for m in M_VALUES:
        mf = float(m)
        for expr in NAMED_FIELDS:
            field = named_field(expr, m)
            normal = normal_form(field, m)
            if normal is not None:
                speed = dynamics.grid_min_speed(field, *normal, m, n)
                assert abs(speed - reference_grid_min_speed(field, m, n)) \
                    <= 2.0 ** -47 * speed_scale(field, m)
            levels, whats = scan_levels(field, m)
            vals, extremes, vmax = dynamics._level_grid(levels, whats, mf, n)
            ref_vals, ref_extremes, ref_vmax = reference_level_grid(levels, whats, mf, n)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(extremes, ref_extremes)
            assert np.array_equal(vmax, ref_vmax)
            taus = vmax * (2.0 * math.pi / n) ** 2 * 4.0
            masks = dynamics._cell_masks(vals, extremes, taus)
            ref_masks = reference_cell_masks(vals, extremes, taus)
            assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
            assert_same_components(masks[1], masks[0])
    blocked = {(expr, m): singular_set_and_warnings(named_field(expr, m), m, n)
               for expr in NAMED_FIELDS for m in M_VALUES}
    monkeypatch.setattr(dynamics, "_level_grid", reference_level_grid)
    monkeypatch.setattr(dynamics, "_cell_masks", reference_cell_masks)
    monkeypatch.setattr(dynamics, "_components", reference_component_arrays)
    for (expr, m), got in blocked.items():
        assert got == singular_set_and_warnings(named_field(expr, m), m, n)


SPEED_M = [Fraction(4), Fraction(3), Fraction(9, 2), Fraction(5, 4), Fraction(2),
           Fraction(101, 100)]
# odd and even sizes, and 333, which is not a multiple of 8
SPEED_N = [32, 33, 100, 200, 333, 512, 1024]


def speed_scale(field, m):
    """T, the sum of |c|*sqrt(m + 1)^(i+j) over the float terms c*x^i*y^j*z^k
    of P, Q and R: at least |P|, |Q| and |R| anywhere on the torus."""
    mf = float(m)
    rm = math.sqrt(mf + 1.0)
    return sum(abs(c) * rm ** (i + j)
               for component, name in zip(field.components(), "PQR")
               for (i, j, _), c in compile_finite(component, mf, name).terms)


def draw_normal_form_field(rng, m, kind):
    """A seeded quadratic field, one with f1 = f2 = 0 ("theta-free"), or a
    degree-one field, with small rational coefficients that carry a sqrt(m)
    part now and then."""
    def coefficient():
        c = Scalar(Fraction(rng.randint(-7, 7), rng.randint(1, 4)))
        if rng.random() < 0.3:
            c = c + Scalar(0, Fraction(rng.randint(-2, 2), 3), m)
        return c if c else Scalar(1)
    if kind == "degree-one":
        c = coefficient()
        return VectorField(Y * c, -(X * c), MultiPoly.zero())
    f = MultiPoly.constant(coefficient()) + MultiPoly.variable("z") * coefficient()
    if kind != "theta-free":
        f = f + X * coefficient() + Y * coefficient()
    return build_quadratic(QuadraticParams(coefficient(), f), m)


@pytest.mark.parametrize("m", SPEED_M)
def test_closed_form_speed_matches_full_grid(m):
    rng = random.Random(f"speed scan at m = {m}")
    for kind in ["quadratic"] * 4 + ["theta-free", "degree-one"]:
        assert_speed_matches_full_grid(draw_normal_form_field(rng, m, kind), m)


def assert_speed_matches_full_grid(field, m):
    kprime, f = normal_form(field, m)
    bound = 2.0 ** -47 * speed_scale(field, m)
    for n in SPEED_N:
        speed = dynamics.grid_min_speed(field, kprime, f, m, n)
        assert math.isfinite(speed)
        assert abs(speed - reference_grid_min_speed(field, m, n)) <= bound


@pytest.mark.parametrize("m", SPEED_M)
def test_huge_coefficient_speed_matches_full_grid(m):
    # f = 10^150*(x - 2y): term magnitudes near 2^503, every square finite
    field = build_quadratic(QuadraticParams(Scalar(2), parse("(10^50)^3*(x - 2*y)", m)), m)
    assert_speed_matches_full_grid(field, m)


@pytest.mark.parametrize("row", [0, 99, 100, 199])
def test_level_grid_extremes_in_any_block_row(row):
    # n = 200 is two blocks of 100 rows; c*x + s*y is largest at theta = 2 pi row / n
    n, mf = 200, 4.0
    theta = 2.0 * math.pi * row / n
    c, s = (Fraction(v).limit_denominator(10**6) for v in (math.cos(theta), math.sin(theta)))
    for expr, extreme in ((f"3 + {c}*x + {s}*y", np.argmax),
                          (f"10 - ({c}*x + {s}*y)", np.argmin)):
        level = compile_poly(parse(expr, M), mf)
        vals, extremes, vmax = dynamics._level_grid([level], ["level"], mf, n)
        ref_vals, ref_extremes, ref_vmax = reference_level_grid([level], ["level"], mf, n)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vmax, ref_vmax)
        assert np.array_equal(extremes, ref_extremes)
        assert extreme(np.abs(ref_vals[0])) // n == row


def test_cell_masks_on_sign_patterns():
    # one negative corner, a zero, a nan and a value below tau, on a grid of
    # two blocks whose last cell row wraps to row 0
    n = 200
    vals = np.full((n, n), 1.0)
    vals[0, 0] = -1.0
    vals[100, 50] = 0.0
    vals[150, 199] = np.nan
    vals[199, 120] = 1e-3
    masks = cell_masks(vals, row_extremes(vals), 1e-2)
    ref_masks = reference_level_masks(vals, 1e-2)
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    assert masks[0].sum() == 4 and masks[0][n - 1, n - 1]
    assert masks[1].sum() == 12 and masks[1][n - 1, 119]


def masks_and_reference(vals, tau):
    return cell_masks(vals, row_extremes(vals), tau), reference_level_masks(vals, tau)


def assert_masks_match(vals, tau):
    masks, ref_masks = masks_and_reference(vals, tau)
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    return masks


def reduced_spans(monkeypatch):
    """Cell rows per ``_corner_reduce`` call the masks make, one entry per
    call (a min and a max per reduced span)."""
    heights = []
    reduce = dynamics._corner_reduce

    def record(op, rows, pair, out):
        heights.append(rows.shape[0] - 1)
        reduce(op, rows, pair, out)
    monkeypatch.setattr(dynamics, "_corner_reduce", record)
    return heights


@pytest.mark.parametrize("tau", [1e-2, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("base", [1.0, -1.0])
def test_cell_masks_on_special_values(base, tau):
    # rows of two blocks of 100 rows, each holding one special value in a
    # grid of one sign; -tau and tau are nan for a nan tau
    n = 200
    vals = np.full((n, n), base)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, tau, -tau, tau / 2,
                -tau / 2, 1e-3, -1e-3, -base]
    for k, value in enumerate(specials):
        vals[10 + 15 * k, 7 * k] = value
    vals[185:190] = -base                  # whole rows of the other sign
    assert_masks_match(vals, tau)
    for value in (math.nan, math.inf, -math.inf, 0.0):
        assert_masks_match(np.full((n, n), value), tau)


@pytest.mark.parametrize("n", [33, 200, 512])
def test_cell_masks_near_zero_vertex_across_the_wrap(n):
    # a vertex at (row, 5) lies in cell rows row - 1 and row, mod n
    for row, cell_rows in ((n - 1, [n - 2, n - 1]), (0, [0, n - 1])):
        vals = np.full((n, n), 1.0)
        vals[row, 5] = 1e-6
        has_sign_change, flagged = assert_masks_match(vals, 1e-3)
        assert not has_sign_change.any()
        assert list(np.flatnonzero(flagged.any(axis=1))) == cell_rows
        assert flagged.sum() == 4


def test_cell_masks_reduce_only_candidate_rows(monkeypatch):
    n = 200                                 # blocks (0, 100) and (100, 200)
    heights = reduced_spans(monkeypatch)
    assert_masks_match(np.full((n, n), 1.0), 0.5)
    assert heights == []                    # no candidate row
    vals = np.full((n, n), 1.0)
    vals[99, 3] = vals[100, 40] = 0.0       # cell rows 98, 99 | 99, 100
    _, flagged = assert_masks_match(vals, 0.5)
    assert list(np.flatnonzero(flagged.any(axis=1))) == [98, 99, 100]
    assert heights == [2, 2, 1, 1]          # the span crosses the block boundary
    heights.clear()
    vals = np.full((n, n), -1.0)
    vals[10, 0] = vals[60, 0] = 1.0         # cell rows 9, 10 and 59, 60: one span
    vals[199, 9] = 2.0                      # cell rows 198, 199, wrapping to row 0
    has_sign_change, _ = assert_masks_match(vals, 0.5)
    assert list(np.flatnonzero(has_sign_change.any(axis=1))) == [9, 10, 59, 60, 198, 199]
    assert heights == [52, 52, 2, 2]
    heights.clear()
    rng = np.random.default_rng(5)
    for tau in (0.1, math.nan):             # every row a candidate
        assert_masks_match(rng.standard_normal((n, n)), tau)
    assert heights == [100] * 8


def test_cell_masks_rule_out_rows_by_every_level(monkeypatch):
    # on 200 rows (blocks (0, 100) and (100, 200)) the first level allows
    # cell rows 9, 10, 59 and 60, the second 59, 60, 150 and 151: only 59
    # and 60 can hold a cell flagged for both, and only they are reduced
    n = 200
    heights = reduced_spans(monkeypatch)
    vals = np.ones((2, n, n))
    vals[0, 10, 0] = vals[0, 60, 5] = -1.0
    vals[1, 60, 5] = vals[1, 151, 9] = -1.0
    extremes = np.array([row_extremes(v) for v in vals])
    masks = dynamics._cell_masks(vals, extremes, [0.5, 0.5])
    ref_masks = reference_cell_masks(vals, extremes, [0.5, 0.5])
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    assert list(np.flatnonzero(masks[1].any(axis=1))) == [59, 60]
    assert masks[1].sum() == masks[0].sum() == 4
    assert heights == [2] * 4           # one span, a min and a max per level


@pytest.mark.parametrize("n", [32, 33, 200, 512])
def test_cell_masks_on_random_sparse_zeros(n):
    rng = np.random.default_rng(n)
    for count in (0, 1, 5, 40):
        vals = rng.uniform(0.5, 2.0, (n, n)) * rng.choice((-1.0, 1.0), (n, 1))
        vals[rng.integers(0, n, count), rng.integers(0, n, count)] = \
            rng.uniform(-0.1, 0.1, count)
        for tau in (0.0, 0.05, 0.5, 1.0):
            assert_masks_match(vals, tau)


def seam_masks(n):
    """Hand masks: empty, full, a checkerboard, the four corner cells (one
    component through the wrap) and a diagonal contact across each seam."""
    masks = [np.zeros((n, n), dtype=bool), np.ones((n, n), dtype=bool),
             np.indices((n, n)).sum(axis=0) % 2 == 0]
    for pair in ([(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)],
                 [(0, 3), (n - 1, 4)], [(0, 4), (n - 1, 3)],     # the row seam
                 [(3, 0), (4, n - 1)], [(4, 0), (3, n - 1)],     # the column seam
                 [(0, 0), (n - 1, n - 1)], [(0, n - 1), (n - 1, 0)],
                 [(2, 2), (4, 4)]):                              # apart: two
        mask = np.zeros((n, n), dtype=bool)
        mask[tuple(zip(*pair))] = True
        masks.append(mask)
    return masks


@pytest.mark.parametrize("n", [8, 33, 64, 200])
def test_components_match_the_walk(n):
    rng = np.random.default_rng(n)
    masks = seam_masks(n)
    masks += [rng.random((n, n)) < density for density in (0.05, 0.3, 0.45, 0.6)]
    for flagged in masks:
        for has_sign_change in (np.zeros_like(flagged), flagged,
                                flagged & (rng.random((n, n)) < 0.1)):
            assert_same_components(flagged, has_sign_change)
    counts = [dynamics._components(mask, mask)[2].size for mask in masks[:11]]
    assert counts == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("n", [32, 33, 200, 512])
def test_cached_power_factors_match_fresh_powers(n):
    for m in M_VALUES:
        mf = float(m)
        for expr in NAMED_FIELDS:
            field = named_field(expr, m)
            for compiled in (*scan_levels(field, m)[0],
                             *(compile_poly(c, mf) for c in field.components())):
                u, vt = kernels._surface_factors(compiled, mf, n)
                ref_u, ref_v = reference_factors(compiled, mf, n)
                assert np.array_equal(u, ref_u) and np.array_equal(vt, ref_v.T)
        power = kernels._surface_power(mf, n, 3, 5)
        assert power is kernels._surface_power(mf, n, 3, 5)
        assert not power.flags.writeable
        assert np.array_equal(power, surface_angles(mf, n)[3] ** 5)


@pytest.mark.parametrize("n", [32, 33, 200, 333, 512])
def test_surface_blocks_without_a_grid_match_the_grid(n):
    # with no grid, each block is written into one reused buffer
    for m in M_VALUES:
        mf = float(m)
        for expr in NAMED_FIELDS:
            for compiled in scan_levels(named_field(expr, m), m)[0]:
                grid = blocked_surface(compiled, mf, n)
                buffer = None
                for rows, block in surface_blocks(compiled, mf, n):
                    assert buffer is None or np.shares_memory(block, buffer)
                    buffer = block
                    assert np.array_equal(block, grid[rows])


# -- the |chi| minimum: one blocked reducer, the parent formulas per cell ------


def formula_speed(levels, weights, m, n):
    """The least |chi| over the grid, per cell as the scans wrote it before
    the blocked reducer: sqrt(min((second^2 + first^2*w)/rho^2)) for a pair
    (first, second), with w = quarter*(z^2 + 4*rho^2*ring^2) by phi, and for
    a quadratic f, whose first is q*rho^2 by phi, the same with it squared
    first, each over the grid ``surface_blocks`` fills."""
    mf = float(m)
    _, cos, sin, r = surface_angles(mf, n)
    second = np.square(blocked_surface(levels[-1], mf, n))
    if len(levels) == 2:
        w = weights * (np.square(sin) + 4.0 * r * r * np.square(cos))
        chi_sq = (np.square(blocked_surface(levels[0], mf, n)) * w + second) / (r * r)
    else:
        r2 = r * r
        chi_sq = (second + np.square(weights * r2) * (np.square(sin) + 4.0 * r2
                                                      * np.square(cos))) / r2
    return math.sqrt(float(chi_sq.min()))


def formula_rotation_speed(level, m, n):
    """min |A|*r over the grid, r by phi: the rotation scan's formula."""
    mf = float(m)
    return float((np.abs(blocked_surface(level, mf, n)) * surface_angles(mf, n)[3]).min())


def quadratic_f_cubics(m):
    """Cubic fields with beta = gamma = 0, a quadratic f and an empty set by
    K': constant, or k0 + k3*z with |k0| > |k3|, so K' has no zero on T."""
    fields = [named_field(NAMED_FIELDS[0], m)]
    rng = random.Random(f"quadratic f at m = {m}")
    for kprime in ("3/2", "-2 + z", "5/2 - 2*z"):
        f = " + ".join(f"({Fraction(rng.randint(-5, 5), rng.randint(1, 3))})*{mono}"
                       for mono in ("x^2", "x*y", "y*z", "z^2", "x", "1"))
        fields.append(build_cubic(CubicParams(parse(kprime, m), parse(f, m),
                                              Scalar(0), Scalar(0)), m))
    return fields


# empty sets of (L, M): the named two-parallel field, decided exactly with M
# folded by blocks and L^2 as an outer product, and (K', f) of a cubic with
# beta = gamma = 1/2 whose least |chi| is about 0.185 at m = 9/2, scanned
EMPTY_PAIRS = [NAMED_FIELDS[4],
               ("2*x + (3/2)*y + 2*z - 1",
                "3*x^2 + 5*x*y + (17/4)*x*z + 2*y^2 + (7/2)*y*z + (3/2)*z^2"
                " + (9/2)*x + 5*y + (7/2)*z - 3")]
# A of (A*y, -A*x, 0) with no zero on the torus: scanned (z^2 - 4 is
# indefinite) or decided as semidefinite
EMPTY_ROTATIONS = ["z^2 - 4", "x^2 + y^2 + z^2", "(z - 2)^2", "y^2 + (z + 3/2)^2 + 1"]


@pytest.mark.parametrize("n", [512, 200, 333])
def test_reducer_gives_the_formula_minimum(n):
    for m in (Fraction(4), Fraction(3), Fraction(9, 2)):
        mf = float(m)
        for field in quadratic_f_cubics(m):
            cubic = recognize(field, m).cubic
            sing = singular_points(field, recognize(field, m), m, n)
            assert sing.kind.value == "empty" and cubic.f.degree == 2
            k0, k3 = (cubic.Kprime.coefficient(e).to_float() for e in ((0, 0, 0), (0, 0, 1)))
            q = (k0 + k3 * surface_angles(mf, n)[2]) / 4.0      # K'/4 by phi
            assert sing.grid_min_norm == formula_speed(
                [compile_poly(field.P * Y - field.Q * X, mf)], q, m, n)
        for expr in EMPTY_PAIRS:
            if len(expr) == 3:
                field = named_field(expr, m)
            else:
                field = build_cubic(CubicParams(parse(expr[0], m), parse(expr[1], m),
                                                Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))), m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
                sing = singular_points(field, recognize(field, m), m, n)
            pair, _, quarter = dynamics._tangential_pair(field, recognize(field, m).cubic, m)
            assert sing.kind.value == "empty" and sing.numeric_only == (len(expr) == 2)
            assert sing.grid_min_norm == formula_speed(
                [compile_poly(p, mf) for p in pair], quarter, m, n)
        for text in EMPTY_ROTATIONS:
            a_poly = parse(text, m)
            field = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
            sing = singular_points(field, recognize(field, m), m, n)
            # the scan's set is numeric, the semidefinite ones exact
            assert sing.kind.value == "empty" and sing.numeric_only == (text == "z^2 - 4")
            assert sing.grid_min_norm == formula_rotation_speed(compile_poly(a_poly, mf), m, n)
