"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output).
"""

import functools
import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from torusfields import (CubicParams, Family, KolmogorovParams, MultiPoly,
                         PseudoTypeParams, QuadraticParams, RationalFn,
                         Scalar, SingClass, SingKind, TorusSurface,
                         TwoParallelParams, VectorField, Verdict, X, Y, Z,
                         build_cubic, build_kolmogorov, build_pseudo_type,
                         build_quadratic, build_two_parallel,
                         check_first_integral, cofactor_on_torus,
                         extactic_xy, integrate,
                         invariant_meridians, invariant_parallels, lie_bracket,
                         parallel_periodicity, parse, recognize,
                         singular_points, torus_polynomial)

from conftest import divide_exact, eval_float, meridian_verdicts

# every criterion but the bracket sweep (3) runs at a square m, an integer
# non-square m and a non-integer m, which puts the sqrt(s) numerators of
# the exact layer (sqrt(m) = sqrt(s)/md with s = mn*md) under the suite
MS = (Fraction(4), Fraction(3), Fraction(9, 2))
M = Fraction(4)


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:2d} FAIL  {text}")
                raise
            print(f"\n[acceptance] criterion {num:2d} PASS  {text}")
        return wrapper
    return decorate


def sect5_params():
    return CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0))


def sect5_field(m):
    return build_cubic(sect5_params(), m)


def surface_point(theta, phi, m):
    r = math.sqrt(float(m) + math.cos(phi))
    return r * math.cos(theta), r * math.sin(theta), math.sin(phi)


def random_linear(rng, homogeneous=False):
    terms = {(1, 0, 0): Scalar(rng.randint(-3, 3)),
             (0, 1, 0): Scalar(rng.randint(-3, 3)),
             (0, 0, 1): Scalar(rng.randint(-3, 3))}
    if not homogeneous:
        terms[(0, 0, 0)] = Scalar(rng.randint(-3, 3))
    return MultiPoly(terms)


def random_quadratic(rng, m):
    return build_quadratic(
        QuadraticParams(Scalar(rng.randint(-3, 3)), random_linear(rng)), m)


def random_kolmogorov(rng):
    nonzero = [c for c in range(-5, 6) if c]
    return KolmogorovParams(Scalar(rng.choice(nonzero)),
                            Scalar(rng.choice(nonzero)))


@criterion(1, "worked cubic example has cofactor K = z, under 1 s")
def test_criterion_01_cofactor():
    for m in MS:
        start = time.perf_counter()
        result = cofactor_on_torus(sect5_field(m), TorusSurface(m))
        elapsed = time.perf_counter() - start
        assert result.on_torus
        assert result.K == Z
        assert elapsed < 1.0, f"took {elapsed:.3f}s at m = {m}"


@criterion(2, "bracket of the worked pair has the exact z-component")
def test_criterion_02_bracket():
    for m in MS:
        xf = VectorField(parse("x^2*z", m), parse("x*y*z", m),
                         parse("2*x*(-a^2*(x^2+y^2)+z^2+a^4-1)", m))
        yf = VectorField(parse("y^3", m), parse("-x*y^2", m), MultiPoly.zero())
        bracket = lie_bracket(xf, yf)
        assert bracket.R == parse("-2*y^3*(-a^2*(x^2+y^2)+z^2+a^4-1)", m)


@criterion(3, "pairwise brackets of 200 random quadratics: rotation shape, "
              "on torus, completely integrable")
def test_criterion_03_bracket_structure():
    rng = random.Random(30303)
    fields = [random_quadratic(rng, M) for _ in range(200)]
    surface = TorusSurface(M)
    one = MultiPoly.constant(1)
    h_radial = RationalFn(X * X + Y * Y, one)
    h_height = RationalFn(Z, one)
    for xf, yf in itertools.combinations(fields, 2):
        bracket = lie_bracket(xf, yf)
        assert bracket.R.is_zero()
        if bracket.P.is_zero():
            assert bracket.Q.is_zero()
        else:
            a = divide_exact(bracket.P, Y, "y")
            assert bracket.Q == -(a * X)
            assert a.degree <= 2
        assert cofactor_on_torus(bracket, surface).on_torus
        assert check_first_integral(bracket, h_radial)
        assert check_first_integral(bracket, h_height)


@criterion(4, "50 random Kolmogorov fields: meridians {x=0, y=0}, parallel "
              "{z=0}, exact extactic")
def test_criterion_04_kolmogorov_inventory():
    for m in MS:
        rng = random.Random(40404)
        for _ in range(50):
            params = random_kolmogorov(rng)
            field = build_kolmogorov(params, m)
            ext = extactic_xy(field)
            assert ext == -(X * Y * (X * X + Y * Y)) * params.c1
            mset = invariant_meridians(field)
            assert not mset.infinite
            pairs = sorted((round(pl.a, 12), round(pl.b, 12), mult)
                           for pl, mult in mset.planes)
            assert pairs == [(0.0, 1.0, 1), (1.0, 0.0, 1)]
            assert all(pl.exact for pl, _ in mset.planes)
            pset = invariant_parallels(field)
            assert not pset.infinite
            assert [(pl.k, mult, pl.exact) for pl, mult in pset.planes] \
                == [(0.0, 1, True)]


@criterion(5, "rational first integral F/(x^2+y^2)^2 holds exactly for 50 "
              "Kolmogorov and 50 quadratic fields")
def test_criterion_05_rational_first_integral():
    for m in MS:
        rng = random.Random(50505)
        h = RationalFn(torus_polynomial(m), (X * X + Y * Y) ** 2)
        for _ in range(50):
            field = build_kolmogorov(random_kolmogorov(rng), m)
            assert check_first_integral(field, h)
        for _ in range(50):
            field = random_quadratic(rng, m)
            assert check_first_integral(field, h)


def _meridian_bound(m):
    rng = random.Random(60606)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 6)
        if n <= 3 and rng.random() < 0.5:
            params = CubicParams(
                Kprime=random_linear(rng),
                f=MultiPoly({(2, 0, 0): Scalar(rng.randint(-3, 3)),
                             (1, 1, 0): Scalar(rng.randint(-3, 3)),
                             (0, 2, 0): Scalar(rng.randint(-3, 3)),
                             (0, 0, 1): Scalar(rng.randint(-3, 3)),
                             (0, 0, 0): Scalar(rng.randint(-3, 3))}),
                beta=Scalar(rng.randint(-2, 2)),
                gamma=Scalar(rng.randint(-2, 2)))
            field = build_cubic(params, m)
        else:
            a_poly = MultiPoly({
                (i, n - 1 - i, 0): Scalar(rng.randint(-3, 3))
                for i in range(n)})
            if a_poly.is_zero():
                continue
            field = build_pseudo_type(PseudoTypeParams(n, a_poly))
        if field.is_zero():
            continue
        mset = invariant_meridians(field)
        if mset.infinite:
            continue
        degree = int(field.degree)
        if degree < 2:
            continue
        assert mset.meridian_count() <= 2 * (degree - 1), \
            (degree, mset.meridian_count())
        checked += 1


@criterion(6, "500 random fields of degree 2..6 respect the 2(n-1) meridian "
              "bound; products of distinct forms saturate it")
def test_criterion_06_meridian_bound():
    for m in MS:
        _meridian_bound(m)

    # saturating construction: distinct real linear forms (pseudo-type
    # fields do not depend on m)
    forms = [(1, 0), (0, 1), (1, -1), (2, 1), (1, 3)]
    for n in range(2, 7):
        a_poly = MultiPoly.constant(1)
        for ca, cb in forms[:n - 1]:
            a_poly = a_poly * (X * ca + Y * cb)
        field = build_pseudo_type(PseudoTypeParams(n, a_poly))
        assert invariant_meridians(field).meridian_count() == 2 * (n - 1)


@criterion(7, "worked example: four alternating limit cycles, perturbed "
              "orbits contract onto stable meridians, under 10 s")
def test_criterion_07_limit_cycles():
    for m in MS:
        start = time.perf_counter()
        verdicts = meridian_verdicts(sect5_params(), m)
        assert [mv.verdict.kind for mv in verdicts] == [Verdict.LIMIT_CYCLE] * 4
        assert [mv.verdict.stability for mv in verdicts] == \
            ["stable", "unstable", "stable", "unstable"]

        field = sect5_field(m)
        stable_angles = [mv.angle for mv in verdicts
                         if mv.verdict.stability == "stable"]
        for theta0 in stable_angles:
            for offset in (1e-3, -1e-3):
                theta_start = theta0 + offset
                origin = surface_point(theta_start, 0.5, m)
                traj = integrate(field, origin, 30.0, 1e-3, m)
                xf, yf, _ = traj.final_state()
                theta_final = math.atan2(yf, xf)
                distance = abs((theta_final - theta0 + math.pi) % (2 * math.pi)
                               - math.pi)
                assert distance < 1e-4, f"theta distance {distance:.2e} at m = {m}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s at m = {m}"


@criterion(8, "two-parallel family: positive-definite obstruction gives a "
              "periodic orbit, the sine obstruction a certified witness")
def test_criterion_08_parallel_verdicts():
    for m in MS:
        positive = TwoParallelParams(Scalar(1), Scalar(0),
                                     parse("y^2 + a^2 + 1", m))
        verdict = parallel_periodicity(positive, m, 1)
        assert verdict.kind == Verdict.PERIODIC_ORBIT

        sine = TwoParallelParams(Scalar(1), Scalar(0), MultiPoly.zero())
        verdict = parallel_periodicity(sine, m, 1)
        assert verdict.kind == Verdict.NOT_PERIODIC
        xw, yw, zw = verdict.witness
        theta_w = math.atan2(yw, xw)
        g_at_witness = -(math.sqrt(m) / 2.0) * math.sin(theta_w)
        assert abs(g_at_witness) < 1e-9
        assert zw == 1.0


@criterion(9, "50 random nondegenerate quadratic fields have empty singular "
              "sets, grid minimum speed above 1e-3")
def test_criterion_09_quadratic_no_singularities():
    for m in MS:
        rng = random.Random(90909)
        produced = 0
        while produced < 50:
            alpha = rng.randint(-3, 3)
            if alpha == 0:
                continue
            field = build_quadratic(
                QuadraticParams(Scalar(alpha), random_linear(rng)), m)
            tag = recognize(field, m)
            assert tag.family == Family.QUADRATIC
            result = singular_points(field, tag, m, grid=512)
            assert result.kind == SingKind.EMPTY
            assert result.grid_min_norm > 1e-3
            produced += 1


@criterion(10, "bowl-shaped coefficient: four isolated singular points at "
               "the closed-form coordinates, all linearly zero")
def test_criterion_10_isolated_singularities():
    for m in MS:
        _isolated_singularities(m)


def _isolated_singularities(m):
    mf = float(m)
    a_poly = parse("y^2 + (z - 1/2)^2", m)
    field = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
    tag = recognize(field, m)
    result = singular_points(field, tag, m, grid=512)
    assert result.kind == SingKind.ISOLATED
    expected = sorted((s * math.sqrt(mf + sign * math.sqrt(3) / 2), 0.0, 0.5)
                      for s in (1, -1) for sign in (1, -1))
    got = sorted(pt for pt, _ in result.points)
    assert len(got) == 4
    for e, g in zip(expected, got):
        assert max(abs(ec - gc) for ec, gc in zip(e, g)) < 1e-8
    assert all(cls == SingClass.LINEARLY_ZERO for _, cls in result.points)

    # finite-difference oracle on the chart pushforward (B*y, -B*x)
    def push(xv, yv):
        zv = math.sqrt(1.0 - (xv * xv + yv * yv - mf) ** 2)
        b = eval_float(a_poly, (xv, yv, zv))
        return b * yv, -b * xv

    h = 1e-5
    for (x0, y0, _), _cls in result.points:
        jac = [(push(x0 + h, y0)[i] - push(x0 - h, y0)[i]) / (2 * h)
               for i in range(2)]
        jac += [(push(x0, y0 + h)[i] - push(x0, y0 - h)[i]) / (2 * h)
                for i in range(2)]
        assert all(abs(entry) < 1e-6 for entry in jac)


@criterion(11, "first-integral drift below 1e-6 over t in [0, 50] and "
               "fourth-order drift decay under step halving")
def test_criterion_11_numeric_integrity():
    for m in MS:
        mf = float(m)
        ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), m)
        start = surface_point(0.3, 0.7, m)
        traj = integrate(ko, start, 50.0, 1e-3, m, project=False)
        xs, ys, zs = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
        h_vals = (((xs * xs + ys * ys - mf) ** 2 + zs * zs - 1.0)
                  / (xs * xs + ys * ys) ** 2)
        assert np.max(np.abs(h_vals - h_vals[0])) < 1e-6

        coarse = integrate(ko, start, 10.0, 0.05, m).torus_drift()
        fine = integrate(ko, start, 10.0, 0.025, m).torus_drift()
        assert coarse / fine >= 8.0, f"ratio {coarse / fine:.2f} at m = {m}"


@criterion(12, "report emits byte-identical JSON for identical argv and seed")
def test_criterion_12_determinism():
    for m in MS:
        argv = [sys.executable, "-m", "torusfields", "report",
                "--px", "(1/4)*x*z + x*y^2",
                "--qy", "(1/4)*y*z - x^2*y",
                "--rz", "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)",
                "--m", str(m), "--seed", "11", "--grid", "128"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()
