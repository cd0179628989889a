import collections
import json
import math
import random
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torusfields import (CubicParams, KolmogorovParams,
                         MultiPoly, PseudoTypeParams, QuadraticParams, Scalar,
                         SingClass, SingKind, TwoParallelParams, VectorField,
                         Verdict, X, Y, Z, build_cubic, build_kolmogorov,
                         build_pseudo_type, build_quadratic,
                         build_report, build_two_parallel,
                         check_four_meridian_criterion,
                         divide_exact,
                         parallel_periodicity, parse, recognize,
                         report_json, serialize, singular_points)
from torusfields import dynamics
from torusfields.kernels import compile_poly, eval_grid, eval_point, surface_angles
from torusfields.poly import UniPoly

from conftest import (eval_float, homogeneous_component, meridian_verdicts,
                      random_linear)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

M = Fraction(4)


def surface_point(theta, phi, m=4.0):
    r = math.sqrt(m + math.cos(phi))
    return r * math.cos(theta), r * math.sin(theta), math.sin(phi)


def sect5_params():
    return CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0))


# -- cylindrical form ---------------------------------------------------------


@dataclass(frozen=True)
class CylindricalField:
    r_dot: object      # callable (r, theta, z) -> float
    theta_dot: object
    z_dot: object


def cylindrical_form(field):
    """Evaluators for (dr/dt, dtheta/dt, dz/dt) of a field at m = M, valid
    for r > 0."""
    radial_num = compile_poly(field.P * X + field.Q * Y, float(M))
    angular_num = compile_poly(field.Q * X - field.P * Y, float(M))
    vertical = compile_poly(field.R, float(M))

    def r_dot(r, theta, z):
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(radial_num, x, y, z) / r

    def theta_dot(r, theta, z):
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(angular_num, x, y, z) / (r * r)

    def z_dot(r, theta, z):
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(vertical, x, y, z)

    return CylindricalField(r_dot, theta_dot, z_dot)


def test_cylindrical_worked_example():
    cyl = cylindrical_form(build_cubic(sect5_params(), M))
    for theta in (0.3, 1.1, 2.9, 4.0):
        for r, z in ((1.9, 0.2), (2.2, -0.5)):
            expected = -(r * r / 2.0) * math.sin(2 * theta)
            assert cyl.theta_dot(r, theta, z) == pytest.approx(expected, abs=1e-12)


def test_cylindrical_rotation():
    cyl = cylindrical_form(VectorField(Y, -X, MultiPoly.zero()))
    assert cyl.r_dot(1.7, 0.4, 0.1) == pytest.approx(0, abs=1e-14)
    assert cyl.theta_dot(1.7, 0.4, 0.1) == pytest.approx(-1.0)
    assert cyl.z_dot(1.7, 0.4, 0.1) == pytest.approx(0, abs=1e-14)


def test_cylindrical_two_parallel_vertical_rate():
    p, q = 2, -1
    field = build_two_parallel(
        TwoParallelParams(Scalar(p), Scalar(q), parse("x + y^2", M)), M)
    cyl = cylindrical_form(field)
    for theta in (0.2, 1.7):
        for r, z in ((2.1, 0.3), (1.8, -0.7)):
            expected = r * (p * math.cos(theta) + q * math.sin(theta)) * (z * z - 1)
            assert cyl.z_dot(r, theta, z) == pytest.approx(expected, rel=1e-10)


def test_theta_dot_consistency_on_random_points():
    rng = random.Random(12)
    field = build_cubic(CubicParams(random_linear(rng),
                                    parse("x^2 - y^2 + x*z", M),
                                    Scalar(1), Scalar(-2)), M)
    cyl = cylindrical_form(field)
    angular = field.Q * X - field.P * Y
    for _ in range(10000):
        theta = rng.uniform(0, 2 * math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        x, y, z = surface_point(theta, phi)
        r = math.hypot(x, y)
        direct = eval_float(angular, (x, y, z)) / (r * r)
        assert cyl.theta_dot(r, theta, z) == pytest.approx(direct, abs=1e-9)


# -- meridian periodicity -----------------------------------------------------


def test_meridian_limit_cycles_worked_example():
    verdicts = meridian_verdicts(sect5_params(), M)
    assert len(verdicts) == 4
    kinds = [mv.verdict.kind for mv in verdicts]
    assert kinds == [Verdict.LIMIT_CYCLE] * 4
    stabilities = [mv.verdict.stability for mv in verdicts]
    assert stabilities == ["stable", "unstable", "stable", "unstable"]
    angles = [mv.angle for mv in verdicts]
    assert angles == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_meridian_killed_by_kprime_zero():
    params = CubicParams(Z, X * Y, Scalar(0), Scalar(0))
    verdicts = meridian_verdicts(params, M)
    assert all(mv.verdict.kind == Verdict.NOT_PERIODIC for mv in verdicts)
    for mv in verdicts:
        assert abs(mv.verdict.witness[2]) < 1e-9   # K' = z vanishes at z = 0


def test_meridian_kprime_never_zero_derived_case():
    # K' = x + y + 3a stays positive on the torus: |x + y| <= sqrt(2(m+1))
    kprime = parse("x + y + 3*a", M)
    # scan oracle before trusting the library verdict
    evals = []
    for theta in np.linspace(0, 2 * math.pi, 512, endpoint=False):
        for phi in np.linspace(0, 2 * math.pi, 256, endpoint=False):
            x, y, z = surface_point(theta, phi)
            evals.append(x + y + 3 * 2.0)
    assert min(evals) > 0.5

    params = CubicParams(kprime, X * Y, Scalar(0), Scalar(0))
    verdicts = meridian_verdicts(params, M)
    assert [mv.verdict.kind for mv in verdicts] == [Verdict.LIMIT_CYCLE] * 4


def test_meridian_periodicity_requires_four_meridians():
    with pytest.raises(ValueError):
        meridian_verdicts(
            CubicParams(Z, parse("x^2 + y^2", M), Scalar(0), Scalar(0)), M)


def cubic_params(kprime, f, m):
    return CubicParams(parse(kprime, m), parse(f, m), Scalar(0), Scalar(0))


def assert_witness_on_zero(params, m, witness):
    """The witness lies on the torus and K' vanishes there."""
    x, y, z = witness
    assert abs((x * x + y * y - float(m)) ** 2 + z * z - 1.0) < 1e-9
    assert abs(eval_float(params.Kprime, witness)) < 1e-9


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_meridian_tangency_on_x_plane_is_not_periodic(m):
    # on x = 0, K' = -1 + x - z is -1 - z: it touches both meridians at z = -1
    params = cubic_params("-1 + x - z", "(x - y)*x", m)
    on_x = [mv for mv in meridian_verdicts(params, m)
            if mv.plane.polynomial() == X]
    assert [mv.angle for mv in on_x] == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    for mv in on_x:
        assert mv.verdict.kind == Verdict.NOT_PERIODIC
        assert_witness_on_zero(params, m, mv.verdict.witness)
        assert mv.verdict.witness[2] == pytest.approx(-1.0)


def test_meridian_kprime_zero_on_whole_plane():
    # K' = x vanishes on every point of the plane x = 0
    params = cubic_params("x", "x*y", M)
    verdicts = meridian_verdicts(params, M)
    on_x = [mv for mv in verdicts if mv.plane.polynomial() == X]
    assert len(on_x) == 2
    for mv in on_x:
        assert mv.verdict.kind == Verdict.NOT_PERIODIC
        assert_witness_on_zero(params, M, mv.verdict.witness)
    # on y = 0, K' = x is nonzero: both meridians stay limit cycles
    assert [mv.verdict.kind for mv in verdicts if mv not in on_x] == \
        [Verdict.LIMIT_CYCLE] * 2


@pytest.mark.parametrize("kprime, m, killed", [
    ("x - 2", Fraction(4), True),    # x = 2 cuts the meridian at theta = 0
    ("x - 2", Fraction(3), True),    # x^2 = m + 1: tangent to its outer edge
    ("x - 4", Fraction(4), False),   # x = 4 misses the torus
])
def test_meridian_vertical_kprime_without_z(kprime, m, killed):
    params = cubic_params(kprime, "x*y", m)
    verdicts = meridian_verdicts(params, m)
    assert [mv.angle for mv in verdicts] == \
        pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    kinds = [mv.verdict.kind for mv in verdicts]
    if killed:
        assert kinds == [Verdict.NOT_PERIODIC] + [Verdict.LIMIT_CYCLE] * 3
        assert_witness_on_zero(params, m, verdicts[0].verdict.witness)
    else:
        assert kinds == [Verdict.LIMIT_CYCLE] * 4


def test_meridian_tangency_on_irrational_planes():
    # f = x^2 - 2*y^2 has planes of slope +-1/sqrt(2); K' = -2 + 2*z has no
    # x, y term, so it is -2 + 2*z on every plane and touches every meridian
    # at its top z = 1
    m = Fraction(9, 2)
    params = cubic_params("-2 + 2*z", "x^2 - 2*y^2", m)
    verdicts = meridian_verdicts(params, m)
    assert len(verdicts) == 4 and not any(mv.plane.exact for mv in verdicts)
    for mv in verdicts:
        assert mv.verdict.kind == Verdict.NOT_PERIODIC
        assert_witness_on_zero(params, m, mv.verdict.witness)
        assert mv.verdict.witness[2] == pytest.approx(1.0)


@pytest.mark.parametrize("m", [Fraction(3), Fraction(5)])
@pytest.mark.parametrize("kprime", ["y - a*x", "y - a*x + z + 1"])
def test_meridian_degenerate_on_float_plane_is_never_a_limit_cycle(kprime, m):
    # the planes y = +-a*x of y^2 - m*x^2 have float slopes; on y = a*x, K'
    # is 0 (resp. touches both meridians at z = -1), which the floats
    # cannot tell from a small nonzero K'
    verdicts = meridian_verdicts(cubic_params(kprime, f"y^2 - {m}*x^2", m), m)
    theta = math.atan(math.sqrt(m))
    on_plane = [mv for mv in verdicts
                if min(abs(mv.angle - t) for t in (theta, theta + math.pi)) < 1e-9]
    assert len(on_plane) == 2 and not any(mv.plane.exact for mv in verdicts)
    for mv in on_plane:
        assert mv.verdict.kind in (Verdict.NOT_PERIODIC, Verdict.INCONCLUSIVE)
    assert [mv.verdict.kind for mv in verdicts if mv not in on_plane] == \
        [Verdict.LIMIT_CYCLE] * 2


@pytest.mark.parametrize("f, m", [("(x - y)^2", Fraction(4)), ("(y - a*x)^2", Fraction(3))])
def test_double_plane_meridians_are_inconclusive(f, m):
    # f = L^2 keeps its sign across the plane; y = sqrt(3)*x is a float
    # plane, where x*f_y - y*f_x at the rounded direction is not 0
    verdicts = meridian_verdicts(cubic_params("1", f, m), m)
    assert len(verdicts) == 2
    for mv in verdicts:
        assert mv.verdict.kind == Verdict.INCONCLUSIVE
        assert mv.verdict.reason == "dtheta/dt does not change sign across the meridian"


def reference_meridian_scan(kprime, m, theta, samples=8192):
    """The sampled zero test meridian_periodicity made before it solved a
    quartic: K' at ``samples`` points of the meridian at theta is
    "vanishes" on a sign change or a zero sample, "band" (reported
    inconclusive) when min |K'| < 1e-7, and "nonzero" otherwise."""
    mf = float(m)
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    rs = np.sqrt(mf + np.cos(phis))
    vals = eval_grid(compile_poly(kprime, mf), rs * math.cos(theta),
                     rs * math.sin(theta), np.sin(phis))
    if np.any((vals * np.roll(vals, -1) < 0) | (vals == 0)):
        return "vanishes"
    return "band" if np.min(np.abs(vals)) < 1e-7 else "nonzero"


def reference_stabilities(params, m, verdicts):
    """The midpoint sampler meridian_periodicity used before it read the sign
    of x*f_y - y*f_x: per meridian of ``verdicts``, in angle order, "stable"
    when dtheta/dt, of the sign of -f at phi = 0, is > 0 midway to the
    meridian below and < 0 midway to the one above, "unstable" for the
    reverse, and None when the two signs are equal or one is 0."""
    mf = float(m)
    f = compile_poly(params.f, mf)
    angles = [mv.angle for mv in verdicts]
    around = [angles[-1] - 2.0 * math.pi, *angles, angles[0] + 2.0 * math.pi]

    def theta_dot_sign(theta):
        v = eval_point(f, *surface_point(theta, 0.0, mf))
        return (v < 0) - (v > 0)

    return [{(1, -1): "stable", (-1, 1): "unstable"}.get(
        (theta_dot_sign(0.5 * (around[k] + theta)),
         theta_dot_sign(0.5 * (theta + around[k + 2]))))
        for k, theta in enumerate(angles)]


def reference_scan_draws():
    """240 seeded (K', f, m) draws, as (kprime, f, m, params) for the four-
    meridian ones: half with exact planes, half mostly with float planes."""
    rng = random.Random(31)
    for _ in range(240):
        m = rng.choice([Fraction(4), Fraction(3), Fraction(9, 2), Fraction(5, 4)])
        ks = [rng.randint(-2, 2) for _ in range(4)]
        if rng.random() < 0.3:
            ks[rng.randrange(1, 3)] = 0
        kprime = "{} + {}*x + {}*y + {}*z".format(*ks)
        if rng.random() < 0.5:
            # two rational linear forms: exact planes
            c = [rng.randint(-3, 3) for _ in range(4)]
            f = f"({c[0]}*x + {c[1]}*y)*({c[2]}*x + {c[3]}*y)"
        else:
            # mostly irrational slopes: float planes
            f = f"x^2 + {rng.randint(-4, 4)}*x*y + {rng.randint(-3, 3)}*y^2"
        params = cubic_params(kprime, f, m)
        if not params.f.is_zero() and check_four_meridian_criterion(params):
            yield kprime, f, m, params


def test_meridian_verdicts_match_the_reference_scan():
    outcomes = collections.Counter()
    for kprime, f, m, params in reference_scan_draws():
        verdicts = meridian_verdicts(params, m)
        for mv, reference in zip(verdicts, reference_stabilities(params, m, verdicts)):
            if reference is not None and mv.verdict.kind != Verdict.NOT_PERIODIC:
                assert mv.verdict.stability == reference, (kprime, f, m, mv)
                outcomes["stability", mv.plane.exact] += 1
            scan = reference_meridian_scan(params.Kprime, m, mv.angle)
            kind = mv.verdict.kind
            outcomes[scan, mv.plane.exact, kind] += 1
            if scan == "vanishes":
                assert kind == Verdict.NOT_PERIODIC, (kprime, f, m, mv)
            elif scan == "nonzero":
                # only the unchanged stability test may be inconclusive
                assert kind == Verdict.LIMIT_CYCLE or mv.verdict.reason.startswith(
                    "dtheta/dt"), (kprime, f, m, mv)
            if kind == Verdict.NOT_PERIODIC:
                assert_witness_on_zero(params, m, mv.verdict.witness)
    # the scan's inconclusive answers here are exact tangencies on exact planes
    band = {key: n for key, n in outcomes.items() if key[0] == "band"}
    assert band and set(band) == {("band", True, Verdict.NOT_PERIODIC)}
    assert sum(n for key, n in outcomes.items() if not key[1]) > 100
    assert outcomes["stability", True] > 50 and outcomes["stability", False] > 50


def test_meridian_witnesses_lie_on_their_printed_planes():
    checked = 0
    for kprime, f, m, params in reference_scan_draws():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
            report = build_report(*corpus.cubic_strings(kprime, f), m,
                                  grid=dynamics.GRID_MIN)
        for plane in report["meridians"]["planes"]:
            for meridian in plane["meridians"]:
                if meridian["verdict"]["kind"] != "not-periodic":
                    continue
                x, y, z = witness = meridian["verdict"]["witness"]
                assert abs(plane["a"] * x + plane["b"] * y) <= 1e-12, (kprime, f, m)
                assert_witness_on_zero(params, m, witness)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("eps", ["1/10^8", "1/10^10"])
def test_near_equal_planes_give_limit_cycles_of_opposite_stability(eps):
    # f = (y - x)*(y - (1 + eps)*x): x*f_y - y*f_x is -2*eps*x^2 on y = x,
    # and positive on the other plane, so dtheta/dt = -f pushes away from
    # y = x and onto its neighbour
    report = build_report(*corpus.cubic_strings("1", f"(y - x)*(y - (1 + {eps})*x)"), M,
                          grid=dynamics.GRID_MIN)
    planes = report["meridians"]["planes"]
    assert planes[0]["plane_expr"] == "x - y"
    assert [[(mer["verdict"]["kind"], mer["verdict"]["stability"])
             for mer in plane["meridians"]] for plane in planes] == [
        [("limit-cycle", "unstable")] * 2, [("limit-cycle", "stable")] * 2]


def test_near_equal_plane_takes_no_witness_from_its_neighbour():
    # K' = x + y - 3 touches the meridian of x - y at its outer equator
    # (3/2, 3/2, 0), and misses its neighbour's by O(eps^2)
    m = Fraction(7, 2)
    report = build_report(*corpus.cubic_strings("x + y - 3", "(y - x)*(y - (1 + 1/10^10)*x)"),
                          m, grid=dynamics.GRID_MIN)
    first, second = report["meridians"]["planes"]
    assert first["plane_expr"] == "x - y"
    assert first["meridians"][0]["verdict"]["witness"] == [1.5, 1.5, 0.0]
    for meridian in second["meridians"]:
        assert meridian["verdict"].get("witness") != [1.5, 1.5, 0.0]
    for plane in (first, second):
        for meridian in plane["meridians"]:
            if meridian["verdict"]["kind"] == "not-periodic":
                x, y, _ = meridian["verdict"]["witness"]
                assert abs(plane["a"] * x + plane["b"] * y) <= 1e-12


def test_meridian_witness_zeros_are_positive():
    # K' = z vanishes at z = -(k0 + k1*x + k2*y)/k3 = -0/1, which floats write -0.0
    blob = report_json(build_report(*corpus.cubic_strings("z", "x^2 - y^2"), M,
                                    grid=dynamics.GRID_MIN))
    assert b"-0.0" not in blob
    witnesses = [mer["verdict"]["witness"] for plane in json.loads(blob)["meridians"]["planes"]
                 for mer in plane["meridians"]]
    assert len(witnesses) == 4 and all(
        w[2] == 0.0 and math.copysign(1.0, w[2]) == 1.0 for w in witnesses)


# -- parallel periodicity ----------------------------------------------------


def test_parallel_sine_obstruction():
    params = TwoParallelParams(Scalar(1), Scalar(0), MultiPoly.zero())
    verdict = parallel_periodicity(params, M, 1)
    assert verdict.kind == Verdict.NOT_PERIODIC
    # witness solves g(theta) = -(a/2) sin(theta) = 0
    x, y, z = verdict.witness
    assert abs(y) < 1e-9 and z == 1.0


def test_parallel_positive_definite_derived_case():
    f = parse("y^2 + a^2 + 1", M)
    params = TwoParallelParams(Scalar(1), Scalar(0), f)
    # scan oracle: g(theta) = a^2 sin^2 + m + 1 - (a/2) sin > 0
    a = 2.0
    gs = [a * a * math.sin(t) ** 2 + 5 - (a / 2) * math.sin(t)
          for t in np.linspace(0, 2 * math.pi, 4096)]
    assert min(gs) > 1.0
    verdict = parallel_periodicity(params, M, 1)
    assert verdict.kind == Verdict.PERIODIC_ORBIT
    # the lower parallel for the same field
    verdict = parallel_periodicity(params, M, -1)
    assert verdict.kind == Verdict.PERIODIC_ORBIT


def test_parallel_theta_pi_witness():
    # g vanishes only at theta = pi: f = x + a shifts the zero there
    # g(theta) = a cos(theta) + a - (a/2) sin(theta) has a zero; check handling
    params = TwoParallelParams(Scalar(1), Scalar(0), parse("x + a", M))
    verdict = parallel_periodicity(params, M, 1)
    assert verdict.kind == Verdict.NOT_PERIODIC


def reference_obstruction(params, m, which):
    """The parallel obstruction by products of t-polynomials: each term of f
    times cos^i*sin^j*(1 + t^2)^(2-i-j) on rho = sqrt(m), z = which, minus
    which*(p*y - q*x)/2 the same way, and g(pi) from f at (-a, 0, which)."""
    a = Scalar.sqrt_m(m)
    cos_t, sin_t, denom = UniPoly([1, 0, -1]), UniPoly([0, 2]), UniPoly([1, 0, 1])
    total = UniPoly()
    for (i, j, k), coeff in params.f.terms.items():
        piece = UniPoly([coeff * Fraction(which) ** k * a ** (i + j)])
        for factor, times in ((cos_t, i), (sin_t, j), (denom, 2 - i - j)):
            for _ in range(times):
                piece = piece * factor
        total = total + piece
    correction = (sin_t.scale(params.p * a) - cos_t.scale(params.q * a)) * denom
    total = total - correction.scale(Scalar(Fraction(which, 2)))
    g_pi = params.f.eval_exact((-a, Scalar(0), Scalar(which))) - params.q * a * Fraction(which, 2)
    return total, g_pi


def test_parallel_obstruction_matches_the_products():
    # the half-angle table gives the polynomial the products give, with
    # coefficients in Q(sqrt(m)) and at square m alike
    for m in (Fraction(4), Fraction(3), Fraction(9, 2), Fraction(5, 4)):
        rng = random.Random(f"obstruction at m = {m}")
        for _ in range(40):
            params = draw_two_parallel(rng, m)
            if rng.random() < 0.3:
                params = TwoParallelParams(params.p + Scalar(0, 1, m), params.q,
                                           params.f + X * Scalar(0, Fraction(1, 3), m))
            for which in (1, -1):
                poly = dynamics._parallel_obstructions(params, m)[which][0]
                total, g_pi = reference_obstruction(params, m, which)
                assert poly == total
                # g(pi) is the t^4 coefficient
                assert (poly.coeffs[4] if poly.degree == 4 else 0) == g_pi


def test_parallel_requires_pq():
    with pytest.raises(ValueError):
        parallel_periodicity(
            TwoParallelParams(Scalar(0), Scalar(0), X), M, 1)
    with pytest.raises(ValueError):
        parallel_periodicity(
            TwoParallelParams(Scalar(1), Scalar(0), X), M, 2)


def test_kolmogorov_axis_points_are_singular():
    # the singular points quoted for Kolmogorov meridians/parallels
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    for pt in [(0.0, math.sqrt(5), 0.0), (0.0, -math.sqrt(3), 0.0),
               (math.sqrt(5), 0.0, 0.0), (-math.sqrt(3), 0.0, 0.0)]:
        speed = math.sqrt(sum(eval_float(c, pt) ** 2 for c in ko.components()))
        assert speed < 1e-12


# -- singular points ----------------------------------------------------------


def test_quadratic_fields_have_no_singular_points():
    rng = random.Random(9)
    for _ in range(12):
        alpha = Scalar(rng.choice([c for c in range(-3, 4) if c]))
        field = build_quadratic(QuadraticParams(alpha, random_linear(rng)), M)
        tag = recognize(field, M)
        result = singular_points(field, tag, M, grid=128)
        assert result.kind == SingKind.EMPTY
        assert result.grid_min_norm > 1e-3


def test_pseudo_type_z_curves():
    field = build_pseudo_type(PseudoTypeParams(2, Z))
    result = singular_points(field, recognize(field, M), M)
    assert result.kind == SingKind.CURVES
    assert result.curve_components == 2   # circles x^2 + y^2 = m +- 1


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_binary_form_zeros_are_their_planes_meridians(m):
    # A a form in x, y: its zeros on the torus are the two meridians of each
    # distinct real linear factor, whatever the grid
    rng = random.Random(f"pseudo-type zeros at m = {m}")
    for i in range(30):
        spec = corpus.draw_pseudo_type(rng, m, 2 + i % 5)
        field = VectorField(*(parse(e, m) for e in (spec.px, spec.qy, spec.rz)))
        tag = recognize(field, m)
        planes = spec.exact_planes + spec.float_planes
        for grid in (32, 200, 512):
            with warnings.catch_warnings():
                warnings.simplefilter("error", dynamics.GridResolutionWarning)
                sing = singular_points(field, tag, m, grid)
            if planes:
                assert sing.kind == SingKind.CURVES, spec.px
                assert sing.curve_components == 2 * planes, spec.px
            else:   # an irreducible quadratic times a constant
                assert sing.kind == SingKind.EMPTY, spec.px
            assert sing.points == [] and not sing.numeric_only


def test_close_planes_give_their_own_curves():
    # the planes x = -2*y and x = -sqrt(3)*y meet the torus about five cells
    # apart at grid 512, close enough for a grid scan to merge their curves
    m = Fraction(9, 2)
    field = build_pseudo_type(PseudoTypeParams(4, parse("(x^2 - 3*y^2)*(x + 2*y)", m)))
    sing = singular_points(field, recognize(field, m), m)
    assert sing.kind == SingKind.CURVES and sing.curve_components == 6


def test_pseudo_type_report_evaluates_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid evaluated")

    monkeypatch.setattr(dynamics, "surface_blocks", no_grid)
    monkeypatch.setattr(dynamics, "_level_grid", no_grid)
    for m in (Fraction(4), Fraction(3)):
        spec = next(s for s in corpus.named_corpus(m) if s.name == "pseudo-type")
        for grid in (512, 200):
            sing = build_report(spec.px, spec.qy, spec.rz, m, grid=grid)["singular_set"]
            assert sing["kind"] == "curves" and sing["curve_components"] == 4


def test_isolated_points_closed_form():
    a_poly = parse("y^2 + (z - 1/2)^2", M)
    field = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
    result = singular_points(field, recognize(field, M), M)
    assert result.kind == SingKind.ISOLATED
    expected = sorted((s * math.sqrt(4 + sign * math.sqrt(3) / 2), 0.0, 0.5)
                      for s in (1, -1) for sign in (1, -1))
    got = sorted(pt for pt, _ in result.points)
    assert len(got) == 4
    for e, g in zip(expected, got):
        assert max(abs(ec - gc) for ec, gc in zip(e, g)) < 1e-8
    assert all(cls == SingClass.LINEARLY_ZERO for _, cls in result.points)


BINARY_FORMS_WITHOUT_PLANES = ["x^2 + y^2", "2*x^2 - x*y + y^2", "-(x^2 + x*y + y^2)",
                               "(x^2 + y^2)*(x^2 + x*y + y^2)", "a*x^2 + y^2"]


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_binary_forms_without_planes_take_no_grid(m, monkeypatch):
    # A = rho^d*A(cos(theta), sin(theta)) has no zero on the torus, and
    # min |chi| = min |A|*r over the grid is a product of two 1-D minima
    def no_grid(*args, **kwargs):
        raise AssertionError("grid evaluated")

    fields = [VectorField(a * Y, -(a * X), MultiPoly.zero())
              for a in (parse(text, m) for text in BINARY_FORMS_WITHOUT_PLANES)]
    grids = (512, 200, 333)
    scans = [[dynamics._scan_singular([recognize(field, m).rotation], ["A"], m, n).grid_min_norm
              for n in grids] for field in fields]
    monkeypatch.setattr(dynamics, "surface_blocks", no_grid)
    for field, scanned in zip(fields, scans):
        for n, reference in zip(grids, scanned):
            sing = singular_points(field, recognize(field, m), m, n)
            assert sing.kind == SingKind.EMPTY and not sing.numeric_only
            assert sing.grid_min_norm == pytest.approx(reference, rel=1e-12, abs=0.0)


def rotation(a_poly):
    return VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())


def assert_same_set(exact, scan):
    """Kind, curve count, points within 1e-6 and their classes, and for an
    empty set the same grid minimum: both come from one reducer."""
    assert (exact.kind, exact.curve_components) == (scan.kind, scan.curve_components)
    assert len(exact.points) == len(scan.points)
    for pt, cls in exact.points:
        near = min(scan.points, key=lambda other: math.dist(pt, other[0]))
        assert math.dist(pt, near[0]) < 1e-6 and cls == near[1]
    if exact.kind == SingKind.EMPTY:
        assert exact.grid_min_norm == scan.grid_min_norm


def scan_of(a_poly, m, grid=1024):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
        return dynamics._scan_singular([a_poly], ["A"], m, grid)


def bowl_line_points(m):
    return sorted((s * math.sqrt(float(m) + t * math.sqrt(3.0) / 2.0), 0.0, 0.5)
                  for s in (1, -1) for t in (1, -1))


# (m, A, the zeros on the torus by hand: a list of points, or a count of
# circles), a semidefinite A each: a null point on and off the torus, null
# lines meeting it in 0, 1 (tangent), 2 (tangent) and 4 points, and planes
# z = k with |k| <, = and > 1
SEMIDEFINITE_CASES = [
    (Fraction(3), "(x - 2)^2 + y^2 + z^2", [(2.0, 0.0, 0.0)]),
    (Fraction(4), "(x - 1)^2 + (y - 2)^2 + z^2", [(1.0, 2.0, 0.0)]),
    (Fraction(9, 2), "(x - a)^2 + y^2 + (z - 1)^2", [(math.sqrt(4.5), 0.0, 1.0)]),
    *((m, "x^2 + y^2 + z^2", []) for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    *((m, "y^2 + (z - 2)^2", []) for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    (Fraction(3), "(x - 2)^2 + y^2", [(2.0, 0.0, 0.0)]),
    (Fraction(4), "3*(x - 1)^2 + (y - 2)^2", [(1.0, 2.0, 0.0)]),
    *((m, "y^2 + (z - 1)^2", [(-math.sqrt(m), 0.0, 1.0), (math.sqrt(m), 0.0, 1.0)])
      for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    *((m, "-(y^2 + (z - 1/2)^2)", bowl_line_points(m))
      for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    *((m, "2*(z - 1/2)^2", 2) for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    *((m, "-(z + 1)^2", 1) for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
    *((m, "(z - 3/2)^2", []) for m in (Fraction(4), Fraction(3), Fraction(9, 2))),
]
# At these tangencies of A's null line the scan's points lie about
# sqrt(1e-8) away, and it reads the vertical lines' one point as a curve.
TANGENT_LINES = {"(x - 2)^2 + y^2", "3*(x - 1)^2 + (y - 2)^2", "y^2 + (z - 1)^2"}


@pytest.mark.parametrize("m, text, zeros", SEMIDEFINITE_CASES)
def test_semidefinite_zeros_on_hand_cases(m, text, zeros, monkeypatch):
    a_poly = parse(text, m)
    scan = scan_of(a_poly, m)
    monkeypatch.setattr(dynamics, "_scan_singular", None)
    sing = singular_points(rotation(a_poly), recognize(rotation(a_poly), m), m, 1024)
    assert not sing.numeric_only
    if isinstance(zeros, int):
        assert sing.kind == SingKind.CURVES and sing.curve_components == zeros
        assert sing.points == []
    else:
        assert [cls for _, cls in sing.points] == [SingClass.LINEARLY_ZERO] * len(zeros)
        assert all(math.dist(pt, want) < 1e-12 for (pt, _), want in zip(sing.points, zeros))
        assert sing.kind == (SingKind.ISOLATED if zeros else SingKind.EMPTY)
    if text not in TANGENT_LINES:
        assert_same_set(sing, scan)


def draw_semidefinite(rng, m):
    """A = +-sum c_i*l_i^2 over 1 to 3 affine forms l_i with small rational
    coefficients; half of the single forms are z - k."""
    def small():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    count = rng.randint(1, 3)
    forms = [corpus.linear(-small(), 0, 0, 1) if count == 1 and rng.random() < 0.5
             else corpus.linear(small(), small(), small(), small()) for _ in range(count)]
    return rng.choice(("", "-")) + "(" + " + ".join(
        f"{rng.randint(1, 3)}*({form})^2" for form in forms) + ")"


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_semidefinite_zeros_match_the_scan(m):
    rng = random.Random(f"semidefinite at m = {m}")
    kinds = collections.Counter()
    for _ in range(30):
        a_poly = parse(draw_semidefinite(rng, m), m)
        exact = dynamics._semidefinite_singular(a_poly, m, 1024, "A") if a_poly else None
        if exact is None:   # a plane other than z = k, or A = 0: scanned
            kinds["scanned"] += 1
            continue
        kinds[exact.kind] += 1
        assert_same_set(exact, scan_of(a_poly, m))
        assert singular_points(rotation(a_poly), recognize(rotation(a_poly), m), m,
                               1024) == exact
    assert kinds[SingKind.ISOLATED] >= 3 and kinds[SingKind.EMPTY] >= 10


@pytest.mark.parametrize("text", ["x^2 - z^2", "z", "x + 2*z", "(x - 3)^2", "(x + z)^2",
                                  "(y^2 + (z - 1/2)^2)*(x^2 + 1)"])
def test_indefinite_and_other_zero_sets_are_scanned(text, monkeypatch):
    monkeypatch.setattr(dynamics, "_scan_singular", lambda *args: "scanned")
    field = rotation(parse(text, M))
    assert singular_points(field, recognize(field, M), M) == "scanned"


@pytest.mark.parametrize("text", ["x^2 - z^2", "z", "x + 2*z", "(y^2 + (z - 1)^2)*(x^2 + 1)",
                                  "((x - 2)^2 + y^2)*(x^2 + 1)"])
def test_rotation_scan_sets_are_numeric(text):
    m = Fraction(3)
    field = rotation(parse(text, m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
        assert singular_points(field, recognize(field, m), m).numeric_only


def test_rotation_shape_detection():
    a_poly = parse("y^2 + (z - 1/2)^2", M)
    assert recognize(rotation(a_poly), M).rotation == a_poly
    assert recognize(build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M),
                     M).rotation is None
    # A of degree above 2 with z is unclassified, and the tag still holds it
    torus = parse("(x^2 + y^2 - a^2)^2 + z^2 - 1", M)
    tag = recognize(rotation(torus), M)
    assert tag.family.value == "unclassified" and tag.rotation == torus


def test_pseudo_type_meridians_inside_singular_set():
    # invariant meridian planes of (Ay, -Ax, 0) divide A exactly
    from torusfields import invariant_meridians

    rng = random.Random(23)
    for _ in range(10):
        parts = [homogeneous_component(random_linear(rng), 1) for _ in range(2)]
        if any(p.is_zero() for p in parts):
            continue
        a_poly = parts[0] * parts[1]
        field = build_pseudo_type(PseudoTypeParams(3, a_poly))
        mset = invariant_meridians(field)
        for plane, _ in mset.planes:
            ppoly = plane.polynomial()
            if ppoly is None:
                continue
            var = "x" if not ppoly.coefficient((1, 0, 0)).is_zero() else "y"
            divide_exact(a_poly, ppoly, var)   # raises if not a factor


# -- classification -----------------------------------------------------------


def chart_pushforward(a_poly, m):
    """FD oracle for the planar field (B*y, -B*x) on the upper chart."""
    def b(xv, yv):
        zv = math.sqrt(1 - (xv * xv + yv * yv - m) ** 2)
        return eval_float(a_poly, (xv, yv, zv))

    def field(xv, yv):
        return b(xv, yv) * yv, -b(xv, yv) * xv

    def jacobian(xv, yv, h=1e-5):
        fx1, fy1 = field(xv + h, yv)
        fx2, fy2 = field(xv - h, yv)
        fx3, fy3 = field(xv, yv + h)
        fx4, fy4 = field(xv, yv - h)
        return ((fx1 - fx2) / (2 * h), (fx3 - fx4) / (2 * h),
                (fy1 - fy2) / (2 * h), (fy3 - fy4) / (2 * h))

    return jacobian


def test_classify_linearly_zero_with_fd_oracle():
    # the bowl's four zeros times x^2 + 1, a level the rotation scan takes
    a_poly = parse("(y^2 + (z - 1/2)^2)*(x^2 + 1)", M)
    sing = singular_points(rotation(a_poly), recognize(rotation(a_poly), M), M)
    assert sing.kind == SingKind.ISOLATED and sing.numeric_only and len(sing.points) == 4
    for q, cls in sing.points:
        assert q[2] == pytest.approx(0.5) and cls == SingClass.LINEARLY_ZERO
        # the difference quotients' error scales with the factor x^2 + 1
        jac = chart_pushforward(a_poly, 4.0)(q[0], q[1])
        assert all(abs(entry) < 1e-6 * (q[0] ** 2 + 1.0) for entry in jac)


def draw_rotation_with_z(rng):
    """A = (c*l1^2 + l2^k)*factor, k = 2 or 4: l2 is often z - k0, with k0 = 0
    giving points on the equator z = 0, and the factor may change sign."""
    def small():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    l1 = corpus.linear(small(), small(), small(), 0)
    l2 = corpus.linear(-rng.choice((0, small())), 0, 0, 1) if rng.random() < 0.5 \
        else corpus.linear(small(), small(), small(), small() or 1)
    factor = rng.choice(("x^2 + 1", "y^2 + z^2 + 2", "x - 3/2", "y + 2*z", "1"))
    return f"({rng.randint(1, 3)}*({l1})^2 + ({l2})^{rng.choice((2, 2, 4))})*({factor})"


def test_isolated_rotation_points_are_linearly_zero():
    # the linear part at a zero p of A is V(p)*d(A|T)(p): the oracle is A's
    # central differences along theta and phi at each point, which vanish
    rng = random.Random(7)
    h, counts = 1e-5, collections.Counter()
    for k in range(300):
        m = (Fraction(4), Fraction(3), Fraction(9, 2))[k % 3]
        mf = float(m)
        a_poly = parse(draw_rotation_with_z(rng), m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
            sing = singular_points(rotation(a_poly), recognize(rotation(a_poly), m), m, 256)
        # a bound on |A| on the torus, where |x|, |y| <= sqrt(m + 1)
        scale = sum(abs(c) * (mf + 1.0) ** ((i + j) / 2)
                    for (i, j, _), c in a_poly.float_terms(mf))
        for (x, y, z), cls in sing.points:
            assert cls == SingClass.LINEARLY_ZERO
            counts["equator" if abs(z) < 1e-6 else "off the equator"] += 1
            theta, phi = math.atan2(y, x), math.atan2(z, x * x + y * y - mf)

            def at(th, ph):
                return eval_float(a_poly, surface_point(th, ph, mf), mf)
            for dth, dph in ((h, 0.0), (0.0, h)):
                slope = (at(theta + dth, phi + dph) - at(theta - dth, phi - dph)) / (2 * h)
                assert abs(slope) < 1e-6 * scale
    assert counts["equator"] >= 100 and counts["off the equator"] >= 100


def test_unstable_meridian_attracts_under_time_reversal():
    from torusfields import build_cubic, integrate

    params = sect5_params()
    verdicts = meridian_verdicts(params, M)
    unstable = [mv.angle for mv in verdicts if mv.verdict.stability == "unstable"]
    field = build_cubic(params, M)
    reversed_field = VectorField(-field.P, -field.Q, -field.R)
    for theta0 in unstable:
        start = surface_point(theta0 + 1e-3, 0.4)
        traj = integrate(reversed_field, start, 20.0, 1e-3, M)
        xf, yf, _ = traj.final_state()
        dist = abs((math.atan2(yf, xf) - theta0 + math.pi) % (2 * math.pi)
                   - math.pi)
        assert dist < 1e-4
        # and forward time pushes the orbit away from the unstable angle
        forward = integrate(field, start, 3.0, 1e-3, M)
        xf, yf, _ = forward.final_state()
        dist_fwd = abs((math.atan2(yf, xf) - theta0 + math.pi) % (2 * math.pi)
                       - math.pi)
        assert dist_fwd > 1e-2


def test_stable_meridian_theta_distance_monotone():
    from torusfields import build_cubic, integrate

    field = build_cubic(sect5_params(), M)
    theta0 = 0.0
    traj = integrate(field, surface_point(theta0 + 1e-3, 0.4), 5.0, 1e-2, M)
    dist = np.abs((traj.thetas - theta0 + math.pi) % (2 * math.pi) - math.pi)
    assert np.all(np.diff(dist) <= 1e-12)
    assert dist[-1] < 1e-4


def test_grid_min_speed_positive_for_rotation():
    # the rotation is the degree-one field with c = 1: K' = 0, f = 1, and
    # |chi| = r is least at phi = pi, a grid angle, where r = sqrt(3)
    assert dynamics.grid_min_speed(VectorField(Y, -X, MultiPoly.zero()), MultiPoly.zero(),
                                   MultiPoly.constant(1), M, grid=64) \
        == pytest.approx(math.sqrt(3.0), rel=2.0 ** -50)


def grid_chi(field, m, grid):
    """min |chi| over the grid from P, Q and R evaluated point by point."""
    mf = float(m)
    angles = surface_angles(mf, grid)[0]
    theta, phi = np.meshgrid(angles, angles, indexing="ij")
    rr = np.sqrt(mf + np.cos(phi))
    at = (rr * np.cos(theta), rr * np.sin(theta), np.sin(phi))
    chi = [eval_grid(compile_poly(c, mf), *at) for c in field.components()]
    return float(np.sqrt(sum(v * v for v in chi)).min())


def test_empty_singular_sets_report_the_grid_minimum_of_chi():
    # the worked cubic is empty by its cubic form and takes min |chi| from
    # the grid of M, and A = x^2 + y^2 from min |A| on the unit circle times
    # min r^3; both report min |chi|, not min |chi|^2 or min |A|
    a_poly = parse("x^2 + y^2", M)
    cubic = VectorField(parse("(1/4)*x*z + x*y^2", M), parse("(1/4)*y*z - x^2*y", M),
                        parse("(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)", M))
    rotation = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
    for field, near in ((cubic, 0.4998), (rotation, 3.0 * math.sqrt(3.0))):
        sing = singular_points(field, recognize(field, M), M)
        assert sing.kind == SingKind.EMPTY
        assert sing.grid_min_norm == pytest.approx(grid_chi(field, M, 512), rel=1e-12)
        assert sing.grid_min_norm == pytest.approx(near, rel=1e-4)


def test_singular_points_rejects_coarse_grid():
    field = VectorField(Y, -X, MultiPoly.zero())
    with pytest.raises(ValueError, match="at least 32"):
        singular_points(field, recognize(field, M), M, grid=31)


@pytest.mark.parametrize("a_text", ["1", "y^2 + (z - 1/2)^2"])
def test_singular_points_rejects_grid_above_maximum(a_text, monkeypatch):
    # checked before any grid is allocated: the rigid rotation would take
    # |chi| from its angle tables and the other field would scan its level A
    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(dynamics, "surface_angles", no_scan)
    monkeypatch.setattr(dynamics, "surface_blocks", no_scan)
    a_poly = parse(a_text, M)
    field = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
    with pytest.raises(ValueError, match="at most 4096, got 4097"):
        singular_points(field, recognize(field, M), M, grid=dynamics.GRID_MAX + 1)


def test_grid_resolution_warning_on_coarse_grid():
    import warnings as warnings_module
    from torusfields import GridResolutionWarning

    # the bowl's zeros times x^2 + 1 > 0: of degree 4, so A is scanned
    a_poly = parse("(y^2 + (z - 1/2)^2)*(x^2 + 1)", M)
    field = VectorField(a_poly * Y, -(a_poly * X), MultiPoly.zero())
    tag = recognize(field, M)
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        result = singular_points(field, tag, M, grid=64)
    assert any(issubclass(w.category, GridResolutionWarning) for w in caught)
    # the points are still pinned down by the Newton refinement
    assert len(result.points) == 4


def test_generic_branch_finds_meridian_singularities():
    # K' = z, f = x*y: singular points sit where the meridians meet z = 0
    params = CubicParams(parse("z", M), X * Y, Scalar(0), Scalar(0))
    field = build_cubic(params, M)
    tag = recognize(field, M)
    result = singular_points(field, tag, M, grid=256)
    assert result.kind == SingKind.ISOLATED
    assert not result.numeric_only
    expected = sorted([(s * r, 0.0, 0.0) for s in (1, -1)
                       for r in (math.sqrt(3), math.sqrt(5))]
                      + [(0.0, s * r, 0.0) for s in (1, -1)
                         for r in (math.sqrt(3), math.sqrt(5))])
    got = sorted(pt for pt, _ in result.points)
    assert len(got) == 8
    for e, g in zip(expected, got):
        assert max(abs(ec - gc) for ec, gc in zip(e, g)) < 1e-6


# -- exact singular sets on the parallels of K' = k0 + k3*z ----------------------

# z0 = -k0/k3 with sqrt(1 - z0^2) rational, then two heights off the torus
HEIGHTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 5), Fraction(-3, 5),
           Fraction(4, 5), Fraction(-4, 5), Fraction(7, 5), Fraction(-3, 2)]


def draw_height_field(rng, m, z0):
    """beta = gamma = 0, K' = k3*(z - z0) and f a product of two linear
    forms, one of them z - z0 now and then (whole singular circles)."""
    k3 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    kprime = MultiPoly({(0, 0, 1): Scalar(k3), (0, 0, 0): Scalar(-k3 * z0)})
    first = Z - z0 if rng.random() < 0.15 else random_linear(rng)
    return build_cubic(CubicParams(kprime, first * random_linear(rng), Scalar(0), Scalar(0)), m)


def field_scale(field, m):
    """The sum of |c|*sqrt(m + 1)^(i+j) over the terms c*x^i*y^j*z^k of P, Q
    and R: at least |P|, |Q| and |R| anywhere on the torus."""
    rm = math.sqrt(float(m) + 1.0)
    return sum(abs(c) * rm ** (i + j) for component in field.components()
               for (i, j, _), c in compile_poly(component, float(m)).terms)


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_exact_parallel_sets_match_the_pair_scan(m):
    # the exact set against the scan of (L, M) at the default grid: the same
    # kind and curve count, every exact point a zero of chi and every scan
    # point next to an exact one; the scan may miss a point (its seeds are
    # local minima over all 8 neighbours, in the component or not)
    rng = random.Random(f"parallels of K' at m = {m}")
    kinds = collections.Counter()
    for z0 in HEIGHTS:
        for _ in range(6):
            field = draw_height_field(rng, m, z0)
            tag = recognize(field, m)
            exact = singular_points(field, tag, m)
            pair, whats, quarter = dynamics._tangential_pair(field, tag.cubic, m)
            scan = dynamics._scan_singular(pair, whats, m, dynamics.GRID_DEFAULT, quarter)
            assert not exact.numeric_only and scan.numeric_only
            assert (exact.kind, exact.curve_components) == (scan.kind, scan.curve_components)
            kinds[exact.kind] += 1
            if exact.kind == SingKind.EMPTY:
                assert abs(exact.grid_min_norm - scan.grid_min_norm) \
                    <= 2.0 ** -47 * scan.grid_min_norm
                continue
            scale = field_scale(field, m)
            points = [pt for pt, _ in exact.points]
            assert all(pt[2] == float(z0) and chi_at(field, m, pt) <= 2.0 ** -42 * scale
                       for pt in points)
            assert len(set(points)) == len(points)
            assert len(scan.points) <= len(points)
            df = [compile_poly(tag.cubic.f.differentiate(v), float(m)) for v in "xy"]
            for q, _ in scan.points:
                gap, (x, y, z) = min((math.dist(pt, q), pt) for pt in points)
                # f's theta-derivative x*f_y - y*f_x vanishes at a multiple
                # root, where the scan's zero is degenerate and float-limited
                tangent = abs(x * eval_point(df[1], x, y, z) - y * eval_point(df[0], x, y, z))
                simple = tangent > 1e-6 * scale
                assert gap <= ((1e-7 if abs(z0) == 1 else 1e-8) if simple else 1e-3)
    assert kinds[SingKind.EMPTY] >= 12 and kinds[SingKind.ISOLATED] > 30
    assert kinds[SingKind.CURVES] > 0


def test_named_kolmogorov_points_are_exact():
    # K' = 2*z, f = x*y: z0 = 0, and x*y = 0 on the circles rho^2 = m -+ 1
    for m in (Fraction(4), Fraction(3), Fraction(9, 2)):
        spec = next(s for s in corpus.named_corpus(m) if s.name == "kolmogorov")
        field = VectorField(*(parse(e, m) for e in (spec.px, spec.qy, spec.rz)))
        result = singular_points(field, recognize(field, m), m)
        assert result.kind == SingKind.ISOLATED and not result.numeric_only
        assert result.description == "8 isolated singular point(s)"
        points = [pt for pt, cls in result.points]
        assert all(cls is None for _, cls in result.points)
        # exact zeros: one of x, y and z itself, never a rounding residue
        assert all(pt[2] == 0.0 and (pt[0] == 0.0) != (pt[1] == 0.0) for pt in points)
        assert all(min(abs(math.hypot(pt[0], pt[1]) - math.sqrt(float(m) + s))
                       for s in (1, -1)) <= 1e-15 for pt in points)
        assert points == sorted(points)
        assert max(math.dist(p, q) for p, q in zip(points, corpus.kolmogorov_points(m))) \
            <= 1e-15


def test_top_parallel_points_are_exact():
    # K' = 1 - z touches the torus on z = 1, rho^2 = m, where f = 0 on the line
    # x + y/2 = 3/2: two points with z exactly 1
    f = parse("(x + (1/2)*y - 3/2)*(z - 1/2)", M)
    field = build_cubic(CubicParams(parse("1 - z", M), f, Scalar(0), Scalar(0)), M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = singular_points(field, recognize(field, M), M)
    assert result.kind == SingKind.ISOLATED and not result.numeric_only
    assert len(result.points) == 2
    for (x, y, z), _ in result.points:
        assert z == 1.0
        assert abs(x * x + y * y - 4.0) <= 1e-14 and abs(x + y / 2 - 1.5) <= 1e-14
        assert chi_at(field, M, (x, y, z)) <= 1e-13


def test_whole_parallels_are_curves():
    # K' = z, f = z*x: f = 0 on the whole of both circles at z = 0
    field = build_cubic(CubicParams(Z, Z * X, Scalar(0), Scalar(0)), M)
    result = singular_points(field, recognize(field, M), M)
    assert result.kind == SingKind.CURVES and not result.numeric_only
    assert result.curve_components == 2 and result.points == []
    assert result.description == "2 singular curve component(s)"


@pytest.mark.parametrize("kprime, f, m", [
    ("z - 1/2", "x*y", Fraction(4)),        # rho^2 = 4 -+ sqrt(3)/2, irrational
    ("z", "a*x + y", Fraction(3)),          # sqrt(3)*x on rho^2 = 2 and 4
])
def test_parallel_sets_beyond_q_sqrt_rho2_are_scanned(kprime, f, m):
    field = build_cubic(CubicParams(parse(kprime, m), parse(f, m), Scalar(0), Scalar(0)), m)
    result = singular_points(field, recognize(field, m), m)
    assert result.kind == SingKind.ISOLATED and result.numeric_only
    assert all(chi_at(field, m, pt) <= 1e-9 for pt, _ in result.points)


def test_parallel_sets_off_the_torus_are_empty_exactly():
    # |z0| = 3/2 > 1 with coefficients in Q(sqrt(m)): decided by the sign of
    # k0^2 - k3^2, and |chi| taken with q = K'(sin(phi))/4 per phi
    for m in (Fraction(3), Fraction(9, 2)):
        kprime, f = parse("a*z + (3/2)*a", m), parse("x*y + a*z", m)
        field = build_cubic(CubicParams(kprime, f, Scalar(0), Scalar(0)), m)
        tag = recognize(field, m)
        result = singular_points(field, tag, m)
        assert result.kind == SingKind.EMPTY and not result.numeric_only
        assert result.grid_min_norm == pytest.approx(grid_chi(field, m, 512), rel=1e-12)


def test_kolmogorov_report_evaluates_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid evaluated")

    monkeypatch.setattr(dynamics, "surface_blocks", no_grid)
    monkeypatch.setattr(dynamics, "_level_grid", no_grid)
    for m in (Fraction(4), Fraction(3)):
        spec = next(s for s in corpus.named_corpus(m) if s.name == "kolmogorov")
        for grid in (512, 200):
            sing = build_report(spec.px, spec.qy, spec.rz, m, grid=grid)["singular_set"]
            assert sing["kind"] == "isolated-points" and not sing["numeric_only"]


# -- two-parallel fields: the parallels' obstructions and the plane p*x + q*y = 0


# the field of the seed draws below with 10 singular points at m = 3, where
# a1 and b share a root at s ~ -2.637, off the torus (|w| > 1)
FIXED_TWO_PARALLEL = (Scalar(0), Scalar(-2), "-2*x*y + x*z + (3/2)*y^2 + (3/2)*z")
TWO_PARALLEL_MS = [Fraction(4), Fraction(3), Fraction(9, 2)]


def draw_two_parallel_with_z(rng, m):
    """p, q in -2..2, not both 0, and f quadratic with 1 to 6 small terms,
    at least one of them with z."""
    p = q = 0
    while p == q == 0:
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
    monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                 (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    picks = set(rng.sample(monomials, rng.randint(1, 5)))
    picks.add(rng.choice([e for e in monomials if e[2]]))
    f = MultiPoly({e: Scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice((1, 2))))
                   for e in picks})
    return TwoParallelParams(Scalar(p), Scalar(q), f)


def level_scale(poly, m):
    """The sum of |c|*sqrt(m + 1)^(i+j) over poly's terms: at least |poly|
    anywhere on the torus."""
    rm = math.sqrt(float(m) + 1.0)
    return sum(abs(c) * rm ** (i + j) for (i, j, _), c in compile_poly(poly, float(m)).terms)


def degenerate_zero(at, scales, pt, m):
    """Whether the rows of (L, M)'s (d/dtheta, d/dphi) at pt are parallel or
    one vanishes next to its level's scale: a multiple zero, such as where
    the plane p*x + q*y = 0 meets z = +-1, where the scan's point is
    float-limited."""
    theta = math.atan2(pt[1], pt[0])
    phi = math.atan2(pt[2], pt[0] * pt[0] + pt[1] * pt[1] - float(m))
    rows = at(theta, phi)[1]
    (a, b), (c, d) = rows
    norms = [max(math.hypot(*row), 1e-6 * scale) for row, scale in zip(rows, scales)]
    return abs(a * d - b * c) <= 1e-6 * norms[0] * norms[1]


def assert_matches_the_pair_scan(field, m, exact, grid=dynamics.GRID_DEFAULT):
    """The exact set against the scan of (L, M): the same kind and curve
    count, every exact point a zero of F, L and M to 1e-12 of their scales
    and every scan point within 1e-8 of an exact one, 1e-4 at a multiple zero."""
    tag = recognize(field, m)
    pair, whats, quarter = dynamics._tangential_pair(field, tag.cubic, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dynamics.GridResolutionWarning)
        scan = dynamics._scan_singular(pair, whats, m, grid, quarter)
    assert not exact.numeric_only and scan.numeric_only
    assert (exact.kind, exact.curve_components) == (scan.kind, scan.curve_components)
    if exact.kind == SingKind.EMPTY:
        assert abs(exact.grid_min_norm - scan.grid_min_norm) <= 2.0 ** -47 * scan.grid_min_norm
        return scan
    points = [pt for pt, _ in exact.points]
    assert points == sorted(points) and len(set(points)) == len(points)
    for poly in (dynamics.torus_surface(m).F, *pair):
        scale, level = level_scale(poly, m), compile_poly(poly, float(m))
        assert all(abs(eval_point(level, *pt)) <= 1e-12 * scale for pt in points)
    at = dynamics._torus_functions(pair, whats, float(m))
    scales = [level_scale(level, m) for level in pair]
    for q, _ in scan.points:
        gap, pt = min((math.dist(pt, q), pt) for pt in points)
        assert gap <= (1e-4 if degenerate_zero(at, scales, pt, m) else 1e-8), (q, pt)
    return scan


@pytest.mark.parametrize("m", TWO_PARALLEL_MS)
def test_two_parallel_sets_match_the_pair_scan(m):
    # 60 draws per m: the points on z = +-1 from the parallels' obstructions
    # and those on the plane p*x + q*y = 0 from E and gcd(a1, b)
    rng = random.Random(f"two-parallel sets at m = {m}")
    kinds, places = collections.Counter(), collections.Counter()
    for _ in range(60):
        field = build_two_parallel(draw_two_parallel_with_z(rng, m), m)
        tag = recognize(field, m)
        assert tag.family.value == "two-parallel"
        exact = singular_points(field, tag, m)
        assert_matches_the_pair_scan(field, m, exact)
        kinds[exact.kind] += 1
        places.update("parallel" if abs(pt[2]) == 1.0 else "equator" if pt[2] == 0.0
                      else "plane" for pt, _ in exact.points)
    assert kinds[SingKind.ISOLATED] > 40 and kinds[SingKind.EMPTY] >= 2
    assert min(places.values()) > 3 and len(places) == 3


def test_fixed_two_parallel_set_has_ten_points():
    # a1 and b share a root at s ~ -2.637 where |w| > 1: no point there, and
    # the scan finds the same 10 points at grids 512, 1024 and 2048
    m = Fraction(3)
    p, q, f = FIXED_TWO_PARALLEL
    field = build_two_parallel(TwoParallelParams(p, q, parse(f, m)), m)
    exact = singular_points(field, recognize(field, m), m)
    assert exact.kind == SingKind.ISOLATED and len(exact.points) == 10
    assert exact.description == "10 isolated singular point(s)"
    for grid in (512, 1024, 2048):
        scan = assert_matches_the_pair_scan(field, m, exact, grid)
        assert len(scan.points) == 10


@pytest.mark.parametrize("f, s, z", [
    # a1 = (4/7)*(s^2 - 7/2) divides b = s*(s^2 - 7/2): |w| = 1/2 at s^2 = 7/2
    ("(4/7)*y*z + y^2 - 7/2", math.sqrt(3.5), math.sqrt(0.75)),
    # a1 = (10/9)*(s - 9/5) divides b = s*(s - 9/5): w = -0.76 at s = 9/5
    ("(10/9)*z + y - 9/5", None, math.sqrt(1.0 - 0.76 ** 2)),
])
def test_shared_roots_of_a1_and_b_hold_two_points(f, s, z):
    # on the plane x = 0 (p = 1, q = 0, m = 4), s*f - m*z/2 = a1*z + b
    # vanishes for every z at a root of gcd(a1, b): both points of the
    # torus there, z = +-sqrt(1 - w^2), are singular
    m = Fraction(4)
    field = build_two_parallel(TwoParallelParams(Scalar(1), Scalar(0), parse(f, m)), m)
    exact = singular_points(field, recognize(field, m), m)
    assert_matches_the_pair_scan(field, m, exact)
    on_plane = [pt for pt, _ in exact.points if abs(pt[2]) != 1.0]
    want = [(0.0, ys, zs) for ys in ((-s, s) if s else (1.8,)) for zs in (-z, z)]
    assert len(on_plane) == len(want)
    assert all(math.dist(pt, w) <= 1e-15 for pt, w in zip(on_plane, want))


@pytest.mark.parametrize("m", TWO_PARALLEL_MS)
def test_parallel_verdicts_match_the_two_parallel_report(m):
    # the paper: z = +-1 is a periodic orbit exactly when the singular set
    # has no point and no curve on it; and the report's verdicts, which share
    # the obstructions with the singular set, are those of parallel_periodicity
    mf, thetas = float(m), [2.0 * math.pi * k / 97 for k in range(97)]
    rng = random.Random(f"two-parallel sets at m = {m}")
    kinds = collections.Counter()
    for _ in range(60):
        params = draw_two_parallel_with_z(rng, m)
        field = build_two_parallel(params, m)
        sing = singular_points(field, recognize(field, m), m)
        report = build_report(*(serialize(c) for c in field.components()), m)
        planes = {plane["k_expr"]: plane["verdict"] for plane in report["parallels"]["planes"]}
        for which in (1, -1):
            verdict = parallel_periodicity(params, m, which)
            want = {"kind": verdict.kind.value}
            if verdict.witness is not None:
                want["witness"] = list(verdict.witness)
            if verdict.reason is not None:
                want["reason"] = verdict.reason
            assert planes[str(which)] == want
            assert_verdict_matches_singular_set(
                verdict, sing, lambda pt: pt[2] == which,
                [surface_point(th, which * math.pi / 2, mf) for th in thetas], field, m)
            kinds[verdict.kind] += 1
    assert kinds[Verdict.NOT_PERIODIC] > 30 and kinds[Verdict.PERIODIC_ORBIT] > 10


def test_two_parallel_report_evaluates_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid evaluated")

    monkeypatch.setattr(dynamics, "_level_grid", no_grid)
    for m in (Fraction(4), Fraction(3)):
        spec = next(s for s in corpus.named_corpus(m) if s.name == "two-parallel")
        for grid in (512, 200):
            sing = build_report(spec.px, spec.qy, spec.rz, m, grid=grid)["singular_set"]
            assert sing["kind"] == "empty" and not sing["numeric_only"]
            assert sing["grid_min_speed"] > 1.0
    # a set with points folds no grid either
    monkeypatch.setattr(dynamics, "surface_blocks", no_grid)
    m = Fraction(3)
    p, q, f = FIXED_TWO_PARALLEL
    field = build_two_parallel(TwoParallelParams(p, q, parse(f, m)), m)
    for grid in (512, 200):
        sing = build_report(*(serialize(c) for c in field.components()), m,
                            grid=grid)["singular_set"]
        assert sing["kind"] == "isolated-points" and len(sing["points"]) == 10


@pytest.mark.parametrize("p, q, f, axis", [
    (0, 1, "x*z + z", 1),       # the plane y = 0
    (0, -2, "-2*x*y + x*z + (3/2)*y^2 + (3/2)*z", 1),
    (1, 0, "y*z", 0),           # the plane x = 0
    (-2, 0, "x^2 + y*z - 1", 0),
])
def test_two_parallel_plane_points_carry_positive_zeros(p, q, f, axis):
    m = Fraction(4) if q != -2 else Fraction(3)
    field = build_two_parallel(TwoParallelParams(Scalar(p), Scalar(q), parse(f, m)), m)
    blob = report_json(build_report(*(serialize(c) for c in field.components()), m))
    assert b"-0.0" not in blob
    points = [pt["point"] for pt in json.loads(blob)["singular_set"]["points"]]
    on_plane = [pt for pt in points if abs(pt[2]) != 1.0]
    assert on_plane and all(pt[axis] == 0.0 and math.copysign(1.0, pt[axis]) == 1.0
                            for pt in on_plane)


def test_transversal_pair_crossings_do_not_warn():
    # K' = -2*x + y + z - 1 meets f = 0 at two points where the zero curves
    # of L and M cross at a shallow angle: a wide component, but a regular
    # Jacobian at each point
    f = parse("2*(2*x + y)*x", M)
    field = build_cubic(CubicParams(parse("-2*x + y + z - 1", M), f, Scalar(0), Scalar(0)), M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = singular_points(field, recognize(field, M), M)
    assert result.kind == SingKind.ISOLATED and len(result.points) == 2
    assert all(chi_at(field, M, pt) <= 1e-9 for pt, _ in result.points)


# -- the paper's condition: invariant curves and the singular set ---------------


def chi_at(field, m, pt):
    return math.sqrt(sum(eval_point(compile_poly(c, float(m)), *pt) ** 2
                         for c in field.components()))


def draw_two_parallel(rng, m):
    """p, q small, not both 0, and f quadratic with up to four small terms."""
    p = q = 0
    while p == q == 0:
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
    monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                 (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    f = MultiPoly({e: Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                   for e in rng.sample(monomials, rng.randint(1, 4))})
    return TwoParallelParams(Scalar(p), Scalar(q), f)


def assert_verdict_matches_singular_set(verdict, sing, on_curve, curve_points, field, m):
    """Not periodic exactly when a reported point lies on the curve, or the
    whole curve is singular and the set has a curve component."""
    on = [pt for pt, _ in sing.points if on_curve(pt)]
    whole = max(chi_at(field, m, pt) for pt in curve_points) < 1e-9
    assert not (whole and on) and (sing.curve_components > 0 or not whole)
    assert (verdict.kind == Verdict.NOT_PERIODIC) == bool(on or whole), (field, sing)


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_periodicity_verdicts_match_the_singular_set(m):
    # the paper: an invariant meridian or parallel is a periodic orbit
    # exactly when no singular point lies on it
    mf, phis = float(m), [2.0 * math.pi * k / 97 for k in range(97)]
    kinds = collections.Counter()
    rng = random.Random(f"meridians at m = {m}")
    for _ in range(30):
        spec = corpus.draw_four_meridian_cubic(rng, m)
        field = VectorField(*(parse(e, m) for e in (spec.px, spec.qy, spec.rz)))
        tag = recognize(field, m)
        sing = singular_points(field, tag, m)
        assert all(chi_at(field, m, pt) < 1e-8 for pt, _ in sing.points)
        for mv in meridian_verdicts(tag.cubic, m):
            assert_verdict_matches_singular_set(
                mv.verdict, sing,
                lambda pt: dynamics._angle_gap((math.atan2(pt[1], pt[0]), 0.0),
                                               (mv.angle, 0.0)) < 1e-6,
                [surface_point(mv.angle, ph, mf) for ph in phis], field, m)
            kinds[mv.verdict.kind] += 1
    rng = random.Random(f"parallels at m = {m}")
    for _ in range(30):
        params = draw_two_parallel(rng, m)
        field = build_two_parallel(params, m)
        sing = singular_points(field, recognize(field, m), m)
        assert all(chi_at(field, m, pt) < 1e-8 for pt, _ in sing.points)
        for which in (1, -1):
            verdict = parallel_periodicity(params, m, which)
            assert_verdict_matches_singular_set(
                verdict, sing, lambda pt: abs(pt[2] - which) < 1e-6,
                [surface_point(th, which * math.pi / 2, mf) for th in phis], field, m)
            kinds["parallel", verdict.kind] += 1
    assert kinds[Verdict.NOT_PERIODIC] > 20 and kinds[Verdict.LIMIT_CYCLE] > 20
    assert kinds["parallel", Verdict.NOT_PERIODIC] > 10
    assert kinds["parallel", Verdict.PERIODIC_ORBIT] > 2


# -- reference: the per-cell seed loop, and the closed-form points ------------


def reference_local_min_seeds(vals, cells, cap=32, scales=(1.0,)):
    """The seeds of ``dynamics._local_min_seeds`` cell by cell: ``vals`` is
    one level's grid or a stack of levels, scored by sum |level| / scale, and
    ``cells`` the component, whose cells alone are compared."""
    stack = vals if vals.ndim == 3 else vals[None]
    grid = stack.shape[1]
    cells = [(int(i), int(j)) for i, j in cells]
    members = set(cells)

    def score(i, j):
        return sum(abs(float(v[i % grid, j % grid])) / s for v, s in zip(stack, scales))
    seeds = []
    for i, j in cells:
        if all(score(i + di, j + dj) >= score(i, j)
               for di in (-1, 0, 1) for dj in (-1, 0, 1)
               if (di, dj) != (0, 0) and ((i + di) % grid, (j + dj) % grid) in members):
            seeds.append((i, j))
    seeds.sort(key=lambda c: score(*c))
    return seeds[:cap] or [min(cells, key=lambda c: score(*c))]


def reference_component_extent(cells, n):
    def circular_extent(coords):
        uniq = sorted(set(coords))
        if len(uniq) == n:
            return n
        gaps = [(uniq[i + 1] - uniq[i]) for i in range(len(uniq) - 1)]
        gaps.append(uniq[0] + n - uniq[-1])
        return n - max(gaps)

    return max(circular_extent([c[0] for c in cells]),
               circular_extent([c[1] for c in cells]))


def seeds_of(vals, rows, cols, scales=(1.0,)):
    """``dynamics._local_min_seeds`` as (i, j) cells, like the reference."""
    stack = vals if vals.ndim == 3 else vals[None]
    return [(int(rows[k]), int(cols[k]))
            for k in dynamics._local_min_seeds(stack, scales, rows, cols)]


def bowl_and_kolmogorov_scans(m, rng):
    """(levels, Newton pair, closed-form points): the bowl's A with its
    critical-point pair, and the pairs (L, M) of two Kolmogorov fields."""
    mf = float(m)
    bowl = parse("y^2 + (z - 1/2)^2", m)
    ax, ay, az = (bowl.differentiate(v) for v in "xyz")
    rho2 = X * X + Y * Y
    scans = [([bowl], [X * ay - Y * ax, rho2 * (rho2 - m) * az * 2 - Z * (X * ax + Y * ay)],
              [(s * math.sqrt(mf + t * math.sqrt(3.0) / 2.0), 0.0, 0.5)
               for s in (1, -1) for t in (1, -1)])]
    nonzero = [c for c in range(-5, 6) if c]
    axis = [(s * math.sqrt(mf + t), 0.0, 0.0) for s in (1, -1) for t in (1, -1)]
    for c1, c2 in ((1, 2), (rng.choice(nonzero), rng.choice(nonzero))):
        field = build_kolmogorov(KolmogorovParams(Scalar(c1), Scalar(c2)), m)
        pair = dynamics._tangential_pair(field, recognize(field, m).cubic, m)[0]
        scans.append((pair, pair, axis + [(y, x, z) for x, y, z in axis]))
    return scans


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_seeds_and_newton_match_the_references(m):
    # the seeds are the reference's local minima of the score, and Newton
    # from each lands within 1e-12 of one of the closed-form points
    mf, grid = float(m), dynamics.GRID_DEFAULT
    angles = surface_angles(mf, grid)[0]
    compared = 0
    for levels, newton_pair, points in bowl_and_kolmogorov_scans(m, random.Random(12)):
        compiled = [compile_poly(p, mf) for p in levels]
        vals, extremes, vmax = dynamics._level_grid(compiled, ["level"] * len(levels), mf, grid)
        scales = vmax if len(levels) == 2 else (1.0,)
        taus = vmax * (2.0 * math.pi / grid) ** 2 * 4.0
        cells, bounds, _ = dynamics._components(*dynamics._cell_masks(vals, extremes, taus)[::-1])
        at = dynamics._torus_functions(newton_pair, ["first", "second"], mf)
        for k in range(bounds.size - 1):
            rows, cols = np.divmod(cells[bounds[k]:bounds[k + 1]], grid)
            seeds = seeds_of(vals, rows, cols, scales)
            assert seeds == reference_local_min_seeds(vals, list(zip(rows, cols)), scales=scales)
            for i, j in seeds:
                th, ph = dynamics._newton_pair(at, (angles[i] + math.pi / grid,
                                                    angles[j] + math.pi / grid))
                pt = surface_point(th, ph, mf)
                assert min(math.dist(pt, q) for q in points) < 1e-12
            compared += 1
    assert compared >= 4 + 8 + 8   # the bowl's and the Kolmogorov fields' points


def test_newton_pair_steps_nowhere_from_a_common_zero():
    # a start on a zero of both functions, with independent gradients, where
    # v = 0: a step of length 0, taken without dividing by it
    at = dynamics._torus_functions([parse("x - 2", M), Z], ["x - 2", "z"], 4.0)
    start = (math.acos(2.0 / math.sqrt(5.0)), 0.0)   # x = 2, z = 0 on the torus
    assert dynamics._newton_pair(lambda th, ph: ([0.0, 0.0], at(th, ph)[1]), start) == start


def test_local_min_seeds_on_hand_grids():
    n = 32
    every = np.divmod(np.arange(n * n), n)
    ties = np.full((n, n), 2.0)
    ties[3, 3] = ties[3, 10] = -0.5
    ties[20, 7] = 0.5
    ties[10:13, 20:23] = -0.25          # a plateau: nine tied local minima
    # in the columns 5..8 alone, column 5 holds the local minima
    ramp = np.tile(np.arange(1.0, n + 1.0), (n, 1))
    ramp_nan = ramp.copy()
    ramp_nan[0, 5] = np.nan
    ramp_late_nan = ramp.copy()
    ramp_late_nan[4, 6] = np.nan
    infs = np.full((n, n), np.inf)
    infs[::3, ::5] = -np.inf
    infs[7, 7], infs[8, 9], infs[30, 1] = 3.0, np.nan, 3.0
    middle = np.divmod(np.array([i * n + j for i in range(n) for j in range(5, 9)]), n)
    corner = np.divmod(np.array([i * n + j for i in range(2) for j in range(5, 9)]), n)
    cases = [(ties, every), (infs, every), (ramp, middle), (ramp_nan, middle),
             (ramp_late_nan, middle), (ramp_nan, corner)]
    for vals, (rows, cols) in cases:
        want = reference_local_min_seeds(vals, list(zip(rows, cols)))
        assert seeds_of(vals, rows, cols) == want
    assert seeds_of(ties, *every)[:12] == [(10, 20), (10, 21), (10, 22), (11, 20),
                                           (11, 21), (11, 22), (12, 20), (12, 21),
                                           (12, 22), (3, 3), (3, 10), (20, 7)]
    assert seeds_of(ramp, *middle) == [(i, 5) for i in range(n)]
    # a cell next to a nan in the component is no local minimum
    assert seeds_of(ramp_nan, *middle) == [(i, 5) for i in range(2, n - 1)]
    assert seeds_of(ramp_late_nan, *middle) == [(i, 5) for i in range(n) if not 3 <= i <= 5]
    # no local minimum in rows 0..1: the cell of least score, a nan first
    assert seeds_of(ramp_nan, *corner) == [(0, 5)]


def test_pair_scan_seeds_compare_cells_of_their_component():
    # along a zero circle of L the component is one column wide, and an
    # unflagged neighbour of lower score must not cost a zero of M its seed
    m = Fraction(3)
    cubic = CubicParams(parse("-(3/2)*z + 9/10", m), parse(
        "6*x^2 + 5*x*y - 12*x*z + y^2 - 5*y*z + 6*z^2 + 15*x + 6*y - 15*z + 9", m),
        Scalar(0), Scalar(0))
    field = build_cubic(cubic, m)
    exact = dynamics._height_singular(field, cubic, m, dynamics.GRID_DEFAULT)
    pair, whats, quarter = dynamics._tangential_pair(field, cubic, m)
    scan = dynamics._scan_singular(pair, whats, m, dynamics.GRID_DEFAULT, quarter)
    assert len(exact.points) == len(scan.points) == 8
    assert all(min(math.dist(pt, q) for q, _ in exact.points) < 1e-8 for pt, _ in scan.points)


def test_first_min_is_the_one_min_picks():
    rng = np.random.default_rng(5)
    for _ in range(200):
        values = rng.choice([0.0, 1.0, 2.0, np.inf, np.nan], size=rng.integers(1, 8))
        want = min(range(values.size), key=lambda k: float(values[k]))
        assert dynamics._first_min(values) == want


def test_component_extent_matches_the_reference():
    rng = random.Random(3)
    for n in (8, 33, 64):
        cases = [[(0, 0)], [(0, 0), (n - 1, n - 1)], [(i, 5) for i in range(n)],
                 [(2, 3), (2, 4), (5, n - 2)]]
        cases += [[(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))]
                  for _ in range(40)]
        for cells in cases:
            rows, cols = (np.array(c) for c in zip(*cells))
            assert dynamics._component_extent(rows, cols, n) == \
                reference_component_extent(cells, n)
