"""Cylindrical reduction, periodicity of invariant curves, singular points.

On the torus a point is parametrized by two angles: theta around the z-axis
and phi around the tube, with radius r = sqrt(m + cos(phi)) and height
z = sin(phi).  Meridian periodicity reduces to a zero-existence scan of K'
along a meridian; parallel periodicity reduces to real roots of an exact
degree-4 polynomial obtained from the Weierstrass substitution
t = tan(theta/2).  Singular-set extraction samples the relevant level
function on a (theta, phi) grid and pins candidates down with Newton steps
driven by exact derivatives.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import (MeridianPlane, check_four_meridian_criterion,
                     linear_xy_factors, plane_from_factor)
from .families import (CubicParams, Family, FamilyTag, QuadraticParams,
                       TwoParallelParams, build_cubic)
from .kernels import (compile_poly, eval_grid, eval_point, eval_surface,
                      surface_angles)
from .poly import MultiPoly, NotDivisible, UniPoly, Y, divide_exact
from .roots import real_roots
from .scalars import Scalar
from .vfield import VectorField

SCAN_SAMPLES = 8192
INCONCLUSIVE_BAND = 1e-7
GRID_DEFAULT = 512
GRID_MIN = 32   # (x^2-z^2)*(y, -x, 0) shows both singular curves from 19 (m=4), 21 (m=3)


class ChartError(ValueError):
    """Point too close to z = 0 for the upper/lower chart."""


class GridResolutionWarning(UserWarning):
    """A singular-set component was ambiguous at the sampling resolution."""


class Verdict(enum.Enum):
    PERIODIC_ORBIT = "periodic-orbit"
    LIMIT_CYCLE = "limit-cycle"
    NOT_PERIODIC = "not-periodic"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PeriodicityVerdict:
    kind: Verdict
    stability: str | None = None          # "stable" / "unstable" for limit cycles
    witness: tuple | None = None          # a singular point killing periodicity
    reason: str | None = None


@dataclass(frozen=True)
class MeridianVerdict:
    angle: float
    plane: MeridianPlane
    verdict: PeriodicityVerdict


class SingClass(enum.Enum):
    SEMI_HYPERBOLIC = "semi-hyperbolic"
    NILPOTENT_OR_LINEARLY_ZERO = "nilpotent-or-linearly-zero"
    LINEARLY_ZERO = "linearly-zero"


class SingKind(enum.Enum):
    EMPTY = "empty"
    ISOLATED = "isolated-points"
    CURVES = "curves"


@dataclass
class SingularSet:
    kind: SingKind
    points: list[tuple[tuple[float, float, float], SingClass | None]]
    curve_components: int = 0
    description: str = ""
    numeric_only: bool = False
    grid_min_norm: float | None = None


# -- cylindrical coordinates ---------------------------------------------------


@dataclass(frozen=True)
class CylindricalField:
    r_dot: object      # callable (r, theta, z) -> float
    theta_dot: object
    z_dot: object


def cylindrical_form(field: VectorField) -> CylindricalField:
    """Evaluators for (dr/dt, dtheta/dt, dz/dt), valid for r > 0."""
    radial_num = compile_poly(field.P * MultiPoly.variable("x")
                              + field.Q * MultiPoly.variable("y"))
    angular_num = compile_poly(field.Q * MultiPoly.variable("x")
                               - field.P * MultiPoly.variable("y"))
    vertical = compile_poly(field.R)

    def r_dot(r: float, theta: float, z: float) -> float:
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(radial_num, x, y, z) / r

    def theta_dot(r: float, theta: float, z: float) -> float:
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(angular_num, x, y, z) / (r * r)

    def z_dot(r: float, theta: float, z: float) -> float:
        x, y = r * math.cos(theta), r * math.sin(theta)
        return eval_point(vertical, x, y, z)

    return CylindricalField(r_dot, theta_dot, z_dot)


# -- meridian limit cycles -----------------------------------------------------


def _surface_point(theta: float, phi: float, m: float) -> tuple[float, float, float]:
    r = math.sqrt(m + math.cos(phi))
    return r * math.cos(theta), r * math.sin(theta), math.sin(phi)


def _refine_phi_zero(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    phi = 0.5 * (lo + hi)
    h = 1e-7
    for _ in range(4):
        d = (fn(phi + h) - fn(phi - h)) / (2 * h)
        if d == 0.0:
            break
        phi -= fn(phi) / d
    return phi


def meridian_periodicity(params: CubicParams, m: Fraction,
                         samples: int = SCAN_SAMPLES) -> list[MeridianVerdict]:
    """Per-meridian verdicts for a four-meridian cubic field.

    A meridian is a limit cycle exactly when K' never vanishes on it;
    stabilities then alternate with the sign of dtheta/dt on either side.
    """
    if not check_four_meridian_criterion(params):
        raise ValueError("field does not have exactly four invariant meridians")
    mf = float(m)
    planes = [plane_from_factor(fa) for fa in linear_xy_factors(params.f)]
    entries = [(pl.angle() + shift, pl) for pl in planes for shift in (0.0, math.pi)]
    entries.sort(key=lambda e: e[0])

    kprime = compile_poly(params.Kprime, mf)
    field = build_cubic(params, m)
    angular = compile_poly(field.Q * MultiPoly.variable("x")
                           - field.P * MultiPoly.variable("y"), mf)

    phis, _, zs, rs = surface_angles(mf, samples)

    def theta_dot_sign(theta: float) -> int:
        x, y, z = _surface_point(theta, 0.0, mf)
        v = eval_point(angular, x, y, z)
        return (v > 0) - (v < 0)

    angles = [e[0] for e in entries]
    out: list[MeridianVerdict] = []
    for idx, (theta, plane) in enumerate(entries):
        xs = rs * math.cos(theta)
        ys = rs * math.sin(theta)
        vals = eval_grid(kprime, xs, ys, zs)
        nxt = np.roll(vals, -1)
        change = np.nonzero((vals * nxt < 0) | (vals == 0))[0]
        if change.size:
            i = int(change[0])
            lo = phis[i]
            hi = phis[(i + 1) % samples] if i + 1 < samples else 2.0 * math.pi

            def kp_phi(phi: float) -> float:
                return eval_point(kprime, *_surface_point(theta, phi, mf))

            phi0 = _refine_phi_zero(kp_phi, lo, hi) if vals[i] != 0 else lo
            witness = _surface_point(theta, phi0, mf)
            out.append(MeridianVerdict(theta, plane, PeriodicityVerdict(
                Verdict.NOT_PERIODIC, witness=witness,
                reason="K' vanishes on the meridian")))
            continue
        min_abs = float(np.min(np.abs(vals)))
        if min_abs < INCONCLUSIVE_BAND:
            out.append(MeridianVerdict(theta, plane, PeriodicityVerdict(
                Verdict.INCONCLUSIVE,
                reason=f"min |K'| = {min_abs:.2e} on scan, below {INCONCLUSIVE_BAND}")))
            continue
        prev_angle = angles[idx - 1] - (2.0 * math.pi if idx == 0 else 0.0)
        next_angle = angles[(idx + 1) % len(angles)] + (
            2.0 * math.pi if idx == len(angles) - 1 else 0.0)
        below = theta_dot_sign(0.5 * (prev_angle + theta))
        above = theta_dot_sign(0.5 * (theta + next_angle))
        if below > 0 and above < 0:
            stability = "stable"
        elif below < 0 and above > 0:
            stability = "unstable"
        else:
            out.append(MeridianVerdict(theta, plane, PeriodicityVerdict(
                Verdict.INCONCLUSIVE,
                reason="dtheta/dt does not change sign across the meridian")))
            continue
        out.append(MeridianVerdict(theta, plane, PeriodicityVerdict(
            Verdict.LIMIT_CYCLE, stability=stability)))
    return out


# -- parallel periodic orbits ----------------------------------------------------


def _sqrtm_power(m: Fraction, e: int) -> Scalar:
    half, odd = divmod(e, 2)
    base = Fraction(m) ** half
    return Scalar(0, base, m) if odd else Scalar(base)


def _parallel_obstruction_poly(params: TwoParallelParams, m: Fraction,
                               which: int) -> tuple[UniPoly, Scalar]:
    """The obstruction in t = tan(theta/2), times (1 + t^2)^2, plus g(pi).

    Roots of the returned polynomial (and a vanishing g(pi)) are the angles
    where the parallel z = which carries a singular point.
    """
    w = Fraction(which)
    cos_t = UniPoly([1, 0, -1])
    sin_t = UniPoly([0, 2])
    denom = UniPoly([1, 0, 1])
    total = UniPoly()
    for (i, j, k), coeff in params.f.terms.items():
        c = coeff * (w ** k) * _sqrtm_power(m, i + j)
        piece = UniPoly([c])
        for _ in range(i):
            piece = piece * cos_t
        for _ in range(j):
            piece = piece * sin_t
        for _ in range(2 - i - j):
            piece = piece * denom
        total = total + piece
    correction = (sin_t.scale(params.p * _sqrtm_power(m, 1))
                  - cos_t.scale(params.q * _sqrtm_power(m, 1))) * denom
    total = total - correction.scale(Scalar(Fraction(w) / 2))
    a = Scalar.sqrt_m(m)
    g_pi = (params.f.eval_exact((-a, Scalar(0), Scalar(w)))
            - params.q * a * Scalar(Fraction(w) / 2))
    return total, g_pi


def parallel_periodicity(params: TwoParallelParams, m: Fraction,
                         which: int) -> PeriodicityVerdict:
    """Periodicity of the parallel on z = +1 or z = -1."""
    if which not in (1, -1):
        raise ValueError("which must be +1 or -1")
    if params.p.is_zero() and params.q.is_zero():
        raise ValueError("two-parallel family requires (p, q) != (0, 0)")
    obstruction, g_pi = _parallel_obstruction_poly(params, Fraction(m), which)
    if obstruction.is_zero() and g_pi.is_zero():
        witness = _surface_point(0.0, math.pi / 2 * which, float(m))
        return PeriodicityVerdict(Verdict.NOT_PERIODIC, witness=witness,
                                  reason="every point of the parallel is singular")
    witnesses: list[float] = []
    if not obstruction.is_zero() and obstruction.degree >= 1:
        witnesses.extend(2.0 * math.atan(t) for t, _ in real_roots(obstruction))
    elif obstruction.is_zero():
        witnesses.append(0.0)
    if g_pi.is_zero():
        witnesses.append(math.pi)
    if witnesses:
        theta = witnesses[0] % (2.0 * math.pi)
        mf = float(m)
        a = math.sqrt(mf)
        witness = (a * math.cos(theta), a * math.sin(theta), float(which))
        return PeriodicityVerdict(Verdict.NOT_PERIODIC, witness=witness,
                                  reason=f"singular point at theta = {theta:.12g}")
    return PeriodicityVerdict(Verdict.PERIODIC_ORBIT)


# -- singular points --------------------------------------------------------------


def _newton_2d(gradfn, start: tuple[float, float]) -> tuple[float, float] | None:
    th, ph = start
    h = 1e-6
    for _ in range(60):
        g0, g1 = gradfn(th, ph)
        a00 = (gradfn(th + h, ph)[0] - gradfn(th - h, ph)[0]) / (2 * h)
        a01 = (gradfn(th, ph + h)[0] - gradfn(th, ph - h)[0]) / (2 * h)
        a10 = (gradfn(th + h, ph)[1] - gradfn(th - h, ph)[1]) / (2 * h)
        a11 = (gradfn(th, ph + h)[1] - gradfn(th, ph - h)[1]) / (2 * h)
        det = a00 * a11 - a01 * a10
        if abs(det) < 1e-14:
            return None
        dth = (g0 * a11 - g1 * a01) / det
        dph = (a00 * g1 - a10 * g0) / det
        step = math.hypot(dth, dph)
        if step > 0.5:
            dth *= 0.5 / step
            dph *= 0.5 / step
        th -= dth
        ph -= dph
        if step < 1e-13:
            return th, ph
    return None


def _component_extent(cells: list[tuple[int, int]], n: int) -> int:
    def circular_extent(coords: list[int]) -> int:
        uniq = sorted(set(coords))
        if len(uniq) == n:
            return n
        gaps = [(uniq[i + 1] - uniq[i]) for i in range(len(uniq) - 1)]
        gaps.append(uniq[0] + n - uniq[-1])
        return n - max(gaps)

    return max(circular_extent([c[0] for c in cells]),
               circular_extent([c[1] for c in cells]))


def _cell_reduce(op, a: np.ndarray) -> np.ndarray:
    """op (np.minimum or np.maximum) over the four corners of each periodic grid cell."""
    out = np.roll(a, -1, axis=0)
    op(out, a, out=out)
    return op(out, np.roll(out, -1, axis=1), out=out)


def _levelset_singular(level: MultiPoly, m: Fraction, grid: int,
                       classify_field: VectorField | None,
                       numeric_only: bool) -> SingularSet:
    """Zero set of a scalar function restricted to the torus surface."""
    mf = float(m)
    if level.is_scalar():
        if level.is_zero():
            return SingularSet(SingKind.CURVES, [], curve_components=1,
                               description="the whole torus is singular")
        return SingularSet(SingKind.EMPTY, [], grid_min_norm=abs(
            level.constant_value().to_float()))

    angles = surface_angles(mf, grid)[0]
    level_terms = compile_poly(level, mf)
    vals = eval_surface(level_terms, mf, grid)
    abs_vals = np.abs(vals)
    vmax = float(np.max(abs_vals))
    if vmax == 0.0:
        return SingularSet(SingKind.CURVES, [], curve_components=1,
                           description="the whole torus is singular")

    tau = vmax * (2.0 * math.pi / grid) ** 2 * 4.0
    has_sign_change = ((_cell_reduce(np.minimum, vals) < 0.0)
                       & (_cell_reduce(np.maximum, vals) > 0.0))
    flagged = has_sign_change | (_cell_reduce(np.minimum, abs_vals) < tau)

    grads = [compile_poly(level.differentiate(v), mf) for v in "xyz"]

    def grad_surface(th: float, ph: float) -> tuple[float, float]:
        r = math.sqrt(mf + math.cos(ph))
        x, y, z = r * math.cos(th), r * math.sin(th), math.sin(ph)
        gx, gy, gz = (eval_point(g, x, y, z) for g in grads)
        r_phi = -math.sin(ph) / (2.0 * r)
        return (gx * (-y) + gy * x,
                gx * math.cos(th) * r_phi + gy * math.sin(th) * r_phi
                + gz * math.cos(ph))

    visited = np.zeros_like(flagged, dtype=bool)
    curve_count = 0
    points: list[tuple[tuple[float, float, float], SingClass | None]] = []
    point_cap = grid // 16

    def local_min_seeds(cells: list[tuple[int, int]],
                        cap: int = 32) -> list[tuple[int, int]]:
        seeds = []
        for i, j in cells:
            v = abs(float(vals[i, j]))
            if all(abs(float(vals[(i + di) % grid, (j + dj) % grid])) >= v
                   for di in (-1, 0, 1) for dj in (-1, 0, 1)
                   if (di, dj) != (0, 0)):
                seeds.append((i, j))
        seeds.sort(key=lambda c: abs(float(vals[c[0], c[1]])))
        return seeds[:cap] or [min(cells,
                                   key=lambda c: abs(float(vals[c[0], c[1]])))]

    def refine(seed: tuple[int, int]):
        """(point or None, |level| at the critical point or None)."""
        th0 = angles[seed[0]] + math.pi / grid
        ph0 = angles[seed[1]] + math.pi / grid
        solution = _newton_2d(grad_surface, (th0, ph0))
        if solution is None:
            return None, None
        pt = _surface_point(solution[0], solution[1], mf)
        residual = abs(eval_point(level_terms, *pt))
        if residual > 1e-8 * vmax:
            return None, residual
        return pt, residual

    flagged_idx = np.argwhere(flagged)
    for ci, cj in flagged_idx:
        if visited[ci, cj]:
            continue
        stack = [(int(ci), int(cj))]
        visited[ci, cj] = True
        cells = []
        component_sign_change = False
        while stack:
            i, j = stack.pop()
            cells.append((i, j))
            if has_sign_change[i, j]:
                component_sign_change = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = (i + di) % grid, (j + dj) % grid
                    if flagged[ni, nj] and not visited[ni, nj]:
                        visited[ni, nj] = True
                        stack.append((ni, nj))
        if component_sign_change:
            curve_count += 1
            continue
        # no sign change: isolated minima of the level function, an
        # even-order zero curve, or a spurious low-|level| valley.  Newton
        # from every local minimum decides: nondegenerate zero minima
        # converge with a vanishing level, nonzero minima converge with a
        # clearly positive one, and a curve's flat gradient does not
        # converge at all.
        found = []
        positive_minimum = False
        newton_failed = False
        for seed in local_min_seeds(cells):
            pt, residual = refine(seed)
            if pt is not None:
                if all(math.dist(pt, q) > 1e-6 for q in found) and \
                        all(math.dist(pt, q[0]) > 1e-6 for q in points):
                    found.append(pt)
            elif residual is not None:
                positive_minimum = True
            else:
                newton_failed = True
        extent = _component_extent(cells, grid)
        if found:
            if extent > point_cap:
                warnings.warn(
                    f"singular component of extent {extent} cells resolved "
                    f"into {len(found)} point(s); a {grid}x{grid} grid is "
                    "coarse for this level function", GridResolutionWarning,
                    stacklevel=2)
            for pt in found:
                sing_class = None
                if classify_field is not None and abs(pt[2]) >= 1e-6:
                    sing_class = classify_singularity(classify_field, pt, m)
                points.append((pt, sing_class))
        elif positive_minimum and not newton_failed:
            continue  # the level function bottoms out above zero here
        else:
            comp_min = min(abs(float(vals[i, j])) for i, j in cells)
            if comp_min > 0.5 * tau:
                continue  # flagged cells never got near zero: spurious
            if extent <= point_cap:
                warnings.warn(
                    "Newton refinement failed on a small singular component; "
                    "keeping it as a curve candidate", GridResolutionWarning,
                    stacklevel=2)
            curve_count += 1

    points.sort(key=lambda entry: entry[0])
    if curve_count and points:
        return SingularSet(SingKind.CURVES, points, curve_components=curve_count,
                           description=f"{curve_count} singular curve component(s) "
                                       f"plus {len(points)} isolated point(s)",
                           numeric_only=numeric_only)
    if curve_count:
        return SingularSet(SingKind.CURVES, [], curve_components=curve_count,
                           description=f"{curve_count} singular curve component(s)",
                           numeric_only=numeric_only)
    if points:
        return SingularSet(SingKind.ISOLATED, points,
                           description=f"{len(points)} isolated singular point(s)",
                           numeric_only=numeric_only)
    return SingularSet(SingKind.EMPTY, [], numeric_only=numeric_only,
                       grid_min_norm=float(np.min(np.abs(vals))))


def grid_min_speed(field: VectorField, m: Fraction,
                   grid: int = GRID_DEFAULT) -> float:
    """Minimum of |chi| over a (theta, phi) grid on the torus."""
    mf = float(m)
    total = sum(eval_surface(compile_poly(component, mf), mf, grid) ** 2
                for component in field.components())
    return float(np.sqrt(np.min(total)))


def rotation_shape(field: VectorField) -> MultiPoly | None:
    """A with field = (A*y, -A*x, 0), if the field has that shape."""
    if not field.R.is_zero():
        return None
    if field.P.is_zero() and field.Q.is_zero():
        return MultiPoly.zero()
    try:
        a = divide_exact(field.P, Y, "y")
    except NotDivisible:
        return None
    if field.Q != -(a * MultiPoly.variable("x")):
        return None
    return a


def singular_points(field: VectorField, tag: FamilyTag, m: Fraction,
                    grid: int = GRID_DEFAULT) -> SingularSet:
    """Singular set of the field on the torus, classified where possible.

    Quadratic fields with a nonzero vertical component and nonzero rigid
    rotations have no singular points at all; fields of the shape
    (A*y, -A*x, 0) are singular exactly on the zero set of A.  Anything
    else falls back to a grid minimization of |chi|^2, reported as numeric.
    """
    if grid < GRID_MIN:
        raise ValueError(f"grid must be at least {GRID_MIN}, got {grid}")
    if tag.family == Family.QUADRATIC and isinstance(tag.params, QuadraticParams) \
            and not tag.params.alpha.is_zero():
        return SingularSet(SingKind.EMPTY, [],
                           grid_min_norm=grid_min_speed(field, m, grid))
    if tag.family == Family.DEGREE_ONE and not tag.params.c.is_zero():
        return SingularSet(SingKind.EMPTY, [],
                           grid_min_norm=grid_min_speed(field, m, grid))
    level = rotation_shape(field)
    if level is not None:
        return _levelset_singular(level, m, grid, field, False)
    speed_sq = (field.P * field.P + field.Q * field.Q + field.R * field.R)
    return _levelset_singular(speed_sq, m, grid, None, True)


def chart_gradient(field: VectorField, q: tuple[float, float, float],
                   m: Fraction) -> tuple[float, float]:
    """(B_x, B_y) at q, where B restricts the rotation coefficient A to the
    open half-torus chart z = sign(z0) * sqrt(1 - (x^2 + y^2 - m)^2)."""
    x0, y0, z0 = q
    if abs(z0) < 1e-6:
        raise ChartError(f"|z| = {abs(z0):.2e} is too small for the chart")
    try:
        a_poly = divide_exact(field.P, Y, "y")
    except NotDivisible as exc:
        raise ValueError("field is not of the shape (A*y, -A*x, 0)") from exc
    scale = max((abs(c.to_float()) for c in a_poly.terms.values()), default=1.0)
    if abs(eval_point(compile_poly(a_poly, float(m)), x0, y0, z0)) \
            > 1e-8 * max(scale, 1.0):
        raise ValueError(f"A{q} != 0: not a singular point of the field")
    ax, ay, az = (eval_point(compile_poly(a_poly.differentiate(v), float(m)),
                             x0, y0, z0) for v in "xyz")
    ring = x0 * x0 + y0 * y0 - float(m)
    return ax + az * (-2.0 * x0 * ring / z0), ay + az * (-2.0 * y0 * ring / z0)


def chart_trace(field: VectorField, q: tuple[float, float, float],
                m: Fraction) -> float:
    """Trace (= divergence) of the chart pushforward (B*y, -B*x) at q."""
    bx, by = chart_gradient(field, q, m)
    return bx * q[1] - by * q[0]


def classify_singularity(field: VectorField, q: tuple[float, float, float],
                         m: Fraction) -> SingClass:
    """Classification of an isolated singular point of (A*y, -A*x, 0).

    Works in the orthogonal chart of the open upper (or lower) half of the
    torus: with B the restriction of A to the chart, the Jacobian of the
    planar field (B*y, -B*x) at a zero of B has trace B_x*y0 - B_y*x0 and
    zero determinant, which separates semi-hyperbolic points from nilpotent
    and linearly zero ones.
    """
    x0, y0, _ = q
    bx, by = chart_gradient(field, q, m)
    trace = bx * y0 - by * x0
    if abs(trace) > 1e-8:
        return SingClass.SEMI_HYPERBOLIC
    entries = (bx * y0, by * y0, bx * x0, by * x0)
    if all(abs(e) < 1e-8 for e in entries):
        return SingClass.LINEARLY_ZERO
    return SingClass.NILPOTENT_OR_LINEARLY_ZERO
