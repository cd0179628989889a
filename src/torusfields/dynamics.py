"""Periodicity of invariant curves and singular points.

On the torus a point is parametrized by two angles: theta around the z-axis
and phi around the tube, with radius r = sqrt(m + cos(phi)) and height
z = sin(phi).  Meridian periodicity reduces to real roots of one quartic
per meridian plane, where the linear K' meets the plane's meridians, and
one exact sign per plane for the stability of its limit cycles; parallel periodicity to real roots of an exact degree-4 polynomial from the
Weierstrass substitution t = tan(theta/2).

A tangent field is chi = a*(-y, x, 0) + b*(x*z, y*z, -2*rho^2*ring) with
rho^2 = x^2 + y^2 and ring = rho^2 - m, two orthogonal directions, so it
vanishes where G1 = y*P - x*Q = -a*rho^2 and G2 = 2*z*(x*P + y*Q) - ring*R
= 2*b*rho^2 both do, and |chi|^2 = (G1^2 + G2^2*w/4)/rho^2 with w = z^2 +
4*rho^2*ring^2: no square is formed.  On the torus the cubic form has G1 =
M = rho^2*f + z*(beta*y - gamma*x) and G2 = 2*L, L = rho^2*K'/4 + beta*x +
gamma*y.  With beta = gamma = 0 and K' = k0 + k3*z, both vanish where z =
z0 = -k0/k3 and f = 0: on the torus's circles at z0, where f is the same
half-angle quartic in t as on a parallel, so when rho^2 = m -+ sqrt(1 -
z0^2) is rational the set is decided exactly, with no grid.  A
two-parallel field has L = (p*x + q*y)*ring/2, so its set lies on z = +-1,
where M is the parallels' obstruction, and on the plane p*x + q*y = 0,
where it is the real roots of one polynomial in the plane's coordinate:
decided exactly, with no grid, from the obstructions the parallel verdicts
use.  For (A*y, -A*x, 0) with A a form in x and y of degree d >= 1, A =
rho^d*A(cos(theta), sin(theta)) vanishes exactly on the two meridians of
each distinct real linear factor of A, found as the meridian planes are.  A semidefinite A of
degree <= 2 vanishes, with its gradient, exactly on the null space of its
symmetric matrix in (x, y, z, 1), found by exact symmetric elimination: a
point, a line meeting the torus at the real roots of a quartic, or a plane
z = k.  The scans sample the levels by blocks of theta rows with each row's
min and max, reduce cell corners only on rows that those allow to hold a
flagged cell (Wilhelms & Van Gelder, ACM TOG 11(3), 1992), label the
periodic components of the flagged cells and refine them by damped Newton
steps with exact derivatives.  Every grid minimum of |chi| that needs a
2-D grid comes from one reducer, which folds each block of theta rows into
a running minimum per phi column: as the block is made when no scan keeps
the grid, else from the scan's grids once the set is known to be empty.
Two take no 2-D grid: a linear f = r*(g(theta) - t(phi)) takes, per phi,
the g nearest t among the sorted g (:func:`grid_min_speed`), and a binary
form A with no real linear factor takes the least |A| on the unit circle
times the least r^(d+1).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import (MeridianPlane, check_four_meridian_criterion,
                     linear_xy_factors)
from .families import CubicParams, Family, FamilyTag, TwoParallelParams
from .kernels import (CompiledPoly, compile_finite, float_m, row_blocks,
                      surface_angles, surface_blocks)
from .poly import MultiPoly, UniPoly, X, Y, Z, unipoly_gcd
from .roots import real_roots
from .scalars import MixedExtensionError, Scalar, _rational_sqrt
from .vfield import VectorField, _divide_by_torus, _z_slices, torus_surface

NEAR_DOUBLE = 1e-6  # relative distance at which two float roots may be one
GRID_DEFAULT = 512
GRID_MIN = 32   # (x^2-z^2)*(y, -x, 0) shows both singular curves from 19 (m=4), 21 (m=3)
GRID_MAX = 4096  # a 4096 x 4096 level grid is 128 MB of float64
# cell offsets (di, dj): the forward half of the 8-neighbourhood, which
# meets every adjacent pair once, and the whole of it
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))
_NEIGHBOURS = _FORWARD + tuple((-di, -dj) for di, dj in _FORWARD)
_CORNERS = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])[:, :, None]     # (di, dj) of a cell
# exponents of the monomials 1, x, y, z
_LINEAR = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


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


class SingClass(enum.Enum):
    """Class of an isolated singular point p of (A*y, -A*x, 0).  On the
    torus T its linear part is V(p)*d(A|T)(p), V = (y, -x, 0), and
    d(A|T)(p) = 0: else A|T would vanish on a curve through p.  The
    semi-hyperbolic and nilpotent points lie on singular curves, which are
    counted, not listed."""

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


# -- meridian limit cycles -----------------------------------------------------


def _surface_point(theta: float, phi: float, m: float) -> tuple[float, float, float]:
    r = math.sqrt(m + math.cos(phi))
    return r * math.cos(theta), r * math.sin(theta), math.sin(phi)


def _quartic(k0, kappa, k3, dd, m) -> list:
    """Ascending coefficients of q(s) = k3^2*((dd*s^2 - m)^2 - 1) + (k0 + kappa*s)^2."""
    k3k3 = k3 * k3
    return [k3k3 * (m * m - 1) + k0 * k0, 2 * k0 * kappa,
            kappa * kappa - 2 * m * dd * k3k3, 0, k3k3 * dd * dd]


def _exact_zeros(k0: Scalar, kappa: Scalar, k3: Scalar, dd: Scalar,
                 m: Fraction) -> dict[int, float]:
    """side -> s where K' = k0 + kappa*s + k3*z vanishes at (s*d, z) on the
    torus with side*s > 0 and dd = |d|^2, decided over Q(sqrt(m))."""
    if k3:  # q(0) = k3^2*(m^2 - 1) + k0^2 > 0, and every root has dd*s^2 <= m + 1
        q = UniPoly(_quartic(k0, kappa, k3, dd, m))
        b = math.ceil(math.sqrt((float_m(m) + 1.0) / dd.to_float())) + 1
        return {side: float(roots[0][0]) for side, span in ((1, (0, b)), (-1, (-b, 0)))
                if (roots := real_roots(q, span))}
    if not kappa:   # K' = k0 on the whole plane
        s = math.sqrt(float_m(m) / dd.to_float())
        return {} if k0 else {1: s, -1: -s}
    s0 = -k0 * kappa.inverse()
    ring = dd * s0 * s0 - m
    return {s0.sign(): s0.to_float()} if (ring * ring - 1).sign() <= 0 else {}


def _float_zeros(k0: float, kappa: float, k3: float, spread: float,
                 mf: float) -> dict[int, float | None]:
    """:func:`_exact_zeros` for a unit d in floats, spread = |k1*d1| + |k2*d2|;
    None marks a near-double root, a tangency up to rounding."""
    out: dict[int, float | None] = {}
    if k3 == 0.0:   # K' at the meridian's ends s^2 = m -+ 1
        ends = (math.sqrt(mf - 1.0), math.sqrt(mf + 1.0))
        for side in (1, -1):
            inner, outer = (k0 + kappa * side * e for e in ends)
            if min(abs(inner), abs(outer)) <= NEAR_DOUBLE * (abs(k0) + spread * ends[1]):
                out[side] = None
            elif (inner < 0) != (outer < 0):
                out[side] = -k0 / kappa
        return out
    norm = max(abs(k0), spread, abs(k3))
    roots = np.roots(_quartic(k0 / norm, kappa / norm, k3 / norm, 1.0, mf)[::-1])
    for r in roots:
        side, tol = (1 if r.real > 0 else -1), NEAR_DOUBLE * abs(r)
        if abs(r.imag) <= tol and sum(abs(o - r) <= tol for o in roots) > 1:
            out.setdefault(side, None)
        elif r.imag == 0.0:
            out[side] = r.real
    return out


def meridian_periodicity(params: CubicParams, m: Fraction,
                         planes: list[tuple[MeridianPlane, int]]
                         ) -> list[tuple[PeriodicityVerdict, PeriodicityVerdict]]:
    """Per-meridian verdicts for a four-meridian cubic field on ``planes``,
    the (plane, multiplicity) list of its invariant meridians: per plane, in
    their order, the verdicts of its meridians at the plane's angle and at
    that angle plus pi.

    A meridian is a limit cycle exactly when K' never vanishes on it.  With
    beta = gamma = 0, dtheta/dt has the sign of -f, and f = rho^2*g(theta)
    with g' = W = x*f_y - y*f_x: a cycle is stable where W > 0 and unstable
    where W < 0.  W is an even form, so both meridians of a plane share its
    sign, taken exactly at the plane's direction; it is 0 on a double plane.
    On the plane through d, K' = k0 + kappa*s + k3*z at (s*d, z), which is
    on the meridian at the plane's angle for s > 0 and opposite for s < 0.
    """
    if not check_four_meridian_criterion(params):
        raise ValueError("field does not have exactly four invariant meridians")
    if params.Kprime.degree > 1:
        raise ValueError(f"deg K' = {params.Kprime.degree} exceeds 1")
    mf = float_m(m)
    kprime = compile_finite(params.Kprime, mf, "K'")
    k0, k1, k2, k3 = (params.Kprime.coefficient(e) for e in _LINEAR)
    k0f, k1f, k2f, k3f = (dict(kprime.terms).get(e, 0.0) for e in _LINEAR)
    fa, fb, fc = (params.f.coefficient(e) for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0)))

    out = []
    for plane, mult in planes:
        theta = plane.angle()
        a, b = plane.exact_pair or (plane.a, plane.b)
        # angle() folds pi to 0, where the meridian points along (b, -a)
        d = (b, -a) if theta == 0.0 else (-b, a)
        if plane.exact_pair is not None:
            zeros = _exact_zeros(k0, k1 * d[0] + k2 * d[1], k3,
                                 d[0] * d[0] + d[1] * d[1], m)
            d = (d[0].to_float(), d[1].to_float())
        elif not (k1 or k2):    # K' is the same on every plane
            zeros = _exact_zeros(k0, Scalar(0), k3, Scalar(1), m)
        else:
            zeros = _float_zeros(k0f, k1f * d[0] + k2f * d[1], k3f,
                                 abs(k1f * d[0]) + abs(k2f * d[1]), mf)
        wa, wb = plane.exact_pair or (Scalar(plane.a), Scalar(plane.b))
        w = 0 if mult > 1 else (fb * (wb * wb - wa * wa) - (fc - fa) * wa * wb * 2).sign()
        cycle = PeriodicityVerdict(
            Verdict.LIMIT_CYCLE, stability="stable" if w > 0 else "unstable") if w \
            else PeriodicityVerdict(Verdict.INCONCLUSIVE, reason=(
                "dtheta/dt does not change sign across the meridian"))
        pair = []
        for side in (1, -1):
            verdict, s = cycle, zeros.get(side, 0.0)    # s = 0 is off the torus
            if s is None:
                verdict = PeriodicityVerdict(Verdict.INCONCLUSIVE, reason=(
                    "K' meets the meridian at a near-double root in floats"))
            elif s:
                x, y = s * d[0], s * d[1]
                ring = x * x + y * y - mf
                z = (-(k0f + k1f * x + k2f * y) / k3f if k3f
                     else math.sqrt(max(1.0 - ring * ring, 0.0)))
                verdict = PeriodicityVerdict(Verdict.NOT_PERIODIC,
                                             witness=(x + 0.0, y + 0.0, z + 0.0),
                                             reason="K' vanishes on the meridian")
            pair.append(verdict)
        out.append(tuple(pair))
    return out


# -- parallel periodic orbits ----------------------------------------------------


# (1 - t^2)^i*(2*t)^j*(1 + t^2)^(2 - i - j), ascending in t: cos^i*sin^j*(1 +
# t^2)^2 at cos = (1 - t^2)/(1 + t^2), sin = 2*t/(1 + t^2), t = tan(theta/2)
_HALF_ANGLE = {(0, 0): (1, 0, 2, 0, 1), (1, 0): (1, 0, 0, 0, -1), (0, 1): (0, 2, 0, 2, 0),
               (2, 0): (1, 0, -2, 0, 1), (1, 1): (0, 2, 0, -2, 0), (0, 2): (0, 0, 4, 0, 0)}


def _circle_poly(terms, z0: Fraction, rho2: Fraction) -> UniPoly:
    """f of degree <= 2, given by its ``terms`` ((i, j, k), c), on the circle
    x^2 + y^2 = rho2, z = z0, times (1 + t^2)^2 with t = tan(theta/2): degree
    <= 4, and its t^4 coefficient is f at theta = pi.  MixedExtensionError
    when f has a sqrt(m) part that Q(sqrt(rho2)) does not hold."""
    by_xy: dict = {}     # the terms summed per (i, j), z0^k folded in
    for (i, j, k), c in terms:
        c = c * z0 ** k if k else c
        by_xy[i, j] = by_xy[i, j] + c if (i, j) in by_xy else c
    coeffs = [0] * 5
    rho = Scalar.sqrt_m(rho2)
    for (i, j), c in by_xy.items():
        c = c * rho ** (i + j) if i + j else c
        coeffs = [a + (c if n == 1 else c * n) if n else a
                  for a, n in zip(coeffs, _HALF_ANGLE[i, j])]
    return UniPoly(coeffs)


@functools.lru_cache(maxsize=1)
def _parallel_obstructions(params: TwoParallelParams, m: Fraction
                           ) -> dict[int, tuple[UniPoly, tuple]]:
    """which -> (obstruction, its real roots) for the parallels z = +1 and z
    = -1; a zero obstruction has no roots.  One entry is kept, and every
    caller reads the same dict: a report asks for both verdicts and then the
    singular set of the same field.

    The obstruction is in t = tan(theta/2), times (1 + t^2)^2.  On z =
    which, M = m*g with g = f - which*(p*y - q*x)/2; its roots, and theta =
    pi when its degree is below 4, are the angles where the parallel carries
    a singular point.
    """
    out = {}
    for which in (1, -1):
        half = Fraction(which, 2)
        poly = _circle_poly([*params.f.terms.items(), ((0, 1, 0), -params.p * half),
                             ((1, 0, 0), params.q * half)], Fraction(which), m)
        out[which] = poly, tuple(real_roots(poly)) if poly else ()
    return out


def parallel_periodicity(params: TwoParallelParams, m: Fraction,
                         which: int) -> PeriodicityVerdict:
    """Periodicity of the parallel on z = +1 or z = -1."""
    if which not in (1, -1):
        raise ValueError("which must be +1 or -1")
    if params.p.is_zero() and params.q.is_zero():
        raise ValueError("two-parallel family requires (p, q) != (0, 0)")
    obstruction, roots = _parallel_obstructions(params, Fraction(m))[which]
    if obstruction.is_zero():
        witness = _surface_point(0.0, math.pi / 2 * which, float_m(m))
        return PeriodicityVerdict(Verdict.NOT_PERIODIC, witness=witness,
                                  reason="every point of the parallel is singular")
    witnesses = [2.0 * math.atan(t) for t, _ in roots]
    if obstruction.degree < 4:
        witnesses.append(math.pi)
    if witnesses:
        theta = witnesses[0] % (2.0 * math.pi)
        a = math.sqrt(float_m(m))
        witness = (a * math.cos(theta), a * math.sin(theta), float(which))
        return PeriodicityVerdict(Verdict.NOT_PERIODIC, witness=witness,
                                  reason=f"singular point at theta = {theta:.12g}")
    return PeriodicityVerdict(Verdict.PERIODIC_ORBIT)


# -- singular points --------------------------------------------------------------


def _torus_functions(polys: list[MultiPoly], whats: list[str], mf: float):
    """(theta, phi) -> (values, rows): the polynomials (named ``whats`` in
    errors) and their (d/dtheta, d/dphi) at that point, by exact derivatives."""
    values = [compile_finite(p, mf, what).fn for p, what in zip(polys, whats)]
    grads = [[compile_finite(p.differentiate(v), mf, f"the {v}-derivative of {what}").fn
              for v in "xyz"] for p, what in zip(polys, whats)]

    def at(th: float, ph: float):
        c, s, cos_ph = math.cos(th), math.sin(th), math.cos(ph)
        r = math.sqrt(mf + cos_ph)
        x, y, z = r * c, r * s, math.sin(ph)
        r_phi = -z / (2.0 * r)
        rows = [(gy * x - gx * y, (gx * c + gy * s) * r_phi + gz * cos_ph)
                for gx, gy, gz in ((g(x, y, z) for g in grad) for grad in grads)]
        return [v(x, y, z) for v in values], rows
    return at


def _newton_pair(at, start: tuple[float, float]) -> tuple[float, float]:
    """Damped Newton (Levenberg-Marquardt) steps from ``start`` towards a
    common zero of the two functions of ``at`` (:func:`_torus_functions`),
    each equation divided by its gradient's length: (J^T J + lam*I) d = J^T v
    with lam = |v|^2 (Yamashita & Fukushima, 2001), Newton's step at a
    regular zero and a step still where J is singular; one equation twice
    projects along its gradient.  Steps are capped at 0.5; it stops after a
    step below 1e-13 or 60 steps."""
    th, ph = start
    for _ in range(60):
        (v0, a00, a01), (v1, a10, a11) = [
            (v / n, a / n, b / n) if (n := math.hypot(a, b)) > 0.0 else (v, a, b)
            for v, (a, b) in zip(*at(th, ph))]
        lam = v0 * v0 + v1 * v1
        g0, g1 = a00 * v0 + a10 * v1, a01 * v0 + a11 * v1
        n00, n11 = a00 * a00 + a10 * a10 + lam, a01 * a01 + a11 * a11 + lam
        n01 = a00 * a01 + a10 * a11
        det = n00 * n11 - n01 * n01
        if not det > 0.0:
            break
        dth, dph = (g0 * n11 - g1 * n01) / det, (n00 * g1 - n01 * g0) / det
        step = math.hypot(dth, dph)
        cap = 0.5 / max(step, 0.5)
        th, ph = th - dth * cap, ph - dph * cap
        if step < 1e-13:
            break
    return th, ph


def _angle_gap(a: tuple[float, float], b: tuple[float, float]) -> float:
    """The larger of the wrapped theta and phi distances of two angle pairs."""
    return max(abs((p - q + math.pi) % (2.0 * math.pi) - math.pi) for p, q in zip(a, b))


def _component_extent(rows: np.ndarray, cols: np.ndarray, n: int) -> int:
    def circular_extent(coords: np.ndarray) -> int:
        present = np.zeros(n, dtype=bool)
        present[coords] = True
        uniq = np.flatnonzero(present)
        if uniq.size == n:
            return n
        # the widest gap between neighbouring coordinates, the wrap included
        return n - int((uniq[1:] - uniq[:-1]).max(initial=uniq[0] + n - uniq[-1]))
    return max(circular_extent(rows), circular_extent(cols))


def _first_min(values: np.ndarray) -> int:
    """The index ``min`` picks: the first value if nan, else the first least."""
    return 0 if np.isnan(values[0]) else int(np.nanargmin(values))


def _local_min_seeds(vals: np.ndarray, scales, rows: np.ndarray, cols: np.ndarray,
                     cap: int = 32) -> np.ndarray:
    """Positions in (rows, cols), a component's cells in ascending flat order,
    of the cells whose score, sum |vals[k]| / scales[k], is at most that of
    each of their 8 neighbours in the component, by increasing score (ties in
    cell order), at most ``cap``; without such a cell, the cell of least score."""
    n = vals.shape[1]
    di, dj = (np.array(d)[:, None] for d in zip(*_NEIGHBOURS))
    ni, nj = (rows + di) % n, (cols + dj) % n
    level, around = (sum(np.abs(v[i, j]) / s for v, s in zip(vals, scales))
                     for i, j in ((rows, cols), (ni, nj)))
    flat, neighbour = rows * n + cols, ni * n + nj
    outside = flat[np.minimum(np.searchsorted(flat, neighbour), flat.size - 1)] != neighbour
    seeds = np.flatnonzero(((around >= level) | outside).all(axis=0))
    if not seeds.size:
        return np.array([_first_min(level)])
    return seeds[np.argsort(level[seeds], kind="stable")[:cap]]


def _not_finite(what: str, grid: int) -> ValueError:
    return ValueError(f"{what} is not finite on the {grid}x{grid} grid: the "
                      "field's values exceed the float range")


def _level_grid(levels: list[CompiledPoly], whats: list[str], mf: float,
                grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k levels' (k, grid, grid) grid, each theta row's (min, max) and each
    level's max |value|, by blocks; ValueError names (``whats``) one not finite."""
    vals = np.empty((len(levels), grid, grid))
    extremes = np.empty((len(levels), 2, grid))
    with np.errstate(all="ignore"):
        for level, out, ext in zip(levels, vals, extremes):
            for rows, block in surface_blocks(level, mf, grid, out):
                block.min(axis=1, out=ext[0, rows])
                block.max(axis=1, out=ext[1, rows])
        vmax = np.maximum(np.abs(extremes[:, 0]), np.abs(extremes[:, 1])).max(axis=1)
    for what, peak in zip(whats, vmax):
        if not math.isfinite(peak):
            raise _not_finite(what, grid)
    return vals, extremes, vmax


def _column_min(score, n: int):
    """(fold, least) for a minimum over the n x n grid: fold(values), given
    the levels' values on one block of theta rows, lowers least, one entry
    per phi column, to the least score(values, out) of the block's cells,
    written into the scratch block out.  So a block just made is reduced
    while it is still in cache, and a map of a column's values that never
    falls as they rise, such as x -> (x + c)/rho^2 at a phi, gives the same
    minimum applied to least last."""
    least = np.full(n, math.inf)
    scratch = np.empty((max(b - a for a, b in row_blocks(n)), n))

    def fold(values) -> None:
        with np.errstate(all="ignore"):
            np.minimum(least, score(values, scratch[:len(values[0])]).min(axis=0), out=least)
    return fold, least


def _fold_grid(level: CompiledPoly, what: str, mf: float, grid: int, fold,
               first=None) -> None:
    """``fold`` over the level's blocks, with no grid kept, each after the
    block first(rows) of a first level when ``first`` is given; ValueError
    names ``what`` when a value is not finite.  Blocks are checked only when
    the sum of |c|*(m + 1)^((i+j)/2) over the level's terms, which bounds it
    on the torus, is not far inside the float range."""
    with np.errstate(all="ignore"):
        bound = sum(abs(c) * np.float64(mf + 1.0) ** ((i + j) / 2)
                    for (i, j, _), c in level.terms)
        for rows, block in surface_blocks(level, mf, grid):
            if not bound < 1e300 and not np.isfinite(block).all():
                raise _not_finite(what, grid)
            fold([block] if first is None else [first(rows), block])


def _abs_level(values: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """|A| per cell: |chi| = |A|*r for (A*y, -A*x, 0), with r by phi, the column."""
    return np.abs(values[0], out=out)


def _corner_reduce(op, rows: np.ndarray, pair: np.ndarray, out: np.ndarray) -> None:
    """op (np.minimum or np.maximum) over the four corners of each periodic
    cell of a block: ``rows`` holds the block's grid rows and the row after."""
    op(rows[:-1], rows[1:], out=pair)
    op(pair[:, :-1], pair[:, 1:], out=out[:, :-1])
    op(pair[:, -1], pair[:, 0], out=out[:, -1])


def _cell_masks(vals: np.ndarray, extremes: np.ndarray,
                taus) -> tuple[np.ndarray, np.ndarray]:
    """(has_sign_change, flagged) per cell [i, j], with corners (i, j), (i+1,
    j), (i, j+1), (i+1, j+1) mod n: the cells that change sign (a corner
    below 0 and one above) for every level of ``vals``, and those flagged
    for every level, when they change sign or some corner has |level| < tau
    (``taus``, at least 0 or nan).  Cell row i has none when for some level,
    by its ``extremes``, grid rows i and i+1 mod n are all at least tau or
    all at most -tau (a nan never rules a row out); each block is reduced
    over the span from its first to its last remaining cell row."""
    n = vals.shape[1]
    sign_change = np.zeros((n, n), dtype=bool)
    flagged = np.zeros((n, n), dtype=bool)
    low, high, tau = extremes[:, 0], extremes[:, 1], np.asarray(taus)[:, None]
    ruled_out = ((np.minimum(low, np.roll(low, -1, axis=1)) >= tau)
                 | (np.maximum(high, np.roll(high, -1, axis=1)) <= -tau)).any(axis=0)
    candidates = np.flatnonzero(~ruled_out)
    blocks = row_blocks(n)
    height = max(b - a for a, b in blocks)
    window = np.empty((height + 1, n))      # a span ending at row n - 1, and row 0
    pair, cell_min, cell_max = np.empty((3, height, n))
    other, changes, flags = np.empty((3, height, n), dtype=bool)
    for first, last in np.searchsorted(candidates, blocks):
        if first == last:
            continue
        a, b = int(candidates[first]), int(candidates[last - 1]) + 1
        h = b - a
        for k, (level, t) in enumerate(zip(vals, taus)):
            if b < n:
                rows = level[a:b + 1]
            else:
                rows = window[:h + 1]
                rows[:h] = level[a:b]
                rows[h] = level[0]
            _corner_reduce(np.minimum, rows, pair[:h], cell_min[:h])
            _corner_reduce(np.maximum, rows, pair[:h], cell_max[:h])
            # the first level's masks in place, the others' ANDed into them
            change, flag = (sign_change[a:b], flagged[a:b]) if k == 0 else (changes[:h], flags[:h])
            np.less(cell_min[:h], 0.0, out=change)
            change &= np.greater(cell_max[:h], 0.0, out=other[:h])
            np.less(cell_min[:h], t, out=flag)
            flag &= np.greater(cell_max[:h], -t, out=other[:h])
            flag |= change
            if k:
                sign_change[a:b] &= change
                flagged[a:b] &= flag
    return sign_change, flagged


def _components(flagged: np.ndarray, has_sign_change: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 8-connected components of the flagged cells on the periodic grid,
    in order of their smallest flat cell index i * n + j, as (cells, bounds,
    sign_change): component k holds the flat indices cells[bounds[k]:bounds[k
    + 1]], ascending, and sign_change[k] says whether any of them changes sign.
    Labels are hooked to the smaller label across each edge and shortcut by
    pointer jumping until every edge joins equal labels (Shiloach & Vishkin,
    J. Algorithms 3, 1982), on the flagged cells only."""
    n = flagged.shape[0]
    flat = np.flatnonzero(flagged)
    if not flat.size:
        return flat, np.zeros(1, dtype=np.intp), np.zeros(0, dtype=bool)
    rows, cols = np.divmod(flat, n)
    edges = []      # per offset: positions in flat of adjacent flagged cells
    for di, dj in _FORWARD:
        neighbour = (rows + di) % n * n + (cols + dj) % n
        pos = np.minimum(np.searchsorted(flat, neighbour), flat.size - 1)
        hit = flat[pos] == neighbour
        edges.append((np.flatnonzero(hit), pos[hit]))
    # every label is a position at or below its own, and a root labels itself
    label = np.arange(flat.size)
    joined = False
    while not joined:
        joined = True
        for tail, head in edges:
            at_tail, at_head = label[tail], label[head]
            if not np.array_equal(at_tail, at_head):
                joined = False
                np.minimum.at(label, at_tail, at_head)
                np.minimum.at(label, at_head, at_tail)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    roots = np.flatnonzero(label == np.arange(flat.size))
    comp = np.searchsorted(roots, label)
    sign_change = np.zeros(roots.size, dtype=bool)
    np.logical_or.at(sign_change, comp, has_sign_change.ravel()[flat])
    bounds = np.zeros(roots.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(comp), out=bounds[1:])
    return flat[np.argsort(comp, kind="stable")], bounds, sign_change


def _scan_singular(levels: list[MultiPoly], whats: list[str], m: Fraction, grid: int,
                   quarter: float | None = None) -> SingularSet:
    """Zeros of one level A, the rotation coefficient of (A*y, -A*x, 0), when
    ``quarter`` is None; else common zeros of a pair (first, second), numeric
    only, with |chi|^2 = (second^2 + quarter*first^2*w)/rho^2.

    Newton runs from the seeds of each component of the cells flagged for
    every level and accepts each level at most 1e-8 of its grid maximum.  A
    component whose corners hold both signs of A is a curve; its other zeros
    are critical points, found on A's theta derivative x*A_y - y*A_x and
    2*rho^2 times its phi derivative, 2*rho^2*ring*A_z - z*(x*A_x + y*A_y).
    A curve of zeros is normal to both gradients: where they are parallel,
    a zero two cells out along a tangent makes the component a curve.  When
    F divides every level, the whole torus is singular, with no grid; a
    level that F divides is scanned as 0.  Every isolated zero of A is
    linearly zero (:class:`SingClass`).
    """
    vanishing = [_vanishes_on_torus(level, m) for level in levels]
    if all(vanishing):
        return SingularSet(SingKind.CURVES, [], curve_components=1,
                           description="the whole torus is singular")
    levels = [MultiPoly.zero() if v else level for level, v in zip(levels, vanishing)]
    mf = float_m(m)
    compiled = [compile_finite(p, mf, what) for p, what in zip(levels, whats)]
    vals, extremes, vmax = _level_grid(compiled, whats, mf, grid)
    # a function that is 0 on the whole grid flags every cell
    taus = np.where(vmax > 0.0, vmax * (2.0 * math.pi / grid) ** 2 * 4.0, math.inf)
    cells, bounds, sign_change = _components(*_cell_masks(vals, extremes, taus)[::-1])
    rotation = quarter is None
    if rotation:
        (level,), (terms,), what = levels, compiled, whats[0]
        ax, ay, az = derivatives = [level.differentiate(v) for v in "xyz"]
        for d, v in zip(derivatives, "xyz"):
            compile_finite(d, mf, f"the {v}-derivative of {what}")
        rho2 = X * X + Y * Y
        levels = [X * ay - Y * ax, rho2 * (rho2 - m) * az * 2 - Z * (X * ax + Y * ay)]
        whats = [f"the theta-derivative of {what}",
                 f"2*(x^2 + y^2) times the phi-derivative of {what}"]
    angles, cos, sin, r = surface_angles(mf, grid)
    cell = 2.0 * math.pi / grid
    at = None

    def refine(start: tuple[float, float], pair=None) -> tuple[float, float] | None:
        nonlocal at
        at = at or _torus_functions(levels, whats, mf)
        solution = _newton_pair(pair or at, start)
        values = [terms.fn(*_surface_point(*solution, mf))] if rotation \
            else at(*solution)[0]
        return solution if all(abs(v) <= 1e-8 * peak
                               for v, peak in zip(values, vmax)) else None

    def flat_rows(solution: tuple[float, float]):
        """The Jacobian rows at ``solution``, or None when they are not
        parallel and do not vanish next to their level's scale."""
        (a00, a01), (a10, a11) = rows = at(*solution)[1]
        return None if abs(a00 * a11 - a01 * a10) > 1e-6 * math.prod(
            max(math.hypot(*row), 1e-6 * vmax[0 if rotation else k])
            for k, row in enumerate(rows)) else rows

    def on_curve(solution: tuple[float, float], rows) -> bool:
        # probes two cells out along each zero curve's tangent, and along the
        # axes where a gradient vanishes, projected onto each zero curve
        for d_th, d_ph in [(-b, a) for a, b in rows] + [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            norm = math.hypot(d_th, d_ph)
            for k in range(2 if norm > 0.0 else 0):
                other = refine((solution[0] + 2.0 * cell * d_th / norm,
                                solution[1] + 2.0 * cell * d_ph / norm),
                               lambda th, ph: [[row[k]] * 2 for row in at(th, ph)])
                if other is not None and 0.5 * cell < _angle_gap(other, solution) <= 4.0 * cell:
                    return True
        return False

    zeros: list[tuple[float, float]] = []
    curve_count = 0
    for k in range(bounds.size - 1):
        rows, cols = np.divmod(cells[bounds[k]:bounds[k + 1]], grid)
        # corners of both signs, though no one cell's, when A is 0 on grid points
        if rotation and (sign_change[k] or np.ptp(np.sign(
                vals[0][(rows + _CORNERS[0]) % grid, (cols + _CORNERS[1]) % grid])) == 2.0):
            curve_count += 1
            continue
        # a wide component is suspect on A, and on a pair only in a flat
        # valley: a transversal crossing of two zero curves has a regular Jacobian
        found: list[tuple[float, float]] = []
        flat = rotation
        for seed in _local_min_seeds(vals, np.where(vmax > 0.0, vmax, 1.0), rows, cols):
            solution = refine((angles[rows[seed]] + math.pi / grid,
                               angles[cols[seed]] + math.pi / grid))
            if solution is None or any(_angle_gap(solution, z) <= 0.5 * cell
                                       for z in found + zeros):
                continue
            if (jacobian := flat_rows(solution)) is not None:
                if on_curve(solution, jacobian):
                    curve_count += 1
                    break
                flat = True
            found.append(solution)
        else:
            if found and flat and (extent := _component_extent(rows, cols, grid)) > grid // 16:
                warnings.warn(
                    f"singular component of extent {extent} cells resolved "
                    f"into {len(found)} point(s); a {grid}x{grid} grid is "
                    "coarse for this field", GridResolutionWarning, stacklevel=3)
            zeros += found
    points = [(pt, SingClass.LINEARLY_ZERO if rotation else None)
              for pt in sorted(_surface_point(th, ph, mf) for th, ph in zeros)]
    if not (points or curve_count):
        # folded from the kept grids: during the scan it would cost every
        # set that is not empty a pass over them
        with np.errstate(all="ignore"):
            fold, least = _column_min(_abs_level if rotation else _pair_score(
                quarter * (np.square(sin) + 4.0 * r * r * np.square(cos)), grid), grid)
            for a, b in row_blocks(grid):
                fold(vals[:, a:b])
            return SingularSet(SingKind.EMPTY, [], numeric_only=True, grid_min_norm=float(
                (least * r).min()) if rotation
                else _finite_speed(float((least / (r * r)).min()), grid))
    return _singular_set(points, curve_count, True)


def _vanishes_on_torus(p: MultiPoly, m: Fraction) -> bool:
    """Whether p is 0 on the whole torus: F is irreducible, so exactly when
    F divides p."""
    return _divide_by_torus((_z_slices(p._p), _z_slices(p._q)), p._den, p.m, m) is not None


def _singular_set(points: list, curves: int, numeric_only: bool) -> SingularSet:
    """A nonempty set of isolated ``points`` and ``curves`` curve components."""
    description = f"{len(points)} isolated singular point(s)"
    if curves:
        description = f"{curves} singular curve component(s)" + (
            f" plus {len(points)} isolated point(s)" if points else "")
    return SingularSet(SingKind.CURVES if curves else SingKind.ISOLATED, points,
                       curves, description, numeric_only)


def _finite_speed(chi_sq: float, grid: int) -> float:
    if not math.isfinite(chi_sq):
        raise ValueError(f"|chi| is not finite on the {grid}x{grid} grid: the "
                         "field's values exceed the float range")
    return math.sqrt(chi_sq)


def _pair_score(w: np.ndarray, n: int):
    """score(values, out) for :func:`_column_min`: second^2 + first^2*w per
    cell of a pair (first, second), with w, by phi, quarter*(z^2 +
    4*rho^2*ring^2); then |chi|^2 = score/rho^2."""
    second_sq = np.empty((max(b - a for a, b in row_blocks(n)), n))

    def score(values: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        first, second = values
        np.square(first, out=out)
        out *= w
        out += np.square(second, out=second_sq[:len(out)])
        return out
    return score


def grid_min_speed(field: VectorField, kprime: MultiPoly, f: MultiPoly, m: Fraction,
                   grid: int = GRID_DEFAULT) -> float:
    """Minimum of |chi| over the grid for the cubic form with K' = k0 + k3*z
    and beta = gamma = 0: |chi|^2 = (M^2 + L^2*w)/rho^2 with M = rho^2*f and
    L = q*rho^2, q = K'(sin(phi))/4, by phi alone, over the grid of M for a
    quadratic f.  A linear f = r*(g - t), g = f1*cos(theta) + f2*sin(theta),
    t = -(f0 + f3*sin(phi))/r, is least per phi at the g nearest t among the
    sorted g.  ValueError when P, Q or R has a coefficient beyond the float
    range, or M or the minimum is not finite."""
    mf = float_m(m)
    for component, name in zip(field.components(), "PQR"):
        compile_finite(component, mf, name)
    if f.degree > 1:
        what = "M = y*P - x*Q"
        fold, least = _column_min(lambda values, out: np.square(values[0], out=out), grid)
        _fold_grid(compile_finite(field.P * Y - field.Q * X, mf, what), what, mf, grid, fold)
    _, cos, sin, r = surface_angles(mf, grid)
    f0, f1, f2, f3 = (f.coefficient(e).to_float() for e in _LINEAR)
    k0, k3 = (kprime.coefficient(e).to_float() for e in (_LINEAR[0], _LINEAR[3]))
    with np.errstate(all="ignore"):
        q = (k0 + k3 * sin) / 4.0
        r2 = r * r
        if f.degree > 1:
            least += np.square(q * r2) * (np.square(sin) + 4.0 * r2 * np.square(cos))
            least /= r2
            return _finite_speed(float(least.min()), grid)
        g = np.sort(f1 * cos + f2 * sin)
        t = -(f0 + f3 * sin) / r
        # the sorted g on either side of t, clamped at both ends
        above = np.searchsorted(g, t)
        d = np.minimum(np.abs(t - g[np.maximum(above - 1, 0)]),
                       np.abs(t - g[np.minimum(above, grid - 1)]))
        chi_sq = float(np.min(r2 * np.square(q * sin) + np.square(r2 * d)
                                + np.square(2.0 * q * cos * r2)))
    return _finite_speed(chi_sq, grid)


def check_grid(grid: int) -> None:
    """ValueError unless GRID_MIN <= grid <= GRID_MAX."""
    if grid < GRID_MIN:
        raise ValueError(f"grid must be at least {GRID_MIN}, got {grid}")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be at most {GRID_MAX}, got {grid}")


def singular_points(field: VectorField, tag: FamilyTag, m: Fraction,
                    grid: int = GRID_DEFAULT) -> SingularSet:
    """Singular set of the field on the torus, classified where possible.

    With beta = gamma = 0 in the cubic form of ``tag`` and K' = k0 + k3*z,
    it is decided on the parallels of K' = 0 by :func:`_height_singular`,
    unless K' = 0 and f is not a nonzero constant.  Else for (A*y, -A*x,
    0), A the tag's ``rotation``, it is the zeros of A
    (:func:`_rotation_singular`): exact for a form in x and y of degree >= 1
    and for a semidefinite A of degree <= 2, else a scan of A.  A
    two-parallel field's set is decided exactly by
    :func:`_two_parallel_singular`.  Otherwise it is a numeric scan of (L,
    M), or of (G2, G1) outside the cubic form.  ValueError when m is beyond
    the float range, where its points and grid minima are not."""
    check_grid(grid)
    float_m(m)
    m = Fraction(m)
    if tag.family == Family.TWO_PARALLEL:
        return _two_parallel_singular(field, tag, m, grid)
    cubic = tag.cubic
    if cubic is not None and not (cubic.beta or cubic.gamma):
        kprime, f = cubic.Kprime, cubic.f
        # K' = 0 is the rotation (f*y, -f*x, 0), whose zeros are those of f:
        # only a nonzero constant f, with none, is answered here
        if not (kprime.coefficient(_LINEAR[1]) or kprime.coefficient(_LINEAR[2])) and (
                kprime or (f.is_scalar() and f)):
            exact = _height_singular(field, cubic, m, grid)
            if exact is not None:
                return exact
    if tag.rotation is not None:
        return _rotation_singular(tag.rotation, m, grid)
    pair, whats, quarter = _tangential_pair(field, cubic, m)
    return _scan_singular(pair, whats, m, grid, quarter)


def _rotation_singular(a: MultiPoly, m: Fraction, grid: int) -> SingularSet:
    """The zeros of A on the torus for (A*y, -A*x, 0), where |chi| = |A|*r.

    A binary form A = rho^d*A(cos(theta), sin(theta)) vanishes exactly on
    the two meridians of each real linear factor, disjoint circles; with
    none the set is empty, and min |chi| over the grid is min |A(cos(theta),
    sin(theta))| times min r^(d+1).  A semidefinite A of degree <= 2 is
    decided by :func:`_semidefinite_singular`; any other A is scanned."""
    what = "A (of the field (A*y, -A*x, 0))"
    if a.degree >= 1 and a.is_homogeneous() and not a.var_degree("z"):
        planes = linear_xy_factors(a)
        if planes:
            return _singular_set([], 2 * len(planes), False)
        mf = float_m(m)
        _, cos, sin, r = surface_angles(mf, grid)
        with np.errstate(all="ignore"):
            on_circle = np.abs(compile_finite(a, mf, what).fn(cos, sin, 0.0))
            if not math.isfinite(on_circle.max() * (r ** a.degree).max()):
                raise _not_finite(what, grid)
            return SingularSet(SingKind.EMPTY, [], grid_min_norm=float(
                on_circle.min() * (r ** (a.degree + 1)).min()))
    if a and a.degree <= 2:
        exact = _semidefinite_singular(a, m, grid, what)
        if exact is not None:
            return exact
    return _scan_singular([a], [what], m, grid)


def _gram(a: MultiPoly) -> list[list[Scalar]]:
    """The symmetric S with a = v^T S v, v = (x, y, z, 1), for deg a <= 2."""
    s = [[Scalar(0)] * 4 for _ in range(4)]
    for exp, c in a.terms.items():
        i, j = ([v for v, e in enumerate(exp) for _ in range(e)] + [3, 3])[:2]
        if i == j:
            s[i][i] = s[i][i] + c
        else:
            s[i][j] = s[j][i] = s[i][j] + c * Fraction(1, 2)
    return s


def _semidefinite_zeros(a: MultiPoly) -> tuple | None:
    """Where a semidefinite a of degree <= 2 vanishes, S*(x, y, z, 1) = 0
    (:func:`_gram`), as (point, directions) of that affine space over
    Q(sqrt(m)), or () when it is empty; None when a is indefinite.

    Symmetric elimination pivots on the diagonal, x, y and z before 1, so
    a = sum of l_k^2/d_k: a is semidefinite exactly when every pivot d_k
    has one sign and what is left is 0.  A pivot on 1 leaves |a| >= |d_k|;
    else the pivots solve for their variables, the others are free."""
    s = _gram(a)
    live, pivots, sign = [0, 1, 2, 3], [], 0
    while (k := next((i for i in live if s[i][i]), None)) is not None:
        if sign and s[k][k].sign() != sign:
            return None
        sign = s[k][k].sign()
        live.remove(k)
        inv = s[k][k].inverse()
        row = [(j, s[k][j] * inv) for j in live if s[k][j]]
        pivots.append((k, row))
        for i in live:
            if s[i][k]:
                for j, c in row:
                    s[i][j] = s[i][j] - s[i][k] * c
    if any(s[i][j] for i in live for j in live):
        return None
    if 3 not in live:
        return ()

    def solve(v: dict[int, Scalar]) -> list[Scalar]:
        for k, row in reversed(pivots):
            v[k] = -sum((c * v[j] for j, c in row), Scalar(0))
        return [v[i] for i in range(3)]
    return (solve({i: Scalar(int(i == 3)) for i in live}),
            [solve({i: Scalar(int(i == f)) for i in live}) for f in live if f != 3])


def _semidefinite_singular(a: MultiPoly, m: Fraction, grid: int,
                           what: str) -> SingularSet | None:
    """The zeros of a semidefinite A of degree <= 2 on the torus F = 0.

    A vanishes, with its gradient, on the affine space of
    :func:`_semidefinite_zeros`: a point is kept when F is exactly 0 there,
    a line meets the torus at the real roots of F along it, a quartic, and
    a plane z = k holds 2, 1 or 0 circles as |k| <, = or > 1.  Every point
    is linearly zero (:class:`SingClass`).  None, for the scan, when A is
    indefinite or vanishes on any other plane."""
    zeros = _semidefinite_zeros(a)
    if zeros is None:
        return None
    points, curves = [], 0
    if zeros:
        point, directions = zeros
        if not directions:
            if torus_surface(m).F.eval_exact(point).is_zero():
                points.append(tuple(c.to_float() for c in point))
        elif len(directions) == 1:
            x, y, z = (UniPoly([c, d]) for c, d in zip(point, directions[0]))
            ring = x * x + y * y - UniPoly([m])
            for t, _ in real_roots(ring * ring + z * z - UniPoly([1])):
                points.append(tuple((c + d * t).to_float() if isinstance(t, Fraction)
                                    else c.to_float() + d.to_float() * t
                                    for c, d in zip(point, directions[0])))
        elif len(directions) == 2 and not (directions[0][2] or directions[1][2]):
            curves = 1 - (point[2] * point[2] - 1).sign()
        else:
            return None
    if points or curves:
        return _singular_set([(pt, SingClass.LINEARLY_ZERO) for pt in sorted(points)],
                             curves, False)
    mf = float_m(m)
    fold, least = _column_min(_abs_level, grid)
    _fold_grid(compile_finite(a, mf, what), what, mf, grid, fold)
    with np.errstate(all="ignore"):
        return SingularSet(SingKind.EMPTY, [], grid_min_norm=float(
            (least * surface_angles(mf, grid)[3]).min()))


def _height_singular(field: VectorField, cubic: CubicParams, m: Fraction,
                     grid: int) -> SingularSet | None:
    """The singular set for beta = gamma = 0 and K' = k0 + k3*z.

    L = rho^2*K'/4 and M = rho^2*f, so with k3 = 0 the set is empty: L has
    no zero for k0 != 0, and M none for K' = 0 with f a nonzero constant,
    the only such f that reaches here.  Else it is f = 0 on the circles of
    the torus at z0 = -k0/k3, where rho^2 = m -+ sqrt(1 - z0^2): empty when
    |z0| > 1, else that of :func:`_circle_set`.  None, for the scan, when
    rho^2 is irrational or f has a sqrt(m) part that Q(sqrt(rho^2)) does not
    hold."""
    k0, k3 = (cubic.Kprime.coefficient(e) for e in (_LINEAR[0], _LINEAR[3]))
    if k3 and (k0 * k0 - k3 * k3).sign() <= 0:
        z0 = -k0 * k3.inverse()
        root = None if z0.q else _rational_sqrt(1 - z0.p * z0.p)
        if root is None:
            return None
        try:
            polys = {rho2: _circle_poly(cubic.f.terms.items(), z0.p, rho2)
                     for rho2 in (m - root, m + root)}
        except MixedExtensionError:
            return None
        exact = _circle_set([(poly, real_roots(poly) if poly else (), rho2, float(z0.p))
                             for rho2, poly in polys.items()], [])
        if exact is not None:
            return exact
    return SingularSet(SingKind.EMPTY, [], grid_min_norm=grid_min_speed(
        field, cubic.Kprime, cubic.f, m, grid))


def _circle_set(circles: list[tuple[UniPoly, tuple | list, Fraction, float]],
                points: list) -> SingularSet | None:
    """The exact set of the ``circles`` (poly, its real roots, rho2, z) of
    :func:`_circle_points`, where a zero poly is a whole circle, and of the
    other ``points``; None when it is empty."""
    curves = 0
    for poly, roots, rho2, z in circles:
        if poly.is_zero():
            curves += 1
        else:
            points += _circle_points(poly, roots, rho2, z)
    if points or curves:
        return _singular_set([(pt, None) for pt in sorted(points)], curves, False)
    return None


def _circle_points(poly: UniPoly, roots: list | tuple, rho2: Fraction,
                   z: float) -> list[tuple[float, float, float]]:
    """The points of the circle x^2 + y^2 = rho2 at height z where a nonzero
    :func:`_circle_poly` vanishes: at its real ``roots`` t = tan(theta/2),
    and at theta = pi when its degree is below 4."""
    rho = math.sqrt(rho2)
    # rational in t, so t = 0 and t = +-1 give exact zeros on the axes
    points = [(rho * float((1 - t * t) / (1 + t * t)), rho * float(2 * t / (1 + t * t)), z)
              for t, _ in roots]
    if poly.degree < 4:
        points.append((-rho, 0.0, z))
    return points


def _two_parallel_singular(field: VectorField, tag: FamilyTag, m: Fraction,
                           grid: int) -> SingularSet:
    """The singular set of a two-parallel field, from the parallels'
    obstructions (:func:`_parallel_obstructions`).

    L = (p*x + q*y)*ring/2, so the set lies on z = +-1, where M = m*g and
    the set is that of :func:`_circle_set`, and on the plane p*x + q*y = 0
    (:func:`_plane_points`).  An
    empty set's least |chi| folds M's blocks with L = (p*cos(theta) +
    q*sin(theta))/2 * r*cos(phi), so L^2*w enters as an outer product of a
    theta and a phi factor, with no grid kept."""
    exact = _circle_set([(poly, roots, m, float(which)) for which, (poly, roots)
                         in _parallel_obstructions(tag.params, m).items()],
                        _plane_points(tag.params, m))
    if exact is not None:
        return exact
    mf = float_m(m)
    (l_poly, m_poly), (l_what, m_what), _ = _tangential_pair(field, tag.cubic, m)
    half = dict(compile_finite(l_poly, mf, l_what).terms)     # p/2 and q/2 at x^3, y^3
    _, cos, sin, r = surface_angles(mf, grid)
    with np.errstate(all="ignore"):
        # L^2*w = (p*cos(theta) + q*sin(theta))^2/4 * (r*cos(phi))^2*w
        by_theta = np.square(half.get((3, 0, 0), 0.0) * cos + half.get((0, 3, 0), 0.0) * sin)
        by_phi = np.square(r * cos) * (np.square(sin) + 4.0 * r * r * np.square(cos))
    fold, least = _column_min(lambda values, out: np.add(
        values[0], np.square(values[1], out=out), out=out), grid)
    l_block = np.empty((max(b - a for a, b in row_blocks(grid)), grid))
    _fold_grid(compile_finite(m_poly, mf, m_what), m_what, mf, grid, fold,
               lambda rows: np.multiply.outer(by_theta[rows], by_phi,
                                              out=l_block[:rows.stop - rows.start]))
    with np.errstate(all="ignore"):
        return SingularSet(SingKind.EMPTY, [], grid_min_norm=_finite_speed(
            float((least / (r * r)).min()), grid))


def _plane_points(params: TwoParallelParams, m: Fraction) -> list[tuple[float, float, float]]:
    """The zeros of M on the plane p*x + q*y = 0 of the torus, off z = +-1.

    At (x, y) = s*(-q, p), with dd = p^2 + q^2 and w = dd*s^2 - m, M =
    dd*s*(s*f - m*z/2), and z^2 = 1 - w^2 reduces s*f - m*z/2 to a1*z + b.
    So the points are the real roots of E = b^2 - a1^2*(1 - w^2), at z =
    -b/a1, and the real roots of gcd(a1, b) with |w| <= 1, at z = +-sqrt(1 -
    w^2); roots with w = 0 lie on z = +-1 and are dropped.  E has degree <=
    10 and is never 0: a1 has the constant -m/2, and 1 - w^2 is no square.
    The roots E shares with 1 - w^2, where b = 0, are taken from gcd(b, 1 -
    w^2), at z = 0: in E they would be polished next to E's other roots."""
    p, q = params.p, params.q
    dd = p * p + q * q
    # f at s*(-q, p) as f0 + f1*z + f2*z^2: parts[k] ascending in s
    xs, ys = (1, -q, q * q), (1, p, p * p)
    parts = [[0] * 3 for _ in range(3)]
    for (i, j, k), c in params.f.terms.items():
        parts[k][i + j] = parts[k][i + j] + c * xs[i] * ys[j]
    (e0, e1, e2), (g0, g1, _), (c2, _, _) = parts
    w = UniPoly([-m, 0, dd])
    h = UniPoly([1 - m * m, 0, 2 * m * dd, 0, -dd * dd])
    a1 = UniPoly([-m / 2, g0, g1])
    b = UniPoly([0, e0 + c2 * (1 - m * m), e1, e2 + c2 * 2 * m * dd, 0, -c2 * dd * dd])
    common, equator = unipoly_gcd([a1, b]), unipoly_gcd([b, h])
    # E shares with 1 - w^2 only the roots of gcd(b, 1 - w^2)
    e = _without(b * b - a1 * a1 * h, w)
    for shared in (equator, common):
        e = _without(e, shared) if shared.degree >= 1 else e
    points = []
    for r, _ in real_roots(e):
        z = (-(_value(a1.coeffs, r).inverse() * _value(b.coeffs, r))).to_float() \
            if isinstance(r, Fraction) else -_value(b.to_floats(), r) / _value(a1.to_floats(), r)
        points.append(_plane_point(p, q, r, z))
    if equator.degree >= 1:
        points += [_plane_point(p, q, r, 0.0) for r, _ in real_roots(equator)]
    if common.degree >= 1:
        ddf, mf = dd.to_float(), float_m(m)
        for r, (w_sign, h_sign) in _signs_at_roots(common, [w, h]):
            if w_sign and h_sign > 0:     # h = 0 is on the equator
                z = math.sqrt(max(1.0 - (ddf * r * r - mf) ** 2, 0.0))
                points += [_plane_point(p, q, r, z), _plane_point(p, q, r, -z)]
    return points


def _plane_point(p: Scalar, q: Scalar, s: Fraction | float,
                 z: float) -> tuple[float, float, float]:
    """(x, y, z) at (x, y) = s*(-q, p), exact for a rational s, with +0.0
    for a zero coordinate."""
    x, y = ((-q * s).to_float(), (p * s).to_float()) if isinstance(s, Fraction) \
        else (-q.to_float() * s, p.to_float() * s)
    return x + 0.0, y + 0.0, z + 0.0


def _value(coeffs: list, t):
    """The polynomial with ascending ``coeffs`` at t, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _without(u: UniPoly, v: UniPoly) -> UniPoly:
    """u with every root it shares with v divided out."""
    while (g := unipoly_gcd([u, v])).degree >= 1:
        u = u.divmod(g)[0]
    return u


def _signs_at_roots(c: UniPoly, polys: list[UniPoly]) -> list[tuple[float, list[int]]]:
    """Each real root of c, monic of degree 1 or 2 over Q(sqrt(m)), with the
    exact sign of each of ``polys`` there.  The roots are centre -+ sqrt(d),
    where u = h0 + h1*s mod c is h0 + h1*centre -+ h1*sqrt(d); degree 1 has
    d = 0 and h1 = 0."""
    c0, c1 = c.coeffs[:2]
    centre = -c0 if c.degree == 1 else c1 * Fraction(-1, 2)
    d = Scalar(0) if c.degree == 1 else centre * centre - c0
    if d.sign() < 0:
        return []
    rems = [(u.divmod(c)[1].coeffs + [Scalar(0)] * 2)[:2] for u in polys]
    return [(centre.to_float() + side * math.sqrt(d.to_float()),
             [_sign_plus_root(h0 + h1 * centre, h1 * side, d) for h0, h1 in rems])
            for side in ((-1, 1) if d else (0,))]


def _sign_plus_root(a: Scalar, b: Scalar, d: Scalar) -> int:
    """The exact sign of a + b*sqrt(d) for d >= 0."""
    sa, sb = a.sign(), b.sign()
    if sa == sb or not sb:
        return sa
    return sa * (a * a - b * b * d).sign() if sa else sb


def _tangential_pair(field: VectorField, cubic: CubicParams | None, m: Fraction
                     ) -> tuple[list[MultiPoly], list[str], float]:
    """(pair, names, quarter) of the scan: (L, M) for the cubic form, else (G2, G1)."""
    rho2 = X * X + Y * Y
    g1 = field.P * Y - field.Q * X     # M = rho^2*f + z*(beta*y - gamma*x)
    if cubic is not None:
        return ([rho2 * cubic.Kprime * Fraction(1, 4) + X * cubic.beta + Y * cubic.gamma, g1],
                ["L = (x^2 + y^2)*K'/4 + beta*x + gamma*y", "M = y*P - x*Q"], 1.0)
    return ([Z * (X * field.P + Y * field.Q) * 2 - (rho2 - m) * field.R, g1],
            ["G2 = 2*z*(x*P + y*Q) - (x^2 + y^2 - m)*R", "G1 = y*P - x*Q"], 0.25)
