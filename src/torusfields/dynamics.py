"""Periodicity of invariant curves and singular points.

On the torus a point is parametrized by two angles: theta around the z-axis
and phi around the tube, with radius r = sqrt(m + cos(phi)) and height
z = sin(phi).  Meridian periodicity reduces to real roots of one quartic
per meridian plane, where the linear K' meets the plane's meridians;
parallel periodicity to real roots of an exact degree-4 polynomial from the
Weierstrass substitution t = tan(theta/2).  Singular-set extraction samples
the relevant level function on a (theta, phi) grid and pins candidates down
with Newton steps driven by exact derivatives.  The grid scans run in
blocks of theta rows (``kernels.surface_blocks``): one pass fills the level
grid and each theta row's min and max; a second computes each cell's
corner min and max from a block plus one wrapped halo row, so no pass
leaves the cache.  That second pass runs only on the rows whose extremes
allow a flagged cell: a cell row whose two grid rows are all at least
tau, or all at most -tau, has none, so each block is reduced over
the span between its first and last remaining row (min/max culling;
Wilhelms & Van Gelder, ACM TOG 11(3), 1992).  The 8-connected periodic
components of the flagged cells are then labelled with array operations
over the flagged cells alone (min-label hooking with pointer jumping); a
component that changes sign counts as a curve, and only the others are
seeded for Newton, from their local minima of |level|.

Quadratic and degree-one fields have no singular points; their report
carries the grid minimum of |chi|, which has a closed form in the normal
form K' = alpha, f = f0 + f1*x + f2*y + f3*z: with q = alpha/4 and r^2 =
m + cos(phi), |chi|^2 = r^2*((q*sin(phi))^2 + f^2) + (2*q*cos(phi)*r^2)^2,
and f = r*(g(theta) - t(phi)) with g = f1*cos + f2*sin and t = -(f0 +
f3*sin(phi))/r.  Per phi the least value over the theta rows is at the g
nearest t, one lookup among the sorted g, so no 2-D grid is evaluated.
Every empty singular set reports min |chi| over its grid.
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
                       TwoParallelParams)
from .kernels import (CompiledPoly, compile_finite, eval_point,
                      row_blocks, surface_angles, surface_blocks)
from .poly import MultiPoly, NotDivisible, UniPoly, Y, divide_exact
from .roots import real_roots
from .scalars import Scalar
from .vfield import VectorField

NEAR_DOUBLE = 1e-6  # relative distance at which two float roots may be one
GRID_DEFAULT = 512
GRID_MIN = 32   # (x^2-z^2)*(y, -x, 0) shows both singular curves from 19 (m=4), 21 (m=3)
GRID_MAX = 4096  # a 4096 x 4096 level grid is 128 MB of float64
# cell offsets (di, dj): the forward half of the 8-neighbourhood, which
# meets every adjacent pair once, and the whole of it
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))
_NEIGHBOURS = _FORWARD + tuple((-di, -dj) for di, dj in _FORWARD)
# exponents of the monomials 1, x, y, z
_LINEAR = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


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
        b = math.ceil(math.sqrt((float(m) + 1.0) / dd.to_float())) + 1
        return {side: float(roots[0][0]) for side, span in ((1, (0, b)), (-1, (-b, 0)))
                if (roots := real_roots(q, span))}
    if not kappa:   # K' = k0 on the whole plane
        s = math.sqrt(float(m) / dd.to_float())
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


def meridian_periodicity(params: CubicParams, m: Fraction) -> list[MeridianVerdict]:
    """Per-meridian verdicts for a four-meridian cubic field.

    A meridian is a limit cycle exactly when K' never vanishes on it;
    stabilities then alternate with the sign of dtheta/dt on either side.
    On the plane through d, K' = k0 + kappa*s + k3*z at (s*d, z), which is
    on the meridian at the plane's angle for s > 0 and opposite for s < 0.
    """
    if not check_four_meridian_criterion(params):
        raise ValueError("field does not have exactly four invariant meridians")
    if params.Kprime.degree > 1:
        raise ValueError(f"deg K' = {params.Kprime.degree} exceeds 1")
    mf = float(m)
    kprime = compile_finite(params.Kprime, mf, "K'")
    # beta = gamma = 0 makes Q*x - P*y = -(x^2 + y^2)*f, so dtheta/dt has
    # the sign of -f
    f = compile_finite(params.f, mf, "f")
    k0, k1, k2, k3 = (params.Kprime.coefficient(e) for e in _LINEAR)
    k0f, k1f, k2f, k3f = (dict(kprime.terms).get(e, 0.0) for e in _LINEAR)

    entries = []
    for factor in linear_xy_factors(params.f):
        plane = plane_from_factor(factor)
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
        for side, shift in ((1, 0.0), (-1, math.pi)):
            verdict, s = None, zeros.get(side, 0.0)     # s = 0 is off the torus
            if s is None:
                verdict = PeriodicityVerdict(Verdict.INCONCLUSIVE, reason=(
                    "K' meets the meridian at a near-double root in floats"))
            elif s:
                x, y = s * d[0], s * d[1]
                ring = x * x + y * y - mf
                z = (-(k0f + k1f * x + k2f * y) / k3f if k3f
                     else math.sqrt(max(1.0 - ring * ring, 0.0)))
                verdict = PeriodicityVerdict(Verdict.NOT_PERIODIC, witness=(x, y, z),
                                             reason="K' vanishes on the meridian")
            entries.append((theta + shift, plane, verdict))
    entries.sort(key=lambda e: e[0])
    angles = [e[0] for e in entries]
    around = [angles[-1] - 2.0 * math.pi, *angles, angles[0] + 2.0 * math.pi]

    def theta_dot_sign(theta: float) -> int:
        v = eval_point(f, *_surface_point(theta, 0.0, mf))
        return (v < 0) - (v > 0)

    out = []
    for idx, (theta, plane, verdict) in enumerate(entries):
        if verdict is None:
            # stable when dtheta/dt > 0 just below theta and < 0 just above
            signs = (theta_dot_sign(0.5 * (around[idx] + theta)),
                     theta_dot_sign(0.5 * (theta + around[idx + 2])))
            stability = {(1, -1): "stable", (-1, 1): "unstable"}.get(signs)
            verdict = PeriodicityVerdict(Verdict.LIMIT_CYCLE, stability=stability) \
                if stability else PeriodicityVerdict(
                    Verdict.INCONCLUSIVE,
                    reason="dtheta/dt does not change sign across the meridian")
        out.append(MeridianVerdict(theta, plane, verdict))
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
        th_hi, th_lo = gradfn(th + h, ph), gradfn(th - h, ph)
        ph_hi, ph_lo = gradfn(th, ph + h), gradfn(th, ph - h)
        a00 = (th_hi[0] - th_lo[0]) / (2 * h)
        a01 = (ph_hi[0] - ph_lo[0]) / (2 * h)
        a10 = (th_hi[1] - th_lo[1]) / (2 * h)
        a11 = (ph_hi[1] - ph_lo[1]) / (2 * h)
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


def _surface_gradient(grads: list[CompiledPoly], mf: float):
    """(d/dtheta, d/dphi) on the torus of the level whose x, y, z
    derivatives are ``grads``, as a function of (theta, phi)."""
    def grad_surface(th: float, ph: float) -> tuple[float, float]:
        r = math.sqrt(mf + math.cos(ph))
        x, y, z = r * math.cos(th), r * math.sin(th), math.sin(ph)
        gx, gy, gz = (eval_point(g, x, y, z) for g in grads)
        r_phi = -math.sin(ph) / (2.0 * r)
        return (gx * (-y) + gy * x,
                gx * math.cos(th) * r_phi + gy * math.sin(th) * r_phi
                + gz * math.cos(ph))
    return grad_surface


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
    """The index ``min`` picks over ``values``: the first value when it is
    nan, else the first smallest value that is not nan."""
    return 0 if np.isnan(values[0]) else int(np.nanargmin(values))


def _local_min_seeds(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     level: np.ndarray, cap: int = 32) -> np.ndarray:
    """Positions in (rows, cols) of the cells whose |level| is at most that of
    all 8 neighbours, by increasing |level| (ties in cell order), at most
    ``cap`` of them; without such a cell, the cell of least |level|.
    ``level`` is |vals| at (rows, cols)."""
    n = vals.shape[0]
    di, dj = (np.array(d)[:, None] for d in zip(*_NEIGHBOURS))
    around = np.abs(vals[(rows + di) % n, (cols + dj) % n])
    seeds = np.flatnonzero((around >= level).all(axis=0))
    if not seeds.size:
        return np.array([_first_min(level)])
    return seeds[np.argsort(level[seeds], kind="stable")[:cap]]


def _level_grid(level: CompiledPoly, mf: float,
                grid: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The level on the grid, each theta row's (min, max) as a (2, grid)
    array, and the max |level|, in one blocked pass."""
    vals = np.empty((grid, grid))
    extremes = np.empty((2, grid))
    for rows, block in surface_blocks(level, mf, grid):
        vals[rows] = block
        block.min(axis=1, out=extremes[0, rows])
        block.max(axis=1, out=extremes[1, rows])
    # numpy reductions, so a nan value propagates as it did over the full grid
    vmax = np.maximum(np.abs(extremes[0]), np.abs(extremes[1])).max()
    return vals, extremes, float(vmax)


def _corner_reduce(op, rows: np.ndarray, pair: np.ndarray, out: np.ndarray) -> None:
    """op (np.minimum or np.maximum) over the four corners of each periodic
    cell of a block: ``rows`` holds the block's grid rows and the row after."""
    op(rows[:-1], rows[1:], out=pair)
    op(pair[:, :-1], pair[:, 1:], out=out[:, :-1])
    op(pair[:, -1], pair[:, 0], out=out[:, -1])


def _cell_masks(vals: np.ndarray, extremes: np.ndarray,
                tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(has_sign_change, flagged) per cell [i, j], the cell with corners
    (i, j), (i+1, j), (i, j+1), (i+1, j+1) mod n.  A cell changes sign when
    the level is negative at one corner and positive at another; it is
    flagged when it changes sign or some corner has |level| < tau.

    ``extremes`` holds each grid row's min and max, and tau is at least 0
    or nan.  Cell row i, whose corners all lie in grid rows i and i+1 mod
    n, has no flagged cell when those rows are all at least tau or all at
    most -tau; a nan extreme or tau never rules a row out.  Each block is
    reduced over the span from its first to its last remaining cell row.
    A cell that does not change sign has min |corner| = min(|corner min|,
    |corner max|), so the flag needs only the corner min and max.
    """
    n = vals.shape[0]
    sign_change = np.zeros((n, n), dtype=bool)
    flagged = np.zeros((n, n), dtype=bool)
    low, high = extremes
    ruled_out = ((np.minimum(low, np.roll(low, -1)) >= tau)
                 | (np.maximum(high, np.roll(high, -1)) <= -tau))
    candidates = np.flatnonzero(~ruled_out)
    if not candidates.size:
        return sign_change, flagged
    blocks = row_blocks(n)
    height = max(b - a for a, b in blocks)
    window = np.empty((height + 1, n))      # a span ending at row n - 1, and row 0
    pair, cell_min, cell_max = np.empty((3, height, n))
    other = np.empty((height, n), dtype=bool)
    for first, last in np.searchsorted(candidates, blocks):
        if first == last:
            continue
        a, b = int(candidates[first]), int(candidates[last - 1]) + 1
        h = b - a
        if b < n:
            rows = vals[a:b + 1]
        else:
            rows = window[:h + 1]
            rows[:h] = vals[a:b]
            rows[h] = vals[0]
        _corner_reduce(np.minimum, rows, pair[:h], cell_min[:h])
        _corner_reduce(np.maximum, rows, pair[:h], cell_max[:h])
        changes, flags = sign_change[a:b], flagged[a:b]
        np.less(cell_min[:h], 0.0, out=changes)
        changes &= np.greater(cell_max[:h], 0.0, out=other[:h])
        np.less(cell_min[:h], tau, out=flags)
        flags &= np.greater(cell_max[:h], -tau, out=other[:h])
        flags |= changes
    return sign_change, flagged


def _components(flagged: np.ndarray, has_sign_change: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 8-connected components of the flagged cells on the periodic grid,
    in order of their smallest flat cell index i * n + j, as (cells, bounds,
    sign_change): component k holds the flat indices cells[bounds[k]:bounds[k
    + 1]], ascending, and sign_change[k] says whether any of them changes sign.

    Labels are hooked to the smaller label across each edge and shortcut by
    pointer jumping until every edge joins equal labels (Shiloach & Vishkin,
    J. Algorithms 3, 1982), on the flagged cells only.
    """
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


def _levelset_singular(level: MultiPoly, what: str, m: Fraction, grid: int,
                       rotation: bool) -> SingularSet:
    """Zero set of a scalar function restricted to the torus surface.

    With ``rotation`` the level is the rotation coefficient A of a field
    (A*y, -A*x, 0), and each isolated point off z = 0 is classified;
    without it the level is |chi|^2 and the result is numeric only.
    """
    mf = float(m)
    level_terms = compile_finite(level, mf, what)
    angles, _, _, radius = surface_angles(mf, grid)
    with np.errstate(all="ignore"):
        vals, extremes, vmax = _level_grid(level_terms, mf, grid)
    if not math.isfinite(vmax):
        raise ValueError(f"{what} is not finite on the {grid}x{grid} grid: the "
                         "field's values exceed the float range")
    if vmax == 0.0:
        return SingularSet(SingKind.CURVES, [], curve_components=1,
                           description="the whole torus is singular")

    tau = vmax * (2.0 * math.pi / grid) ** 2 * 4.0
    has_sign_change, flagged = _cell_masks(vals, extremes, tau)

    grads = [compile_finite(level.differentiate(v), mf, f"the {v}-derivative of {what}")
             for v in "xyz"]

    grad_surface = _surface_gradient(grads, mf)
    points: list[tuple[tuple[float, float, float], SingClass | None]] = []
    point_cap = grid // 16

    def refine(i: int, j: int):
        """(point or None, |level| at the critical point or None)."""
        th0 = angles[i] + math.pi / grid
        ph0 = angles[j] + math.pi / grid
        solution = _newton_2d(grad_surface, (th0, ph0))
        if solution is None:
            return None, None
        pt = _surface_point(solution[0], solution[1], mf)
        residual = abs(eval_point(level_terms, *pt))
        if residual > 1e-8 * vmax:
            return None, residual
        return pt, residual

    cells, bounds, component_sign_change = _components(flagged, has_sign_change)
    # a component that changes sign is one curve, whatever its cells
    curve_count = int(np.count_nonzero(component_sign_change))
    for k in np.flatnonzero(~component_sign_change):
        rows, cols = np.divmod(cells[bounds[k]:bounds[k + 1]], grid)
        level_abs = np.abs(vals[rows, cols])
        # no sign change: isolated minima of the level function, an
        # even-order zero curve, or a spurious low-|level| valley.  Newton
        # from every local minimum decides: nondegenerate zero minima
        # converge with a vanishing level, nonzero minima converge with a
        # clearly positive one, and a curve's flat gradient does not
        # converge at all.
        found = []
        positive_minimum = False
        newton_failed = False
        for seed in _local_min_seeds(vals, rows, cols, level_abs):
            pt, residual = refine(rows[seed], cols[seed])
            if pt is not None:
                if all(math.dist(pt, q) > 1e-6 for q in found) and \
                        all(math.dist(pt, q[0]) > 1e-6 for q in points):
                    found.append(pt)
            elif residual is not None:
                positive_minimum = True
            else:
                newton_failed = True
        extent = _component_extent(rows, cols, grid)
        if found:
            if extent > point_cap:
                warnings.warn(
                    f"singular component of extent {extent} cells resolved "
                    f"into {len(found)} point(s); a {grid}x{grid} grid is "
                    "coarse for this level function", GridResolutionWarning,
                    stacklevel=2)
            for pt in found:
                sing_class = None
                if rotation and abs(pt[2]) >= 1e-6:
                    sing_class = _classify(
                        _chart_gradient(level_terms, grads, pt, mf), pt)
                points.append((pt, sing_class))
        elif positive_minimum and not newton_failed:
            continue  # the level function bottoms out above zero here
        else:
            comp_min = level_abs[_first_min(level_abs)]
            if comp_min > 0.5 * tau:
                continue  # flagged cells never got near zero: spurious
            if extent <= point_cap:
                warnings.warn(
                    "Newton refinement failed on a small singular component; "
                    "keeping it as a curve candidate", GridResolutionWarning,
                    stacklevel=2)
            curve_count += 1

    points.sort(key=lambda entry: entry[0])
    if curve_count:
        kind, description = SingKind.CURVES, f"{curve_count} singular curve component(s)"
        if points:
            description += f" plus {len(points)} isolated point(s)"
    elif points:
        kind, description = SingKind.ISOLATED, f"{len(points)} isolated singular point(s)"
    else:
        kind, description = SingKind.EMPTY, ""
    return SingularSet(kind, points, curve_components=curve_count,
                       description=description, numeric_only=not rotation,
                       grid_min_norm=None if kind != SingKind.EMPTY
                       else _grid_min_chi(vals, radius, rotation))


def _grid_min_chi(vals: np.ndarray, radius: np.ndarray, rotation: bool) -> float:
    """min |chi| over the level grid ``vals``, which it overwrites: |chi| =
    |A|*r for the rotation coefficient A, else sqrt(|chi|^2)."""
    np.abs(vals, out=vals)
    if rotation:
        vals *= radius      # r depends on phi, the column
        return float(vals.min())
    return math.sqrt(vals.min())


def grid_min_speed(field: VectorField, alpha: Scalar, f: MultiPoly, m: Fraction,
                   grid: int = GRID_DEFAULT) -> float:
    """Minimum of |chi| over the (theta, phi) grid on the torus for a field in
    the normal form K' = alpha, f linear, beta = gamma = 0: a quadratic
    field, or with alpha = 0 and f = c a degree-one field.

    With q = alpha/4, P = q*x*z + f*y, Q = q*y*z - f*x and, on the torus, R
    = -2*q*cos(phi)*r^2, so |chi|^2 = r^2*((q*sin(phi))^2 + f^2) +
    (2*q*cos(phi)*r^2)^2 with f = r*(g - t), g = f1*cos(theta) +
    f2*sin(theta) and t = -(f0 + f3*sin(phi))/r.  Per phi the least value
    over theta is at the g nearest t, found among the sorted g; the result
    is the minimum of P^2 + Q^2 + R^2 over the grid up to rounding.  Raises
    ValueError when a component has a coefficient beyond the float range,
    or when the minimum is not finite.
    """
    mf = float(m)
    for component, name in zip(field.components(), "PQR"):
        compile_finite(component, mf, name)
    _, cos, sin, r = surface_angles(mf, grid)
    f0, f1, f2, f3 = (f.coefficient(e).to_float() for e in _LINEAR)
    q = alpha.to_float() / 4.0
    with np.errstate(all="ignore"):
        g = np.sort(f1 * cos + f2 * sin)
        t = -(f0 + f3 * sin) / r
        # the sorted g on either side of t, clamped at both ends
        above = np.searchsorted(g, t)
        d = np.minimum(np.abs(t - g[np.maximum(above - 1, 0)]),
                       np.abs(t - g[np.minimum(above, grid - 1)]))
        r2 = r * r
        speed = float(np.sqrt(np.min(r2 * np.square(q * sin) + np.square(r2 * d)
                                     + np.square(2.0 * q * cos * r2))))
    if not math.isfinite(speed):
        raise ValueError(f"|chi| is not finite on the {grid}x{grid} grid: the "
                         "field's values exceed the float range")
    return speed


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
    if grid > GRID_MAX:
        raise ValueError(f"grid must be at most {GRID_MAX}, got {grid}")
    params = tag.params
    if tag.family == Family.QUADRATIC and isinstance(params, QuadraticParams) \
            and not params.alpha.is_zero():
        return SingularSet(SingKind.EMPTY, [], grid_min_norm=grid_min_speed(
            field, params.alpha, params.f, m, grid))
    if tag.family == Family.DEGREE_ONE and not params.c.is_zero():
        return SingularSet(SingKind.EMPTY, [], grid_min_norm=grid_min_speed(
            field, Scalar(0), MultiPoly.constant(params.c), m, grid))
    level = rotation_shape(field)
    if level is not None:
        return _levelset_singular(level, "A (of the field (A*y, -A*x, 0))", m, grid,
                                  rotation=True)
    speed_sq = (field.P * field.P + field.Q * field.Q + field.R * field.R)
    return _levelset_singular(speed_sq, "P^2 + Q^2 + R^2", m, grid, rotation=False)


def _chart_gradient(a: CompiledPoly, grads: list[CompiledPoly],
                    q: tuple[float, float, float], mf: float) -> tuple[float, float]:
    """(B_x, B_y) at q from A and its x, y, z derivatives compiled at m;
    q must have |z| >= 1e-6."""
    x0, y0, z0 = q
    scale = max((abs(c) for _, c in a.terms), default=1.0)
    if abs(eval_point(a, x0, y0, z0)) > 1e-8 * max(scale, 1.0):
        raise ValueError(f"A{q} != 0: not a singular point of the field")
    ax, ay, az = (eval_point(g, x0, y0, z0) for g in grads)
    ring = x0 * x0 + y0 * y0 - mf
    return ax + az * (-2.0 * x0 * ring / z0), ay + az * (-2.0 * y0 * ring / z0)


def chart_gradient(field: VectorField, q: tuple[float, float, float],
                   m: Fraction) -> tuple[float, float]:
    """(B_x, B_y) at q, where B restricts the rotation coefficient A to the
    open half-torus chart z = sign(z0) * sqrt(1 - (x^2 + y^2 - m)^2)."""
    if abs(q[2]) < 1e-6:
        raise ChartError(f"|z| = {abs(q[2]):.2e} is too small for the chart")
    try:
        a_poly = divide_exact(field.P, Y, "y")
    except NotDivisible as exc:
        raise ValueError("field is not of the shape (A*y, -A*x, 0)") from exc
    mf = float(m)
    grads = [compile_finite(a_poly.differentiate(v), mf, f"the {v}-derivative of A")
             for v in "xyz"]
    return _chart_gradient(compile_finite(a_poly, mf, "A"), grads, q, mf)


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
    return _classify(chart_gradient(field, q, m), q)


def _classify(gradient: tuple[float, float], q: tuple[float, float, float]) -> SingClass:
    bx, by = gradient
    x0, y0, _ = q
    trace = bx * y0 - by * x0
    if abs(trace) > 1e-8:
        return SingClass.SEMI_HYPERBOLIC
    entries = (bx * y0, by * y0, bx * x0, by * x0)
    if all(abs(e) < 1e-8 for e in entries):
        return SingClass.LINEARLY_ZERO
    return SingClass.NILPOTENT_OR_LINEARLY_ZERO
