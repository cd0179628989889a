"""Assemble the full analysis record for one vector field.

The report is a plain dict with a stable layout (top-level key
``"schema": "torus-fields/1"``); every polynomial value is rendered through
the canonical serializer so it re-parses under the expression grammar, and
identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .curves import (MeridianSet, ParallelSet, check_four_meridian_criterion,
                     invariant_meridians, invariant_parallels)
from .dynamics import (MeridianVerdict, PeriodicityVerdict, SingularSet,
                       Verdict, meridian_periodicity, parallel_periodicity,
                       singular_points)
from .families import (CubicParams, DegreeOneParams, Family,
                       KolmogorovParams, PseudoTypeParams, QuadraticParams,
                       TwoParallelParams, recognize, verified_first_integrals)
from .parsing import parse, serialize
from .poly import MultiPoly
from .scalars import Scalar
from .vfield import VectorField


def _scalar_expr(s: Scalar) -> str:
    return serialize(MultiPoly.constant(s))


def _params_dict(params: object) -> dict | None:
    if params is None:
        return None
    if isinstance(params, CubicParams):
        return {"K_prime": serialize(params.Kprime), "f": serialize(params.f),
                "beta": _scalar_expr(params.beta),
                "gamma": _scalar_expr(params.gamma)}
    if isinstance(params, KolmogorovParams):
        return {"c1": _scalar_expr(params.c1), "c2": _scalar_expr(params.c2)}
    if isinstance(params, QuadraticParams):
        return {"alpha": _scalar_expr(params.alpha), "f": serialize(params.f)}
    if isinstance(params, DegreeOneParams):
        return {"c": _scalar_expr(params.c)}
    if isinstance(params, PseudoTypeParams):
        return {"n": params.n, "A": serialize(params.A)}
    if isinstance(params, TwoParallelParams):
        return {"p": _scalar_expr(params.p), "q": _scalar_expr(params.q),
                "f": serialize(params.f)}
    return None


def _verdict_dict(v: PeriodicityVerdict | None) -> dict | None:
    if v is None:
        return None
    out: dict = {"kind": v.kind.value}
    if v.stability is not None:
        out["stability"] = v.stability
    if v.witness is not None:
        out["witness"] = [float(c) for c in v.witness]
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def _meridian_entries(mset: MeridianSet,
                      verdicts: list[MeridianVerdict] | None,
                      blanket: PeriodicityVerdict | None) -> list[dict]:
    entries = []
    for plane, mult in mset.planes:
        # the plane's verdicts at its angle and at that plus pi
        pair = [blanket] * 2 if verdicts is None else [
            mv.verdict for mv in verdicts if mv.plane is plane]
        ppoly = plane.polynomial()
        entries.append({
            "a": plane.a, "b": plane.b,
            "exact": plane.exact,
            "plane_expr": serialize(ppoly) if ppoly is not None else None,
            "multiplicity": mult,
            "meridians": [{"angle": plane.angle() + shift, "verdict": _verdict_dict(v)}
                          for shift, v in zip((0.0, math.pi), pair)],
        })
    return entries


def _parallel_entries(pset: ParallelSet,
                      verdicts: dict[Fraction, PeriodicityVerdict] | None,
                      blanket: PeriodicityVerdict | None) -> list[dict]:
    entries = []
    for plane, mult in pset.planes:   # real_roots gives z = +-1 as exact_k +-1
        verdict = blanket if verdicts is None else verdicts.get(plane.exact_k)
        entries.append({
            "k": plane.k,
            "k_expr": str(plane.exact_k) if plane.exact_k is not None else None,
            "exact": plane.exact,
            "multiplicity": mult,
            "verdict": _verdict_dict(verdict),
        })
    return entries


def _singular_dict(sing: SingularSet) -> dict:
    return {
        "kind": sing.kind.value,
        "points": [{
            "point": [float(c) for c in pt],
            "class": cls.value if cls is not None else None,
        } for pt, cls in sing.points],
        "curve_components": sing.curve_components,
        "description": sing.description,
        "numeric_only": sing.numeric_only,
        "grid_min_speed": sing.grid_min_norm,
    }


def _count_json(value: int | float):
    return "infinite" if value == math.inf else int(value)


def build_report(px: str, qy: str, rz: str, m: Fraction, seed: int = 0,
                 grid: int = 512) -> dict:
    """Run the whole pipeline on one field and return the report dict."""
    m = Fraction(m)
    field = VectorField(parse(px, m), parse(qy, m), parse(rz, m))
    tag = recognize(field, m)
    on_torus = tag.family != Family.NOT_ON_TORUS
    report: dict = {
        "schema": "torus-fields/1",
        "version": __version__,
        "seed": seed,
        "input": {"px": px, "qy": qy, "rz": rz, "m": str(m)},
        "field": {
            "P": serialize(field.P), "Q": serialize(field.Q),
            "R": serialize(field.R),
            "degree": None if field.is_zero() else int(field.degree),
        },
        "on_torus": on_torus,
        "cofactor": serialize(tag.cofactor) if on_torus else None,
        "family": {
            "tag": tag.family.value,
            "params": _params_dict(tag.params),
            "also_matches": [f.value for f in tag.matches if f != tag.family],
        },
    }
    if not on_torus:
        return report

    meridians = invariant_meridians(field)
    parallels = invariant_parallels(field)

    meridian_verdicts: list[MeridianVerdict] | None = None
    meridian_blanket: PeriodicityVerdict | None = None
    parallel_verdicts: dict[Fraction, PeriodicityVerdict] | None = None
    parallel_blanket: PeriodicityVerdict | None = None

    if tag.family == Family.CUBIC and isinstance(tag.params, CubicParams) \
            and check_four_meridian_criterion(tag.params):
        meridian_verdicts = meridian_periodicity(tag.params, m, meridians.planes)
    elif tag.family == Family.TWO_PARALLEL and isinstance(tag.params, TwoParallelParams):
        parallel_verdicts = {Fraction(w): parallel_periodicity(tag.params, m, w)
                             for w in (1, -1)}
    elif tag.family == Family.QUADRATIC and isinstance(tag.params, QuadraticParams) \
            and not tag.params.alpha.is_zero():
        blanket = PeriodicityVerdict(Verdict.PERIODIC_ORBIT,
                                     reason="field has no singular points")
        meridian_blanket = parallel_blanket = blanket
    elif tag.family in (Family.KOLMOGOROV, Family.PSEUDO_TYPE):
        blanket = PeriodicityVerdict(
            Verdict.NOT_PERIODIC,
            reason="invariant curve carries singular points")
        meridian_blanket = blanket
        if tag.family == Family.KOLMOGOROV:
            parallel_blanket = blanket

    report["meridians"] = {
        "infinite": meridians.infinite,
        "count_with_multiplicity": _count_json(meridians.meridian_count()),
        "fallback_scan": meridians.fallback_scan,
        "planes": _meridian_entries(meridians, meridian_verdicts,
                                    meridian_blanket),
    }
    report["parallels"] = {
        "infinite": parallels.infinite,
        "count_with_multiplicity": _count_json(parallels.parallel_count()),
        "fallback_scan": parallels.fallback_scan,
        "planes": _parallel_entries(parallels, parallel_verdicts,
                                    parallel_blanket),
    }

    report["first_integrals"] = [{
        "numerator": serialize(h.num),
        "denominator": serialize(h.den),
        "verified": ok,
    } for h, ok in verified_first_integrals(field, tag, m)]

    report["singular_set"] = _singular_dict(singular_points(field, tag, m, grid=grid))

    degree = None if field.is_zero() else int(field.degree)
    if degree is not None and degree >= 1:
        mer_bound = 2 * (degree - 1)
        par_bound = degree - 1
        mer_count = meridians.meridian_count()
        par_count = parallels.plane_multiplicity_total() if not parallels.infinite else math.inf
        report["bounds_check"] = {
            "degree": degree,
            "meridian_count": _count_json(mer_count),
            "meridian_bound": mer_bound,
            "meridians_within_bound": (mer_count == math.inf
                                       or mer_count <= mer_bound),
            "parallel_plane_count": _count_json(par_count),
            "parallel_plane_bound": par_bound,
            "parallels_within_bound": (par_count == math.inf
                                       or par_count <= par_bound),
        }
    else:
        report["bounds_check"] = None
    return report


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _write(value, indent: str, out: list[str]) -> None:
    """Append the text json.dumps(value, sort_keys=True, indent=2) writes for
    ``value`` nested at ``indent``, in its type checks' order.  Keys must be
    strings: quoting any other key is a TypeError, where json.dumps would
    convert it."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for item in value:
            _write(item, inner, out)
            out.append(sep)
        out[-1] = "\n" + indent + "]"     # the closer replaces the last sep
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for key, item in sorted(value.items()):
            out.append(_quote(key) + ": ")
            _write(item, inner, out)
            out.append(sep)
        out[-1] = "\n" + indent + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_json(report: dict) -> bytes:
    """``json.dumps(report, sort_keys=True, indent=2)`` plus one newline, as
    ASCII bytes, written in one recursive pass."""
    out: list[str] = []
    _write(report, "", out)
    out.append("\n")
    return "".join(out).encode()
