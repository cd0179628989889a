"""Assemble the full analysis record for one vector field.

The report is a plain dict with a stable layout (top-level key
``"schema": "torus-fields/1"``); every polynomial value is rendered through
the canonical serializer so it re-parses under the expression grammar, and
identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .curves import (check_four_meridian_criterion, invariant_meridians,
                     invariant_parallels)
from .dynamics import (PeriodicityVerdict, Verdict, meridian_periodicity,
                       parallel_periodicity, singular_points)
from .families import Family, FamilyTag, recognize, verified_first_integrals
from .parsing import parse, serialize
from .poly import MultiPoly
from .scalars import Scalar
from .vfield import VectorField


def _params_dict(params: object) -> dict | None:
    """The fields of a family's params dataclass, polynomials and scalars as
    expressions; ``Kprime`` is written as ``K_prime``."""
    if params is None:
        return None
    out = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if isinstance(value, Scalar):
            value = MultiPoly.constant(value)
        out["K_prime" if field.name == "Kprime" else field.name] = (
            serialize(value) if isinstance(value, MultiPoly) else value)
    return out


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


def _blanket_verdict(tag: FamilyTag, meridians: bool) -> PeriodicityVerdict | None:
    """The verdict that every invariant meridian (or parallel) of the tagged
    field shares, where its family decides one."""
    if tag.family == Family.QUADRATIC and not tag.params.alpha.is_zero():
        return PeriodicityVerdict(Verdict.PERIODIC_ORBIT, reason="field has no singular points")
    if tag.family == Family.KOLMOGOROV or (meridians and tag.family == Family.PSEUDO_TYPE):
        return PeriodicityVerdict(Verdict.NOT_PERIODIC,
                                  reason="invariant curve carries singular points")
    return None


def family_entry(tag: FamilyTag) -> dict:
    """The report's ``family`` block."""
    return {
        "tag": tag.family.value,
        "params": _params_dict(tag.params),
        "also_matches": [f.value for f in tag.matches if f != tag.family],
    }


def meridians_entry(field: VectorField, tag: FamilyTag, m: Fraction) -> dict:
    """The report's ``meridians`` block: the invariant meridian planes of the
    on-torus ``field``, ``tag = recognize(field, m)``, with the periodicity
    verdict of each meridian."""
    mset = invariant_meridians(field)
    if tag.family == Family.CUBIC and check_four_meridian_criterion(tag.params):
        verdicts = meridian_periodicity(tag.params, m, mset.planes)
    else:
        blanket = _blanket_verdict(tag, meridians=True)
        verdicts = [(blanket, blanket)] * len(mset.planes)
    planes = []
    # each plane's verdicts at its angle and at that plus pi
    for (plane, mult), pair in zip(mset.planes, verdicts):
        ppoly = plane.polynomial()
        planes.append({
            "a": plane.a, "b": plane.b,
            "exact": plane.exact,
            "plane_expr": serialize(ppoly) if ppoly is not None else None,
            "multiplicity": mult,
            "meridians": [{"angle": plane.angle() + shift, "verdict": _verdict_dict(v)}
                          for shift, v in zip((0.0, math.pi), pair)],
        })
    return {
        "infinite": mset.infinite,
        "count_with_multiplicity": _count_json(mset.meridian_count()),
        "fallback_scan": mset.fallback_scan,
        "planes": planes,
    }


def parallels_entry(field: VectorField, tag: FamilyTag, m: Fraction) -> dict:
    """The report's ``parallels`` block: the invariant parallel planes of the
    on-torus ``field``, ``tag = recognize(field, m)``, with the periodicity
    verdict of each parallel."""
    pset = invariant_parallels(field)
    verdicts = {Fraction(w): parallel_periodicity(tag.params, m, w)
                for w in (1, -1) if tag.family == Family.TWO_PARALLEL}
    blanket = _blanket_verdict(tag, meridians=False)
    return {
        "infinite": pset.infinite,
        "count_with_multiplicity": _count_json(pset.parallel_count()),
        "fallback_scan": pset.fallback_scan,
        # real_roots gives z = +-1 as exact_k +-1
        "planes": [{
            "k": plane.k,
            "k_expr": str(plane.exact_k) if plane.exact_k is not None else None,
            "exact": plane.exact,
            "multiplicity": mult,
            "verdict": _verdict_dict(verdicts.get(plane.exact_k, blanket)),
        } for plane, mult in pset.planes],
    }


def singular_entry(field: VectorField, tag: FamilyTag, m: Fraction, grid: int) -> dict:
    """The report's ``singular_set`` block for the on-torus ``field``,
    ``tag = recognize(field, m)``, scanned on a ``grid`` x ``grid`` grid
    where no exact path decides it."""
    sing = singular_points(field, tag, m, grid=grid)
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


def _bounds_check(degree: int | None, meridians: dict, parallels: dict) -> dict | None:
    """The meridian and parallel-plane counts against their bounds."""
    if degree is None or degree < 1:
        return None
    mer_count = meridians["count_with_multiplicity"]
    par_count = "infinite" if parallels["infinite"] else sum(
        plane["multiplicity"] for plane in parallels["planes"])
    return {
        "degree": degree,
        "meridian_count": mer_count,
        "meridian_bound": 2 * (degree - 1),
        "meridians_within_bound": mer_count == "infinite" or mer_count <= 2 * (degree - 1),
        "parallel_plane_count": par_count,
        "parallel_plane_bound": degree - 1,
        "parallels_within_bound": par_count == "infinite" or par_count <= degree - 1,
    }


def build_report(px: str, qy: str, rz: str, m: Fraction, seed: int = 0,
                 grid: int = 512) -> dict:
    """Run the whole pipeline on one field and return the report dict."""
    m = Fraction(m)
    field = VectorField(parse(px, m), parse(qy, m), parse(rz, m))
    tag = recognize(field, m)
    on_torus = tag.family != Family.NOT_ON_TORUS
    degree = None if field.is_zero() else int(field.degree)
    report: dict = {
        "schema": "torus-fields/1",
        "version": __version__,
        "seed": seed,
        "input": {"px": px, "qy": qy, "rz": rz, "m": str(m)},
        "field": {
            "P": serialize(field.P), "Q": serialize(field.Q),
            "R": serialize(field.R),
            "degree": degree,
        },
        "on_torus": on_torus,
        "cofactor": serialize(tag.cofactor) if on_torus else None,
        "family": family_entry(tag),
    }
    if not on_torus:
        return report
    report["meridians"] = meridians_entry(field, tag, m)
    report["parallels"] = parallels_entry(field, tag, m)
    report["first_integrals"] = [{
        "numerator": serialize(h.num),
        "denominator": serialize(h.den),
        "verified": ok,
    } for h, ok in verified_first_integrals(field, tag, m)]
    report["singular_set"] = singular_entry(field, tag, m, grid)
    report["bounds_check"] = _bounds_check(degree, report["meridians"],
                                           report["parallels"])
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
