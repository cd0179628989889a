import collections
import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torusfields import (MultiPoly, VectorField, Verdict, build_report, dynamics,
                         families, invariant_meridians, kernels,
                         meridian_periodicity, parse, poly, recognize,
                         report_json, vfield, verified_first_integrals)
from torusfields.report import meridians_entry, singular_entry

from conftest import reference_serialize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import workloads  # noqa: E402

CONTRACT_MS = [Fraction(4), Fraction(3), Fraction(9, 2), Fraction(5, 4), Fraction(2)]

SECT5 = dict(px="(1/4)*x*z + x*y^2", qy="(1/4)*y*z - x^2*y",
             rz="(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)")


def test_full_report_worked_example():
    report = build_report(m=Fraction(4), grid=128, **SECT5)
    assert report["schema"] == "torus-fields/1"
    assert report["on_torus"] is True
    assert report["cofactor"] == "z"
    assert report["family"]["tag"] == "cubic"
    assert report["meridians"]["count_with_multiplicity"] == 4
    assert report["bounds_check"]["meridians_within_bound"] is True
    verdicts = [mer["verdict"]["kind"]
                for entry in report["meridians"]["planes"]
                for mer in entry["meridians"]]
    assert verdicts == ["limit-cycle"] * 4
    stabilities = {mer["verdict"]["stability"]
                   for entry in report["meridians"]["planes"]
                   for mer in entry["meridians"]}
    assert stabilities == {"stable", "unstable"}
    assert report["singular_set"]["kind"] == "empty"  # K' = 1 never vanishes
    blob = report_json(report)
    assert json.loads(blob) == report


def test_report_kolmogorov_verdicts():
    report = build_report(px="x*y^2 + (1/2)*x*z^2", qy="-x^2*y + (1/2)*y*z^2",
                          rz="z*(-a^2*(x^2+y^2)+z^2+a^4-1)",
                          m=Fraction(4), grid=128)
    assert report["family"]["tag"] == "kolmogorov"
    assert len(report["first_integrals"]) == 1
    assert report["first_integrals"][0]["verified"] is True
    for entry in report["meridians"]["planes"]:
        for mer in entry["meridians"]:
            assert mer["verdict"]["kind"] == Verdict.NOT_PERIODIC.value
    assert report["parallels"]["planes"][0]["verdict"]["kind"] \
        == Verdict.NOT_PERIODIC.value


def test_report_two_parallel_verdicts():
    report = build_report(px="(1/2)*x^2*z + (a^2+1+y^2)*y - 2*z",
                          qy="(1/2)*x*y*z - (a^2+1+y^2)*x",
                          rz="x*(z^2-1)", m=Fraction(4), grid=128)
    assert report["family"]["tag"] == "two-parallel"
    kinds = {entry["k"]: entry["verdict"]["kind"]
             for entry in report["parallels"]["planes"]}
    assert kinds[1.0] == "periodic-orbit"
    assert kinds[-1.0] == "periodic-orbit"


def test_report_goes_through_the_public_stage_entries(monkeypatch):
    report_module = importlib.import_module("torusfields.report")
    calls = collections.Counter()
    for name in ("recognize", "parallel_periodicity", "singular_points"):
        def counted(*args, _name=name, _entry=getattr(report_module, name), **kwargs):
            calls[_name] += 1
            return _entry(*args, **kwargs)
        monkeypatch.setattr(report_module, name, counted)

    def fields(m):
        return {spec.name: (spec.px, spec.qy, spec.rz, m) for spec in corpus.named_corpus(m)}

    named = fields(Fraction(4))
    dynamics._parallel_obstructions.cache_clear()
    # (recognize, parallel_periodicity, singular_points) calls, and the
    # obstruction cache's misses: the verdicts and the singular set share one
    for field, want, missed in ((named["two-parallel"], (1, 2, 1), 1),
                                (named["worked-cubic"], (1, 0, 1), 0),
                                (("x", "y", "z", Fraction(4)), (1, 0, 0), 0)):
        calls.clear()
        misses = dynamics._parallel_obstructions.cache_info().misses
        build_report(*field, grid=64)
        assert (calls["recognize"], calls["parallel_periodicity"],
                calls["singular_points"]) == want, field
        assert dynamics._parallel_obstructions.cache_info().misses - misses == missed
    # a second two-parallel field right after the first reads its own entry
    second = fields(Fraction(3))["two-parallel"]
    build_report(*named["two-parallel"], grid=64)
    after_first = report_json(build_report(*second, grid=64))
    dynamics._parallel_obstructions.cache_clear()
    assert report_json(build_report(*second, grid=64)) == after_first


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3)])
def test_torus_is_differentiated_once_per_m(m, monkeypatch):
    # chi(F) is built once per field, by the cofactor from F's shape, and the
    # Kolmogorov and quadratic integral F/(x^2 + y^2)^2 is verified through
    # that cofactor and one pass of the derivative kernel over its
    # denominator; no gradient polynomial of F or of (x^2 + y^2)^2 is built
    F = vfield.torus_surface(m).F
    chi_into, differentiate = poly._chi_into, MultiPoly.differentiate
    cofactor = vfield.cofactor_on_torus
    seen = collections.Counter()

    def guarded_chi_into(p, q, field, f, *args):
        assert f != F, "chi(F) computed again"
        seen["chi(rho^4)"] += f == families._RADIAL_SQUARED
        return chi_into(p, q, field, f, *args)

    def guarded_differentiate(poly, var):
        assert poly != F, "F differentiated again"
        assert poly != families._RADIAL_SQUARED, "(x^2 + y^2)^2 differentiated"
        return differentiate(poly, var)

    def counted_cofactor(field, surface):
        seen["chi(F)"] += 1
        return cofactor(field, surface)

    monkeypatch.setattr(poly, "_chi_into", guarded_chi_into)
    monkeypatch.setattr(MultiPoly, "differentiate", guarded_differentiate)
    monkeypatch.setattr(families, "cofactor_on_torus", counted_cofactor)
    for spec in corpus.named_corpus(m):
        if spec.name not in ("kolmogorov", "quadratic"):
            continue
        seen.clear()
        report = build_report(spec.px, spec.qy, spec.rz, m, grid=64)
        assert [h["verified"] for h in report["first_integrals"]] == [True]
        assert seen == {"chi(F)": 1, "chi(rho^4)": 1}
        field = VectorField(*(parse(c, m) for c in (spec.px, spec.qy, spec.rz)))
        tag = recognize(field, m)
        seen.clear()
        results = verified_first_integrals(field, tag, m)
        assert [ok for _, ok in results] == [True]
        assert seen == {"chi(rho^4)": 1}


def test_report_near_planes_past_the_rational_root_search():
    # f = (y - x)*(y - (1 + eps)*x): the second slope's end coefficients are
    # beyond the rational-root search, yet its plane is exact
    px, qy, rz = corpus.cubic_strings("1", "(y - x)*(y - (1 + 1/10^8)*x)")
    planes = build_report(px, qy, rz, Fraction(4), grid=64)["meridians"]["planes"]
    assert [(p["exact"], p["plane_expr"]) for p in planes] == [
        (True, "x - y"), (True, "100000001*x - 100000000*y")]
    # at m = 7/2 with K' = x + y - 3 and eps = 10^-10, the exact plane makes
    # both of its meridians stable limit cycles
    px, qy, rz = corpus.cubic_strings("x + y - 3", "(y - x)*(y - (1 + 1/10^10)*x)")
    planes = build_report(px, qy, rz, Fraction(7, 2), grid=64)["meridians"]["planes"]
    assert planes[1]["plane_expr"] == "10000000001*x - 10000000000*y"
    assert [(mer["verdict"]["kind"], mer["verdict"].get("stability"))
            for mer in planes[1]["meridians"]] == [("limit-cycle", "stable")] * 2


def test_report_pseudo_type_infinite_parallels():
    report = build_report(px="y^3", qy="-x*y^2", rz="0", m=Fraction(4),
                          grid=128)
    assert report["family"]["tag"] == "pseudo-type"
    assert report["parallels"]["infinite"] is True
    assert report["parallels"]["count_with_multiplicity"] == "infinite"
    assert len(report["first_integrals"]) == 2
    assert all(fi["verified"] for fi in report["first_integrals"])


def test_report_unclassified_degree_five():
    # bracket of the worked cubic pair has degree 5: on torus, no family tag
    report = build_report(px="x*y^3*z", qy="-2*x^2*y^2*z - y^4*z",
                          rz="8*x^2*y^3 + 8*y^5 - 2*y^3*z^2 - 30*y^3",
                          m=Fraction(4), grid=128)
    assert report["on_torus"] is True
    assert report["family"]["tag"] == "unclassified"
    assert report["bounds_check"]["degree"] == 5
    assert report["bounds_check"]["meridians_within_bound"] is True
    assert report["singular_set"]["numeric_only"] is True


def test_report_quadratic_periodic_blanket():
    report = build_report(px="(1/2)*x*z + y", qy="(1/2)*y*z - x",
                          rz="-a^2*(x^2+y^2)+z^2+a^4-1",
                          m=Fraction(4), grid=128)
    assert report["family"]["tag"] == "quadratic"
    assert report["singular_set"]["kind"] == "empty"
    for entry in report["meridians"]["planes"]:
        for mer in entry["meridians"]:
            assert mer["verdict"]["kind"] == "periodic-orbit"


def test_report_float_planes_reparse_or_null():
    report = build_report(px="(x^2 - 2*y^2)*y", qy="-(x^2 - 2*y^2)*x",
                          rz="0", m=Fraction(4), grid=128)
    planes = report["meridians"]["planes"]
    assert len(planes) == 2
    for entry in planes:
        assert entry["exact"] is False
        assert entry["plane_expr"] is None
        assert abs(entry["a"] ** 2 + entry["b"] ** 2 - 1.0) < 1e-12
        # K' = 0 on these meridians, so periodicity verdicts must attach
        for mer in entry["meridians"]:
            assert mer["verdict"]["kind"] == "not-periodic"


def test_report_bytes_repeat_across_m_and_grid():
    # the grid tables kept per (m, grid) must not leak into another m or grid
    bowl = dict(px="(y^2 + (z - 1/2)^2)*y", qy="-(y^2 + (z - 1/2)^2)*x", rz="0")
    kernels._surface_power.cache_clear()
    kernels.surface_angles.cache_clear()
    first = {}
    for m, grid in [(4, 512), (3, 512), (4, 512), (4, 200), (3, 200), (4, 512),
                    (3, 512), (4, 200), (3, 200)]:
        for name, field in (("worked", SECT5), ("bowl", bowl)):
            blob = report_json(build_report(m=Fraction(m), grid=grid, **field))
            assert first.setdefault((name, m, grid), blob) == blob
    assert len(first) == 8


def _stdlib_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("grid", [512, 200])
def test_report_json_is_the_stdlib_bytes(grid, tmp_path):
    # the named corpus at five m, and the report_corpus inputs of seeds 1-4
    specs = [spec for m in CONTRACT_MS for spec in corpus.named_corpus(m)]
    for seed in (1, 2, 3, 4):
        specs += workloads.ReportCorpus(seed, str(tmp_path)).inputs
    for spec in specs:
        report = build_report(spec.px, spec.qy, spec.rz, spec.m, grid=grid)
        assert report_json(report) == _stdlib_bytes(report), (spec.name, spec.m)


def test_report_json_matches_the_stdlib_on_every_value_kind():
    text = 'quote " backslash \\ controls \x00\x07\x1f\n\r\t\x7f non-ASCII \xe9 \u222e \U0001d517'
    obj = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1,
                   1e16, 123456789.125, np.float64(1 / 3)],
        "ints": [0, -1, 10 ** 40, -(10 ** 40)],
        "bools": [True, False],
        "none": None,
        "empty": {"dict": {}, "list": [], "nested": {"b": [[]], "a": {}, "c": [{}, []]}},
        "tuple": (1, (2.5, "t"), ()),
        text: text,
        "": [text, ""],
        "numpy": np.float64(-2.5),
    }
    assert report_json(obj) == _stdlib_bytes(obj)
    assert report_json({}) == _stdlib_bytes({})
    for bad in ({1: "int key"}, {"set": {1}}):
        with pytest.raises(TypeError):
            report_json(bad)


@pytest.mark.parametrize("m", CONTRACT_MS)
def test_report_polynomials_match_the_scalar_reference(m, monkeypatch):
    # every polynomial and constant a named-corpus report writes
    report_module = importlib.import_module("torusfields.report")
    serialize = report_module.serialize
    seen = []

    def checked(p):
        seen.append(p)
        text = serialize(p)
        assert text == reference_serialize(p)
        return text

    monkeypatch.setattr(report_module, "serialize", checked)
    for spec in corpus.named_corpus(m):
        build_report(spec.px, spec.qy, spec.rz, m, grid=64)
    assert len(seen) > 50


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3)])
def test_singular_points_reads_the_rotation_off_the_tag(m, monkeypatch):
    # recognize finds A once; the singular stage never looks for it again
    cases = []
    for spec in corpus.named_corpus(m):
        field = VectorField(*(parse(c, m) for c in (spec.px, spec.qy, spec.rz)))
        tag = recognize(field, m)
        cases.append((spec.name, field, tag, report_json(singular_entry(field, tag, m, 64))))

    def no_rotation_shape(field):
        raise AssertionError("rotation shape looked for again")

    monkeypatch.setattr(families, "_rotation_shape", no_rotation_shape)
    for name, field, tag, want in cases:
        assert report_json(singular_entry(field, tag, m, 64)) == want, name


def test_meridians_entry_pairs_each_plane_with_its_verdicts():
    # two near-equal planes of opposite stability: a plane given its
    # neighbour's pair would read the other stability
    m = Fraction(4)
    px, qy, rz = corpus.cubic_strings("1", "(y - x)*(y - (1 + 1/10^8)*x)")
    field = VectorField(*(parse(c, m) for c in (px, qy, rz)))
    tag = recognize(field, m)
    planes = invariant_meridians(field).planes
    pairs = meridian_periodicity(tag.params, m, planes)
    block = meridians_entry(field, tag, m)
    assert len(block["planes"]) == len(planes) == len(pairs) == 2
    for entry, (plane, _), pair in zip(block["planes"], planes, pairs):
        assert (entry["a"], entry["b"]) == (plane.a, plane.b)
        assert [mer["angle"] for mer in entry["meridians"]] == \
            [plane.angle(), plane.angle() + math.pi]
        assert [(mer["verdict"]["kind"], mer["verdict"]["stability"])
                for mer in entry["meridians"]] == \
            [(v.kind.value, v.stability) for v in pair]
    assert [v.stability for pair in pairs for v in pair] == \
        ["unstable", "unstable", "stable", "stable"]
