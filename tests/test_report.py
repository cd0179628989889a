import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torusfields import Verdict, build_report, kernels, parse, report_json

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
