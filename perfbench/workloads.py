"""The three workloads: seeded inputs, the timed op and its output check.

Each workload exposes ``inputs`` (one pass), ``op(inp)`` (the timed unit of
work), ``output(inp, raw)`` (the serialized output, for digests) and
``check(inp, raw, blob)`` (a list of mismatches against the hand-written
expectations in ``corpus``; empty when the output is right), and
``grid_bound``, true when array arithmetic over grids dominates the ops,
which picks the reference slice their times are scaled by.  Every call
into the package goes through the ``torusfields`` module attributes, so the
traced run sees it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import torusfields as tf
import torusfields.cli  # noqa: F401  (tf.cli.main is the report op)

import corpus
from corpus import Spec

GRID = "512"


def _count(value) -> int | str:
    return "infinite" if value == math.inf else int(value)


def _points_match(got: list, want: list, tol: float) -> bool:
    got = sorted(tuple(p) for p in got)
    return len(got) == len(want) and all(
        max(abs(g - w) for g, w in zip(gp, wp)) < tol
        for gp, wp in zip(got, want))


# -- report_corpus ---------------------------------------------------------------


def report_argv(spec: Spec, seed: int, out: str) -> list[str]:
    return ["report", "--px", spec.px, "--qy", spec.qy, "--rz", spec.rz,
            "--m", str(spec.m), "--grid", GRID, "--seed", str(seed),
            "--out", out]


def take_report(out: str) -> bytes:
    """The report written to ``out`` (empty if none), removing the file."""
    if not os.path.exists(out):
        return b""
    with open(out, "rb") as fh:
        blob = fh.read()
    os.remove(out)
    return blob


def check_report(spec: Spec, rc: int, blob: bytes) -> list[str]:
    if not blob:
        return [f"{spec.name} m={spec.m}: no report written (exit {rc})"]
    rep = json.loads(blob)
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{spec.name} m={spec.m}: {what} is {got!r}, want {want!r}")

    m = spec.m
    expect("exit code", rc, 0)
    expect("schema", rep.get("schema"), "torus-fields/1")
    expect("on_torus", rep.get("on_torus"), True)
    if bad:
        return bad
    for key, text in zip("PQR", (spec.px, spec.qy, spec.rz)):
        expect(f"field.{key} re-parsed", tf.parse(rep["field"][key], m) == tf.parse(text, m), True)
    expect("cofactor", tf.parse(rep["cofactor"], m) == tf.parse(spec.cofactor, m), True)
    expect("family", rep["family"]["tag"], spec.family)
    mer, par = rep["meridians"], rep["parallels"]
    expect("meridian count", mer["count_with_multiplicity"], spec.meridians)
    expect("parallel count", par["count_with_multiplicity"], spec.parallels)
    fis = rep["first_integrals"]
    expect("first integrals", [f["verified"] for f in fis], [True] * spec.integrals)
    bounds = rep["bounds_check"]
    expect("degree", bounds["degree"], spec.degree)
    if spec.meridians != "infinite":
        expect("meridians within 2(n-1)", spec.meridians <= 2 * (spec.degree - 1)
               and bounds["meridians_within_bound"], True)

    sing, want = rep["singular_set"], spec.singular
    expect("singular kind", sing["kind"], want["kind"])
    if want["kind"] == "curves":
        expect("singular curve components", sing["curve_components"], want["components"])
        expect("singular points", sing["points"], [])
    if "points" in want:
        got = [p["point"] for p in sing["points"]]
        expect("singular points", _points_match(got, want["points"], 1e-8), True)
    if "class" in want:
        expect("singular classes", {p["class"] for p in sing["points"]}, {want["class"]})
    if "min_speed_above" in want:
        expect("grid minimum speed above bound",
               (sing["grid_min_speed"] or 0.0) > want["min_speed_above"], True)

    if spec.meridian_verdicts is not None:
        merids = sorted((mm for pl in mer["planes"] for mm in pl["meridians"]),
                        key=lambda mm: mm["angle"])
        expect("meridian verdicts",
               [(mm["verdict"]["kind"], mm["verdict"].get("stability")) for mm in merids],
               spec.meridian_verdicts)
    if spec.parallel_verdicts is not None:
        expect("parallel verdicts",
               [pl["verdict"]["kind"] for pl in sorted(par["planes"], key=lambda p: p["k"])],
               spec.parallel_verdicts)
    return bad


class ReportCorpus:
    """In-process ``torusfields report`` over the named corpus plus draws."""

    name = "report_corpus"
    trace_passes = 2
    grid_bound = True

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.out = os.path.join(workdir, f"report-{os.getpid()}.json")
        specs = corpus.named_corpus(Fraction(4)) + corpus.named_corpus(Fraction(3))
        # Twelve cheap quadratic draws put the median op inside the band of
        # quadratic and bowl reports rather than on the edge between two
        # field types, where it would jump from run to run.
        specs += [corpus.draw_quadratic(rng, Fraction(rng.choice((4, 3))))
                  for _ in range(12)]
        specs += [corpus.draw_kolmogorov(rng, Fraction(rng.choice((4, 3))))
                  for _ in range(2)]
        self.inputs = specs

    def op(self, spec: Spec) -> int:
        return tf.cli.main(report_argv(spec, self.seed, self.out))

    def output(self, spec: Spec, rc: int) -> bytes:
        return take_report(self.out)

    def check(self, spec: Spec, rc: int, blob: bytes) -> list[str]:
        return check_report(spec, rc, blob)


def square_m_probe(workdir: str, seed: int) -> list[str]:
    """Mismatches of the worked cubic written with 2*a at m = 4.

    2*a equals a^2 when m = 4, so the paper's facts for the worked cubic
    apply unchanged; an empty list means the square-m defect is fixed.
    """
    spec = corpus.square_m_probe()
    out = os.path.join(workdir, f"probe-{os.getpid()}.json")
    rc = tf.cli.main(report_argv(spec, seed, out))
    return check_report(spec, rc, take_report(out))


# -- exact_sweep -----------------------------------------------------------------


@dataclass
class SweepInput:
    spec: Spec
    components: tuple[str, str, str]           # canonical serialized P, Q, R
    partner: tuple[str, str, str] | None       # previous quadratic at this m
    cofactor: object                           # expected K as a MultiPoly


@dataclass
class SweepResult:
    cof: object
    tag: object
    meridians: object
    parallels: object
    integrals: list
    bracket: tuple | None


class ExactSweep:
    """Exact analysis of seeded random fields; no float grid at all."""

    name = "exact_sweep"
    trace_passes = 1
    grid_bound = False
    PER_KIND = 300
    MS = (Fraction(4), Fraction(3), Fraction(9, 2))

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        specs = []
        for i in range(self.PER_KIND):
            m = self.MS[i % 3]
            specs.append(corpus.draw_quadratic(rng, m))
            specs.append(corpus.draw_kolmogorov(rng, m))
            specs.append(corpus.draw_four_meridian_cubic(rng, m))
            specs.append(corpus.draw_pseudo_type(rng, m, 2 + i % 5))
        rng.shuffle(specs)
        self.surfaces = {m: tf.TorusSurface(m) for m in self.MS}
        one = tf.MultiPoly.constant(1)
        self.rotation_integrals = {
            m: [tf.RationalFn(tf.parse("x^2 + y^2", m), one),
                tf.RationalFn(tf.parse("z", m), one)] for m in self.MS}
        canon = [tuple(tf.serialize(tf.parse(s, sp.m)) for s in (sp.px, sp.qy, sp.rz))
                 for sp in specs]
        quadratics = [i for i, sp in enumerate(specs) if sp.name == "quadratic-draw"]
        partners = {}
        for m in self.MS:
            same = [i for i in quadratics if specs[i].m == m]
            for k, i in enumerate(same):
                partners[i] = same[k - 1]       # the first pairs with the last
        self.inputs = [
            SweepInput(sp, canon[i], canon[partners[i]] if i in partners else None,
                       tf.parse(sp.cofactor, sp.m))
            for i, sp in enumerate(specs)]

    def op(self, inp: SweepInput) -> SweepResult:
        m = inp.spec.m
        field = tf.VectorField(*(tf.parse(c, m) for c in inp.components))
        cof = tf.cofactor_on_torus(field, self.surfaces[m])
        tag = tf.recognize(field, m)
        meridians = tf.invariant_meridians(field)
        parallels = tf.invariant_parallels(field)
        integrals = tf.verified_first_integrals(field, tag, m)
        bracket = None
        if inp.partner is not None:
            other = tf.VectorField(*(tf.parse(c, m) for c in inp.partner))
            br = tf.lie_bracket(field, other)
            bracket = (br, tf.cofactor_on_torus(br, self.surfaces[m]),
                       [tf.check_first_integral(br, h)
                        for h in self.rotation_integrals[m]])
        return SweepResult(cof, tag, meridians, parallels, integrals, bracket)

    def output(self, inp: SweepInput, res: SweepResult) -> bytes:
        ser = tf.serialize
        lines = [
            ser(res.cof.K) if res.cof.on_torus else "not-on-torus",
            res.tag.family.value,
            repr((res.meridians.infinite, res.meridians.fallback_scan,
                  [(pl.a, pl.b, pl.exact, k) for pl, k in res.meridians.planes])),
            repr((res.parallels.infinite, res.parallels.fallback_scan,
                  [(pl.k, pl.exact, k) for pl, k in res.parallels.planes])),
            repr([(ser(h.num), ser(h.den), ok) for h, ok in res.integrals]),
        ]
        if res.bracket is not None:
            br, bcof, oks = res.bracket
            lines.append(repr(([ser(c) for c in br.components()], bcof.on_torus, oks)))
        return "\n".join(lines).encode()

    def check(self, inp: SweepInput, res: SweepResult, blob: bytes) -> list[str]:
        spec, bad = inp.spec, []

        def expect(what, got, want):
            if got != want:
                bad.append(f"{spec.name} m={spec.m} {inp.components}: "
                           f"{what} is {got!r}, want {want!r}")

        expect("on torus", res.cof.on_torus, True)
        expect("cofactor matches", res.cof.on_torus and res.cof.K == inp.cofactor, True)
        expect("family", res.tag.family.value, spec.family)
        mer, par = res.meridians, res.parallels
        expect("meridian count", _count(mer.meridian_count()), spec.meridians)
        if not mer.infinite:
            expect("meridians within 2(n-1)",
                   mer.meridian_count() <= 2 * (spec.degree - 1), True)
        if spec.exact_planes is not None and not mer.infinite:
            expect("exact meridian planes", sum(pl.exact for pl, _ in mer.planes),
                   spec.exact_planes)
            expect("float meridian planes", sum(not pl.exact for pl, _ in mer.planes),
                   spec.float_planes)
        expect("parallel count", _count(par.parallel_count()), spec.parallels)
        expect("first integrals verified", [ok for _, ok in res.integrals],
               [True] * spec.integrals)
        if res.bracket is not None:
            br, bcof, oks = res.bracket
            expect("bracket R", br.R.is_zero(), True)
            # rotation shape: P = A*y, Q = -A*x with deg A <= 2 (criterion 3)
            a_terms = {(i, j - 1, k): c for (i, j, k), c in br.P.terms.items()}
            expect("bracket P divisible by y",
                   all(j >= 0 for _, j, _ in a_terms), True)
            expect("bracket Q = -A*x",
                   br.Q.terms == {(i + 1, j, k): -c for (i, j, k), c in a_terms.items()},
                   True)
            expect("bracket deg A <= 2", all(sum(e) <= 2 for e in a_terms), True)
            expect("bracket on torus", bcof.on_torus, True)
            expect("bracket integrals x^2+y^2, z", oks, [True, True])
        return bad


# -- orbit -----------------------------------------------------------------------


@dataclass
class OrbitInput:
    spec: Spec
    field: object
    start: tuple[float, float, float]
    project: bool


class Orbit:
    """RK4 orbits from seeded on-torus starts, then CSV/JSON export."""

    name = "orbit"
    trace_passes = 10
    grid_bound = False
    STEPS = 600
    DT = 1e-3
    M = Fraction(4)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        named = {s.name: s for s in corpus.named_corpus(self.M)}
        # K' = 2, f = x + 1: a quadratic whose step costs about what the
        # other two cost, so the median op does not sit between cost levels.
        specs = [named["kolmogorov"], named["worked-cubic"],
                 corpus.quadratic("quadratic", self.M, 2, (1, 1, 0, 0))]
        self.inputs = []
        for spec in specs:
            field = tf.VectorField(*(tf.parse(s, self.M) for s in (spec.px, spec.qy, spec.rz)))
            for project in (False, True):
                theta, phi = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
                r = math.sqrt(float(self.M) + math.cos(phi))
                start = (r * math.cos(theta), r * math.sin(theta), math.sin(phi))
                self.inputs.append(OrbitInput(spec, field, start, project))

    def op(self, inp: OrbitInput):
        traj = tf.integrate(inp.field, inp.start, self.STEPS * self.DT, self.DT,
                            self.M, project=inp.project)
        csv = tf.export(traj, "csv")
        js = tf.export(traj, "json")
        return traj, csv, js, tf.trajectory_from_json(js)

    def output(self, inp: OrbitInput, raw) -> bytes:
        return raw[1] + raw[2]

    def check(self, inp: OrbitInput, raw, blob: bytes) -> list[str]:
        traj, csv, _, back = raw
        bad = []

        def expect(what, got, want):
            if got != want:
                bad.append(f"orbit {inp.spec.name} project={inp.project}: "
                           f"{what} is {got!r}, want {want!r}")

        data = traj.data
        expect("samples", data.shape, (self.STEPS + 1, 6))
        expect("start", tuple(float(v) for v in data[0, 1:4]), inp.start)
        lines = csv.decode().splitlines()
        expect("csv header", lines[0], "t,x,y,z,theta,phi")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        expect("csv round trip", np.array_equal(rows, data), True)
        expect("json round trip", np.array_equal(back.data, data)
               and back.m == float(self.M) and back.projected == inp.project, True)
        x, y, z = data[:, 1], data[:, 2], data[:, 3]
        rho = x * x + y * y
        f = (rho - float(self.M)) ** 2 + z * z - 1.0
        expect("torus drift below 1e-6", float(np.max(np.abs(f))) < 1e-6, True)
        if inp.spec.integrals:      # F/(x^2+y^2)^2 is conserved (criterion 11)
            h = f / (rho * rho)
            expect("first-integral drift below 1e-6",
                   float(np.max(np.abs(h - h[0]))) < 1e-6, True)
        return bad


WORKLOADS = {w.name: w for w in (ReportCorpus, ExactSweep, Orbit)}
