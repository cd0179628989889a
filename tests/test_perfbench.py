"""Smoke test of the benchmark harness in perfbench/.

One op of each workload runs and passes its hand-written check, and the
trace wrappers install over, and uninstall from, every traced function,
as ``perfbench/run.py --trace 1`` does.
"""

import importlib
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import torusfields as tf
from torusfields import GridResolutionWarning

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_op(workload, inp, op=None):
    """The op's result and the mismatches its check finds."""
    raw = (op or workload.op)(inp)
    return raw, workload.check(inp, raw, workload.output(inp, raw))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_input_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    assert run_op(workload, workload.inputs[0])[1] == []
    if name == "exact_sweep":
        # a quadratic draw brackets with its partner and checks br.terms
        quadratic = next(inp for inp in workload.inputs if inp.partner is not None)
        raw, bad = run_op(workload, quadratic)
        assert raw.bracket is not None
        assert bad == []


def test_report_corpus_pass_fires_no_grid_resolution_warning(tmp_path):
    # the named corpus at m = 4 and 3 and the seed-1 draws, each checked
    workload = workloads.WORKLOADS["report_corpus"](1, str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for inp in workload.inputs:
            assert run_op(workload, inp)[1] == []
    assert len(workload.inputs) == 28
    assert not [w for w in caught if issubclass(w.category, GridResolutionWarning)]


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_named_corpus_reports_match_the_hand_written_facts(m):
    # singular kinds, counts and classes, and points within 1e-8
    for spec in corpus.named_corpus(m):
        report = tf.build_report(spec.px, spec.qy, spec.rz, m, grid=512)
        assert workloads.check_report(spec, 0, tf.report_json(report)) == []


def test_traced_names_resolve_and_uninstall(tmp_path):
    homes = {short: importlib.import_module(f"torusfields.{short}")
             for short in spans.TRACED}
    originals = {(short, func): getattr(homes[short], func)
                 for short, funcs in spans.TRACED.items() for func in funcs}
    assert all(callable(fn) for fn in originals.values())

    workload = workloads.WORKLOADS["orbit"](1, str(tmp_path))
    rec = spans.Recorder()
    rec.install()
    try:
        _, bad = run_op(workload, workload.inputs[0],
                        lambda inp: rec.run_op(workload.op, inp))
    finally:
        rec.uninstall()
    assert bad == []
    assert "integrate.integrate" in rec.names
    assert all(getattr(homes[short], func) is fn
               for (short, func), fn in originals.items())
