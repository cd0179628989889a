"""Spans around the package's public functions, recorded from outside.

``install`` rebinds every name under which a traced function is reachable
in a ``torusfields`` module (its own module and each import site) to a
wrapper; ``uninstall`` puts the originals back.  A wrapper records a span
only while ``Recorder.op_id`` is set, that is inside a timed op, so checks
and set-up run untraced.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Public functions that are layer boundaries, by module.  ``scalars`` and
# ``poly`` are too fine-grained to wrap: their cost is the self time of the
# layers that call them.
TRACED = {
    "kernels": ("eval_grid", "eval_point", "rk4_orbit", "compile_poly"),
    "dynamics": ("singular_points", "meridian_periodicity", "parallel_periodicity"),
    "integrate": ("integrate", "export", "trajectory_from_json"),
    "parsing": ("parse",),
    "vfield": ("cofactor_on_torus", "lie_bracket", "check_first_integral"),
    "families": ("recognize", "verified_first_integrals"),
    "curves": ("invariant_meridians", "invariant_parallels"),
    "roots": ("real_roots", "dense_scan_roots"),
    "report": ("build_report", "report_json"),
    "cli": ("main",),
}

# Functions that call other traced functions, so their self time differs
# from their total time.
WITH_CHILDREN = (
    "cli.main", "report.build_report", "dynamics.singular_points",
    "dynamics.meridian_periodicity", "dynamics.parallel_periodicity",
    "integrate.integrate", "families.recognize",
    "families.verified_first_integrals", "curves.invariant_meridians",
    "curves.invariant_parallels",
)


def _eval_grid_counts(result):
    return {"cells": int(np.asarray(result).size)}


def _rk4_counts(result):
    states, overflow = result
    return {"steps": int(states.shape[0] - 1 if overflow < 0 else overflow)}


def _export_counts(result):
    return {"bytes": len(result)}


def _inventory_counts(result):
    return {"inventories": 1, "fallback_scans": int(result.fallback_scan)}


COUNTERS = {
    "kernels.eval_grid": _eval_grid_counts,
    "kernels.rk4_orbit": _rk4_counts,
    "integrate.export": _export_counts,
    "curves.invariant_meridians": _inventory_counts,
    "curves.invariant_parallels": _inventory_counts,
}


class Recorder:
    """Flat in-memory span store: name, start, end, parent and op per span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[int, dict[str, int]] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.ops_run = 0
        self.bindings: list[tuple[object, str, object, object]] = []

    def begin(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_op(self, fn, *args):
        """Run one op under a root span named ``op``, with a new op id."""
        self.op_id = self.ops_run
        self.ops_run += 1
        idx = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.finish(idx)
            self.op_id = -1

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if counter is not None:
                self.counts[idx] = counter(result)
            return result

        return traced

    # -- installing wrappers at import sites ---------------------------------

    def install(self) -> None:
        if not self.bindings:
            modules = [mod for key, mod in sys.modules.items()
                       if mod is not None and (key == "torusfields"
                                               or key.startswith("torusfields."))]
            for short, funcs in TRACED.items():
                home = sys.modules[f"torusfields.{short}"]
                for func in funcs:
                    original = getattr(home, func)
                    wrapper = self.wrap(f"{short}.{func}", original)
                    self.bindings += [(mod, attr, original, wrapper)
                                      for mod in modules
                                      for attr, value in vars(mod).items()
                                      if value is original]
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)

    # -- aggregation and output -----------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Totals over the recorded spans: name -> (value, unit)."""
        n = len(self.start)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name_of, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, tuple[float, str]] = {}
        for short, funcs in TRACED.items():
            for func in funcs:
                name = f"{short}.{func}"
                nid = self.name_ids.get(name)
                sel = names == nid if nid is not None else np.zeros(n, dtype=bool)
                out[f"{name}.ms"] = (float(dur[sel].sum() * 1e3), "ms")
                out[f"{name}.calls"] = (int(sel.sum()), "count")
                if name in WITH_CHILDREN:
                    out[f"{name}.self_ms"] = (
                        float((dur[sel] - child[sel]).sum() * 1e3), "ms")
        totals: dict[str, int] = defaultdict(int)
        for idx, counts in self.counts.items():
            name = self.names[self.name_of[idx]]
            for key, value in counts.items():
                totals[f"{name}.{key}"] += value
        inventories = (totals["curves.invariant_meridians.inventories"]
                       + totals["curves.invariant_parallels.inventories"])
        fallbacks = (totals["curves.invariant_meridians.fallback_scans"]
                     + totals["curves.invariant_parallels.fallback_scans"])
        out["kernels.eval_grid.cells"] = (totals["kernels.eval_grid.cells"], "count")
        out["kernels.rk4_orbit.steps"] = (totals["kernels.rk4_orbit.steps"], "count")
        out["integrate.export.bytes"] = (totals["integrate.export.bytes"], "bytes")
        out["curves.fallback_scan_frac"] = (
            fallbacks / inventories if inventories else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        """One JSON line per span; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            for idx in range(len(self.start)):
                row = {"name": self.names[self.name_of[idx]], "op": self.op[idx],
                       "parent": self.parent[idx],
                       "start": self.start[idx] - t0, "end": self.end[idx] - t0}
                if idx in self.counts:
                    row.update(self.counts[idx])
                fh.write(json.dumps(row) + "\n")
