#!/usr/bin/env python3
"""torusfields benchmark: three closed-loop, single-thread workloads.

Run from the repository root:

    python3 perfbench/run.py --workload report_corpus --seed 1 --seconds 15 --trace 0

``--trace 0`` times whole passes over the seeded inputs until ``--seconds``
have passed and prints the end-to-end metrics, with times scaled by a fixed
reference slice timed around them.  ``--trace 1`` runs a fixed
number of untraced and traced passes instead, so its counts repeat exactly,
and prints the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 13
# Op times are scaled to a machine on which one reference slice takes
# REF_SLICE_MS; a slice runs after every REF_EVERY_S of op time.
REF_SLICE_MS = 2.0
REF_EVERY_S = 0.02
FLIP_S = 0.1    # how fast the machine's speed flips; see op_references
# Before each set-up probe, reference slices run for this long.
SETUP_SLICES_S = 0.2
# One thread for the numeric libraries: the workloads are single-threaded, and
# idle BLAS threads started at import compete for the few cores of a shared
# machine.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("report_corpus", "exact_sweep", "orbit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, run the warm-up op, print 'ready' and exit")
    return ap.parse_args(argv)


def import_package():
    """Import torusfields from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import torusfields

    where = Path(torusfields.__file__).resolve().parent
    if where != (SRC / "torusfields").resolve():
        raise ImportError(f"torusfields imported from {where}, not from {SRC}")
    return torusfields


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(tf) -> dict:
    import numpy

    numba = find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": numba,
        "kernels_backend": tf.kernels.backend(),
        "TORUSFIELDS_NUMBA": os.environ.get("TORUSFIELDS_NUMBA"),
        "numba_numbers": "measured" if numba else "unverified (numba absent)",
        "git_sha": git_sha(),
    }


class Tally:
    """Op times, failures and per-input output digests of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int, inp, op=None) -> float:
        """Time one op (``op`` defaults to the workload's), then check it."""
        w = self.workload
        t0 = time.perf_counter()
        try:
            raw = (op or w.op)(inp)
        except Exception as exc:  # an op that raises counts as failed
            self.attempted += 1
            self.failures.append(f"input {index}: raised {exc!r}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        try:
            blob = w.output(inp, raw)
            bad = w.check(inp, raw, blob)
        except Exception as exc:  # output the check cannot read is wrong
            blob, bad = b"", [f"input {index}: check raised {exc!r}"]
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            bad.append(f"input {index}: output differs from its first pass")
        if bad:
            self.failures.append("; ".join(bad))
        return elapsed

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.digests):
            h.update(self.digests[index].encode())
        return h.hexdigest()


def reference_slice(grid: bool) -> float:
    """Seconds taken by fixed work that does not touch the package.

    The CPU speed of a shared machine changes by up to 2x, both within
    tenths of a second and over minutes, and not alike for all kinds of
    work: interpreter-bound code slows more than array arithmetic that waits
    on memory.  The ratio of op time to the time of a slice shaped like the
    ops, measured around them, changes much less.  Every slice has an
    interpreter loop, Fraction arithmetic and float formatting; a ``grid``
    slice adds array arithmetic over 512 x 512 cells, as the singular-set
    scan does, and the other slice numpy calls on tiny arrays, as RK4 steps
    do.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(8000 if grid else 4000):
        acc += i * i
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(i, i + 1)
    ",".join("%.17g" % (i / 7.0) for i in range(350))
    if grid:
        v = np.linspace(0.0, 1.0, 512 * 512)
        v *= v
        v += 0.5
        (v > 1.0).sum()
    else:
        v = np.arange(3.0)
        for _ in range(120):
            v = v + 0.5 * np.sin(v)
        np.sin(np.arange(16384.0)).sum()
    return time.perf_counter() - t0


def op_references(times: list[float], before: list[int],
                  slices: list[float]) -> list[float]:
    """The slice time each op is scaled by.

    The machine's speed flips within about FLIP_S.  An op much shorter
    than that runs at the speed of the moment, best seen in the two slices
    before it and the two after it; an op much longer averages over the
    flips, best seen in the median slice of the whole run.  The reference is
    a geometric blend of the two, weighted FLIP_S : op time.
    """
    whole = statistics.median(slices)
    refs = []
    for t, k in zip(times, before):
        near = statistics.median(slices[max(0, k - 2):k + 2])
        w = FLIP_S / (FLIP_S + t)
        refs.append(near ** w * whole ** (1.0 - w))
    return refs


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(times)
    pct = max([p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0],
              default=50.0)
    return float(np.percentile(times, pct)), pct, int(n * (1.0 - pct / 100.0))


def measure_setup(args, grid: bool) -> tuple[list[float], list[float]]:
    """Fresh interpreters, each timed until its warm-up op is done.

    Between two probes this process times reference slices for about
    SETUP_SLICES_S, so the slices sample the machine's speed over the same
    stretch of time as the probes.  Returns the set-up and slice times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    setup, slices = [], []
    for _ in range(SETUP_SAMPLES):
        end = time.perf_counter() + SETUP_SLICES_S
        while time.perf_counter() < end:
            slices.append(reference_slice(grid))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        setup.append(elapsed)
    return setup, slices


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(SINGLE_THREAD_ENV)
    try:
        tf = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import torusfields: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    first = workload.inputs[0]
    workload.output(first, workload.op(first))     # untimed warm-up op
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tally = Tally(workload)
    raw: dict = {}      # unscaled timings, written to the result file only
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "trace": args.trace, "inputs_per_pass": len(workload.inputs)}
    if args.trace:
        import spans

        rec = spans.Recorder()
        traced_op = functools.partial(rec.run_op, workload.op)
        plain, traced = [], []
        # Each input runs untraced and traced back to back, in alternating
        # order, so both medians see the same phases of machine speed.
        for p in range(workload.trace_passes):
            for i, inp in enumerate(workload.inputs):
                for with_spans in ((False, True) if (i + p) % 2 else (True, False)):
                    if not with_spans:
                        plain.append(tally.run(i, inp))
                        continue
                    rec.install()
                    try:
                        traced.append(tally.run(i, inp, traced_op))
                    finally:
                        rec.uninstall()
        metrics = rec.layer_metrics()
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        details["traced_ops"] = len(traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        times: list[float] = []
        grid = workload.grid_bound
        slices = [reference_slice(grid)]
        before: list[int] = []    # slices taken before op i started
        since_slice = 0.0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            for i, inp in enumerate(workload.inputs):     # whole passes only
                before.append(len(slices))
                times.append(tally.run(i, inp))
                since_slice += times[-1]
                while since_slice >= REF_EVERY_S:
                    slices.append(reference_slice(grid))
                    since_slice -= REF_EVERY_S
        slices.append(reference_slice(grid))
        raw.update(op_s=times, slices_before_op=before, slice_s=slices)
        scaled = [t * REF_SLICE_MS / (r * 1e3)
                  for t, r in zip(times, op_references(times, before, slices))]
        ok = tally.attempted - len(tally.failures)
        tail_s, pct, beyond = tail(scaled)
        setup, setup_slices = measure_setup(args, grid)
        # The mean, not the median: slice times flip between a fast and a
        # slow speed, and the mean follows the share of slow time.
        setup_slice_ms = statistics.fmean(setup_slices) * 1e3
        setup_scale = REF_SLICE_MS / setup_slice_ms
        raw.update(setup_s=setup, setup_slice_s=setup_slices)
        wall = {"op_ms_p50": statistics.median(times) * 1e3, "op_ms_tail": tail(times)[0] * 1e3,
                "ops_per_s": ok / sum(times), "setup_s": statistics.median(setup)}
        metrics = {
            "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "op_ms_tail": (tail_s * 1e3, "ms"),
            "ops_per_s": (ok / sum(scaled), "1/s"),
            "setup_s": (wall["setup_s"] * setup_scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        slice_ms = statistics.median(slices) * 1e3
        details.update(tail_percentile=pct, tail_samples_beyond=beyond,
                       samples=len(times), setup_samples_s=setup, wall=wall,
                       reference_slice_ms=slice_ms, reference_slices=len(slices),
                       time_scale=REF_SLICE_MS / slice_ms,
                       setup_reference_slice_ms=setup_slice_ms,
                       setup_time_scale=setup_scale)

    defect = workloads.square_m_probe(str(OUT_DIR), args.seed)
    if args.trace:
        metrics["known_defect_failures"] = (int(bool(defect)), "count")
    details.update(env=environment(tf), outputs_sha256=tally.digest(),
                   failed_frac=len(tally.failures) / tally.attempted,
                   square_m_probe=defect or "matches the paper (fixed)",
                   failures=tally.failures[:MAX_FAILURES_SHOWN])

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':42s} {details['failed_frac']:>16.6g} "
          f"({len(tally.failures)}/{tally.attempted} ops)")
    if not args.trace:
        print(f"op_ms_tail is p{details['tail_percentile']:g} of "
              f"{details['samples']} ops ({details['tail_samples_beyond']} beyond)")
    for failure in details["failures"]:
        print(f"FAILED: {failure}")
    if defect:
        print(f"known defect (square m, worked cubic with 2*a at m = 4): {defect[0]}")
    print("details: " + json.dumps(details, sort_keys=True))
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "details": details, "raw": raw}, fh, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
