"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload lattice-1d --seed 0 --seconds 30 --trace 0

Each run is a closed loop in fresh worker processes (``worker.py``), with
BLAS/OpenMP threads pinned and ``REDUCE_THREADS`` unset:

* ``--trace 0``: fresh workers in turn each run a cold pass and one warm
  pass, while the next should end within ``--seconds``; one more
  reproduces the known-defect probes.  Reports the end-to-end metrics:
  medians over the workers of times normalised to an uncontended host
  (``calibrate.py``).
* ``--trace 1``: one worker runs a cold pass, then untraced and traced
  passes in turn, twice each (``worker.role_trace``).  Reports the
  per-layer metrics and the tracing overhead (fastest traced minus
  fastest untraced pass), and fails if a span that the workload must
  enter never fired or if the two traced passes count different work.

The last line of standard output is the result object; the line before it
carries the detail (quartiles, probe outcomes, environment), which is also
written to ``.bench_out/<workload>/result.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads: this process runs calibrations too, and the
# workers inherit its environment.
os.environ.pop("REDUCE_THREADS", None)
os.environ.update({var: BLAS_THREADS for var in THREAD_VARS},
                  PYTHONHASHSEED="0")

from calibrate import (CALIBRATE_REFERENCE_S, PROBE_REFERENCE_S,  # noqa: E402
                       calibrate, normalised)
# Pass workers start while the next one should end within --seconds,
# and never fewer than this.
MIN_PASS_WORKERS = 3
WORKER_TIMEOUT_S = 90.0
SPANS_TIMED = (
    "reduction.duhamel_curve", "comparator.apply_comparator",
    "comparator.within_magnitude", "comparator.hermite_functions",
    "grid.propagate", "grid.expectation_a", "packets.approximate_flow",
    "packets.sample_on_grid", "classical.integrate_flow",
    "reduction.assemble_bounds", "reduction.run_grid",
    "reduction.run_reduction", "cli.run", "cli.emit_report")
# The modes-1d entry points report calls, not self time: their work sits
# in the spans above, and a time that reads 0.0 on every run of the other
# workloads would look like a broken clock.
SPANS_COUNTED = (
    "comparator.apply_comparator", "comparator.within_magnitude",
    "comparator.hermite_coefficients", "comparator.hermite_functions",
    "packets.sample_on_grid", "reduction.squeeze_sweep",
    "reduction.ehrenfest_run", "spectral.classify_quantum",
    "scaling.hepp_experiment")
COUNTERS = (
    "reduction.duhamel_curve.points", "grid.propagate.steps",
    "grid.propagate.cell_steps", "classical.integrate_flow.steps",
    "reduction.assemble_bounds.snapshots",
    "scaling.hepp_experiment.failed_rows", "cli.emit_report.bytes")


class WorkerError(RuntimeError):
    pass


def spawn(role: str, args) -> tuple:
    """Run one worker; returns (seconds until READY, RESULT payload)."""
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--root", str(ROOT),
           "--out", str(args.out), "--workload", args.workload,
           "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or result is None:
        raise WorkerError(f"{role} worker exited {code}")
    return ready, result


def setup_normalised(setup_s: float, *cals: float) -> float:
    """Set-up seconds, normalised by full calibrations taken around it."""
    return normalised(setup_s, statistics.fmean(cals), CALIBRATE_REFERENCE_S)


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": {var: BLAS_THREADS for var in THREAD_VARS},
            "REDUCE_THREADS": None, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_untraced(args) -> tuple:
    setups, colds, warms, rss, problems = [], [], [], [], {}
    units = {"cold": {}, "warm": {}}
    raw = {"setup_s": [], "cold_s": [], "warm_s": [], "sample_s": []}
    start = time.perf_counter()
    worker_s = 0.0
    # Start another worker only if it should end within --seconds.
    while (len(colds) < MIN_PASS_WORKERS
           or time.perf_counter() - start + worker_s <= args.seconds):
        spawned = time.perf_counter()
        before = calibrate()
        setup_s, passes = spawn("passes", args)
        worker_s = time.perf_counter() - spawned
        setups.append(setup_normalised(setup_s, before, passes["setup_cal_s"]))
        raw["setup_s"].append(setup_s)
        raw["sample_s"].append(passes["sample_s"])
        for kind, totals, sample_s in zip(("cold", "warm"), (colds, warms),
                                          passes["sample_s"]):
            seconds = passes[kind]
            totals.append(normalised(sum(seconds.values()), sample_s,
                                     PROBE_REFERENCE_S))
            raw[f"{kind}_s"].append(sum(seconds.values()))
            for unit, unit_s in seconds.items():
                units[kind].setdefault(unit, []).append(
                    normalised(unit_s, sample_s, PROBE_REFERENCE_S))
        rss.append(passes["peak_rss_mb"])
        for unit, found in passes["problems"].items():
            problems.setdefault(unit, []).extend(found)
    before = calibrate()
    probe_setup, probes = spawn("probes", args)
    setups.append(setup_normalised(probe_setup, before, probes["setup_cal_s"]))
    raw["setup_s"].append(probe_setup)
    failed_units = [u for u, found in problems.items() if found]
    failed_probes = [p for p, o in probes["probes"].items() if o["failed"]]
    failed_frac = ((len(failed_units) + len(failed_probes))
                   / (len(problems) + len(probes["probes"])))
    metrics = {
        "pass_s": (statistics.median(warms), "s"),
        "cold_pass_s": (statistics.median(colds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "failed_frac": (failed_frac, "ratio"),
    }
    detail = {"pass_s": quartiles(warms), "cold_pass_s": quartiles(colds),
              "setup_s": quartiles(setups),
              "normalised_samples_s": {"warm": warms, "cold": colds,
                                       "setup": setups},
              "unit_median_s": {kind: {u: statistics.median(v)
                                       for u, v in per_unit.items()}
                                for kind, per_unit in units.items()},
              "raw_samples_s": raw, "peak_rss_mb": rss,
              "failed_units": failed_units,
              "failed_probes": failed_probes, "probes": probes["probes"],
              "problems": problems}
    executions = len(problems) * (len(colds) + len(warms))
    failed_executions = sum(len(found) for found in problems.values())
    return metrics, detail, executions, failed_executions


def run_traced(args) -> tuple:
    _, trace = spawn("trace", args)
    if trace["missing_spans"]:
        raise WorkerError(f"spans never fired: {trace['missing_spans']}")
    if not trace["counts_repeat"]:
        raise WorkerError("work counts differ between two traced passes")
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    metrics = {}
    for span in SPANS_TIMED:
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for span in SPANS_COUNTED:
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
    for name in COUNTERS:
        unit = "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = (counts.get(name, 0), unit)
    probes = calls.get("comparator.within_magnitude", 0)
    divergent = (counts.get("comparator.within_magnitude.divergent", 0)
                 + trace["raised"].get("comparator.within_magnitude", 0))
    metrics["comparator.within_magnitude.divergent_frac"] = (
        divergent / probes if probes else 0.0, "ratio")
    metrics["trace.pass_s"] = (trace["traced_pass_s"], "s")
    metrics["trace.overhead_s"] = (
        trace["traced_pass_s"] - trace["untraced_pass_s"], "s")
    problems = trace["problems"]
    detail = {"untraced_pass_s": trace["untraced_pass_s"],
              "calls": calls, "raised": trace["raised"], "problems": problems,
              "self_share": {s: v / trace["traced_pass_s"]
                             for s, v in sorted(self_s.items())}}
    executions = 5 * len(problems)
    failed_executions = sum(len(found) for found in problems.values())
    return metrics, detail, executions, failed_executions


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qreduce" / "__init__.py").is_file():
        print(f"no qreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    runner = run_traced if args.trace else run_untraced
    try:
        metrics, detail, attempted, failed = runner(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment()})
    (args.out / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
