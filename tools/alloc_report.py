"""The peak resident set and each unit's allocation peak, in process.

Usage: python3 tools/alloc_report.py WORKLOAD [ROOT]

Runs the seed-0 units of WORKLOAD through ``qreduce.cli.run`` of the
checkout ROOT (default: the checkout this script sits in), in this
process, with BLAS and OpenMP pinned to one thread as the benchmark runs
them.  The unit configs come from ``perfbench/workloads.py`` of the
checkout this script sits in, read as it is.

First the script prints the process's peak resident set (``ru_maxrss``,
in MB of 2^20 bytes) before and right after ``import qreduce.cli``, and
the modules that the import added, grouped by package (numpy by
subpackage), with their counts: the import path's share of
``peak_rss_mb`` beyond numpy, which reading the workloads has already
imported, as the benchmark's worker has.

After one cold pass and WARM_PASSES warm passes, the script prints the
process's peak resident set: the figure the benchmark reports as
``peak_rss_mb``.  Minor page faults are not counted: they measure
glibc's heap trimming, which moves on allocations of a few bytes, not
what a pass allocates.  One more pass runs under ``tracemalloc``
and prints each unit's peak traced allocation in MB (10^6 bytes).  In
that pass each function of OBSERVED runs with
``tracemalloc.reset_peak()`` around every call, and the script prints,
per unit, the highest traced peak reached inside it and the largest
rise of a call's peak over the traced memory at its entry: so a unit's
peak can be traced to the call that sets it.  Reports go to a temporary
directory; whatever the package prints is swallowed.
"""

import contextlib
import importlib.util
import io
import json
import os
import resource
import sys
import tempfile
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARM_PASSES = 5
# The observer path's functions, by the name the package binds them to.
OBSERVED = ("expectation_a", "_sample_flows", "hermite_coefficients",
            "apply_comparator", "_row_norms", "duhamel_curve")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_cli(root: Path):
    """qreduce.cli from ROOT's src, refusing any other installed copy;
    prints the peak resident set before and after the import and the
    modules that it added."""
    src = (root / "src").resolve()
    if not (src / "qreduce" / "cli.py").is_file():
        raise SystemExit(f"{root}: no qreduce source tree")
    sys.path.insert(0, str(src))
    before, rss_before = set(sys.modules), _peak_rss_mb()
    import qreduce.cli
    if Path(qreduce.cli.__file__).resolve().parent != src / "qreduce":
        raise SystemExit(f"imported {qreduce.cli.__file__}, not from {src}")
    added = Counter(".".join(name.split(".")[:2]) if name.startswith("numpy.")
                    else name.split(".")[0]
                    for name in set(sys.modules) - before)
    print(f"import qreduce.cli: ru_maxrss {rss_before:.2f} MB before, "
          f"{_peak_rss_mb():.2f} MB after; "
          f"{sum(added.values())} modules added:")
    print(textwrap.fill(", ".join(
        name if count == 1 else f"{name} ({count})"
        for name, count in sorted(added.items())),
        initial_indent="  ", subsequent_indent="  "))
    return qreduce.cli


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _CallPeaks:
    """Wraps OBSERVED in every loaded qreduce module for a ``with`` block
    and records, per function, (peak, rise) in bytes over its calls.

    reset_peak() at each call's entry would lose the peak its callers
    reached so far, so that peak is carried up a stack of open calls;
    ``unit_peak`` reads a unit's peak with the carried part included.
    """

    def __init__(self):
        self.stats = {}
        self._open = [0]
        self._saved = []

    def _wrap(self, name, func):
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._open[-1] = max(self._open[-1], peak)
            tracemalloc.reset_peak()
            self._open.append(current)
            try:
                return func(*args, **kwargs)
            finally:
                inner = max(self._open.pop(), tracemalloc.get_traced_memory()[1])
                self._open[-1] = max(self._open[-1], inner)
                peak, rise = self.stats.get(name, (0, 0))
                self.stats[name] = (max(peak, inner),
                                    max(rise, inner - current))
        return traced

    def unit_peak(self) -> int:
        peak = max(self._open[0], tracemalloc.get_traced_memory()[1])
        self._open[0] = 0
        return peak

    def __enter__(self):
        modules = [module for name, module in sys.modules.items()
                   if name == "qreduce" or name.startswith("qreduce.")]
        found = {}
        for module in modules:
            for name in OBSERVED:
                if callable(getattr(module, name, None)):
                    found.setdefault(name, getattr(module, name))
        wrappers = {name: self._wrap(name, func)
                    for name, func in found.items()}
        for module in modules:
            for name, func in found.items():
                if getattr(module, name, None) is func:
                    self._saved.append((module, name, func))
                    setattr(module, name, wrappers[name])
        return self

    def __exit__(self, *exc):
        for module, name, func in self._saved:
            setattr(module, name, func)
        self._saved.clear()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # Before numpy is imported, so its BLAS starts with one thread.
    os.environ.update({var: "1" for var in THREAD_VARS})
    wl = _workloads()
    if args[0] not in wl.WORKLOADS:
        print(f"WORKLOAD must be one of {wl.WORKLOADS}", file=sys.stderr)
        return 2
    cli = _import_cli(Path(args[1]) if len(args) == 2 else HERE)
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        plan = []
        for name, config in wl.units(args[0], wl.DEFAULT_SEED):
            unit_dir = Path(tmp) / name
            unit_dir.mkdir()
            path = unit_dir / "config.json"
            path.write_text(json.dumps(config))
            plan.append((name, str(path), str(unit_dir), wl.formats(config)))

        def run_unit(name, path, unit_dir, formats):
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.run(path, out_dir=unit_dir, formats=formats)
            if code != 0:
                raise SystemExit(f"{name}: exit {code}")

        for _ in range(1 + WARM_PASSES):
            for unit in plan:
                run_unit(*unit)
        peak_rss_mb = _peak_rss_mb()
        peaks, calls = {}, {}
        tracemalloc.start()
        try:
            for unit in plan:
                with _CallPeaks() as traced:
                    tracemalloc.reset_peak()
                    run_unit(*unit)
                    peaks[unit[0]] = traced.unit_peak()
                calls[unit[0]] = traced.stats
        finally:
            tracemalloc.stop()
    print(f"{args[0]}: peak_rss_mb after {WARM_PASSES} warm passes: "
          f"{peak_rss_mb:.2f}")
    for name, peak in peaks.items():
        print(f"  {name}: tracemalloc peak {peak / 1e6:.2f} MB")
        for func, (inner, rise) in calls[name].items():
            print(f"    {func}: peak {inner / 1e6:.2f} MB, "
                  f"rise {rise / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
