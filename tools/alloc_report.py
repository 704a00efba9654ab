"""Minor page faults per warm pass and each unit's allocation peak, in process.

Usage: python3 tools/alloc_report.py WORKLOAD [ROOT]

Runs the seed-0 units of WORKLOAD through ``qreduce.cli.run`` of the
checkout ROOT (default: the checkout this script sits in), in this
process, with BLAS and OpenMP pinned to one thread as the benchmark runs
them.  The unit configs come from ``perfbench/workloads.py`` of the
checkout this script sits in, read as it is.

After one cold pass, WARM_PASSES warm passes run under ``getrusage``; the
script prints the minor page faults of each and their median, and the
process's peak resident set (``ru_maxrss``, in MB of 2^20 bytes) after
them: the figure the benchmark reports as ``peak_rss_mb``.  One more
pass runs under ``tracemalloc`` and prints each unit's peak traced
allocation in MB (10^6 bytes).  Reports go to a temporary directory;
whatever the package prints is swallowed.
"""

import contextlib
import importlib.util
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARM_PASSES = 5


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_cli(root: Path):
    """qreduce.cli from ROOT's src, refusing any other installed copy."""
    src = (root / "src").resolve()
    if not (src / "qreduce" / "cli.py").is_file():
        raise SystemExit(f"{root}: no qreduce source tree")
    sys.path.insert(0, str(src))
    import qreduce.cli
    if Path(qreduce.cli.__file__).resolve().parent != src / "qreduce":
        raise SystemExit(f"imported {qreduce.cli.__file__}, not from {src}")
    return qreduce.cli


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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

        for unit in plan:
            run_unit(*unit)
        faults = []
        for _ in range(WARM_PASSES):
            before = _minor_faults()
            for unit in plan:
                run_unit(*unit)
            faults.append(_minor_faults() - before)
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peaks = {}
        tracemalloc.start()
        try:
            for unit in plan:
                tracemalloc.reset_peak()
                run_unit(*unit)
                peaks[unit[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(f"{args[0]}: minor faults per warm pass {faults}, "
          f"median {statistics.median(faults):.0f}")
    print(f"  peak_rss_mb after the warm passes: {peak_rss_mb:.2f}")
    for name, peak in peaks.items():
        print(f"  {name}: tracemalloc peak {peak / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
