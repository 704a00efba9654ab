"""One benchmark process: set up, then run timed passes, traced passes or probes.

Usage: python3 perfbench/worker.py {passes,trace,probes}
           --root DIR --out DIR --workload NAME --seed N

It prints ``READY`` once qreduce is imported and the inputs are written
(the parent times set-up up to that line), runs the calibration kernel
once (``setup_cal_s``, the host speed that set-up is normalised by), then
prints one ``RESULT <json>`` line.  Reports go to the unit directories;
whatever the package prints is swallowed.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import workloads
from calibrate import SpeedProbe, calibrate

# Spans each workload must enter; a traced run in which one never fires
# has lost a wrapper (for example, a name imported under a new alias).
COMMON_SPANS = (
    "cli.run", "cli.emit_report", "classical.integrate_flow",
    "packets.approximate_flow", "packets.sample_on_grid", "grid.propagate",
    "grid.expectation_a", "comparator.hermite_functions",
    "comparator.hermite_coefficients", "comparator.apply_comparator",
    "comparator.within_magnitude", "reduction.run_reduction",
    "reduction.run_grid", "reduction.duhamel_curve",
    "reduction.assemble_bounds")
EXPECTED_SPANS = {
    "lattice-1d": COMMON_SPANS,
    "remainder-2d": COMMON_SPANS,
    "modes-1d": COMMON_SPANS + (
        "reduction.squeeze_sweep", "reduction.ehrenfest_run",
        "spectral.classify_quantum", "scaling.hepp_experiment"),
}


def emit(tag: str, payload=None):
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def setup(args):
    """Import qreduce from the checkout and write the unit configs."""
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import qreduce
    import qreduce.cli
    if Path(qreduce.__file__).resolve().parent != src / "qreduce":
        raise SystemExit(f"imported qreduce from {qreduce.__file__}, not {src}")
    plan = []
    for name, config in workloads.units(args.workload, args.seed):
        unit_dir = args.out / name
        unit_dir.mkdir(parents=True, exist_ok=True)
        path = unit_dir / "config.json"
        path.write_text(json.dumps(config, indent=2))
        plan.append((name, config, path, unit_dir))
    references = None
    if args.seed == workloads.DEFAULT_SEED:
        table = json.loads((Path(__file__).parent / "references.json").read_text())
        references = table[args.workload]
    return qreduce.cli, plan, references


def run_pass(cli, plan, probe=None) -> tuple:
    """Run every unit once, under ``probe`` (a SpeedProbe) if one is given.

    Returns ({unit: seconds}, {unit: exit code or error}); the time the
    probe's samples took is left out of each unit's seconds.
    """
    seconds, status = {}, {}
    sink = io.StringIO()
    with (probe or contextlib.nullcontext()), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name, config, path, unit_dir in plan:
            probed = probe.spent_s if probe else 0.0
            start = time.perf_counter()
            try:
                status[name] = cli.run(str(path), out_dir=str(unit_dir),
                                       formats=workloads.formats(config))
            except Exception as exc:  # a unit that raises is a failed unit
                status[name] = f"{type(exc).__name__}: {exc}"
            seconds[name] = time.perf_counter() - start
            if probe:
                seconds[name] -= probe.spent_s - probed
    return seconds, status


def check_pass(plan, status, references, problems):
    """Add each unit's problems in this pass to problems[unit]."""
    for name, config, path, unit_dir in plan:
        found = []
        if status[name] != 0:
            found.append(f"exit {status[name]}")
        else:
            report = json.loads((unit_dir / f"{config['mode']}.json").read_text())
            if report.get("seed") != config["seed"]:
                found.append("seed not recorded in the report")
            reference = references[name] if references is not None else None
            found += checks.check_unit(config, report["result"], reference)
        problems.setdefault(name, [])
        if found:
            problems[name].append(found)


def role_passes(args, cli, plan, references):
    """The cold pass, then one warm pass, each under a SpeedProbe.

    Returns the per-unit seconds of each pass and the mean time of a probe
    sample during it, which the parent normalises by.
    """
    problems = {}
    passes, sample_s = [], []
    for _ in range(2):
        probe = SpeedProbe()
        seconds, status = run_pass(cli, plan, probe)
        passes.append(seconds)
        sample_s.append(probe.sample_s)
        check_pass(plan, status, references, problems)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"cold": passes[0], "warm": passes[1], "sample_s": sample_s,
            "peak_rss_mb": peak_kb / 1024.0, "problems": problems}


def role_trace(args, cli, plan, references):
    """A cold pass, then untraced and traced passes in turn, twice each.

    The per-layer numbers come from the faster traced pass; the work
    counts of the two traced passes must agree exactly.
    """
    from tracer import Tracer
    problems = {}
    untraced, traced = [], []
    for tracer in (None, None, Tracer(), None, Tracer()):
        if tracer:
            tracer.install()
        try:
            seconds, status = run_pass(cli, plan)
        finally:
            if tracer:
                tracer.uninstall()
        check_pass(plan, status, references, problems)
        if tracer:
            traced.append((sum(seconds.values()), tracer))
        else:
            untraced.append(sum(seconds.values()))
    first, second = (tracer for _, tracer in traced)
    repeat = (first.calls == second.calls and first.counts == second.counts
              and first.raised == second.raised)
    best_s, best = min(traced, key=lambda item: item[0])
    missing = [s for s in EXPECTED_SPANS[args.workload] if not best.calls[s]]
    return {"untraced_pass_s": min(untraced[1:]), "traced_pass_s": best_s,
            "self_s": dict(best.self_s), "calls": dict(best.calls),
            "raised": dict(best.raised), "counts": dict(best.counts),
            "counts_repeat": repeat, "missing_spans": missing,
            "problems": problems}


def _readme_quickstart(root: Path) -> str:
    text = (root / "README.md").read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def role_probes(args, cli, plan, references):
    """Known defects: record the outcome of each, outside any timed pass."""
    outcomes = {}
    sink = io.StringIO()
    for name, config, expected in workloads.PROBES:
        probe_dir = args.out / "probes" / name
        probe_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if config is None:
                    exec(_readme_quickstart(args.root), {"__name__": "readme"})
                    outcome = "ok"
                else:
                    path = probe_dir / "config.json"
                    path.write_text(json.dumps({**config, "seed": args.seed}))
                    code = cli.run(str(path), out_dir=str(probe_dir))
                    outcome = "ok" if code == 0 else f"exit {code}"
                    failure = probe_dir / f"{config['mode']}-failure.json"
                    if code == 3 and failure.exists():
                        result = json.loads(failure.read_text())["result"]
                        outcome += f" {result['failed']}: {result['message']}"
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
        outcomes[name] = {"outcome": outcome, "expected_defect": expected,
                          "failed": outcome != "ok"}
    return {"probes": outcomes}


ROLES = {"passes": role_passes, "trace": role_trace, "probes": role_probes}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=tuple(ROLES))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cli, plan, references = setup(args)
    emit("READY")
    setup_cal_s = calibrate()
    result = ROLES[args.role](args, cli, plan, references)
    emit("RESULT", {**result, "setup_cal_s": setup_cal_s})


if __name__ == "__main__":
    main()
