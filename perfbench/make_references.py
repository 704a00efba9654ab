"""Regenerate references.json: the checked outputs of every unit at the default seed.

Usage (from the root of a checkout): python3 perfbench/make_references.py

Run it only when a change is meant to alter results; the file is what
the benchmark's reference check compares against.
"""

import os

from run import BLAS_THREADS, THREAD_VARS

os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
os.environ.pop("REDUCE_THREADS", None)

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from qreduce import cli
    out = ROOT / ".bench_out" / "references"
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for name, config in workloads.units(workload, workloads.DEFAULT_SEED):
            unit_dir = out / workload / name
            unit_dir.mkdir(parents=True, exist_ok=True)
            path = unit_dir / "config.json"
            path.write_text(json.dumps(config))
            if cli.run(str(path), out_dir=str(unit_dir)) != 0:
                raise SystemExit(f"{workload}/{name} failed")
            result = json.loads((unit_dir / f"{config['mode']}.json").read_text())["result"]
            problems = checks.check_unit(config, result)
            if problems:
                raise SystemExit(f"{workload}/{name}: {problems}")
            table[workload][name] = checks.checked_fields(config["mode"], result)
    (HERE / "references.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
