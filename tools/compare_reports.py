"""Run the seed-0 benchmark configs through two source trees; diff the reports.

Usage: python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts of the repository (or their ``src``
directories).  The unit configs come from ``perfbench/workloads.py`` of
the checkout this script sits in, read as it is: every unit of every
workload at the default seed, the probe configs, 2D boxed-region
reduce, scale, squeeze, classify-classical and grid classify-quantum
configs on the remainder-2d unit's potential, start state and grid, a
matrix-form classify-quantum config with an explicit omega, an
ehrenfest config whose step count is not a multiple of its
sample_stride, and a boxed-region reduce whose outer samples lose their
bounds in one stacked run, which no workload runs.  Each config runs through
``python -m qreduce.cli`` of each tree, in a fresh directory, writing
JSON and CSV.

Every JSON field that differs between the trees (``created_utc`` aside)
is printed, a number or a list of numbers with its largest absolute and
relative difference, and so is every differing CSV file.  Float gaps
are only printed.  Every other difference is an exact-field difference,
marked as such: a JSON leaf that is not a number or a list of numbers
(a verdict, a label, a boolean, a string, null against a number), a
leaf or a report file present in only one tree, a list of numbers that
changes length, and a CSV file whose cell count, non-numeric cells or
header lines change.  The script exits 1 if a unit's exit status
differs between the trees or any exact-field difference is found, else
0; the summary line counts the files compared, the files that differ
and the exact-field differences.  After it, each tree's
``src/qreduce/*.py`` line count is printed, in total and of code lines
alone (no blank, comment or docstring lines).
"""

import ast
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED_KEYS = {"created_utc"}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
              ast.AsyncFunctionDef)
SPACING = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
# Runs the CLI of one tree, refusing any other installed copy of qreduce.
LAUNCH = ("import sys, qreduce.cli as cli\n"
          "if not cli.__file__.startswith(sys.argv[1]):\n"
          "    sys.exit(f'imported {cli.__file__}, not from {sys.argv[1]}')\n"
          "sys.exit(cli.main(sys.argv[2:]))\n")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modes_2d(wl) -> list:
    """[(name, config)]: a boxed-region reduce, scale, squeeze,
    classify-classical and grid classify-quantum in 2D, on the seed-0
    remainder-2d unit's potential, alpha0 and dt, with its T and grid
    where the mode takes them (classify-classical runs to 20).  The
    region reduce is that unit with a box of half-width 0.01 about
    alpha0: its 81 lattice samples run as stacked grid runs of up to 4
    states (21 runs) in one process.  classify-quantum starts its packet at
    alpha0 with the unit's M0 and runs to 4 in 200 steps: a 2-row 2D
    stack through propagate's per-row checks at steps 100 and 200."""
    (_, reduce_2d), = wl.units("remainder-2d", wl.DEFAULT_SEED)
    problem = reduce_2d["problem"]
    shared = {key: problem[key] for key in ("potential", "alpha0", "T", "dt")}
    return [
        ("reduce-region", {**reduce_2d, "problem": {
            **problem, "region": {"center": problem["alpha0"],
                                  "half_widths": [0.01] * 4}}}),
        ("scale", {"mode": "scale", "problem": {
            **shared, "grid": problem["grid"],
            "lambdas": [1.0, 0.5, 0.25]}}),
        ("squeeze", {"mode": "squeeze", "problem": {
            **shared, "grid": problem["grid"],
            "comparator": problem["comparator"],
            "dilations": [0.5, 1.0, 2.0]}}),
        ("classify-classical", {"mode": "classify-classical", "problem": {
            **shared, "T": 20.0}}),
        ("classify-quantum", {"mode": "classify-quantum", "problem": {
            "potential": problem["potential"], "grid": problem["grid"],
            "comparator": problem["comparator"], "horizons": 4.0,
            "dt": 0.02, "packet": {"alpha0": problem["alpha0"],
                                   "M0": problem["M0"]}}}),
    ]


# A three-level matrix, a unit psi and an explicit diagonal omega.
MATRIX_QUANTUM = {"mode": "classify-quantum", "problem": {
    "matrix": [[1.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, -1.0]],
    "psi": [0.6, 0.8, 0.0],
    "omega": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
    "horizons": [5.0, 10.0, 20.0]}}


# 200 steps recorded every third: 67 samples over two observer blocks,
# and the last step is not a sample.
EHRENFEST_STRIDE = {"mode": "ehrenfest", "problem": {
    "potential": "cubic-perturbed", "T": 1.0, "dt": 0.005,
    "sample_stride": 3, "packet": {"alpha0": [1.0, 0.0]}}}


# A free packet spreads out of a 17-function basis: nine samples in one
# stack, whose outer ones lose their bounds (bound_failure at (-1, -0.5))
# while the centre reads reduced.
STACKED_FAILURE = {"mode": "reduce", "problem": {
    "potential": "free", "alpha0": [0, 0], "T": 0.6, "dt": 0.01,
    "epsilon": 1.0, "comparator": {"s": 1.0, "N": 16},
    "region": {"center": [0, 0], "half_widths": [1.0, 0.5]}}}


def unit_configs() -> list:
    """[(unit id, config)] for every seed-0 unit, every probe config, the
    2D mode configs, the matrix-form classify-quantum config, an
    ehrenfest whose step count is not a multiple of its stride and a
    stacked region reduce with bound failures."""
    wl = _workloads()
    out = [(f"{workload}/{name}", config)
           for workload in wl.WORKLOADS
           for name, config in wl.units(workload, wl.DEFAULT_SEED)]
    out += [(f"probe/{name}", config) for name, config, _ in wl.PROBES
            if config is not None]
    out += [(f"2d/{name}", config) for name, config in _modes_2d(wl)]
    out.append(("matrix/classify-quantum", MATRIX_QUANTUM))
    out.append(("stride/ehrenfest", EHRENFEST_STRIDE))
    out.append(("stacked/reduce-failure", STACKED_FAILURE))
    return out


def source_dir(path: str) -> Path:
    root = Path(path).resolve()
    src = root / "src" if (root / "src" / "qreduce").is_dir() else root
    if not (src / "qreduce" / "cli.py").is_file():
        raise SystemExit(f"{path}: no qreduce source tree")
    return src


def run_unit(src: Path, config: dict, directory: Path):
    """Run one config; returns (exit status, last line of stderr)."""
    directory.mkdir(parents=True)
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCH, str(src), str(path),
         "--out", str(directory / "out"), "--format", "json,csv"],
        cwd=directory, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    return done.returncode, (done.stderr.strip().splitlines() or [""])[-1]


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value; a list of numbers is one leaf."""
    if isinstance(value, dict):
        for key in sorted(value):
            if key not in IGNORED_KEYS:
                yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list) and not _numbers(value):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _numbers(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values)


def numeric_gap(old, new):
    """(max abs, max rel) difference of two equal-length number sequences,
    or None when they are not comparable as numbers."""
    old = old if isinstance(old, list) else [old]
    new = new if isinstance(new, list) else [new]
    if len(old) != len(new) or not (_numbers(old) and _numbers(new)):
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        gap = abs(a - b)
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(abs(a), abs(b)))
    return worst_abs, worst_rel


def _describe(gap, old, new) -> str:
    if gap is None:
        return f"{_short(old)} -> {_short(new)}"
    return f"max abs diff {gap[0]:.3g}, max rel diff {gap[1]:.3g}"


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def diff_json(old_text: str, new_text: str) -> list:
    """[(line, exact)] for each leaf that differs; exact unless both
    leaves are numbers or number lists of one length."""
    old = dict(_leaves(json.loads(old_text)))
    new = dict(_leaves(json.loads(new_text)))
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append((f"{path}: only in OLD", True))
        elif path not in old:
            lines.append((f"{path}: only in NEW", True))
        elif old[path] != new[path]:
            gap = numeric_gap(old[path], new[path])
            lines.append((f"{path}: {_describe(gap, old[path], new[path])}",
                          gap is None))
    return lines


def _cells(text: str) -> list:
    rows = csv.reader(line for line in io.StringIO(text)
                      if not line.startswith("#"))
    cells = []
    for row in rows:
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
    return cells


def diff_csv(old_text: str, new_text: str) -> list:
    """[(line, exact)] for a differing CSV file: its cell count, its
    non-numeric cells and header lines are exact, its float gap is not."""
    old, new = _cells(old_text), _cells(new_text)
    if len(old) != len(new):
        return [(f"{len(old)} cells -> {len(new)} cells", True)]
    numeric = [(a, b) for a, b in zip(old, new)
               if isinstance(a, float) and isinstance(b, float)]
    text_changes = sum(a != b for a, b in zip(old, new)
                       if not (isinstance(a, float) and isinstance(b, float)))
    lines = []
    if text_changes or old_text.splitlines()[:2] != new_text.splitlines()[:2]:
        lines.append((f"{text_changes} non-numeric cells or header lines "
                      "differ", True))
    gap = numeric_gap([a for a, _ in numeric], [b for _, b in numeric])
    if gap != (0.0, 0.0):
        lines.append((f"max abs diff {gap[0]:.3g}, max rel diff {gap[1]:.3g}",
                      False))
    return lines or [("text differs", False)]


def compare_unit(old_dir: Path, new_dir: Path) -> tuple:
    """({file name: [(difference line, exact)]} for the files that
    differ, number of file names seen)."""
    names = sorted({p.name for d in (old_dir, new_dir) if d.is_dir()
                    for p in d.iterdir()})
    found = {}
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not old.exists() or not new.exists():
            found[name] = [("only in " + ("NEW" if new.exists() else "OLD"),
                            True)]
            continue
        old_text, new_text = old.read_text(), new.read_text()
        if old_text == new_text:
            continue
        lines = (diff_json if name.endswith(".json") else diff_csv)(
            old_text, new_text)
        if lines:
            found[name] = lines
    return found, len(names)


def line_counts(src: Path) -> tuple:
    """(lines, code lines) of the tree's qreduce/*.py: a code line holds
    a token that is no comment and no docstring."""
    lines = code = 0
    for path in sorted((src / "qreduce").glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node):
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        tokens = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in SPACING:
                tokens.update(range(token.start[0], token.end[0] + 1))
        code += len(tokens - docstrings)
    return lines, code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"OLD": source_dir(args[0]), "NEW": source_dir(args[1])}
    status_changed = differing = compared = exact = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, (unit, config) in enumerate(unit_configs()):
            codes, messages, outs = {}, {}, {}
            for label, src in trees.items():
                directory = Path(tmp) / label / str(index)
                codes[label], messages[label] = run_unit(src, config, directory)
                outs[label] = directory / "out"
            print(f"{unit}: exit {codes['OLD']} / {codes['NEW']}")
            for label, code in codes.items():
                if code != 0:
                    print(f"  {label}: {messages[label]}")
            if codes["OLD"] != codes["NEW"]:
                status_changed += 1
                print("  EXIT STATUS DIFFERS")
            found, files = compare_unit(outs["OLD"], outs["NEW"])
            compared += files
            differing += len(found)
            for name, lines in found.items():
                for line, is_exact in lines:
                    exact += is_exact
                    mark = "EXACT FIELD DIFFERS: " if is_exact else ""
                    print(f"  {name}: {mark}{line}")
    print(f"{compared} files compared, {differing} differ, {exact} "
          f"exact-field differences; {status_changed} units with a "
          "different exit status")
    for label, src in trees.items():
        lines, code = line_counts(src)
        print(f"{label} src/qreduce: {lines} lines, {code} code lines")
    return 1 if status_changed or exact else 0


if __name__ == "__main__":
    sys.exit(main())
