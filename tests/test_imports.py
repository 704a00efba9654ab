"""Every module-level import in the package is used, and a CLI run loads
no scipy subpackage that qreduce does not call."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qreduce"
# __init__.py imports to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


# Runs in a fresh interpreter: one reduce and one grid classify-quantum
# config through cli.run, then the scipy subpackages still loaded.
GUARD = """
import json, sys
from qreduce import cli
codes = [cli.run(path, out_dir=sys.argv[1]) for path in sys.argv[2:]]
heavy = sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "integrate"], ["scipy", "optimize"], ["scipy", "sparse"]))
print(json.dumps({"codes": codes, "heavy": heavy}))
"""


def test_cli_runs_load_no_heavy_scipy_subpackage(tmp_path):
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and
    # scipy.linalg: a third of the set-up time of every process.
    configs = [
        {"mode": "reduce", "problem": {
            "potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
            "dt": 0.01, "epsilon": 1e-3}},
        {"mode": "classify-quantum", "problem": {
            "potential": "harmonic", "horizons": 1.0,
            "grid": {"n": 1, "N": 256, "L": 12.0},
            "comparator": {"s": 1.0, "N": 32}}},
    ]
    paths = []
    for k, config in enumerate(configs):
        paths.append(tmp_path / f"config{k}.json")
        paths[-1].write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path / "out"),
         *map(str, paths)], env=env, capture_output=True, text=True,
        check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "codes": [0, 0], "heavy": []}


def _polynomial_references(source: str) -> list:
    """Lines that import numpy.polynomial or read it off numpy."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}

    def polynomial(module):
        return module == "numpy.polynomial" \
            or module.startswith("numpy.polynomial.")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(polynomial(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = polynomial(node.module or "") or node.module == "numpy" \
                and any(alias.name == "polynomial" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "polynomial" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in numpy_names
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_form_of_a_polynomial_reference():
    source = ("import numpy as np\n"
              "from numpy.polynomial import polynomial as npoly\n"
              "from numpy.polynomial.hermite_e import hermegauss\n"
              "from numpy import polynomial\n"
              "import numpy.polynomial\n"
              "d = np.polynomial.polynomial.polyder\n"
              "e = np.linalg.norm\n")
    assert _polynomial_references(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_potential_model_knows_numpy_polynomial(path):
    # PotentialModel owns how V is stored and evaluated: no other module
    # differentiates or evaluates polynomials itself.
    if path.name != "hamiltonian.py":
        assert _polynomial_references(path.read_text()) == []
