"""Every module-level import in the package is used, every function is
reached from outside the focused tests, and a CLI run loads no scipy
module: numpy is the only runtime dependency.  Nor does it load
numpy.polynomial or OpenSSL's hashlib binding, which would each add to
every run's resident set."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qreduce"
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


def _module_names(tree) -> set:
    """The names that ``import`` statements bind to modules, and those
    that absolute ``from pkg import name`` statements bind to a module
    pkg.name, as importlib finds it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names |= {alias.asname or alias.name for alias in node.names
                      if _is_module(f"{node.module}.{alias.name}")}
    return names


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def _referenced(node, modules: set) -> set:
    """Every name a node reads: names and imported names as themselves,
    attributes as ".name", the only form that reaches a method.  An
    attribute read off one of ``modules`` (np.linalg.norm) is only its
    name: it reaches a function but no method."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                names.add("." + sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _unreached(modules: dict, roots: list, keep=()) -> list:
    """Top-level functions and methods of the modules ({name: source})
    that no root reaches, as "module.name" or "module.Class.name".

    A root is Python source or, when it does not parse, text read for
    identifiers.  Module-level code reaches what it names, a reached
    definition what its body names, and the definitions in keep are
    reached.  Names are matched without their owner: a function is
    reached by its name or any attribute of it, a method by any
    attribute of its name that is not read off an imported module, and
    a dunder method by its class's name.
    """
    definitions, names = {}, set()
    for module, source in modules.items():
        tree = ast.parse(source)
        imported = _module_names(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions[f"{module}.{node.name}"] = (node, node.name,
                                                        imported)
                continue
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.decorator_list + node.bases
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        name = (node.name if sub.name.startswith("__")
                                else "." + sub.name)
                        definitions[f"{module}.{node.name}.{sub.name}"] = (
                            sub, name, imported)
                    else:
                        parts.append(sub)
            for part in parts:
                names |= _referenced(part, imported)
    for text in roots:
        try:
            tree = ast.parse(text)
        except SyntaxError:
            words = re.findall(r"[A-Za-z_]\w*", text)
            names |= set(words) | {"." + word for word in words}
        else:
            names |= _referenced(tree, _module_names(tree))
    reached = set()
    while True:
        new = {key for key, (_, name, _) in definitions.items()
               if key not in reached and (key in keep or name in names)}
        if not new:
            return sorted(definitions.keys() - reached)
        reached |= new
        for key in new:
            node, _, imported = definitions[key]
            names |= _referenced(node, imported)


# Oracles kept on purpose, though only the focused tests call them.
KEPT = {
    # ROADMAP item 5 reports it in the health block.
    "classical.ClassicalTrajectory.energy_drift",
    # ROADMAP item 5 replaces it with a splitting-error estimate.
    "grid.propagation_self_check",
}


def test_the_reachability_check_sees_a_test_only_definition():
    module = ("def run():\n    return _helper()\n\n"
              "def _helper():\n    orphan = Box().size\n    return orphan\n\n"
              "def only_tested():\n    pass\n\n"
              "class Box:\n    def __init__(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return 1\n\n"
              "    def orphan(self):\n        pass\n")
    # A focused test that calls only_tested is not a root, and a variable
    # named orphan is no attribute access.
    roots = ["from m import run\nrun()\n"]
    assert _unreached({"m": module}, roots) == ["m.Box.orphan",
                                                "m.only_tested"]
    assert _unreached({"m": module}, roots, keep={"m.only_tested"}) == [
        "m.Box.orphan"]
    assert _unreached({"m": module}, ["Call `only_tested` and `run`."]) == [
        "m.Box.orphan"]
    # A README reaches only what its fenced code names, not its prose.
    readme = ("Call `only_tested` by hand.\n\n```sh\nrun --fast\n```\n"
              "Then `orphan`.\n")
    assert _fenced_code(readme) == ["run --fast\n"]
    assert _unreached({"m": module}, _fenced_code(readme)) == [
        "m.Box.orphan", "m.only_tested"]
    # A dunder method is reached only with its class, and an attribute
    # read off an imported module (np.linalg.norm, math.prod) reaches no
    # method of its name, in a module or in a root.
    shapes = ("import math\nimport numpy as np\n\n"
              "def area(v):\n    return math.prod(v) + np.linalg.norm(v)\n\n"
              "class Used:\n    def __init__(self):\n        pass\n\n"
              "    def norm(self):\n        pass\n\n"
              "class Unused:\n    def __len__(self):\n        return 0\n\n"
              "    def prod(self):\n        pass\n")
    roots = ["import numpy\nfrom m import area, Used\n"
             "area(Used())\nnumpy.linalg.norm(0)\n"]
    assert _unreached({"m": shapes}, roots) == [
        "m.Unused.__len__", "m.Unused.prod", "m.Used.norm"]
    # Read off anything else, the same names reach both methods.
    roots = ["from m import Used\nUsed().norm()\nitems.prod()\n"]
    assert _unreached({"m": shapes}, roots) == ["m.Unused.__len__", "m.area"]
    # A module bound by "from pkg import module" is a module too: its
    # attributes reach no method, whatever name the import gives it.
    runner = "class Runner:\n    def run(self):\n        pass\n"
    for root in ("from qreduce import cli\ncli.run('x')\n",
                 "from qreduce import cli as c\nc.run('x')\n",
                 "import qreduce.cli as cli\ncli.run('x')\n"):
        assert _unreached({"m": runner}, [root]) == ["m.Runner.run"]
    assert _unreached({"m": runner}, ["from m import Runner\n"
                                      "Runner().run()\n"]) == []


def _fenced_code(markdown: str) -> list:
    """The text of each fenced code block of a Markdown document."""
    return re.findall(r"^```[^\n]*\n(.*?)^```", markdown, re.S | re.M)


def _roots() -> list:
    """The code outside the package and its focused tests: the release
    gate, the benchmark, the tools and the READMEs' code blocks."""
    roots = [path.read_text() for path in (
        ROOT / "tests" / "test_acceptance.py",
        *sorted((ROOT / "perfbench").glob("*.py")),
        *sorted((ROOT / "tools").glob("*.py")))]
    for readme in (ROOT / "README.md", ROOT / "perfbench" / "README.md"):
        roots += _fenced_code(readme.read_text())
    return roots


def test_every_definition_is_reached_outside_the_focused_tests():
    # Reached from the package's modules or the roots; a definition that
    # only the focused tests call, or only prose names, is dead library
    # surface.
    modules = {path.stem: path.read_text() for path in MODULES}
    roots = _roots()
    assert _unreached(modules, roots, keep=KEPT) == []
    # Each kept name still needs its place here.
    assert KEPT <= set(_unreached(modules, roots))


def _record_fields(tree) -> list:
    """(class, field) for each annotated field of a top-level dataclass
    or NamedTuple of a module."""
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [mark.func if isinstance(mark, ast.Call) else mark
                 for mark in node.decorator_list + node.bases]
        names = {mark.id if isinstance(mark, ast.Name) else
                 getattr(mark, "attr", None) for mark in marks}
        if names & {"dataclass", "NamedTuple"}:
            fields += [(node.name, sub.target.id) for sub in node.body
                       if isinstance(sub, ast.AnnAssign)
                       and isinstance(sub.target, ast.Name)]
    return fields


def _read_names(tree) -> set:
    """Every attribute a tree reads, by name, and every string constant,
    which getattr may read a field by."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _unread_fields(modules: dict, roots: list) -> list:
    """Fields of the modules' dataclasses and NamedTuples ({name:
    source}) that neither the modules nor a root read, as
    "module.Class.field".

    A field is read by an attribute load of its name, or by a string
    constant equal to it; a root that does not parse is read for
    identifiers.  Names are matched without their owner, as
    _unreached matches methods, so a field that shares its name with
    any attribute read elsewhere passes.
    """
    fields, read = [], set()
    for module, source in modules.items():
        tree = ast.parse(source)
        fields += [f"{module}.{cls}.{name}"
                   for cls, name in _record_fields(tree)]
        read |= _read_names(tree)
    for text in roots:
        try:
            read |= _read_names(ast.parse(text))
        except SyntaxError:
            read |= set(re.findall(r"[A-Za-z_]\w*", text))
    return sorted(key for key in fields if key.rsplit(".", 1)[1] not in read)


def test_the_field_check_sees_an_unread_field():
    module = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n\n"
              "@dataclass(frozen=True)\nclass Box:\n    size: int\n"
              "    label: str\n    stored: float\n\n"
              "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
              "class Plain:\n    ignored: int\n\n"
              "def make():\n    box = Box(1, 'a', 2.0)\n"
              "    box.stored = 3.0\n    return box.size\n")
    # Assigning a field is no read, and a plain class has no fields.
    assert _unread_fields({"m": module}, []) == [
        "m.Box.label", "m.Box.stored", "m.Pair.left", "m.Pair.right"]
    # A root reads by attribute, a string names a field for getattr, and
    # text that does not parse is read for its words.
    roots = ["getattr(pair, 'left')\n", "print(p.right)\n", "`label` here"]
    assert _unread_fields({"m": module}, roots) == ["m.Box.stored"]


def test_every_field_is_read_outside_the_focused_tests():
    # A stored value that neither the package nor a root reads is dead
    # state: each run computes and keeps it for nobody.
    modules = {path.stem: path.read_text() for path in MODULES}
    assert _unread_fields(modules, _roots()) == []


# Runs in a fresh interpreter: configs through cli.run, then every
# module loaded from the scipy package, from numpy.polynomial, and
# OpenSSL's hashlib binding.
GUARD = """
import json, sys
from qreduce import cli
codes = [cli.run(path, out_dir=sys.argv[1]) for path in sys.argv[2:]]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial = sorted(m for m in sys.modules
                    if m.startswith("numpy.polynomial"))
print(json.dumps({"codes": codes, "scipy": scipy, "polynomial": polynomial,
                  "openssl": "_hashlib" in sys.modules}))
"""


def test_cli_runs_load_no_scipy_module(tmp_path):
    # scipy is a test tool only: a 1D and a 2D reduce (the 2D one reaches
    # the 2D moments) and a grid classify-quantum run on numpy alone.
    # numpy.polynomial and _hashlib stay unloaded too: the potential's
    # derivatives and the Gauss-Hermite rule are the package's own, and
    # the config hash is the builtin SHA-256.
    configs = [
        {"mode": "reduce", "problem": {
            "potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
            "dt": 0.01, "epsilon": 1e-3}},
        {"mode": "reduce", "problem": {
            "potential": {"coeff_matrix": [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                           [0.5, 0.01, 0.0]]},
            "alpha0": [1.0, 0.0, 0.0, 0.5], "T": 0.1, "dt": 0.01,
            "epsilon": 0.05, "grid": {"n": 2, "N": 128, "L": 10.0},
            "comparator": {"s": 1.0, "N": 32},
            "M0": [[1.0, 0.0], [0.0, 1.0]]}},
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
        "codes": [0, 0, 0], "scipy": [], "polynomial": [], "openssl": False}


def test_importing_the_cli_loads_no_numpy_fft():
    # numpy.fft loads on the first transform, not at import: propagate
    # reads its gufuncs at call time, and the benchmark worker's
    # calibration, not its set-up, pays for the import.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, qreduce.cli; print(json."
         "dumps(sorted(m for m in sys.modules if m.startswith('numpy.fft'))))"],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _pocketfft_references(source: str) -> list:
    """Lines that import or read numpy.fft._pocketfft_umath."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[-1] == "_pocketfft_umath" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_form_of_a_pocketfft_reference():
    source = ("import numpy as np\n"
              "from numpy.fft import _pocketfft_umath\n"
              "import numpy.fft._pocketfft_umath\n"
              "from numpy.fft._pocketfft_umath import fft\n"
              "u = np.fft._pocketfft_umath.ifft\n"
              "f = np.fft.fft\n")
    assert _pocketfft_references(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_grid_step_knows_the_pocketfft_gufuncs(path):
    # The Strang step calls the gufuncs behind np.fft with numpy's own
    # arguments, a private numpy interface: only grid.py may read it, in
    # one place, and every other transform goes through np.fft.
    found = _pocketfft_references(path.read_text())
    assert len(found) == (1 if path.name == "grid.py" else 0)


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
    # PotentialModel owns how V is stored, differentiated and evaluated,
    # and hamiltonian.py does that arithmetic itself, so no module
    # references numpy.polynomial: importing it maps nine modules into
    # every run.  The tests use it as an oracle.
    assert _polynomial_references(path.read_text()) == []
