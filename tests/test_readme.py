"""Documented examples must run as written."""

import ast
import re
import shlex
from pathlib import Path

import qreduce
from qreduce import errors
from qreduce.cli import PROBLEMS, QUANTUM_GRID, REQUIRED, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_quick_start() -> str:
    """The first python block under the library quick-start heading."""
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def cli_quick_start():
    """(file name, config text, reduce arguments) of the CLI quick start."""
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    script = section.split("```sh", 1)[1].split("```", 1)[0]
    name, config = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", script,
                             re.S).groups()
    command = next(line for line in script.splitlines()
                   if line.startswith("reduce "))
    return name, config, shlex.split(command)[1:]


def test_library_quick_start_runs(capsys):
    exec(compile(library_quick_start(), str(README), "exec"),
         {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "reduced"
    assert float(printed[1]) <= 1e-6


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    # The same example the CI runs through the installed console script.
    name, config, args = cli_quick_start()
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(config + "\n")
    assert "--assert-reduced" in args
    assert main(args) == 0
    assert (tmp_path / "results" / "reduce.json").stat().st_size > 0
    assert (tmp_path / "results" / "reduce.csv").stat().st_size > 0


def readme_entry_points() -> set:
    """The names the library quick start imports from qreduce and the
    backticked names of the "Other entry points" paragraph after it."""
    tree = ast.parse(library_quick_start())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "qreduce"
             for alias in node.names}
    paragraph = README.read_text().split("Other entry points", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    return names | set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))


def test_help_lists_the_readme_entry_points_and_the_errors():
    # help(qreduce) lists __all__: the README's names and the exception
    # types, each importable from qreduce.
    names = readme_entry_points()
    assert {"run_reduction", "classify_quantum", "hepp_experiment"} <= names
    exceptions = {name for name, value in vars(errors).items()
                  if isinstance(value, type) and issubclass(value, Exception)}
    assert sorted(qreduce.__all__) == sorted(names | exceptions)
    imported = {}
    exec("from qreduce import *", imported)
    assert names | exceptions <= imported.keys()


def readme_mode_table() -> dict:
    """{mode: (backticked keys of its required column, of both columns)}
    from the README's table of modes and their problem blocks."""
    section = README.read_text().split("Modes and their `problem` blocks:",
                                       1)[1]
    rows = re.findall(r"^\| `([a-z-]+)` \|([^|]*)\|([^|]*)\|$", section,
                      re.M)
    return {mode: (backticked(required), backticked(required + optional))
            for mode, required, optional in rows}


def backticked(text: str) -> set:
    return set(re.findall(r"`([A-Za-z_]\w*)`", text))


def test_the_mode_table_lists_each_modes_declared_keys():
    # classify-quantum's row covers its matrix and its grid form.
    table = readme_mode_table()
    assert table.keys() == PROBLEMS.keys()
    for mode, keys in PROBLEMS.items():
        forms = (keys, QUANTUM_GRID) if mode == "classify-quantum" else (keys,)
        required = {key for form in forms for key, default in form.items()
                    if default is REQUIRED}
        declared = {key for form in forms for key in form}
        assert table[mode] == (required, declared), mode
