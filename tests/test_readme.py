"""Documented examples must run as written."""

import re
import shlex
from pathlib import Path

from qreduce.cli import main

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
