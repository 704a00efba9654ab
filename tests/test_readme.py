"""Documented examples must run as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_quick_start() -> str:
    """The first python block under the library quick-start heading."""
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs(capsys):
    exec(compile(library_quick_start(), str(README), "exec"),
         {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "reduced"
    assert float(printed[1]) <= 1e-6
