"""tools/compare_reports.py: which report differences fail the comparison."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "tools" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _tool()

REPORT = {"verdict": "reduced", "E_used": 16.701572, "hypotheses_hold": True,
          "error_max": 0.011874837, "times": [0.0, 0.05, 0.1],
          "samples": [{"label": "centre", "max_error": 0.01}],
          "created_utc": "2026-01-01T00:00:00Z"}
CSV = ("# qreduce 0.1.0\n# config abc\nt,error_max,bound_general\n"
       "0.0,0.0,\n0.1,0.011874837,9.9\n")


def exact_lines(tmp_path, old, new, name="reduce.json"):
    """The exact-field lines compare_unit finds between two report
    directories that hold one file each (None leaves the file out)."""
    for label, text in (("old", old), ("new", new)):
        (tmp_path / label).mkdir()
        if text is not None:
            (tmp_path / label / name).write_text(text)
    found, files = compare_reports.compare_unit(tmp_path / "old",
                                                tmp_path / "new")
    assert files == 1
    return [line for lines in found.values() for line, exact in lines
            if exact], found


def moved(**fields):
    return json.dumps({**REPORT, **fields})


def test_a_flipped_verdict_is_an_exact_difference(tmp_path):
    lines, _ = exact_lines(tmp_path, moved(),
                           moved(verdict="not-reduced"))
    assert lines == ['verdict: "reduced" -> "not-reduced"']


def test_null_against_a_number_is_an_exact_difference(tmp_path):
    lines, _ = exact_lines(tmp_path, moved(), moved(E_used=None))
    assert lines == ["E_used: 16.701572 -> null"]


def test_a_float_moved_by_rounding_is_only_printed(tmp_path):
    lines, found = exact_lines(
        tmp_path, moved(), moved(error_max=REPORT["error_max"] + 1e-16,
                                 times=[0.0, 0.05 + 1e-16, 0.1],
                                 created_utc="2026-02-02T00:00:00Z"))
    assert lines == []
    assert [line.split(": max abs diff")[0]
            for line, _ in found["reduce.json"]] == ["error_max", "times"]


def test_every_other_json_change_is_exact(tmp_path):
    # A boolean, a label inside a list of objects, a leaf only in one
    # tree, and a number list of another length.
    new = dict(REPORT, hypotheses_hold=False, times=[0.0, 0.1],
               samples=[{"label": "corner", "max_error": 0.01}],
               extra=1.0)
    del new["error_max"]
    lines, _ = exact_lines(tmp_path, moved(), json.dumps(new))
    assert lines == ["error_max: only in OLD", "extra: only in NEW",
                     "hypotheses_hold: true -> false",
                     'samples[0].label: "centre" -> "corner"',
                     "times: [0.0, 0.05, 0.1] -> [0.0, 0.1]"]


def test_a_report_file_in_one_tree_is_exact(tmp_path):
    lines, _ = exact_lines(tmp_path, moved(), None)
    assert lines == ["only in OLD"]


def test_csv_cells_text_and_headers_are_exact_floats_are_not(tmp_path):
    cases = [
        (CSV.replace("9.9\n", "9.9,1.0\n"), ["9 cells -> 10 cells"]),
        (CSV.replace("0.0,0.0,\n", "0.0,0.0,n/a\n"),
         ["1 non-numeric cells or header lines differ"]),
        (CSV.replace("config abc", "config abd"),
         ["0 non-numeric cells or header lines differ"]),
        (CSV.replace("9.9", "9.900000000000002"), []),
    ]
    for index, (new, want) in enumerate(cases):
        directory = tmp_path / str(index)
        directory.mkdir()
        lines, found = exact_lines(directory, CSV, new, "reduce.csv")
        assert lines == want
        assert found


def test_a_changed_refusal_text_is_exact():
    # Both trees refuse; only the last stderr line tells the refusals
    # apart.
    old = "config error: config.problem.region: must be an object"
    cases = [
        ({"OLD": 2, "NEW": 2}, {"OLD": old, "NEW": old + " with a center"},
         True),
        ({"OLD": 2, "NEW": 2}, {"OLD": old, "NEW": old}, False),
        # A run that fails in both trees is compared by its report files.
        ({"OLD": 3, "NEW": 3}, {"OLD": "numerical failure: a",
                                "NEW": "numerical failure: b"}, False),
        ({"OLD": 0, "NEW": 2}, {"OLD": "", "NEW": old}, False),
    ]
    for codes, messages, differs in cases:
        assert compare_reports.refusal_differs(codes, messages) is differs
