import contextlib
import copy
import gc
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreduce import grid as grid_module
from qreduce.classical import CLASSIFY_DT
from qreduce.cli import (PROBLEMS, QUANTUM_GRID, REQUIRED, _jsonable,
                         config_hash, main, run)
from qreduce.comparator import ComparatorSpec
from qreduce.grid import DEFAULT_GRID
from qreduce.hamiltonian import time_steps
from qreduce.reduction import DEFAULT_DT, DEFAULT_S
from qreduce.spectral import GridHamiltonian


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    return comments, rows[0], rows[1:]


def test_reduce_harmonic_exits_clean(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": "harmonic", "alpha0": [1.0, 0.0],
                    "T": 0.5, "epsilon": 1e-3},
        "output": {"directory": str(tmp_path / "out"),
                   "formats": ["json", "csv"]},
    })
    assert run(cfg, assert_reduced=True) == 0
    report = json.loads((tmp_path / "out" / "reduce.json").read_text())
    assert report["result"]["verdict"] == "reduced"
    assert report["tool"]["name"] == "qreduce"
    assert len(report["config_sha256"]) == 64
    prov = report["result"]["provenance"]
    assert prov["grid"]["N"] == 1024 and prov["dt"] == 1e-3
    comments, header, rows = read_csv(tmp_path / "out" / "reduce.csv")
    assert len(comments) == 2
    assert header[:2] == ["t", "error_max"]
    assert len(rows) > 10


def test_the_block_cap_cuts_the_harmonic_reduce_peak(tmp_path, monkeypatch):
    # The modes-1d benchmark's harmonic reduce at its unjittered start.
    # Its allocation peak holds propagate's observer block, run_grid's
    # scratch block and the bound stage's per-block temporaries beside
    # the comparator basis: blocks of 32 states rather than 64 take
    # about 1.9 MB off it.  A warm-up run fills the caches first, and the
    # smaller cap is traced first, so no first-run cost favours it.
    cfg = write_config(tmp_path, {"mode": "reduce", "problem": {
        "potential": "harmonic", "alpha0": [1.0, 0.0], "T": 6.2832,
        "dt": 0.004, "epsilon": 1e-6}})
    assert run(cfg, out_dir=tmp_path / "warm-up") == 0
    peaks = {}
    for cap in (32, 64):
        monkeypatch.setattr(grid_module, "OBSERVE_BLOCK_STATES", cap)
        tracemalloc.start()
        try:
            assert run(cfg, out_dir=tmp_path / str(cap)) == 0
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] - peaks[32] >= 1e6


def test_assert_reduced_fails_on_tight_epsilon(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": "quartic", "alpha0": [1.0, 0.0],
                    "T": 0.1, "epsilon": 1e-12},
        "output": {"directory": str(tmp_path)},
    })
    assert run(cfg) == 0
    assert run(cfg, assert_reduced=True) == 1


def test_comparator_audit_reports_norm_and_trace(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "comparator-audit",
        "problem": {"s": float(np.log(2.0))},
        "output": {"directory": str(tmp_path), "formats": ["json", "csv"]},
    })
    assert run(cfg) == 0
    report = json.loads((tmp_path / "comparator-audit.json").read_text())
    assert abs(report["result"]["norm"] - 0.5) < 1e-10
    assert abs(report["result"]["trace"] - 1.0) < 1e-10
    _, header, rows = read_csv(tmp_path / "comparator-audit.csv")
    assert header == ["s", "N", "norm", "trace", "aOmega_sq_measured",
                      "aOmega_bound"]
    assert len(rows) == 1


def test_scale_emits_decreasing_error_rows(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "scale",
        "problem": {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
                    "T": 0.5, "lambdas": [1.0, 0.25]},
        "output": {"directory": str(tmp_path), "formats": ["csv", "json"]},
    })
    assert run(cfg) == 0
    _, header, rows = read_csv(tmp_path / "scale.csv")
    assert header == ["lambda", "error", "bound"]
    assert len(rows) == 2
    errs = [float(r[1]) for r in rows]
    assert errs[0] > errs[1]
    report = json.loads((tmp_path / "scale.json").read_text())
    assert report["result"]["monotone_error"] is True


def test_classify_classical_bound_label(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "classify-classical",
        "problem": {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 20.0},
        "output": {"directory": str(tmp_path)},
    })
    assert run(cfg) == 0
    report = json.loads((tmp_path / "classify-classical.json").read_text())
    assert report["result"]["label"] == "bound"


def test_classify_quantum_finite_matrix(tmp_path):
    c = 1.0 / np.sqrt(2.0)
    cfg = write_config(tmp_path, {
        "mode": "classify-quantum",
        "problem": {"matrix": [[0.0, 0.0], [0.0, 0.3]], "psi": [c, c],
                    "omega": "self", "horizons": 1e4},
        "output": {"directory": str(tmp_path), "formats": ["json", "csv"]},
    })
    assert run(cfg) == 0
    report = json.loads((tmp_path / "classify-quantum.json").read_text())
    assert report["result"]["label"] == "pp-like"
    _, header, rows = read_csv(tmp_path / "classify-quantum.csv")
    assert header == ["T", "mu", "tau"]
    assert len(rows) == 3


def test_squeeze_table_has_argmin(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "squeeze",
        "problem": {"potential": "cubic-perturbed", "alpha0": [0.0, 0.0],
                    "T": 0.3, "dilations": [0.5, 1.0, 2.0]},
        "output": {"directory": str(tmp_path), "formats": ["csv", "json"]},
    })
    assert run(cfg) == 0
    report = json.loads((tmp_path / "squeeze.json").read_text())
    assert report["result"]["argmin"] in (0.5, 1.0, 2.0)
    _, header, rows = read_csv(tmp_path / "squeeze.csv")
    assert header == ["d", "duhamel_term", "comparator_term", "total_bound"]
    assert len(rows) == 3


def test_ehrenfest_mode_reports_residuals(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "ehrenfest",
        "problem": {"potential": "harmonic", "T": 0.2,
                    "packet": {"alpha0": [1.0, 0.0]}},
        "output": {"directory": str(tmp_path), "formats": ["json", "csv"]},
    })
    assert run(cfg) == 0
    report = json.loads((tmp_path / "ehrenfest.json").read_text())
    assert report["result"]["identity_max"] < 5e-5
    assert report["result"]["gap_max"] < 1e-10
    _, header, rows = read_csv(tmp_path / "ehrenfest.csv")
    assert header == ["t", "identity", "gap"]
    assert len(rows) > 10


def test_schema_violations_exit_two(tmp_path):
    assert run(tmp_path / "missing.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(bad) == 2
    assert run(write_config(tmp_path, {"mode": "fly"}, "m.json")) == 2
    assert run(write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 1.0},
    }, "noeps.json")) == 2
    assert run(write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": "nope", "alpha0": [1.0, 0.0], "T": 1.0,
                    "epsilon": 0.1},
    }, "nopot.json")) == 2
    assert run(write_config(tmp_path, {
        "mode": "classify-quantum",
        "problem": {"matrix": [[0.0, 1.0], [0.0, 0.0]],
                    "psi": [1.0, 0.0], "horizons": 10.0},
    }, "nonsym.json")) == 2


def test_packet_modes_refuse_a_top_level_start_state(tmp_path):
    # ehrenfest and grid classify-quantum read only the packet block; a
    # top-level alpha0 would silently start them from the vacuum.
    modes = {
        "ehrenfest": {"potential": "harmonic", "T": 0.1, "dt": 0.01},
        "classify-quantum": {"potential": "harmonic", "horizons": 1.0,
                             "grid": {"n": 1, "N": 256, "L": 12.0},
                             "comparator": {"s": 1.0, "N": 32}},
    }
    for mode, problem in modes.items():
        top = write_config(tmp_path, {"mode": mode, "problem": {
            **problem, "alpha0": [1.0, 0.0]}}, f"{mode}-top.json")
        assert run(top, out_dir=tmp_path / f"{mode}-top") == 2
        assert not (tmp_path / f"{mode}-top").exists()
        width = write_config(tmp_path, {"mode": mode, "problem": {
            **problem, "M0": 2.0}}, f"{mode}-width.json")
        assert run(width, out_dir=tmp_path / f"{mode}-width") == 2
        nested = write_config(tmp_path, {"mode": mode, "problem": {
            **problem, "packet": {"alpha0": [1.0, 0.0], "M0": 2.0}}},
            f"{mode}-packet.json")
        assert run(nested, out_dir=tmp_path / f"{mode}-packet") == 0


def test_comparator_too_large_for_the_grid_exits_two(tmp_path):
    # The default comparator (N=128) needs more than a 64-point grid
    # resolves: a config fault, reported before any computation.
    cfg = write_config(tmp_path, {"mode": "reduce", "problem": {
        "potential": {"coeff_matrix": [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.0, 0.0]]},
        "alpha0": [1.0, 0.0, 0.0, 0.5], "T": 0.5, "epsilon": 0.05,
        "grid": {"n": 2, "N": 64, "L": 10.0}}})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out" / "reduce-failure.json").exists()


@pytest.mark.parametrize("fault", [
    {"lambdas": [0.5, 1.0]},
    {"lambdas": [1.0, -0.5]},
], ids=["increasing", "negative"])
def test_scale_config_faults_exit_two(tmp_path, fault):
    # Validated before compute(): no run starts, no failure report.
    problem = {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
               "T": 0.5, "lambdas": [1.0, 0.25], **fault}
    cfg = write_config(tmp_path, {"mode": "scale", "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out" / "scale-failure.json").exists()


def test_scale_runs_on_a_grid_too_small_for_the_comparator(tmp_path):
    # A scale row runs no comparator work, so its grid need not resolve
    # the default comparator basis (this grid cannot).
    problem = {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
               "T": 0.5, "lambdas": [1.0, 0.25],
               "grid": {"n": 1, "N": 256, "L": 8.0}}
    cfg = write_config(tmp_path, {"mode": "scale", "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 0
    rows = json.loads((tmp_path / "out" / "scale.json").read_text())[
        "result"]["rows"]
    assert [row["failed"] for row in rows] == [None, None]
    assert [row["error"] for row in rows] == pytest.approx(
        [0.011828, 0.005953], rel=1e-4)
    assert [row["bound"] for row in rows] == pytest.approx(
        [0.011270, 0.005670], rel=1e-4)


STEP_CASES = {
    "reduce": {"potential": "harmonic", "alpha0": [1.0, 0.0],
               "epsilon": 1e-3},
    "classify-classical": {"potential": "harmonic", "alpha0": [1.0, 0.0]},
    "scale": {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
              "lambdas": [1.0, 0.5]},
    "squeeze": {"potential": "cubic-perturbed", "alpha0": [0.0, 0.0],
                "dilations": [1.0]},
    # Stride 1: three steps give the two interior times the residuals need.
    "ehrenfest": {"potential": "harmonic", "sample_stride": 1,
                  "packet": {"alpha0": [1.0, 0.0]}},
}


@pytest.mark.parametrize("mode", sorted(STEP_CASES))
def test_provenance_dt_is_the_step_that_ran(tmp_path, mode):
    # T 0.1 at a requested dt 0.03 runs round(0.1 / 0.03) = 3 steps.
    cfg = write_config(tmp_path, {"mode": mode, "problem": {
        **STEP_CASES[mode], "T": 0.1, "dt": 0.03}})
    assert run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / f"{mode}.json").read_text())
    assert report["result"]["provenance"]["dt"] == 0.1 / 3


def test_classify_classical_reports_one_step(tmp_path):
    # The diagnostics used to echo the requested 0.03 beside the
    # provenance's 0.1 / 3.
    cfg = write_config(tmp_path, {"mode": "classify-classical", "problem": {
        **STEP_CASES["classify-classical"], "T": 0.1, "dt": 0.03}})
    assert run(cfg, out_dir=tmp_path) == 0
    result = json.loads(
        (tmp_path / "classify-classical.json").read_text())["result"]
    assert result["diagnostics"]["dt"] == 0.1 / 3
    assert result["provenance"]["dt"] == 0.1 / 3


def test_grid_classify_quantum_reports_the_requested_dt(tmp_path):
    # Its stay curve steps by its own rule, max(2, ceil(T / dt)).
    cfg = write_config(tmp_path, {"mode": "classify-quantum", "problem": {
        "potential": "harmonic", "grid": {"n": 1, "N": 256, "L": 12.0},
        "comparator": {"s": 1.0, "N": 32}, "horizons": 0.1, "dt": 0.03}})
    assert run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "classify-quantum.json").read_text())
    assert report["result"]["provenance"]["dt"] == 0.03


COUNT_KEYS = {
    "reduce": ("samples", {"potential": "harmonic", "alpha0": [1.0, 0.0],
                           "T": 0.1, "dt": 0.01, "epsilon": 1e-3}),
    "ehrenfest": ("sample_stride", {"potential": "harmonic", "T": 0.1,
                                    "dt": 0.01}),
}


@pytest.mark.parametrize("value", [-3, 0, 2.7])
@pytest.mark.parametrize("mode", sorted(COUNT_KEYS))
def test_counts_must_be_positive_integers(tmp_path, mode, value):
    # A negative stride used to be clamped to 1 and 2.7 truncated to 2.
    key, problem = COUNT_KEYS[mode]
    cfg = write_config(tmp_path, {"mode": mode,
                                  "problem": {**problem, key: value}})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out" / f"{mode}-failure.json").exists()
    assert run(write_config(tmp_path, {"mode": mode, "problem": {
        **problem, key: 3}}, "ok.json"), out_dir=tmp_path / "out") == 0


POT_2D = {"coeff_matrix": [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                           [0.5, 0.0, 0.0]]}
SMALL_GRID = {"n": 1, "N": 256, "L": 12.0}
SMALL_COMPARATOR = {"s": 1.0, "N": 32}


@pytest.mark.parametrize("mode, problem", [
    ("reduce", {"potential": POT_2D, "alpha0": [1.0, 0.0], "T": 0.1,
                "dt": 0.01, "epsilon": 0.1}),
    ("squeeze", {"potential": POT_2D, "alpha0": [1.0, 0.0], "T": 0.1,
                 "dt": 0.01, "dilations": [1.0]}),
    ("scale", {"potential": POT_2D, "alpha0": [1.0, 0.0], "T": 0.1,
               "dt": 0.01, "lambdas": [1.0]}),
    ("classify-classical", {"potential": "harmonic",
                            "alpha0": [1.0, 0.0, 0.0, 0.0], "T": 1.0}),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "grid": {"n": 2, "N": 64, "L": 10.0}}),
    ("ehrenfest", {"potential": POT_2D, "T": 0.1, "dt": 0.01,
                   "grid": {"n": 2, "N": 64, "L": 10.0},
                   "packet": {"alpha0": [0.0, 0.0, 0.0, 0.0]}}),
    ("classify-quantum", {"potential": POT_2D, "horizons": 1.0,
                          "grid": SMALL_GRID,
                          "comparator": SMALL_COMPARATOR}),
    ("classify-quantum", {"potential": "harmonic", "horizons": 1.0,
                          "grid": SMALL_GRID, "comparator": SMALL_COMPARATOR,
                          "packet": {"alpha0": [0.0, 0.0, 0.0, 0.0]}}),
], ids=["reduce", "squeeze", "scale", "classify-classical",
        "ehrenfest-2d-grid", "ehrenfest-2d", "classify-quantum-grid",
        "classify-quantum-packet"])
def test_dimension_mismatches_exit_two(tmp_path, mode, problem):
    # A config fault, caught before any run starts: no crash, no exit 3,
    # and no alpha0 entries silently dropped.
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, problem", [
    ("reduce", {"grid": {"n": True, "N": 256, "L": 12.0},
                "comparator": SMALL_COMPARATOR}),
    ("reduce", {"grid": {"n": 1, "N": 256.9, "L": 12.0},
                "comparator": SMALL_COMPARATOR}),
    ("reduce", {"comparator": {"s": 1.0, "N": 16.5}}),
    ("comparator-audit", {"s": 1.0, "N": 16.9}),
    ("comparator-audit", {"s": 1.0, "dimension": 3}),
    ("comparator-audit", {"s": 1.0, "dimension": 1.5}),
], ids=["grid-n-bool", "grid-N-float", "comparator-N-float", "audit-N-float",
        "audit-dimension-3", "audit-dimension-float"])
def test_integer_fields_are_checked_not_truncated(tmp_path, mode, problem):
    # Counts are read as they are, never truncated with int().
    if mode == "reduce":
        problem = {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
                   "dt": 0.01, "epsilon": 0.1, **problem}
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


HARMONIC_AT_1 = {"potential": "harmonic", "alpha0": [1.0, 0.0]}
SCALE_CASE = {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
              "lambdas": [1.0, 0.25]}
GRID_QUANTUM = {"potential": "harmonic", "grid": {"n": 1, "N": 256, "L": 10.0},
                "comparator": {"s": 1.0, "N": 16}}
NYQUIST = {"potential": "harmonic", "T": 0.5, "dt": 0.01}
LATTICE_1D = {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3}


@pytest.mark.parametrize("mode, problem, field", [
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.5, "epsilon": 1e-3},
     "problem.dt"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": -0.01, "epsilon": 1e-3},
     "problem.dt"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0, "epsilon": 1e-3},
     "problem.dt"),
    ("classify-classical", {**HARMONIC_AT_1, "T": 0}, "problem.T"),
    ("classify-classical", {**HARMONIC_AT_1, "T": -1}, "problem.T"),
    ("classify-classical", {**HARMONIC_AT_1, "T": 1.0, "dt": -0.1},
     "problem.dt"),
    ("ehrenfest", {"potential": "harmonic", "T": -1}, "problem.T"),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.2},
     "problem.dt"),
    ("scale", {**SCALE_CASE, "T": -0.5}, "problem.T"),
    ("scale", {**SCALE_CASE, "T": 0.1, "dt": 0.2}, "problem.dt"),
    ("squeeze", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01,
                 "dilations": [1.0, 0.0]}, "problem.dilations.1"),
    ("squeeze", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01,
                 "dilations": [-1.0]}, "problem.dilations.0"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": -1.0},
     "problem.horizons"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": [-1.0, 2.0]},
     "problem.horizons.0"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": 2.0, "dt": 0},
     "problem.dt"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": 2.0, "dt": -0.1},
     "problem.dt"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "M0": -1.0}, "problem.M0"),
    ("reduce", {"potential": POT_2D, "alpha0": [0.0, 0.0, 0.0, 0.0],
                "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "grid": {"n": 2, "N": 64, "L": 10.0},
                "comparator": {"s": 1.0, "N": 16},
                "M0": [[1.0, 0.5], [0.0, 1.0]]}, "problem.M0"),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "packet": {"alpha0": [0.0, 0.0], "M0": -2.0}},
     "problem.packet.M0"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": 2.0,
                          "packet": {"alpha0": [0.0, 0.0], "M0": -2.0}},
     "problem.packet.M0"),
    ("scale", {**SCALE_CASE, "T": 0.5, "alpha0": [19.0, 0.0]},
     "problem.alpha0"),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "packet": {"alpha0": [30.0, 0.0]}},
     "problem.packet.alpha0"),
    ("classify-quantum", {"potential": "harmonic", "horizons": 1.0,
                          "grid": SMALL_GRID, "comparator": SMALL_COMPARATOR,
                          "packet": {"alpha0": [11.9, 0.0]}},
     "problem.packet.alpha0"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "region": {"center": [1.0, 0.0, 0.0, 0.0],
                           "half_widths": [0.1, 0.1, 0.1, 0.1]}},
     "problem.region.center"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "region": {"center": [1.0, 0.0, 0.0, 0.0], "radius": 0.1}},
     "problem.region.center"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "region": {"center": [1.0, 0.0],
                           "half_widths": [0.1, 0.1, 0.1]}},
     "problem.region.half_widths"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "region": {"center": [1.0, 0.0], "radius": -1.0}},
     "problem.region.radius"),
    ("classify-quantum", {"matrix": [[0.0, 1.0], [1.0, 0.0]],
                          "psi": [1.0, 0.0], "horizons": [1.0, 2.0],
                          "omega": [[1.0]]}, "problem.omega"),
    ("classify-quantum", {"matrix": [[0.0, 1.0], [1.0, 0.0]],
                          "psi": [1.0, 0.0], "horizons": [1.0, 2.0],
                          "omega": [[1.0, 0.5], [0.0, 1.0]]}, "problem.omega"),
    ("classify-classical", {**HARMONIC_AT_1, "T": 1.0, "radii": [-1.0]},
     "problem.radii.0"),
    ("classify-classical", {**HARMONIC_AT_1, "T": 1.0, "radii": []},
     "problem.radii"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": -1.0},
     "problem.epsilon"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01,
                "epsilon": [0.1, 0.1, 0.1]}, "problem.epsilon"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "E": -2.0}, "problem.E"),
    ("reduce", {"potential": "harmonic", "alpha0": [19.0, 0.0], "T": 0.1,
                "dt": 0.01, "epsilon": 1e-3}, "problem.alpha0"),
    ("reduce", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "region": {"center": [14.9, 0.0], "radius": 1.0}},
     "problem.region"),
    ("squeeze", {**HARMONIC_AT_1, "T": 0.1, "dt": 0.01, "dilations": [1.0],
                 "grid": {"N": 64, "L": 10.0}}, "problem.comparator"),
    # Start momenta past 0.75 pi / dx: about 60.3 on the default grid,
    # where p = 100 aliased to -60.8, 30.2 at N = 256, L = 10, and 7.5 on
    # a 2D N = 64, L = 10 grid.
    ("reduce", {**NYQUIST, "alpha0": [0.0, 100.0], "epsilon": 0.05},
     "problem.alpha0"),
    ("reduce", {**NYQUIST, "alpha0": [0.0, 50.0], "epsilon": 0.05,
                "region": {"center": [0.0, 50.0], "half_widths": [0.1, 20.0]}},
     "problem.region"),
    ("ehrenfest", {**NYQUIST, "packet": {"alpha0": [0.0, 100.0]}},
     "problem.packet.alpha0"),
    ("scale", {**SCALE_CASE, "T": 0.5, "alpha0": [1.0, -100.0]},
     "problem.alpha0"),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": 1.0,
                          "packet": {"alpha0": [0.0, 31.0]}},
     "problem.packet.alpha0"),
    ("reduce", {"potential": POT_2D, "alpha0": [0.0, 0.0, 0.0, 7.6],
                "T": 0.1, "dt": 0.01, "epsilon": 1e-3,
                "grid": {"n": 2, "N": 64, "L": 10.0},
                "comparator": {"s": 1.0, "N": 16},
                "M0": [[1.0, 0.0], [0.0, 1.0]]}, "problem.alpha0"),
    # Refusals of the library's constructors name the block they read.
    ("reduce", {**LATTICE_1D, "grid": {"N": 1000}}, "problem.grid"),
    ("reduce", {**LATTICE_1D, "grid": {"L": -1.0}}, "problem.grid"),
    ("reduce", {**LATTICE_1D, "grid": {"n": 3}}, "problem.grid"),
    ("reduce", {**LATTICE_1D, "comparator": {"s": -1.0}},
     "problem.comparator"),
    ("reduce", {**LATTICE_1D, "comparator": {"N": 8}}, "problem.comparator"),
    ("comparator-audit", {"s": -1.0}, "problem"),
    ("comparator-audit", {"s": 1.0, "N": 8}, "problem"),
    ("reduce", {**LATTICE_1D, "mass": -1.0}, "problem.mass"),
    ("scale", {**SCALE_CASE, "T": 0.1, "dt": 0.01, "mass": -1.0},
     "problem.mass"),
    ("squeeze", {**LATTICE_1D, "dilations": [1.0], "mass": -1.0},
     "problem.mass"),
    ("ehrenfest", {**NYQUIST, "mass": -1.0}, "problem.mass"),
    ("classify-classical", {**HARMONIC_AT_1, "T": 1.0, "mass": -1.0},
     "problem.mass"),
    ("reduce", {**LATTICE_1D, "potential": {"coeffs": [0.0] * 10 + [1.0]}},
     "problem.potential"),
    ("reduce", {**LATTICE_1D, "alpha0": [1.0, 0.0, 0.0, 0.5],
                "grid": {"n": 2, "N": 64, "L": 10.0},
                "potential": {"coeff_matrix": [[0.0, 0.0, 0.5],
                                               [0.0, 0.0, 0.0],
                                               [0.5, 0.0, 0.0],
                                               [0.0, 0.0, 1.0]]}},
     "problem.potential"),
    # Three steps sampled every second record two states: no interior
    # sample time is left for the residuals.
    ("ehrenfest", {"potential": "harmonic", "T": 0.006, "dt": 0.002,
                   "sample_stride": 2}, "problem.sample_stride"),
], ids=["reduce-dt-above-T", "reduce-dt-negative", "reduce-dt-zero",
        "classical-T-zero", "classical-T-negative", "classical-dt-negative",
        "ehrenfest-T-negative", "ehrenfest-dt-above-T", "scale-T-negative",
        "scale-dt-above-T", "squeeze-dilation-zero",
        "squeeze-dilation-negative", "quantum-horizon-negative",
        "quantum-horizons-entry-negative", "quantum-dt-zero",
        "quantum-dt-negative", "reduce-M0-negative", "reduce-M0-asymmetric",
        "ehrenfest-M0-negative", "quantum-M0-negative", "scale-center-edge",
        "ehrenfest-center-edge", "quantum-center-edge",
        "reduce-box-center-length", "reduce-ball-center-length",
        "reduce-box-half-widths-length", "reduce-ball-radius-negative",
        "quantum-omega-size", "quantum-omega-asymmetric",
        "classical-radius-negative", "classical-radii-empty",
        "reduce-epsilon-negative", "reduce-epsilon-length",
        "reduce-E-negative", "reduce-center-edge", "reduce-region-edge",
        "squeeze-grid-below-comparator", "reduce-momentum-nyquist",
        "reduce-region-momentum-nyquist", "ehrenfest-momentum-nyquist",
        "scale-momentum-nyquist", "quantum-momentum-nyquist",
        "reduce-2d-momentum-nyquist", "reduce-grid-N", "reduce-grid-L",
        "reduce-grid-n", "reduce-comparator-s", "reduce-comparator-N",
        "audit-s", "audit-N", "reduce-mass", "scale-mass", "squeeze-mass",
        "ehrenfest-mass", "classical-mass", "reduce-degree-1d",
        "reduce-degree-2d", "ehrenfest-two-samples"])
def test_setup_faults_exit_two_and_name_their_field(tmp_path, capsys, mode,
                                                    problem, field):
    # Each of these used to start the run and exit 3, raise out of run(),
    # or (a negative grid dt, a negative or no radius, an ehrenfest packet
    # off the grid, a start momentum past the Nyquist margin: a harmonic
    # reduce at p = 100 read not-reduced with error_max 160.8, ehrenfest
    # an identity_max of 3.81) exit 0; a region's half_widths of the
    # wrong length or a negative radius, and each refusal of
    # ReductionProblem, exited 2 without naming the field; so did the
    # refusals of GridSpec, ComparatorSpec, HamiltonianSpec and
    # PotentialModel.  An ehrenfest of two samples exited 3 with numpy's
    # zero-size reduction error.
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert f"config.{field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LATTICE = {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
           "dt": 0.01, "epsilon": 0.1}
CLASSICAL = {"alpha0": [1.0, 0.0], "T": 1.0}
TWO_LEVEL = {"matrix": [[0.0, 1.0], [1.0, 0.0]], "psi": [1.0, 0.0]}


@pytest.mark.parametrize("mode, problem", [
    ("reduce", LATTICE),
    ("classify-classical", CLASSICAL),
    ("classify-quantum", {**GRID_QUANTUM, "horizons": 1.0}),
    ("scale", {**SCALE_CASE, "T": 0.1, "dt": 0.01}),
    ("squeeze", {**LATTICE, "dilations": [1.0]}),
    ("ehrenfest", {"T": 0.1, "dt": 0.01}),
], ids=["reduce", "classify-classical", "classify-quantum", "scale", "squeeze",
        "ehrenfest"])
@pytest.mark.parametrize("potential", [{"coeffs": []}, {"coeff_matrix": [[]]}],
                         ids=["coeffs", "coeff-matrix"])
def test_empty_potentials_exit_two(tmp_path, capsys, mode, problem, potential):
    # An empty coefficient list or matrix raised IndexError out of run().
    cfg = write_config(tmp_path, {"mode": mode, "problem": {
        **problem, "potential": potential}})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert "nonempty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("region", [
    {"center": [1.0, 0.0], "half_widths": [18.0, 0.1]},
    {"center": [30.0, 0.0], "radius": 0.1},
], ids=["box-corners-past-the-edge", "ball-off-the-grid"])
def test_region_lattices_off_the_grid_exit_two(tmp_path, capsys, region):
    # Only alpha0 was checked: the box's corners wrapped around (exit 3),
    # and the ball's samples, of norm ~1e-22, ran to a not-reduced
    # verdict (exit 0).
    cfg = write_config(tmp_path, {"mode": "reduce", "problem": {
        **LATTICE, "region": region}})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert "region lattice point" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, problem, field", [
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "grid": {"L": True}}, "problem.grid.L"),
    ("reduce", {**LATTICE, "grid": {"L": "20"}}, "problem.grid.L"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": [True, 2.0]},
     "problem.horizons.0"),
    ("reduce", {**LATTICE, "region": {"center": [1.0, 0.0], "radius": True}},
     "problem.region.radius"),
    ("reduce", {**LATTICE, "region": {"center": [1.0, True],
                                      "half_widths": [0.2, 0.2]}},
     "problem.region.center.1"),
    ("reduce", {**LATTICE, "region": {"center": [1.0, 0.0],
                                      "half_widths": [0.2, True]}},
     "problem.region.half_widths.1"),
    ("reduce", {**LATTICE, "alpha0": ["1.0", 0.0]}, "problem.alpha0.0"),
    ("reduce", {**LATTICE, "epsilon": True}, "problem.epsilon"),
    ("reduce", {**LATTICE, "epsilon": [0.1, "0.1"]}, "problem.epsilon.1"),
    ("squeeze", {**LATTICE, "dilations": [1.0, True]},
     "problem.dilations.1"),
    ("reduce", {**LATTICE, "M0": [True]}, "problem.M0.0"),
    ("reduce", {**LATTICE, "M0": "1.0"}, "problem.M0"),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "packet": {"alpha0": [0.0, 0.0], "M0": True}},
     "problem.packet.M0"),
    ("classify-quantum", {"potential": "harmonic", "horizons": 1.0,
                          "packet": {"alpha0": [0.0, 0.0],
                                     "M0": [[1.0, "0"]]}},
     "problem.packet.M0.0.1"),
    ("classify-classical", {"potential": "harmonic", "alpha0": [1.0, 0.0],
                            "T": 1.0, "radii": [True, 2.0]},
     "problem.radii.0"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": 10.0,
                          "matrix": [[0.0, "1.0"], [1.0, 0.0]]},
     "problem.matrix.0.1"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": 10.0, "psi": [True, 0.0]},
     "problem.psi.0"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": 10.0,
                          "omega": [[1.0, 0.0], [0.0, False]]},
     "problem.omega.1.1"),
    ("classify-classical", {**CLASSICAL, "potential": {"coeffs": [0, 0, True]}},
     "problem.potential.coeffs.2"),
    ("classify-classical", {**CLASSICAL,
                            "potential": {"coeffs": [0, 0, "0.5"]}},
     "problem.potential.coeffs.2"),
    ("classify-classical", {**CLASSICAL, "alpha0": [1.0, 0.0, 0.0, 0.0],
                            "potential": {"coeff_matrix": [[0, 0, 0.5],
                                                           ["0", 0, 0],
                                                           [0.5, 0, 0]]}},
     "problem.potential.coeff_matrix.1.0"),
    ("scale", {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
               "T": 0.5, "lambdas": [1.0, True]}, "problem.lambdas.1"),
], ids=["grid-L-bool", "grid-L-string", "horizons-bool", "radius-bool",
        "center-bool", "half-widths-bool", "alpha0-string", "epsilon-bool",
        "epsilon-list-string", "dilations-bool", "M0-entry-bool",
        "M0-string", "packet-M0-bool", "packet-M0-entry-string",
        "radii-bool", "matrix-string", "psi-bool", "omega-bool",
        "coeffs-bool", "coeffs-string", "coeff-matrix-string",
        "lambdas-bool"])
def test_numeric_fields_refuse_booleans_and_strings(tmp_path, capsys, mode,
                                                     problem, field):
    # These were read with float(): true ran as 1.0 (a grid with L = 1
    # then wrapped around and exited 3) and "20" ran as 20.
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert f"config.{field}: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("mode, problem, field", [
    ("reduce", {**LATTICE, "M0": NAN}, "problem.M0"),
    ("reduce", {**LATTICE, "M0": [[NAN]]}, "problem.M0.0.0"),
    ("reduce", {**LATTICE, "T": INF}, "problem.T"),
    ("reduce", {**LATTICE, "alpha0": [1.0, -INF]}, "problem.alpha0.1"),
    ("ehrenfest", {"potential": "harmonic", "T": 0.1, "dt": 0.01,
                   "packet": {"alpha0": [0.0, 0.0], "M0": NAN}},
     "problem.packet.M0"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": INF}, "problem.horizons"),
    ("scale", {"potential": "cubic-perturbed", "alpha0": [1.0, 0.5],
               "T": 0.5, "lambdas": [1.0, NAN]}, "problem.lambdas.1"),
    ("classify-classical", {**CLASSICAL, "potential": {"coeffs": [0, 0, NAN]}},
     "problem.potential.coeffs.2"),
], ids=["M0-nan", "M0-entry-nan", "T-infinity", "alpha0-minus-infinity",
        "packet-M0-nan", "horizons-infinity", "lambdas-nan", "coeffs-nan"])
def test_numeric_fields_refuse_nan_and_infinity(tmp_path, capsys, mode,
                                                problem, field):
    # json reads the bare literals NaN and Infinity; a NaN width used to
    # run to a not-reduced verdict with a NaN error.
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert re.search(r"\bNaN\b|\bInfinity\b", cfg.read_text())
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert f"config.{field}: must be a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, problem, message", [
    ("reduce", {**LATTICE, "M0": [[1.0, 0.0], [0.0, 1.0]]},
     "config.problem.M0: must be a number or a 1x1 matrix"),
    ("reduce", {**LATTICE, "M0": [[1.0], [0.0, 1.0]]},
     "config.problem.M0: rows must have equal lengths"),
    ("reduce", {**LATTICE, "M0": [[1.0], 2.0]},
     "config.problem.M0: must be a list of rows of numbers"),
    ("classify-quantum", {**TWO_LEVEL, "horizons": 10.0, "matrix": 1.0},
     "config.problem.matrix: must be a list of rows of numbers"),
], ids=["M0-2x2-in-1d", "M0-ragged", "M0-mixed", "matrix-scalar"])
def test_matrix_fields_are_config_faults(tmp_path, capsys, mode, problem,
                                         message):
    # A width of the wrong shape exited 3 from inside the run.
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [1.5, [1.5], [[1.5]]],
                         ids=["number", "list", "matrix"])
def test_one_dimensional_widths_read_alike(tmp_path, width):
    cfg = write_config(tmp_path, {"mode": "reduce",
                                  "problem": {**LATTICE, "M0": width}})
    assert run(cfg, out_dir=tmp_path / "out") == 0
    result = json.loads((tmp_path / "out" / "reduce.json").read_text())
    reference = write_config(tmp_path, {
        "mode": "reduce", "problem": {**LATTICE, "M0": 1.5}}, "ref.json")
    assert run(reference, out_dir=tmp_path / "ref") == 0
    expected = json.loads((tmp_path / "ref" / "reduce.json").read_text())
    assert result["result"]["delta1_measured"] == \
        expected["result"]["delta1_measured"]


@pytest.mark.parametrize("width", [None, 1.0, [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["default", "number", "matrix"])
def test_two_dimensional_widths_read_alike(tmp_path, width):
    # A number, or no M0 at all, stands for that multiple of the identity.
    problem = {"potential": POT_2D, "alpha0": [1.0, 0.0, 0.0, 0.5], "T": 0.1,
               "dt": 0.01, "epsilon": 0.05, "grid": {"n": 2, "N": 64,
                                                     "L": 10.0},
               "comparator": {"s": 1.0, "N": 16}}
    if width is not None:
        problem["M0"] = width
    cfg = write_config(tmp_path, {"mode": "reduce", "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 0


def test_numerical_failure_exits_three(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": {"coeffs": [0, 0, 0.5, 1.0 / 6.0]},
                    "alpha0": [4.0, 2.0], "T": 2.0, "epsilon": 0.1,
                    "grid": {"n": 1, "N": 256, "L": 6.0},
                    "comparator": {"s": 1.0, "N": 16}},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert run(cfg) == 3
    failure = json.loads((tmp_path / "out" / "reduce-failure.json").read_text())
    assert failure["result"]["failed"]


def test_a_narrow_double_well_packet_runs_to_its_verdict(tmp_path):
    # At dt 0.01 det B turns past pi / 2 in one step near t = 2.86, which
    # once exited 3 as a caustic; the run now reads the verdict, and
    # nearly the error, of the same config at dt 1e-3.
    results = {}
    for dt in (0.01, 1e-3):
        cfg = write_config(tmp_path, {"mode": "reduce", "problem": {
            "potential": "double-well", "alpha0": [0.1, 0.0], "T": 3.0,
            "dt": dt, "epsilon": 0.05, "comparator": {"s": 0.5}}},
            name=f"config-{dt}.json")
        assert run(cfg, out_dir=tmp_path / str(dt)) == 0
        results[dt] = json.loads(
            (tmp_path / str(dt) / "reduce.json").read_text())["result"]
    assert results[0.01]["verdict"] == results[1e-3]["verdict"] \
        == "not-reduced"
    assert max(results[0.01]["error_max"]) == pytest.approx(
        max(results[1e-3]["error_max"]), rel=1e-4)


def test_bound_stage_failure_still_ends_in_a_verdict(tmp_path):
    # The quartic state at T = 2 pi leaves the N = 128 basis (residual
    # 1.3e-8) while its error, about 1.1, already violates epsilon: the
    # run exits 0 with that verdict and null bounds, not exit 3.
    cfg = write_config(tmp_path, {
        "mode": "reduce",
        "problem": {"potential": "quartic", "alpha0": [1.0, 0.0],
                    "T": 6.2832, "epsilon": 1e-3},
        "output": {"directory": str(tmp_path), "formats": ["json", "csv"]},
    })
    assert run(cfg) == 0
    assert not (tmp_path / "reduce-failure.json").exists()

    def no_constants(name):
        raise AssertionError(f"{name} in the report")

    report = json.loads((tmp_path / "reduce.json").read_text(),
                        parse_constant=no_constants)["result"]
    assert report["verdict"] == "not-reduced"
    assert max(report["error_max"]) > 1.0
    assert report["bound_failure"]["error"] == "BasisResidualError"
    assert report["bound_failure"]["alpha0"] == [1.0, 0.0]
    assert report["bound_general"] is None and report["E_used"] is None
    _, header, rows = read_csv(tmp_path / "reduce.csv")
    assert len(rows) == len(report["times"])
    assert all(row[2:] == [""] * 5 for row in rows)


def test_json_deterministic_modulo_timestamp(tmp_path):
    payload = {
        "mode": "comparator-audit",
        "problem": {"s": 1.0, "N": 48},
        "tolerances": {"norm": 1e-10},
    }
    cfg = write_config(tmp_path, payload)
    assert run(cfg, out_dir=tmp_path / "a") == 0
    assert run(cfg, out_dir=tmp_path / "b") == 0
    strip = lambda text: re.sub(r'"created_utc": "[^"]*"', "", text)
    a = strip((tmp_path / "a" / "comparator-audit.json").read_text())
    b = strip((tmp_path / "b" / "comparator-audit.json").read_text())
    assert a == b


def test_config_hash_tracks_tolerances():
    base = {"mode": "reduce", "tolerances": {"epsilon": 0.1}}
    tweaked = {"mode": "reduce", "tolerances": {"epsilon": 0.2}}
    assert config_hash(base) != config_hash(tweaked)
    assert config_hash(base) == config_hash(json.loads(json.dumps(base)))


def recursive_jsonable(value):
    """_jsonable as it recursed into every element of every array."""
    if isinstance(value, dict):
        return {str(k): recursive_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [recursive_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return recursive_jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def test_numeric_arrays_list_as_the_recursion_did():
    # Bool, int and float arrays go out as tolist() gives them; complex
    # and object arrays still recurse.  The report text is the same.
    rng = np.random.default_rng(0)
    value = {
        "float": rng.standard_normal(3140),
        "float32": rng.standard_normal((3, 4)).astype(np.float32),
        "special": np.array([np.nan, np.inf, -np.inf, -0.0, 1e-310]),
        "int": np.arange(-5, 5), "uint": np.arange(7, dtype=np.uint8),
        "bool": np.array([[True, False], [False, True]]),
        "scalar": np.array(2.5), "empty": np.zeros((0, 3)),
        "complex": np.array([1 + 2j, -0.0 - 1j, complex(np.nan, np.inf)]),
        "object": np.array([np.float64(1.5), 2 + 1j, None], dtype=object),
        "nested": [{1: np.ones(2)}, (np.int64(3), np.bool_(True))],
    }
    text = json.dumps(_jsonable(value), sort_keys=True, indent=2,
                      ensure_ascii=False)
    assert text == json.dumps(recursive_jsonable(value), sort_keys=True,
                              indent=2, ensure_ascii=False)


def test_json_round_trips_the_envelope(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "comparator-audit", "problem": {"s": 0.5},
        "output": {"directory": str(tmp_path)},
    })
    assert run(cfg) == 0
    text = (tmp_path / "comparator-audit.json").read_text()
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n" == text


def test_main_accepts_cli_flags(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "comparator-audit", "problem": {"s": 1.0},
    })
    code = main([str(cfg), "--out", str(tmp_path / "o"),
                 "--format", "json,csv"])
    assert code == 0
    assert (tmp_path / "o" / "comparator-audit.json").exists()
    assert (tmp_path / "o" / "comparator-audit.csv").exists()


# One valid problem per mode and form, which no fault below needs to run.
KEY_BASES = {
    "reduce": {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
               "dt": 0.05, "epsilon": 1.0},
    "classify-classical": {"potential": "harmonic", "alpha0": [1.0, 0.0],
                           "T": 1.0},
    "classify-quantum": {"matrix": [[1.0, 0.0], [0.0, -1.0]],
                         "psi": [1.0, 0.0], "horizons": 10.0},
    "comparator-audit": {"s": 1.0, "N": 16},
    "scale": {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
              "lambdas": [1.0, 0.5]},
    "squeeze": {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
                "dilations": [1.0]},
    "ehrenfest": {"potential": "harmonic", "T": 0.1, "dt": 0.01},
}
GRID_QUANTUM = {"potential": "harmonic", "horizons": 1.0,
                "grid": {"n": 1, "N": 256, "L": 12.0}}


@pytest.mark.parametrize("config, path, hint", [
    # The three misspellings of one 1D reduce that exited 0 with s = 1
    # and L = 20.
    ({"mode": "reduce", "problem": {**KEY_BASES["reduce"],
                                    "comparater": {"s": 0.5}}},
     "problem.comparater", "did you mean 'comparator'?"),
    ({"mode": "reduce", "problem": {**KEY_BASES["reduce"],
                                    "comparator": {"S": 0.5, "N": 64}}},
     "problem.comparator.S", "did you mean 's'?"),
    ({"mode": "reduce", "problem": {**KEY_BASES["reduce"],
                                    "grid": {"N": 512, "l": 30}}},
     "problem.grid.l", "did you mean 'L'?"),
    ({"mode": "reduce", "problem": KEY_BASES["reduce"], "sede": 0},
     "sede", "did you mean 'seed'?"),
    ({"mode": "reduce", "problem": KEY_BASES["reduce"],
      "output": {"formts": ["csv"]}},
     "output.formts", "did you mean 'formats'?"),
    ({"mode": "classify-classical", "problem": {
        **KEY_BASES["classify-classical"], "radius": [1.0]}},
     "problem.radius", "did you mean 'radii'?"),
    ({"mode": "classify-quantum", "problem": {
        **KEY_BASES["classify-quantum"], "potential": "harmonic"}},
     "problem.potential", "known keys are horizons, matrix, psi, omega"),
    ({"mode": "classify-quantum", "problem": {
        **KEY_BASES["classify-quantum"], "grid": {"n": 1}}},
     "problem.grid", "known keys are horizons, matrix, psi, omega"),
    ({"mode": "classify-quantum", "problem": {**GRID_QUANTUM,
                                              "psi": [1.0]}},
     "problem.psi", "known keys are horizons, potential, packet, grid, dt, "
     "comparator, mass"),
    ({"mode": "comparator-audit", "problem": {
        **KEY_BASES["comparator-audit"], "dimensions": 2}},
     "problem.dimensions", "did you mean 'dimension'?"),
    ({"mode": "scale", "problem": {**KEY_BASES["scale"], "lambda": [2.0]}},
     "problem.lambda", "did you mean 'lambdas'?"),
    ({"mode": "squeeze", "problem": {**KEY_BASES["squeeze"],
                                     "dilation": [2.0]}},
     "problem.dilation", "did you mean 'dilations'?"),
    ({"mode": "ehrenfest", "problem": {**KEY_BASES["ehrenfest"],
                                       "samples_stride": 3}},
     "problem.samples_stride", "did you mean 'sample_stride'?"),
    ({"mode": "ehrenfest", "problem": {
        **KEY_BASES["ehrenfest"], "packet": {"alpha0": [0.5, 0.0],
                                             "m0": 2.0}}},
     "problem.packet.m0", "did you mean 'M0'?"),
    ({"mode": "reduce", "problem": {
        **KEY_BASES["reduce"], "region": {"center": [1.0, 0.0],
                                          "radius": 0.1, "radious": 0.2}}},
     "problem.region.radious", "did you mean 'radius'?"),
    ({"mode": "reduce", "problem": {
        **KEY_BASES["reduce"], "potential": {"coefs": [0.0, 0.0, 0.5]}}},
     "problem.potential.coefs", "did you mean 'coeffs'?"),
], ids=["comparater", "comparator-S", "grid-l", "top", "output",
        "classify-classical", "matrix-quantum-potential",
        "matrix-quantum-grid", "grid-quantum", "comparator-audit", "scale",
        "squeeze", "ehrenfest", "packet", "region", "potential"])
def test_an_unknown_key_exits_two_and_names_its_path(tmp_path, capsys,
                                                     config, path, hint):
    cfg = write_config(tmp_path, config)
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (
        f"config error: config.{path}: unknown key; {hint}\n")


@pytest.mark.parametrize("mode, problem, message", [
    ("reduce", {**KEY_BASES["reduce"], "region": {
        "center": [1.0, 0.0], "radius": 0.1, "half_widths": [0.1, 0.1]}},
     "config.problem.region: takes radius or half_widths, not both"),
    ("reduce", {**KEY_BASES["reduce"], "potential": {
        "coeffs": [0.0, 0.0, 0.5], "coeff_matrix": [[0.0, 0.0, 0.5],
                                                    [0.0, 0.0, 0.0],
                                                    [0.5, 0.0, 0.0]]}},
     "config.problem.potential: takes coeffs or coeff_matrix, not both"),
    # A top-level start state in a packet mode keeps its own refusal.
    ("ehrenfest", {**KEY_BASES["ehrenfest"], "alpha0": [1.0, 0.0]},
     'config.problem.alpha0: this mode takes its start state as '
     '{"packet": {"alpha0": [...], "M0": ...}}'),
], ids=["region", "potential", "packet-mode-start"])
def test_conflicting_keys_exit_two(tmp_path, capsys, mode, problem, message):
    cfg = write_config(tmp_path, {"mode": mode, "problem": problem})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


SMALL_REDUCE = {"potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1,
                "dt": 0.05, "epsilon": 1.0,
                "grid": {"n": 1, "N": 256, "L": 12.0},
                "comparator": {"s": 1.0, "N": 16}}
SMALL_QUANTUM = {"potential": "harmonic", "horizons": 1.0, "dt": 0.5,
                 "grid": {"n": 1, "N": 256, "L": 12.0},
                 "comparator": {"s": 1.0, "N": 16}}


def _holder(config: dict, path: tuple):
    """The object or list that holds the entry at path."""
    for key in path[:-1]:
        config = config[key]
    return config


@pytest.mark.parametrize("mode, problem, path, provenance", [
    ("reduce", SMALL_REDUCE, ("dt",), ("dt", time_steps(0.1, DEFAULT_DT)[1])),
    ("classify-classical", {"potential": "harmonic", "alpha0": [1.0, 0.0],
                            "T": 1.0, "dt": 0.01},
     ("dt",), ("dt", time_steps(1.0, CLASSIFY_DT)[1])),
    ("classify-quantum", SMALL_QUANTUM, ("dt",), ("dt", GridHamiltonian.dt)),
    ("reduce", {**SMALL_REDUCE, "mass": 2.0}, ("mass",), None),
    ("reduce", SMALL_REDUCE, ("grid", "L"),
     ("grid", {"n": 1, "N": 256, "L": DEFAULT_GRID.L})),
    ("reduce", SMALL_REDUCE, ("comparator", "s"),
     ("comparator", {"s": DEFAULT_S, "N": 16})),
    # A null beside its alternative is no conflict.
    ("reduce", {**SMALL_REDUCE, "region": {
        "center": [1.0, 0.0], "radius": 0.05, "half_widths": [0.05, 0.05]}},
     ("region", "half_widths"), None),
    ("classify-classical", {
        "potential": {"coeffs": [0.0, 0.0, 0.5], "coeff_matrix": [[0.0]]},
        "alpha0": [1.0, 0.0], "T": 1.0}, ("potential", "coeff_matrix"), None),
], ids=["reduce-dt", "classify-classical-dt", "quantum-grid-dt", "mass",
        "grid-L", "comparator-s", "region-half-widths",
        "potential-coeff-matrix"])
def test_null_takes_the_default(tmp_path, mode, problem, path, provenance):
    # The first six nulls exited 2 with a bare TypeError that named no
    # field, e.g. "'<=' not supported between instances of 'NoneType'
    # and 'int'", and the last two as conflicts.  A null reads as an
    # absent key.
    results = []
    for name in ("null", "absent"):
        changed = copy.deepcopy(problem)
        if name == "null":
            _holder(changed, path)[path[-1]] = None
        else:
            del _holder(changed, path)[path[-1]]
        cfg = write_config(tmp_path, {"mode": mode, "problem": changed},
                           f"{name}.json")
        assert run(cfg, out_dir=tmp_path / name) == 0
        results.append(json.loads(
            (tmp_path / name / f"{mode}.json").read_text())["result"])
    assert results[0] == results[1]
    if provenance is not None:
        key, value = provenance
        assert results[0]["provenance"][key] == value


@pytest.mark.parametrize("mode, key", [
    ("reduce", "epsilon"), ("reduce", "alpha0"), ("classify-quantum", "psi"),
    ("comparator-audit", "s"), ("scale", "lambdas"),
    ("ehrenfest", "potential"),
])
def test_null_at_a_required_key_is_missing(tmp_path, capsys, mode, key):
    cfg = write_config(tmp_path, {"mode": mode,
                                  "problem": {**KEY_BASES[mode], key: None}})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == \
        f"config error: config.problem.{key}: missing\n"


@pytest.mark.parametrize("output, message", [
    ({"directory": 5}, "config.output.directory: must be a string"),
    ({"formats": 5}, "config.output.formats: must be a list of 'json' or "
     "'csv' entries"),
    ({"formats": ["pdf"]}, "config.output.formats: must be a list of "
     "'json' or 'csv' entries"),
    ([], "config.output: must be an object"),
], ids=["directory-number", "formats-number", "formats-entry", "list"])
def test_output_faults_name_their_field(tmp_path, capsys, monkeypatch,
                                        output, message):
    # A directory of 5 and formats of 5 exited 2 with Python's own
    # TypeError text.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"mode": "comparator-audit",
                                  "problem": {"s": 1.0, "N": 16},
                                  "output": output})
    assert run(cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_null_formats_write_json(tmp_path):
    # "formats": null exited 2: 'NoneType' object is not iterable.
    cfg = write_config(tmp_path, {
        "mode": "comparator-audit", "problem": {"s": 1.0, "N": 16},
        "output": {"directory": str(tmp_path / "out"), "formats": None}})
    assert run(cfg) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == \
        ["comparator-audit.json"]


@pytest.mark.parametrize("entries, message", [
    ({"seed": NAN}, "config.seed: must be a finite number"),
    ({"seed": -INF}, "config.seed: must be a finite number"),
    ({"seed": True}, "config.seed: must be a number"),
    ({"seed": "0"}, "config.seed: must be a number"),
    ({"tolerances": {"norm": NAN}},
     "config.tolerances.norm: must be a finite number"),
    ({"tolerances": {"norm": INF}},
     "config.tolerances.norm: must be a finite number"),
    ({"tolerances": {"norm": False}},
     "config.tolerances.norm: must be a number"),
    ({"tolerances": {"norm": "1e-10"}},
     "config.tolerances.norm: must be a number"),
    ({"tolerances": [1e-10]}, "config.tolerances: must be an object"),
], ids=["seed-nan", "seed-infinity", "seed-bool", "seed-string",
        "tolerance-nan", "tolerance-infinity", "tolerance-bool",
        "tolerance-string", "tolerances-list"])
def test_seed_and_tolerances_are_finite_numbers(tmp_path, capsys, entries,
                                               message):
    # A NaN seed exited 0 and wrote a bare NaN into the report, which a
    # strict JSON parser refuses.
    cfg = write_config(tmp_path, {"mode": "comparator-audit",
                                  "problem": {"s": 1.0, "N": 16}, **entries})
    assert run(cfg, out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_reduce_runs_leave_no_comparator_alive(tmp_path):
    # A reader that refers to itself, say a closure through its own cell,
    # is a reference cycle: each run's ComparatorSpec and its Hermite
    # basis would then live until the cyclic collector ran.
    cfg = write_config(tmp_path, {"mode": "reduce", "problem": SMALL_REDUCE})
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, ComparatorSpec)]
    gc.disable()
    try:
        for index in range(3):
            assert run(cfg, out_dir=tmp_path / str(index)) == 0
        alive = [o for o in gc.get_objects() if isinstance(o, ComparatorSpec)
                 and not any(o is old for old in before)]
    finally:
        gc.enable()
    assert alive == []


# One small valid config per mode and form for the property test below,
# each with a nested block and a list where its mode takes one.
PROPERTY_FORMS = [
    ("reduce", PROBLEMS["reduce"], {**SMALL_REDUCE, "M0": 1.0}),
    ("classify-classical", PROBLEMS["classify-classical"], {
        "potential": {"coeffs": [0.0, 0.0, 0.5]}, "alpha0": [1.0, 0.0],
        "T": 1.0, "dt": 0.01}),
    ("classify-quantum", PROBLEMS["classify-quantum"], {
        "matrix": [[1.0, 0.0], [0.0, -1.0]], "psi": [1.0, 0.0],
        "horizons": 10.0}),
    ("classify-quantum", QUANTUM_GRID, {
        **SMALL_QUANTUM, "packet": {"alpha0": [0.5, 0.0], "M0": 1.0}}),
    ("comparator-audit", PROBLEMS["comparator-audit"],
     {"s": 1.0, "N": 16, "dimension": 1}),
    ("scale", PROBLEMS["scale"], {
        "potential": "harmonic", "alpha0": [1.0, 0.0], "T": 0.1, "dt": 0.05,
        "lambdas": [1.0, 0.5], "grid": {"n": 1, "N": 256, "L": 12.0}}),
    ("squeeze", PROBLEMS["squeeze"], {
        **{key: SMALL_REDUCE[key] for key in ("potential", "alpha0", "T",
                                              "dt", "grid", "comparator")},
        "epsilon": 1.0, "dilations": [1.0]}),
    ("ehrenfest", PROBLEMS["ehrenfest"], {
        "potential": "harmonic", "T": 0.1, "dt": 0.01,
        "grid": {"n": 1, "N": 256, "L": 12.0},
        "packet": {"alpha0": [0.5, 0.0], "M0": 1.0}}),
]


def _nodes(value, path=()):
    """(path, node) of every object, list and leaf of a JSON value."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, path + (key,))


@st.composite
def one_change(draw):
    """(kind, config, changed path): a valid config with one change."""
    mode, table, problem = draw(st.sampled_from(PROPERTY_FORMS))
    config = {"mode": mode, "seed": 0, "tolerances": {"norm": 1e-10},
              "output": {"formats": ["json"]},
              "problem": copy.deepcopy(problem)}
    nodes = list(_nodes(config))
    kind = draw(st.sampled_from(["unknown", "delete", "bool", "string",
                                 "nan", "negative", "length"]))
    if kind == "unknown":
        # Every object but tolerances, whose keys are free, has a table.
        path = draw(st.sampled_from([p for p, node in nodes
                                     if isinstance(node, dict)
                                     and p != ("tolerances",)]))
        path += (draw(st.text("xyzq_", min_size=1, max_size=3)),)
        _holder(config, path)[path[-1]] = 1.0
    elif kind == "delete":
        # Without its "matrix" the matrix form is the grid form, which
        # refuses psi as unknown: that key is the form's selector.
        path = ("problem", draw(st.sampled_from(
            [key for key, default in table.items()
             if default is REQUIRED and key != "matrix"])))
        del config["problem"][path[1]]
    elif kind == "length":
        path, node = draw(st.sampled_from(
            [(p, node) for p, node in nodes if isinstance(node, list)]))
        if draw(st.booleans()):
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]))
    else:
        path = draw(st.sampled_from(
            [p for p, node in nodes if isinstance(node, (int, float))
             and not isinstance(node, bool)]))
        value = {"bool": draw(st.booleans()), "string": "1.0", "nan": NAN,
                 "negative": draw(st.floats(-2.0, -0.01))}[kind]
        _holder(config, path)[path[-1]] = value
    return kind, config, tuple(str(key) for key in path)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(one_change())
def test_one_change_to_a_valid_config_exits_two_at_its_path(change):
    # Each refusal names the changed path, or its parent, and writes
    # nothing; a negative number or a list of another length may also
    # run, but never to a numerical failure or a traceback.
    kind, config, path = change
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(write_config(Path(tmp), config), out_dir=out)
        if kind in ("negative", "length") and code == 0:
            return
        assert code == 2, (code, stderr.getvalue())
        assert not out.exists()
    named = re.match(r"config error: config\.(\S+?): ", stderr.getvalue())
    named = tuple(named.group(1).split("."))
    if kind in ("negative", "length"):
        assert named and named == path[:len(named)], stderr.getvalue()
    else:
        assert named in (path, path[:-1]), stderr.getvalue()
