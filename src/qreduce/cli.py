"""Config-driven command line for every pipeline in the package.

Usage: reduce <config.json> [--assert-reduced] [--out DIR]
       [--format json,csv]

The config is a JSON object with a "mode" field plus a mode-specific
"problem" block; an optional "output" block that the command-line flags
override; and optional "seed" (a number) and "tolerances" (an object of
numbers) entries that are echoed into every report.  Each block has one
table of its keys and their defaults: CONFIG, OUTPUT, PROBLEMS (one per
mode; classify-quantum with no "matrix" is the grid form, which takes
QUANTUM_GRID), GRID, COMPARATOR, REGION, PACKET and POTENTIAL.  READERS
holds the one reader of each key name, which checks the key's value in
every block that takes it: each number, alone or in a list or matrix, is
a finite JSON number, not a boolean, string, NaN or Infinity.  A key
that its block's table lacks exits 2, and so does an absent REQUIRED
key; null reads as absent.

Beyond what one key's reader checks, a config exits 2 when a region
takes both "radius" (a ball) and "half_widths" (a box), a potential both
"coeffs" and "coeff_matrix", or a packet mode (ehrenfest and the grid
form of classify-quantum, which start from their "packet" block, by
default the vacuum) a top-level alpha0 or M0.  It exits 2, too, when
dt > T where a mode takes both; when ehrenfest records fewer than three
samples (time_steps(T, dt)'s step count divided by "sample_stride",
rounded down, is below 2) or its potential is not 1D; when the start
state, a region's center and half_widths (2n entries each), M0 (a
number, an n x n matrix, or in 1D [m]) or the grid do not take the
potential's dimension; when the start of a grid run or a point of a
reduce region's sample lattice lies off the grid (GridSpec.holds_center:
within 0.75 L of the grid's middle and 0.75 pi/dx in momentum, on every
axis); and when the matrix form's "psi" or an explicit "omega" does not
match its "matrix".

Every report embeds the tool version, the sha256 hash of the canonical
config serialization, the full config echo, and the provenance of the
numerics actually used (grid, dt, comparator truncation), so reruns of
one config are byte-identical apart from the created_utc stamp.  The
provenance dt is the step the run took, time_steps(T, dt); the grid
form of classify-quantum, which steps by its own rule, reports the
requested dt.  CSV files open with two comment lines (tool, config
hash) followed by a header row; the columns per mode are:

    reduce:             t, error_max, bound_general, bound_specialized,
                        delta1_measured, delta1_duhamel, delta2
    classify-classical: label, horizon, diverged
    classify-quantum:   T, mu, tau
    comparator-audit:   s, N, norm, trace, aOmega_sq_measured,
                        aOmega_bound
    scale:              lambda, error, bound
    squeeze:            d, duhamel_term, comparator_term, total_bound
    ehrenfest:          t, identity, gap

Exit codes: 0 success; 1 only when --assert-reduced is set and the
verdict is not "reduced"; 2 unreadable or schema-invalid config; 3
numerical failure during the run (a diagnostic JSON is still written
when the output directory allows it).
"""

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

# The builtin SHA-256, as the stdlib's random takes its SHA-512: hashlib
# maps OpenSSL's libcrypto, several MB resident, for one digest a run.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .classical import CLASSIFY_DT, PhaseRegion, classify_classical
from .comparator import ComparatorSpec, comparator_scalars
from .errors import ConfigError, QReduceError
from .grid import DEFAULT_GRID, OFF_GRID, GridSpec
from .hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel, \
    time_steps
from .packets import packet, sample_on_grid
from .reduction import (DEFAULT_DT, DEFAULT_S, DEFAULT_SAMPLES,
                        EHRENFEST_STRIDE, ReductionProblem, _positive_int,
                        _provenance, ehrenfest_residuals, ehrenfest_run,
                        run_reduction, squeeze_sweep)
from .scaling import hepp_experiment
from .spectral import GridHamiltonian, _check_hermitian, classify_quantum, \
    finite_evolution

PRESETS = {
    "harmonic": [0.0, 0.0, 0.5],
    "free": [0.0],
    "cubic-perturbed": [0.0, 0.0, 0.5, 0.1 / 6.0],
    "quartic": [0.0, 0.0, 0.0, 0.0, 0.25],
    "double-well": [0.5, 0.0, -1.0, 0.0, 0.5],
}

# Each block's keys, in the order of its unknown-key hint, with their
# defaults.  A key that is absent or null takes its default: REQUIRED
# refuses it as missing, and None leaves it without a value.
REQUIRED = object()
CONFIG = {"mode": REQUIRED, "problem": REQUIRED, "output": {}, "seed": None,
          "tolerances": {}}
OUTPUT = {"directory": ".", "formats": ["json"]}
PROBLEMS = {
    "reduce": {"potential": REQUIRED, "alpha0": REQUIRED, "T": REQUIRED,
               "epsilon": REQUIRED, "dt": DEFAULT_DT, "M0": 1.0, "E": None,
               "grid": {}, "comparator": {}, "region": None,
               "samples": DEFAULT_SAMPLES, "mass": 1.0},
    "classify-classical": {"potential": REQUIRED, "alpha0": REQUIRED,
                           "T": REQUIRED, "dt": CLASSIFY_DT, "radii": None,
                           "mass": 1.0},
    "classify-quantum": {"horizons": REQUIRED, "matrix": REQUIRED,
                         "psi": REQUIRED, "omega": "self"},
    "comparator-audit": {"s": REQUIRED, "N": ComparatorSpec.N,
                         "dimension": 1},
    "scale": {"potential": REQUIRED, "alpha0": REQUIRED, "T": REQUIRED,
              "lambdas": REQUIRED, "dt": DEFAULT_DT, "grid": {}, "mass": 1.0},
    "squeeze": {"potential": REQUIRED, "alpha0": REQUIRED, "T": REQUIRED,
                "dilations": REQUIRED, "dt": DEFAULT_DT, "epsilon": 1.0,
                "E": None, "grid": {}, "comparator": {}, "mass": 1.0},
    "ehrenfest": {"potential": REQUIRED, "T": REQUIRED, "packet": {},
                  "dt": DEFAULT_DT, "sample_stride": EHRENFEST_STRIDE,
                  "grid": {}, "mass": 1.0},
}
QUANTUM_GRID = {"horizons": REQUIRED, "potential": REQUIRED, "packet": {},
                "grid": {}, "dt": GridHamiltonian.dt, "comparator": {},
                "mass": 1.0}
GRID = {"n": DEFAULT_GRID.n, "N": DEFAULT_GRID.N, "L": DEFAULT_GRID.L}
COMPARATOR = {"s": DEFAULT_S, "N": ComparatorSpec.N}
REGION = {"center": REQUIRED, "radius": None, "half_widths": None}
# An empty packet block is the vacuum at the origin.
PACKET = {"alpha0": REQUIRED, "M0": 1.0}
POTENTIAL = {"coeffs": None, "coeff_matrix": None}


def _fail(path: str, message: str):
    raise ConfigError(f"config{'.' if path else ''}{path}: {message}")


def _built(path: str, make, *args, **fields):
    """make(*args, **fields), a library constructor whose refusal is a
    setup fault at config.<path>: a ValueError's text goes there, and a
    ConfigError that names its field (ReductionProblem's) goes to
    config.<path>.<field>."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        _fail(path, str(exc))
    except ConfigError as exc:
        _fail(f"{path}.{exc.field}", str(exc))


class _Block:
    """A config object read against its table.  Each key is read once,
    when first asked for, by its reader in READERS, and a key that the
    table lacks is read from the enclosing block.  A block refers to no
    block that refers back to it, so what it read is freed with the run
    rather than at the next cyclic collection."""

    def __init__(self, raw, table: dict, path: str, outer=None):
        self.raw, self.table, self.outer = _object(raw, path), table, outer
        self.path, self.read = path, {}
        for key in raw:
            if key not in table:
                from difflib import get_close_matches
                near = ([k for k in table if k.lower() == key.lower()]
                        or get_close_matches(key, table, n=1))
                hint = (f"did you mean {near[0]!r}?" if near
                        else f"known keys are {', '.join(table)}")
                _fail(self.at(key), f"unknown key; {hint}")

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def __getitem__(self, key: str):
        if key not in self.table:
            return self.outer[key]
        if key not in self.read:
            value = self.raw.get(key)
            value = self.table[key] if value is None else value
            if value is REQUIRED:
                _fail(self.at(key), "missing")
            self.read[key] = (None if value is None
                              else READERS[key](value, self.at(key), self))
        return self.read[key]


# The readers: reader(value, path, block) checks a key's value, which is
# its default when the key is absent or null, and returns what the run
# takes; READERS holds one per key name.
def _object(value, path: str, block=None) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    return value


def _number(value, path: str, block=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "must be a number")
    # json reads the bare literals NaN, Infinity and -Infinity.
    if not math.isfinite(value):
        _fail(path, "must be a finite number")
    return float(value)


def _numbers(raw, path: str, block=None) -> list:
    """A list of numbers, entry i read by _number as the field path.i."""
    if not isinstance(raw, list):
        _fail(path, "must be a list of numbers")
    return [_number(value, f"{path}.{i}") for i, value in enumerate(raw)]


def _matrix(raw, path: str, block=None) -> np.ndarray:
    """A list of rows of numbers, entry j of row i read by _number as the
    field path.i.j."""
    if not isinstance(raw, list) or not all(isinstance(row, list)
                                            for row in raw):
        _fail(path, "must be a list of rows of numbers")
    rows = [_numbers(row, f"{path}.{i}") for i, row in enumerate(raw)]
    if len({len(row) for row in rows}) > 1:
        _fail(path, "rows must have equal lengths")
    return np.array(rows, dtype=float)


def _symmetric(raw, path: str, block=None) -> np.ndarray:
    """A square matrix of numbers that classify_quantum takes as
    Hermitian: spectral's rule, read at setup."""
    M = _matrix(raw, path)
    try:
        _check_hermitian(path, M)
    except ValueError:
        _fail(path, "must be a square symmetric matrix")
    return M


def _positive(value, path: str, block=None) -> float:
    value = _number(value, path)
    if value <= 0:
        _fail(path, "must be positive")
    return value


def _positives(raw, path: str, block=None) -> list:
    """A list of positive numbers, entry i read as the field path.i."""
    values = _numbers(raw, path)
    for i, value in enumerate(values):
        _positive(value, f"{path}.{i}")
    return values


def _sweep(raw, path: str, block=None) -> list:
    """A nonempty list of positive numbers."""
    if not isinstance(raw, list) or not raw:
        _fail(path, "must be a nonempty list")
    return _positives(raw, path)


def _lambdas(raw, path: str, block=None) -> list:
    lambdas = _sweep(raw, path)
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        _fail(path, "must be strictly decreasing")
    return lambdas


def _horizons(raw, path: str, block=None):
    """One positive horizon, or a list of at least two."""
    if not isinstance(raw, list):
        return _positive(raw, path)
    if len(raw) < 2:
        _fail(path, "a list needs at least two horizons")
    return _positives(raw, path)


def _count(value, path: str, block=None) -> int:
    try:
        return _positive_int(value, path)
    except ValueError:
        _fail(path, "must be a positive integer")


def _dt(value, path: str, block) -> float:
    """A positive step, and at most T where the block takes a T (the
    grid form of classify-quantum takes none)."""
    if "T" not in block.table:
        return _positive(value, path)
    dt = _number(value, path)
    try:
        time_steps(block["T"], dt)
    except ValueError:
        _fail(path, "must be positive and at most T")
    return dt


def _potential(value, path: str, block) -> HamiltonianSpec:
    """The potential, a preset name or a POTENTIAL block, at the block's
    mass."""
    model = None
    if isinstance(value, str):
        if value not in PRESETS:
            _fail(path, f"unknown preset {value!r}; "
                  f"choose from {sorted(PRESETS)}")
        model = PotentialModel.polynomial(PRESETS[value])
    elif isinstance(value, dict):
        terms = _Block(value, POTENTIAL, path)
        if sum(entry is not None for entry in value.values()) > 1:
            _fail(path, "takes coeffs or coeff_matrix, not both")
        if terms["coeffs"] is not None:
            model = _built(path, PotentialModel.polynomial, terms["coeffs"])
        elif terms["coeff_matrix"] is not None:
            model = _built(path, PotentialModel.polynomial2d,
                           terms["coeff_matrix"])
    if model is None:
        _fail(path, "must be a preset name, {'coeffs': [...]} or "
              "{'coeff_matrix': [[...]]}")
    return _built(block.at("mass"), HamiltonianSpec, mass=block["mass"],
                  potential=model)


def _phase_vector(raw, path: str, block, read=_numbers) -> np.ndarray:
    """2n numbers, two per axis of the potential, each read by read."""
    size = 2 * block["potential"].dimension
    if not isinstance(raw, list) or len(raw) != size:
        _fail(path, f"must be a list [xi.., pi..] of length {size}, two per "
              "axis of the potential")
    return np.asarray(read(raw, path))


def _phase_point(raw, path: str, block) -> PhasePoint:
    return PhasePoint.from_vector(_phase_vector(raw, path, block))


def _width(raw, path: str, block):
    """M0: a number, or an n x n matrix of numbers (in 1D also [m]), that
    passes the width checks of packet(alpha0, M0)."""
    n = block["potential"].dimension
    if not isinstance(raw, list):
        value = _number(raw, path)
    elif any(isinstance(row, list) for row in raw):
        value = _matrix(raw, path)
    else:
        value = np.array(_numbers(raw, path))
    if np.ndim(value) and np.atleast_2d(value).shape != (n, n):
        _fail(path, f"must be a number or a {n}x{n} matrix")
    try:
        packet(np.zeros(2 * n), value)
    except ValueError as exc:
        _fail(path, str(exc))
    return value


def _grid(raw, path: str, block) -> GridSpec:
    axes = _Block(raw, GRID, path)
    grid = _built(path, GridSpec, axes["n"], axes["N"], axes["L"])
    n = block["potential"].dimension
    if grid.n != n:
        _fail(f"{path}.n", f"must equal the potential's dimension, {n}")
    return grid


def _comparator(block) -> ComparatorSpec:
    """The ComparatorSpec of a block's s and N."""
    return _built(block.path, ComparatorSpec, s=block["s"], N=block["N"])


def _region(raw, path: str, block) -> PhaseRegion:
    region = _Block(raw, REGION, path, block)
    if raw.get("radius") is not None and raw.get("half_widths") is not None:
        _fail(path, "takes radius or half_widths, not both")
    center = region["center"]
    if region["radius"] is not None:
        return PhaseRegion.ball(center, region["radius"])
    if region["half_widths"] is not None:
        return PhaseRegion.box(center, region["half_widths"])
    _fail(path, "needs a radius (ball) or half_widths (box)")


def _packet(raw, path: str, block):
    """(alpha0, M0), started on the grid by the rule reduce and scale
    apply (GridSpec.holds_center)."""
    start = _Block(raw, PACKET, path, block)
    alpha0 = start["alpha0"] if raw else PhasePoint.from_vector(
        np.zeros(2 * block["potential"].dimension))
    if not block["grid"].holds_center(alpha0.vector):
        _fail(f"{path}.alpha0", f"initial packet {OFF_GRID}")
    return alpha0, start["M0"]


def _psi(raw, path: str, block) -> np.ndarray:
    psi = np.asarray(_numbers(raw, path), dtype=complex)
    if psi.shape != (block["matrix"].shape[0],):
        _fail(path, "must be a vector matching the matrix")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-6:
        _fail(path, "must be unit norm")
    return psi / norm


def _omega(raw, path: str, block) -> np.ndarray:
    if raw == "self":
        return np.outer(block["psi"], block["psi"].conj())
    omega = _symmetric(raw, path)
    if omega.shape != block["matrix"].shape:
        _fail(path, "must match the matrix's size")
    return omega


def _formats(raw, path: str, block=None) -> list:
    if not isinstance(raw, (list, tuple)) or any(
            fmt not in ("json", "csv") for fmt in raw):
        _fail(path, "must be a list of 'json' or 'csv' entries")
    return list(raw)


READERS = {
    "mode": lambda v, p, b: (v if isinstance(v, str) and v in PROBLEMS else
                             _fail(p, f"must be one of {tuple(PROBLEMS)}")),
    "problem": _object,
    "output": lambda v, p, b: _Block(v, OUTPUT, p),
    "seed": _number,
    "tolerances": lambda v, p, b: {
        key: _number(x, f"{p}.{key}") for key, x in _object(v, p).items()},
    "directory": lambda v, p, b: (v if isinstance(v, str) else
                                  _fail(p, "must be a string")),
    "formats": _formats,
    "potential": _potential, "mass": _number,
    "alpha0": _phase_point, "center": _phase_point,
    "half_widths": lambda v, p, b: _phase_vector(v, p, b, read=_positives),
    "T": _positive, "radius": _positive, "dt": _dt,
    "epsilon": lambda v, p, b: (_numbers if isinstance(v, list)
                                else _number)(v, p),
    "M0": _width, "E": _number, "s": _number, "L": _number,
    "n": _count, "N": _count, "samples": _count, "sample_stride": _count,
    "dimension": lambda v, p, b: (v if _count(v, p) <= 2 else
                                  _fail(p, "must be 1 or 2")),
    "grid": _grid,
    "comparator": lambda v, p, b: _comparator(_Block(v, COMPARATOR, p)),
    "region": _region, "packet": _packet,
    "radii": _sweep, "dilations": _sweep, "lambdas": _lambdas,
    "horizons": _horizons, "matrix": _symmetric, "psi": _psi,
    "omega": _omega, "coeffs": _numbers, "coeff_matrix": _matrix,
}


def _run_reduce(problem: _Block):
    ro = _built(
        "problem", ReductionProblem, spec=problem["potential"],
        grid=problem["grid"], comparator=problem["comparator"],
        T=problem["T"], dt=problem["dt"], epsilon=problem["epsilon"],
        M0=problem["M0"], alpha0=problem["alpha0"], E=problem["E"],
        region=problem["region"], samples=problem["samples"])

    def compute():
        report = run_reduction(ro).to_json_dict()
        header = ("t", "error_max", "bound_general", "bound_specialized",
                  "delta1_measured", "delta1_duhamel", "delta2")
        # Bound columns are null after a bound-stage failure: empty cells.
        blank = [None] * len(report["times"])
        rows = list(zip(*(report[key] or blank
                          for key in ("times",) + header[1:])))
        return report, header, rows, report["verdict"]

    return compute


def _run_classify_classical(problem: _Block):
    spec, alpha0 = problem["potential"], problem["alpha0"]
    horizon, dt, radii = problem["T"], problem["dt"], problem["radii"]

    def compute():
        res = classify_classical(spec, alpha0, horizon, radii=radii, dt=dt)
        result = {"label": res.label, "horizon": res.horizon,
                  "diagnostics": res.diagnostics,
                  "provenance": _provenance(T=horizon, dt=dt)}
        rows = [(res.label, res.horizon, res.diagnostics.get("diverged"))]
        return result, ("label", "horizon", "diverged"), rows, None

    return compute


def _run_classify_quantum(problem: _Block):
    horizons = problem["horizons"]
    if "matrix" in problem.table:
        H, psi, omega = problem["matrix"], problem["psi"], problem["omega"]
        provenance = {"dimension": int(H.shape[0])}

        def evolution():
            return finite_evolution(H), psi, omega
    else:
        spec, grid = problem["potential"], problem["grid"]
        comp, dt = problem["comparator"], problem["dt"]
        alpha0, M0 = problem["packet"]
        # This run steps by its own rule, max(2, ceil(T / dt)) steps, so
        # its provenance dt is the requested one.
        provenance = _provenance(grid=grid, comparator=comp, dt=dt)

        def evolution():
            psi = sample_on_grid(packet(alpha0, M0), grid)
            return GridHamiltonian(spec, grid, dt=dt), psi, comp

    def compute():
        out = classify_quantum(*evolution(), horizons)
        out["provenance"] = provenance
        rows = list(zip(out["horizons"], out["mu"], out["tau"]))
        return out, ("T", "mu", "tau"), rows, None

    return compute


def _run_comparator_audit(problem: _Block):
    comp, dimension = _comparator(problem), problem["dimension"]

    def compute():
        result = comparator_scalars(comp, dimension)
        result.update({"s": comp.s, "N": comp.N, "dimension": dimension,
                       "provenance": _provenance(comparator=comp)})
        rows = [(comp.s, comp.N, result["norm"], result["trace"],
                 result["aOmega_sq_measured"], result["aOmega_bound"])]
        header = ("s", "N", "norm", "trace", "aOmega_sq_measured",
                  "aOmega_bound")
        return result, header, rows, None

    return compute


def _run_scale(problem: _Block):
    spec, alpha0, T = problem["potential"], problem["alpha0"], problem["T"]
    dt, lambdas, grid = problem["dt"], problem["lambdas"], problem["grid"]
    if not grid.holds_center(alpha0.vector):
        _fail("problem.alpha0", f"initial packet {OFF_GRID}")

    def compute():
        out = hepp_experiment(spec, alpha0, T, lambdas, grid=grid, dt=dt)
        out["provenance"] = _provenance(grid=grid, T=T, dt=dt)
        rows = [(r["lam"], r["error"], r["bound"]) for r in out["rows"]]
        return out, ("lambda", "error", "bound"), rows, None

    return compute


def _run_squeeze(problem: _Block):
    spec, grid, comp = (problem["potential"], problem["grid"],
                        problem["comparator"])
    T, dt, dilations = problem["T"], problem["dt"], problem["dilations"]
    ro = _built(
        "problem", ReductionProblem, spec=spec, alpha0=problem["alpha0"],
        T=T, epsilon=problem["epsilon"], comparator=comp, E=problem["E"],
        grid=grid, dt=dt)

    def compute():
        out = squeeze_sweep(ro, dilations)
        out["provenance"] = _provenance(grid=grid, comparator=comp, T=T,
                                        dt=dt)
        rows = [(r["d"], r["duhamel_term"], r["comparator_term"],
                 r["total_bound"]) for r in out["rows"]]
        header = ("d", "duhamel_term", "comparator_term", "total_bound")
        return out, header, rows, None

    return compute


def _run_ehrenfest(problem: _Block):
    spec = problem["potential"]
    if spec.dimension != 1:
        _fail("problem.potential", "ehrenfest diagnostics are one-dimensional")
    grid, T, dt = problem["grid"], problem["T"], problem["dt"]
    stride = problem["sample_stride"]
    if time_steps(T, dt)[0] // stride < 2:
        _fail("problem.sample_stride", "the residuals need at least three "
              "samples: the steps of T over dt, divided by sample_stride "
              "and rounded down, must be at least 2")
    alpha0, M0 = problem["packet"]

    def compute():
        psi = sample_on_grid(packet(alpha0, M0), grid)
        data = ehrenfest_run(spec, psi, T, dt=dt, sample_stride=stride)
        res = ehrenfest_residuals(data)
        result = {
            "identity_max": float(np.max(res["identity"])),
            "gap_initial": float(res["gap"][0]),
            "gap_max": float(np.max(res["gap"])),
            "times": res["times"], "identity": res["identity"],
            "gap": res["gap"],
            "provenance": _provenance(grid=grid, T=T, dt=dt),
        }
        rows = list(zip(res["times"], res["identity"], res["gap"]))
        return result, ("t", "identity", "gap"), rows, None

    return compute


_RUNNERS = {
    "reduce": _run_reduce,
    "classify-classical": _run_classify_classical,
    "classify-quantum": _run_classify_quantum,
    "comparator-audit": _run_comparator_audit,
    "scale": _run_scale,
    "squeeze": _run_squeeze,
    "ehrenfest": _run_ehrenfest,
}




def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # Bool, int and float arrays list as JSON-ready Python scalars.
        if value.dtype.kind in "biuf":
            return value.tolist()
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def config_hash(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True,
                           separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def emit_report(envelope: dict, directory: Path, formats,
                csv_table=None) -> list:
    """Write <mode>.json / <mode>.csv under directory; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    mode = envelope["mode"]
    paths = []
    if "json" in formats:
        path = directory / f"{mode}.json"
        path.write_text(json.dumps(envelope, sort_keys=True, indent=2,
                                   ensure_ascii=False) + "\n")
        paths.append(path)
    if "csv" in formats and csv_table is not None:
        header, rows = csv_table
        path = directory / f"{mode}.csv"
        with path.open("w", newline="") as fh:
            fh.write(f"# tool: qreduce {__version__}\n")
            fh.write(f"# config_sha256: {envelope['config_sha256']}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else v
                                 for v in _jsonable(list(row))])
        paths.append(path)
    return paths


def _envelope(mode: str, config: dict, result: dict) -> dict:
    return _jsonable({
        "tool": {"name": "qreduce", "version": __version__},
        "mode": mode,
        "config_sha256": config_hash(config),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "seed": config.get("seed"),
        "tolerances": config.get("tolerances", {}),
        "result": result,
    })


def run(config_path, assert_reduced: bool = False, out_dir=None,
        formats=None) -> int:
    """Execute one config; returns the process exit status."""
    try:
        config = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        top = _Block(config, CONFIG, "")
        mode, problem = top["mode"], top["problem"]
        table = PROBLEMS[mode]
        if mode == "classify-quantum" and "matrix" not in problem:
            table = QUANTUM_GRID
        for key in PACKET if "packet" in table else ():
            if key in problem:
                _fail(f"problem.{key}", "this mode takes its start state "
                      'as {"packet": {"alpha0": [...], "M0": ...}}')
        compute = _RUNNERS[mode](_Block(problem, table, "problem"))
        # Only checked: the reports echo seed and tolerances as given.
        top["seed"], top["tolerances"]
        output = top["output"]
        directory = Path(out_dir or output["directory"])
        formats = _formats(formats or output["formats"], "output.formats")
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result, header, rows, verdict = compute()
    except (QReduceError, ValueError) as exc:
        diagnostic = _envelope(mode, config, {
            "failed": type(exc).__name__, "message": str(exc)})
        try:
            emit_report({**diagnostic, "mode": f"{mode}-failure"},
                        Path(directory), ["json"])
        except OSError:
            pass
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    envelope = _envelope(mode, config, result)
    try:
        paths = emit_report(envelope, Path(directory), formats,
                            csv_table=(header, rows))
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 3
    note = f" verdict={verdict}" if verdict is not None else ""
    label = result.get("label")
    if label is not None:
        note += f" label={label}"
    print(f"{mode}:{note} wrote {', '.join(str(p) for p in paths)}")
    if assert_reduced and verdict is not None and verdict != "reduced":
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reduce",
        description="Run a reduction-pipeline experiment from a JSON config.")
    parser.add_argument("config", help="path to the JSON config")
    parser.add_argument("--assert-reduced", action="store_true",
                        help="exit 1 unless the verdict is 'reduced'")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--format",
                        help="comma-separated subset of json,csv")
    args = parser.parse_args(argv)
    formats = args.format.split(",") if args.format else None
    return run(args.config, assert_reduced=args.assert_reduced,
               out_dir=args.out, formats=formats)


if __name__ == "__main__":
    sys.exit(main())
