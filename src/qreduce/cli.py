"""Config-driven command line for every pipeline in the package.

Usage: reduce <config.json> [--assert-reduced] [--out DIR]
       [--format json,csv]

The config is a JSON object with a "mode" field plus a mode-specific
"problem" block; an optional "output" block that the command-line flags
override; and optional "seed" and "tolerances" entries that are echoed
into every report.  The *_KEYS tables declare each block's keys: any
other key exits 2, and so do a region with both "radius" (a ball) and
"half_widths" (a box) and a potential with both "coeffs" and
"coeff_matrix".  ehrenfest and the grid form of classify-quantum take
their initial state as a {"packet": {"alpha0", "M0"}} block, defaulting
to the vacuum, and refuse a top-level alpha0 or M0.  Counts (grid "n"
and "N", comparator "N", reduce "samples", ehrenfest "sample_stride")
must be positive integers, comparator-audit "dimension" 1 or 2.  The scalars
"mass", "T", "dt", "E", "epsilon", comparator "s", grid "L" and region
"radius", and each entry of "alpha0", "horizons", "lambdas",
"dilations", "radii", "psi", a list "epsilon", a region's "center" and
"half_widths", a potential's "coeffs", and of the matrices "M0",
"matrix", "omega" and "coeff_matrix", must be finite JSON numbers: not
booleans, strings, NaN or Infinity.  "T", "dt", region "radius", and
each entry of "horizons", "lambdas", "dilations" and "half_widths" must
be positive, and dt <= T wherever a mode takes both (the grid form of
classify-quantum takes no T: its dt needs only be positive).  ehrenfest
records at least three samples: time_steps(T, dt)'s step count divided
by "sample_stride", rounded down, is at least 2.  "radii",
when given, is a nonempty list of positive numbers.  "M0" is a number
or an n x n matrix (in 1D also [m]) with Re M0 positive definite and M0
symmetric.  The start state, a region's center and half_widths (2n
entries each) and the grid take the potential's dimension.  The start
of every grid run (alpha0 in reduce, scale and squeeze, packet.alpha0
in ehrenfest and grid classify-quantum) and every point of a reduce
region's sample lattice must lie within 0.75 L of the grid's middle
and within 0.75 pi/dx (the grid's Nyquist momentum) in momentum on
every axis (GridSpec.holds_center); ehrenfest is 1D only, and "coeffs"
and "coeff_matrix" must be nonempty.  In the matrix form of
classify-quantum, "matrix" and an explicit "omega" are square,
symmetric and of one size.

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

# The keys of each config block, any other key exiting 2; classify-quantum
# with no "matrix" is the grid form, which takes QUANTUM_GRID_KEYS.
CONFIG_KEYS = ("mode", "problem", "output", "seed", "tolerances")
OUTPUT_KEYS = ("directory", "formats")
PROBLEM_KEYS = {
    "reduce": ("potential", "alpha0", "T", "epsilon", "dt", "M0", "E",
               "grid", "comparator", "region", "samples", "mass"),
    "classify-classical": ("potential", "alpha0", "T", "dt", "radii", "mass"),
    "classify-quantum": ("horizons", "matrix", "psi", "omega"),
    "comparator-audit": ("s", "N", "dimension"),
    "scale": ("potential", "alpha0", "T", "lambdas", "dt", "grid", "mass"),
    "squeeze": ("potential", "alpha0", "T", "dilations", "dt", "epsilon",
                "E", "grid", "comparator", "mass"),
    "ehrenfest": ("potential", "T", "packet", "dt", "sample_stride", "grid",
                  "mass"),
}
QUANTUM_GRID_KEYS = ("horizons", "potential", "packet", "grid", "dt",
                     "comparator", "mass")
GRID_KEYS = ("n", "N", "L")
COMPARATOR_KEYS = ("s", "N")
REGION_KEYS = ("center", "radius", "half_widths")
PACKET_KEYS = ("alpha0", "M0")
POTENTIAL_KEYS = ("coeffs", "coeff_matrix")


def _fail(path: str, message: str):
    raise ConfigError(f"config.{path}: {message}")


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


def _known(block: dict, path: str, keys) -> dict:
    """block, once each of its keys is in keys; another key exits 2 and
    names its path and the nearest known key."""
    for key in block:
        if key not in keys:
            from difflib import get_close_matches
            near = ([k for k in keys if k.lower() == key.lower()]
                    or get_close_matches(key, keys, n=1))
            hint = (f"did you mean {near[0]!r}?" if near
                    else f"known keys are {', '.join(keys)}")
            _fail(path + key, f"unknown key; {hint}")
    return block


def _block(config: dict, key: str, required=True, path: str = "",
           keys=None) -> dict:
    """config[key], an object; with keys, _known checks its keys."""
    value = config.get(key)
    if value is None:
        if required:
            _fail(path + key, "missing")
        return {}
    if not isinstance(value, dict):
        _fail(path + key, "must be an object")
    return value if keys is None else _known(value, f"{path}{key}.", keys)


def _number(block: dict, path: str, key: str, default=None, required=False):
    value = block.get(key, default)
    if value is None:
        if required:
            _fail(f"{path}.{key}", "missing")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    # json reads the bare literals NaN, Infinity and -Infinity.
    if not math.isfinite(value):
        _fail(f"{path}.{key}", "must be a finite number")
    return float(value)


def _numbers(raw, path: str) -> list:
    """A list of numbers, entry i read by _number as the field path.i."""
    if not isinstance(raw, list):
        _fail(path, "must be a list of numbers")
    entries = dict(enumerate(raw))
    return [_number(entries, path, i, required=True) for i in entries]


def _matrix(raw, path: str) -> np.ndarray:
    """A list of rows of numbers, entry j of row i read by _number as the
    field path.i.j."""
    if not isinstance(raw, list) or not all(isinstance(row, list)
                                            for row in raw):
        _fail(path, "must be a list of rows of numbers")
    rows = [_numbers(row, f"{path}.{i}") for i, row in enumerate(raw)]
    if len({len(row) for row in rows}) > 1:
        _fail(path, "rows must have equal lengths")
    return np.array(rows, dtype=float)


def _symmetric(raw, path: str) -> np.ndarray:
    """A square matrix of numbers that classify_quantum takes as
    Hermitian: spectral's rule, read at setup."""
    M = _matrix(raw, path)
    try:
        _check_hermitian(path, M)
    except ValueError:
        _fail(path, "must be a square symmetric matrix")
    return M


def _positive(value: float, path: str) -> float:
    if value <= 0:
        _fail(path, "must be positive")
    return value


def _positives(raw, path: str) -> list:
    """A list of positive numbers, entry i read as the field path.i."""
    values = _numbers(raw, path)
    for i, value in enumerate(values):
        _positive(value, f"{path}.{i}")
    return values


def _horizon(problem: dict, dt_default: float):
    """(T, dt): T positive and dt valid for it by time_steps' rule."""
    T = _positive(_number(problem, "problem", "T", required=True),
                  "problem.T")
    dt = _number(problem, "problem", "dt", default=dt_default)
    try:
        time_steps(T, dt)
    except ValueError:
        _fail("problem.dt", "must be positive and at most T")
    return T, dt


def _width(block: dict, path: str, n: int):
    """M0: a number, or an n x n matrix of numbers (in 1D also [m]), that
    passes the width checks of packet(alpha0, M0)."""
    raw = block.get("M0", 1.0)
    if not isinstance(raw, list):
        value = _number(block, path, "M0", default=1.0)
    elif any(isinstance(row, list) for row in raw):
        value = _matrix(raw, f"{path}.M0")
    else:
        value = np.array(_numbers(raw, f"{path}.M0"))
    if np.ndim(value) and np.atleast_2d(value).shape != (n, n):
        _fail(f"{path}.M0", f"must be a number or a {n}x{n} matrix")
    try:
        packet(np.zeros(2 * n), value)
    except ValueError as exc:
        _fail(f"{path}.M0", str(exc))
    return value


def _count(block: dict, path: str, key: str, default: int) -> int:
    try:
        return _positive_int(block.get(key, default), key)
    except ValueError:
        _fail(f"{path}.{key}", "must be a positive integer")


def _epsilon(problem: dict, default):
    """The tolerance: one number, or a list of one per component."""
    if isinstance(problem.get("epsilon"), list):
        return _numbers(problem["epsilon"], "problem.epsilon")
    return _number(problem, "problem", "epsilon", default=default,
                   required=True)


def _potential_from(problem: dict) -> PotentialModel:
    raw = problem.get("potential")
    if isinstance(raw, str):
        if raw not in PRESETS:
            _fail("problem.potential", f"unknown preset {raw!r}; "
                  f"choose from {sorted(PRESETS)}")
        return PotentialModel.polynomial(PRESETS[raw])
    if isinstance(raw, dict) and len(
            _known(raw, "problem.potential.", POTENTIAL_KEYS)) > 1:
        _fail("problem.potential", "takes coeffs or coeff_matrix, not both")
    if isinstance(raw, dict) and "coeffs" in raw:
        return _built("problem.potential", PotentialModel.polynomial,
                      _numbers(raw["coeffs"], "problem.potential.coeffs"))
    if isinstance(raw, dict) and "coeff_matrix" in raw:
        return _built("problem.potential", PotentialModel.polynomial2d,
                      _matrix(raw["coeff_matrix"],
                              "problem.potential.coeff_matrix"))
    _fail("problem.potential",
          "must be a preset name, {'coeffs': [...]} or {'coeff_matrix': [[...]]}")


def _spec_from(problem: dict) -> HamiltonianSpec:
    pot = _potential_from(problem)
    mass = _number(problem, "problem", "mass", default=1.0)
    return _built("problem.mass", HamiltonianSpec, mass=mass, potential=pot)


def _phase_point(problem: dict, spec: HamiltonianSpec,
                 path: str = "problem") -> PhasePoint:
    raw = problem.get("alpha0")
    size = 2 * spec.dimension
    if not isinstance(raw, list) or len(raw) != size:
        _fail(f"{path}.alpha0", f"must be a list [xi.., pi..] of length "
              f"{size}, two per axis of the potential")
    return PhasePoint.from_vector(np.asarray(_numbers(raw, f"{path}.alpha0")))


def _start_packet(problem: dict, spec: HamiltonianSpec, grid: GridSpec):
    """(alpha0, M0) from the packet block, started on the grid by the
    rule reduce and scale apply (GridSpec.holds_center)."""
    pkt = (_block(problem, "packet", required=False, path="problem.",
                  keys=PACKET_KEYS)
           or {"alpha0": [0.0] * (2 * spec.dimension)})
    alpha0 = _phase_point(pkt, spec, "problem.packet")
    if not grid.holds_center(alpha0.vector):
        _fail("problem.packet.alpha0", f"initial packet {OFF_GRID}")
    return alpha0, _width(pkt, "problem.packet", spec.dimension)


def _grid_from(problem: dict, spec: HamiltonianSpec) -> GridSpec:
    raw = _block(problem, "grid", required=False, path="problem.",
                 keys=GRID_KEYS)
    grid = _built("problem.grid", GridSpec,
                  _count(raw, "problem.grid", "n", DEFAULT_GRID.n),
                  _count(raw, "problem.grid", "N", DEFAULT_GRID.N),
                  _number(raw, "problem.grid", "L", DEFAULT_GRID.L))
    if grid.n != spec.dimension:
        _fail("problem.grid.n", "must equal the potential's dimension, "
              f"{spec.dimension}")
    return grid


def _comparator_from(problem: dict) -> ComparatorSpec:
    raw = _block(problem, "comparator", required=False, path="problem.",
                 keys=COMPARATOR_KEYS)
    return _built(
        "problem.comparator", ComparatorSpec,
        s=_number(raw, "problem.comparator", "s", default=DEFAULT_S),
        N=_count(raw, "problem.comparator", "N", ComparatorSpec.N))


def _region_from(problem: dict, spec: HamiltonianSpec):
    raw = problem.get("region")
    if raw is None:
        return None
    if not isinstance(raw, dict) or "center" not in _known(
            raw, "problem.region.", REGION_KEYS):
        _fail("problem.region", "must be an object with a center")
    if "radius" in raw and "half_widths" in raw:
        _fail("problem.region", "takes radius or half_widths, not both")
    center = _numbers(raw["center"], "problem.region.center")
    if len(center) != 2 * spec.dimension:
        _fail("problem.region.center", f"must be a list [xi.., pi..] of "
              f"length {2 * spec.dimension}, two per axis of the potential")
    center = PhasePoint.from_vector(np.asarray(center))
    if "radius" in raw:
        return PhaseRegion.ball(center, _positive(_number(
            raw, "problem.region", "radius", required=True),
            "problem.region.radius"))
    if "half_widths" in raw:
        half_widths = _positives(raw["half_widths"],
                                 "problem.region.half_widths")
        if len(half_widths) != 2 * spec.dimension:
            _fail("problem.region.half_widths", f"must be a list of length "
                  f"{2 * spec.dimension}, two per axis of the potential")
        return PhaseRegion.box(center, np.asarray(half_widths))
    _fail("problem.region", "needs a radius (ball) or half_widths (box)")


def _run_reduce(problem: dict):
    spec = _spec_from(problem)
    grid = _grid_from(problem, spec)
    comp = _comparator_from(problem)
    T, dt = _horizon(problem, DEFAULT_DT)
    epsilon = _epsilon(problem, default=None)
    M0 = _width(problem, "problem", spec.dimension)
    ro = _built(
        "problem", ReductionProblem,
        spec=spec, alpha0=_phase_point(problem, spec), T=T,
        epsilon=epsilon, comparator=comp,
        E=_number(problem, "problem", "E"), grid=grid, M0=M0,
        region=_region_from(problem, spec), dt=dt,
        samples=_count(problem, "problem", "samples", DEFAULT_SAMPLES))

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


def _run_classify_classical(problem: dict):
    spec = _spec_from(problem)
    alpha0 = _phase_point(problem, spec)
    horizon, dt = _horizon(problem, CLASSIFY_DT)
    radii = problem.get("radii")
    if radii is not None:
        if not isinstance(radii, list) or not radii:
            _fail("problem.radii", "must be a nonempty list")
        radii = _positives(radii, "problem.radii")

    def compute():
        res = classify_classical(spec, alpha0, horizon, radii=radii, dt=dt)
        result = {"label": res.label, "horizon": res.horizon,
                  "diagnostics": res.diagnostics,
                  "provenance": _provenance(T=horizon, dt=dt)}
        rows = [(res.label, res.horizon, res.diagnostics.get("diverged"))]
        return result, ("label", "horizon", "diverged"), rows, None

    return compute


def _run_classify_quantum(problem: dict):
    horizons = problem.get("horizons")
    if isinstance(horizons, list):
        if len(horizons) < 2:
            _fail("problem.horizons", "a list needs at least two horizons")
        horizons = _positives(horizons, "problem.horizons")
    elif isinstance(horizons, (int, float)) and not isinstance(horizons, bool):
        horizons = _positive(_number(problem, "problem", "horizons"),
                             "problem.horizons")
    else:
        _fail("problem.horizons", "must be a number or a list of numbers")
    if "matrix" in problem:
        H = _symmetric(problem["matrix"], "problem.matrix")
        psi = np.asarray(_numbers(problem.get("psi", []), "problem.psi"),
                         dtype=complex)
        if psi.shape != (H.shape[0],):
            _fail("problem.psi", "must be a vector matching the matrix")
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-6:
            _fail("problem.psi", "must be unit norm")
        psi = psi / norm
        omega_raw = problem.get("omega", "self")
        if omega_raw == "self":
            omega = np.outer(psi, psi.conj())
        else:
            omega = _symmetric(omega_raw, "problem.omega")
            if omega.shape != H.shape:
                _fail("problem.omega", "must match the matrix's size")
        provenance = {"dimension": int(H.shape[0])}

        def evolution():
            return finite_evolution(H), psi, omega
    else:
        spec = _spec_from(problem)
        grid = _grid_from(problem, spec)
        comp = _comparator_from(problem)
        dt = _positive(_number(problem, "problem", "dt",
                               default=GridHamiltonian.dt), "problem.dt")
        alpha0, M0 = _start_packet(problem, spec, grid)
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


def _run_comparator_audit(problem: dict):
    comp = _built("problem", ComparatorSpec,
                  s=_number(problem, "problem", "s", required=True),
                  N=_count(problem, "problem", "N", ComparatorSpec.N))
    dimension = _count(problem, "problem", "dimension", 1)
    if dimension > 2:
        _fail("problem.dimension", "must be 1 or 2")

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


def _run_scale(problem: dict):
    spec = _spec_from(problem)
    alpha0 = _phase_point(problem, spec)
    T, dt = _horizon(problem, DEFAULT_DT)
    lambdas = problem.get("lambdas")
    if not isinstance(lambdas, list) or not lambdas:
        _fail("problem.lambdas", "must be a nonempty list")
    lambdas = _positives(lambdas, "problem.lambdas")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        _fail("problem.lambdas", "must be strictly decreasing")
    grid = _grid_from(problem, spec)
    if not grid.holds_center(alpha0.vector):
        _fail("problem.alpha0", f"initial packet {OFF_GRID}")

    def compute():
        out = hepp_experiment(spec, alpha0, T, lambdas, grid=grid, dt=dt)
        out["provenance"] = _provenance(grid=grid, T=T, dt=dt)
        rows = [(r["lam"], r["error"], r["bound"]) for r in out["rows"]]
        return out, ("lambda", "error", "bound"), rows, None

    return compute


def _run_squeeze(problem: dict):
    spec = _spec_from(problem)
    grid = _grid_from(problem, spec)
    comp = _comparator_from(problem)
    T, dt = _horizon(problem, DEFAULT_DT)
    dilations = problem.get("dilations")
    if not isinstance(dilations, list) or not dilations:
        _fail("problem.dilations", "must be a nonempty list")
    dilations = _positives(dilations, "problem.dilations")
    ro = _built(
        "problem", ReductionProblem,
        spec=spec, alpha0=_phase_point(problem, spec), T=T,
        epsilon=_epsilon(problem, default=1.0), comparator=comp,
        E=_number(problem, "problem", "E"), grid=grid, dt=dt)

    def compute():
        out = squeeze_sweep(ro, dilations)
        out["provenance"] = _provenance(grid=grid, comparator=comp, T=T,
                                        dt=dt)
        rows = [(r["d"], r["duhamel_term"], r["comparator_term"],
                 r["total_bound"]) for r in out["rows"]]
        header = ("d", "duhamel_term", "comparator_term", "total_bound")
        return out, header, rows, None

    return compute


def _run_ehrenfest(problem: dict):
    spec = _spec_from(problem)
    if spec.dimension != 1:
        _fail("problem.potential", "ehrenfest diagnostics are one-dimensional")
    grid = _grid_from(problem, spec)
    T, dt = _horizon(problem, DEFAULT_DT)
    stride = _count(problem, "problem", "sample_stride", EHRENFEST_STRIDE)
    if time_steps(T, dt)[0] // stride < 2:
        _fail("problem.sample_stride", "the residuals need at least three "
              "samples: the steps of T over dt, divided by sample_stride "
              "and rounded down, must be at least 2")
    alpha0, M0 = _start_packet(problem, spec, grid)

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
        if not isinstance(config, dict):
            _fail("", "top level must be an object")
        _known(config, "", CONFIG_KEYS)
        mode = config.get("mode")
        if mode not in PROBLEM_KEYS:
            _fail("mode", f"must be one of {tuple(PROBLEM_KEYS)}")
        problem = _block(config, "problem")
        keys = PROBLEM_KEYS[mode]
        if mode == "classify-quantum" and "matrix" not in problem:
            keys = QUANTUM_GRID_KEYS
        for key in PACKET_KEYS if "packet" in keys else ():
            if key in problem:
                _fail(f"problem.{key}", "this mode takes its start state "
                      'as {"packet": {"alpha0": [...], "M0": ...}}')
        _known(problem, "problem.", keys)
        compute = _RUNNERS[mode](problem)
        output = _block(config, "output", required=False, keys=OUTPUT_KEYS)
        directory = Path(out_dir or output.get("directory", "."))
        formats = list(formats or output.get("formats", ["json"]))
        if any(fmt not in ("json", "csv") for fmt in formats):
            _fail("output.formats", "entries must be 'json' or 'csv'")
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
