"""Seeded workload definitions: the configs each pass runs, and the probes.

A workload is a list of units; a unit is one CLI config run in-process
through ``qreduce.cli.run``.  The seed only jitters initial phase points
(the lattice centre and ``alpha0``): by at most 0.1 in 1D and 0.05 in 2D,
so every seed keeps the same grid, step counts and snapshot counts, and
the per-layer counts of a seed repeat exactly.

Sizes are chosen so one pass takes 1-3 s on a 2-core x86 host, which
lets a run of ``--seconds`` seconds hold several cold passes, each in a
fresh process, and many warm ones.  Where a unit is smaller than its nominal form, only dt is
coarser: the horizon, grid, comparator and the layer that carries the
load stay as they are.
"""

import numpy as np

WORKLOADS = ("lattice-1d", "remainder-2d", "modes-1d")
DEFAULT_SEED = 0
TWO_PI = 6.2832

# C[i, j] multiplies q1^i q2^j: harmonic in both axes plus cubic couplings.
COUPLED_2D = [[0.0, 0.0, 0.5, 0.0],
              [0.0, 0.0, 0.0, 0.0],
              [0.5, 0.01, 0.0, 0.0],
              [0.02, 0.0, 0.0, 0.0]]


def _jitter(seed: int, size: int, scale: float) -> list:
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size).tolist()


def _shift(point, offsets) -> list:
    return [round(p + o, 12) for p, o in zip(point, offsets)]


def _lattice_units(seed: int) -> list:
    center = _shift([1.0, 0.0], _jitter(seed, 2, 0.1))
    return [("lattice", "reduce", {
        "potential": "cubic-perturbed", "alpha0": center, "T": 0.5,
        "dt": 0.02, "epsilon": 0.05, "comparator": {"s": 1.0, "N": 128},
        "region": {"center": center, "half_widths": [0.2, 0.2]}})]


def _remainder_units(seed: int) -> list:
    alpha0 = _shift([1.0, 0.0, 0.0, 0.5], _jitter(seed, 4, 0.05))
    return [("coupled-2d", "reduce", {
        "potential": {"coeff_matrix": COUPLED_2D}, "alpha0": alpha0,
        "T": 0.5, "dt": 0.01, "epsilon": 0.05,
        "grid": {"n": 2, "N": 128, "L": 10.0},
        "comparator": {"s": 1.0, "N": 32}, "M0": [[1.0, 0.0], [0.0, 1.0]]})]


def _modes_units(seed: int) -> list:
    # One jitter per unit, drawn in a fixed order.
    j = np.reshape(_jitter(seed, 12, 0.1), (6, 2))
    return [
        ("harmonic", "reduce", {
            "potential": "harmonic", "alpha0": _shift([1.0, 0.0], j[0]),
            "T": TWO_PI, "dt": 0.004, "epsilon": 1e-6}),
        ("squeeze", "squeeze", {
            "potential": "cubic-perturbed", "alpha0": _shift([1.0, 0.0], j[1]),
            "T": 2.0, "dt": 0.005, "dilations": [0.5, 1.0, 2.0]}),
        ("scale", "scale", {
            "potential": "quartic", "alpha0": _shift([1.0, 0.0], j[2]),
            "T": 1.0, "dt": 0.05, "lambdas": [1.0, 0.5, 0.25]}),
        ("classify-quantum", "classify-quantum", {
            "potential": "double-well", "horizons": 40.0, "dt": 0.05,
            "packet": {"alpha0": _shift([1.0, 0.0], j[3])}}),
        ("ehrenfest", "ehrenfest", {
            "potential": "cubic-perturbed", "T": TWO_PI, "dt": 0.002,
            "packet": {"alpha0": _shift([1.0, 0.0], j[4])}}),
        ("classify-classical", "classify-classical", {
            "potential": "cubic-perturbed", "alpha0": _shift([1.0, 0.0], j[5]),
            "T": 20.0}),
        ("comparator-audit", "comparator-audit", {"s": 1.0, "N": 128}),
    ]


_UNITS = {"lattice-1d": _lattice_units, "remainder-2d": _remainder_units,
          "modes-1d": _modes_units}


def units(workload: str, seed: int) -> list:
    """[(unit name, config dict)] for one pass of the workload."""
    return [(name, {"mode": mode, "seed": seed, "problem": problem})
            for name, mode, problem in _UNITS[workload](seed)]


def formats(config: dict) -> list:
    return ["json", "csv"] if config["mode"] == "reduce" else ["json"]


# Known defects, reproduced once per run outside the timed passes.  Each
# entry is (name, config or None for the README snippet, expected outcome).
PROBES = (
    ("readme-quickstart", None, "TypeError"),
    ("quartic-2pi", {"mode": "reduce", "problem": {
        "potential": "quartic", "alpha0": [1.0, 0.0], "T": TWO_PI,
        "epsilon": 1e-3}}, "BasisResidualError"),
    ("reduce-2d-without-M0", {"mode": "reduce", "problem": {
        "potential": {"coeff_matrix": [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.0, 0.0]]},
        "alpha0": [1.0, 0.0, 0.0, 0.5], "T": 0.5, "epsilon": 0.05,
        "grid": {"n": 2, "N": 64, "L": 10.0}}}, "ValueError"),
)
