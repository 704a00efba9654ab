"""Units-scaling calculus and the scaled-Hamiltonian-family limit.

A lambda-scaling multiplies the numerical values of position and
momentum by sqrt(lambda), energies by lambda, and leaves time and mass
alone; the numerical value of Planck's constant becomes lambda itself.
Rewriting an energy function in the scaled units gives
h_lam(x, k) = lambda * h(x / sqrt(lambda), k / sqrt(lambda)), while the
companion family g_lam(x, k) = h(sqrt(lambda) x, sqrt(lambda) k) / lambda
keeps the original units but shrinks the anharmonic part.  Driving
lambda down through that family is the honest reading of the
small-Planck limit: the classical approximation improves because the
Hamiltonian flattens, not because a fixed constant of nature changed.
"""

from typing import NamedTuple

import numpy as np

from .classical import integrate_flow
from .errors import ConfigError, QReduceError
from .grid import DEFAULT_GRID, GridSpec
from .hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel
from .packets import approximate_flow, packet, sample_on_grid
from .reduction import DEFAULT_DT, duhamel_curve, measured_error, run_grid

SCALE_EXPONENTS = {
    "position": 0.5,
    "momentum": 0.5,
    "time": 0.0,
    "mass": 0.0,
    "energy": 1.0,
}


def scale_value(kind: str, value: float, lam: float) -> float:
    """Numerical value of a quantity after a lambda change of units.

    Position and momentum pick up sqrt(lambda), energy picks up lambda,
    time and mass are untouched.  Planck's constant is 1 in the
    reference units by convention, so its scaled value is lambda itself
    regardless of the input.
    """
    if lam <= 0:
        raise ConfigError("scale parameter must be positive")
    if kind == "planck":
        return float(lam)
    try:
        exponent = SCALE_EXPONENTS[kind]
    except KeyError:
        raise ConfigError(f"unknown quantity kind: {kind!r}") from None
    return float(value) * lam ** exponent


class ScaledHamiltonians(NamedTuple):
    """The two specs a lambda-scaling produces from one Hamiltonian.

    in_scaled_units is the same physics rewritten in the lambda units
    (degree-k potential coefficient times lambda^(1 - k/2)); family
    member is the fixed-units Hamiltonian whose lambda-scaled form
    matches the original (degree-k coefficient times lambda^(k/2 - 1)).
    Both leave the kinetic term alone.
    """

    in_scaled_units: HamiltonianSpec
    family_member: HamiltonianSpec


def _scaled_potential(pot: PotentialModel, lam, sign: float) -> PotentialModel:
    # A degree-k coefficient times lambda^(sign (1 - k/2)), k the total degree.
    degrees = sum(np.indices(pot.coeffs.shape))
    return PotentialModel(pot.coeffs * lam ** (sign * (1.0 - degrees / 2.0)))


def scale_hamiltonian(spec: HamiltonianSpec, lam: float) -> ScaledHamiltonians:
    """Both lambda-transformed Hamiltonians for a polynomial potential.

    The kinetic coefficient 1/(2m) is degree 2 in momentum, so it is
    invariant under either transformation and the mass carries over
    unchanged.
    """
    if lam <= 0:
        raise ConfigError("scale parameter must be positive")
    scaled = HamiltonianSpec(
        mass=spec.mass, potential=_scaled_potential(spec.potential, lam, 1.0))
    family = HamiltonianSpec(
        mass=spec.mass, potential=_scaled_potential(spec.potential, lam, -1.0))
    return ScaledHamiltonians(scaled, family)


def _family_row(spec, alpha0, T, lam, grid, dt) -> dict:
    # Of the reduction pipeline only the stages behind the row's two
    # numbers run, from the unit-width packet, with no comparator work.
    family = scale_hamiltonian(spec, lam).family_member
    try:
        traj = integrate_flow(family, alpha0, T, dt)
        base = packet(alpha0, 1.0)
        flow = approximate_flow(family, traj, base)
        run = run_grid(family, sample_on_grid(base, grid), T, dt)
        error = measured_error(run, traj)
        # The curve is nondecreasing and the run's last snapshot is the
        # final step, so its last value is its maximum over the snapshots.
        bound = float(duhamel_curve(family, flow)[-1])
    except QReduceError as exc:
        return {"lam": float(lam), "error": None, "bound": None,
                "failed": f"{type(exc).__name__}: {exc}"}
    return {"lam": float(lam), "error": error.overall, "bound": bound,
            "failed": None}


def hepp_experiment(spec: HamiltonianSpec, alpha0: PhasePoint, T: float,
                    lambdas, grid: GridSpec = DEFAULT_GRID,
                    dt: float = DEFAULT_DT) -> dict:
    """Drive the scaled Hamiltonian family at a fixed numerical center.

    For each lambda the reduction pipeline runs with the family member
    g_lam, the same initial phase point, and the same horizon, up to the
    two numbers its row reports: the worst expectation error and the
    worst Duhamel remainder bound, from the unit-width packet.  No
    comparator work runs, so the grid need not resolve a comparator
    basis, and a row fails (failed names the error) only in a stage
    behind those numbers: the classical flow, the packet flow, the grid
    run or the remainder cross-check.  A centre too close to the grid
    edge (GridSpec.holds_center) is a ConfigError, as in a reduction.
    For an anharmonic polynomial error and bound shrink with lambda:
    every degree-k > 2 coefficient carries lambda^(k/2 - 1).
    """
    lams = [float(l) for l in lambdas]
    if any(l <= 0 for l in lams):
        raise ConfigError("scale parameters must be positive")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("scale parameters must be strictly decreasing")
    if not grid.holds_center(alpha0.xi):
        raise ConfigError("initial center too close to the grid edge")
    rows = [_family_row(spec, alpha0, T, l, grid, dt) for l in lams]
    ok = [r for r in rows if r["failed"] is None]
    errors = [r["error"] for r in ok]
    bounds = [r["bound"] for r in ok]
    return {
        "rows": rows,
        "monotone_error": len(ok) == len(rows)
        and all(b < a for a, b in zip(errors, errors[1:])),
        "monotone_bound": len(ok) == len(rows)
        and all(b < a for a, b in zip(bounds, bounds[1:])),
    }
