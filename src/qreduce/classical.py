"""Classical flows: Hamilton's equations, transit times and state labels.

Trajectories are integrated with a kick-drift-kick symplectic stepper,
which h = pi^2/2m + V(xi) admits because it is separable.
Transit times through phase-space regions are computed by locating each
boundary crossing on a cubic Hermite interpolant of the sampled flow, so
their accuracy is set by the crossing bisection, not the sample step.
Bound/scattering labels are finite-horizon proxies and say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FlowDivergedError
from .hamiltonian import HamiltonianSpec, PhasePoint, energies, time_steps

DIVERGENCE_NORM = 1e8
BISECT_REL_TOL = 1e-10
CLASSIFY_DT = 1e-3


@dataclass
class ClassicalTrajectory:
    """A uniformly sampled solution of Hamilton's equations.

    Fields hold the sample times t_k = k dt (plus the start offset), the
    positions and momenta as (m+1, n) arrays, and the energy h(alpha(t_k))
    at every sample.  Treat instances as immutable.
    """

    spec: HamiltonianSpec
    times: np.ndarray
    xi: np.ndarray
    pi: np.ndarray
    energies: np.ndarray
    dt: float

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.xi.shape[1]

    @cached_property
    def states(self) -> np.ndarray:
        """Samples stacked as an (m+1, 2n) array of (xi, pi) rows."""
        return np.hstack([self.xi, self.pi])

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def point(self, k: int) -> PhasePoint:
        return PhasePoint(self.xi[k], self.pi[k])

    @cached_property
    def derivatives(self) -> np.ndarray:
        """Phase-space velocities (xi_dot, pi_dot) at every sample."""
        return np.hstack([self.pi / self.spec.mass,
                          -self.spec.potential.gradient(self.xi)])

    def at(self, t) -> np.ndarray:
        """State at a time in the span, cubic Hermite interpolated.

        t may be an array of times; the result then has a (2n,) row per
        time, each bitwise the state at that time alone.
        """
        t = np.asarray(t, dtype=float)
        t0, t1 = self.times[0], self.times[-1]
        if not np.all((t0 - 1e-12 <= t) & (t <= t1 + 1e-12)):
            raise ValueError("time outside trajectory span")
        k = np.minimum(((t - t0) / self.dt).astype(int), len(self.times) - 2)
        s = ((t - self.times[k]) / self.dt)[..., None]
        states, slopes = self.states, self.derivatives
        return _hermite(states[k], states[k + 1], slopes[k], slopes[k + 1],
                        self.dt, s)


def _hermite(y0, y1, d0, d1, h, s):
    """Cubic Hermite value at fraction s of a step of width h."""
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * d1)


@dataclass(frozen=True)
class PhaseRegion:
    """A ball or axis-aligned box in phase space.

    Box half-widths may be infinite on axes the region does not restrict,
    e.g. a position window with unrestricted momentum.
    """

    kind: str
    center: PhasePoint
    radius: float = None
    half_widths: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ValueError("region kind must be 'ball' or 'box'")
        if self.kind == "ball":
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball region needs a positive radius")
        else:
            w = np.asarray(self.half_widths, dtype=float)
            if w.shape != (2 * self.center.n,) or np.any(w <= 0):
                raise ValueError("box region needs 2n positive half-widths")
            object.__setattr__(self, "half_widths", w)

    @classmethod
    def ball(cls, center: PhasePoint, radius: float) -> "PhaseRegion":
        return cls("ball", center, radius=radius)

    @classmethod
    def box(cls, center: PhasePoint, half_widths) -> "PhaseRegion":
        return cls("box", center, half_widths=half_widths)

    def gap(self, states) -> np.ndarray:
        """Signed boundary gap, negative inside; accepts (..., 2n) stacks."""
        states = np.asarray(states, dtype=float)
        delta = states - self.center.vector
        if self.kind == "ball":
            return np.sqrt(np.sum(delta ** 2, axis=-1)) - self.radius
        finite = np.isfinite(self.half_widths)
        if not np.any(finite):
            return np.full(states.shape[:-1], -np.inf)
        over = np.abs(delta[..., finite]) - self.half_widths[finite]
        return np.max(over, axis=-1)

    def contains(self, states) -> np.ndarray:
        return self.gap(states) <= 0.0


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integrate_flow(spec: HamiltonianSpec, alpha0: PhasePoint,
                   t_final: float, dt: float) -> ClassicalTrajectory:
    """Integrate Hamilton's equations from alpha0 over [0, t_final].

    The stepper is second-order kick-drift-kick symplectic, and the
    closing kick of a step and the opening kick of the next share one
    force evaluation.  The step follows time_steps: it is adjusted to
    divide the horizon exactly, so samples sit at k dt.

    Raises
    ------
    FlowDivergedError
        When the state leaves the finite window (norm above 1e8 or
        non-finite); the partial trajectory rides along on the error.
    """
    m, dt = time_steps(t_final, dt)
    if spec.potential.ndim == 1:
        return _integrate_leapfrog_1d(spec, alpha0, m, dt)
    return _integrate_leapfrog(spec, alpha0, m, dt)


def _finish(spec, m, dt, xi, pi, last):
    times = dt * np.arange(last + 1)
    xi = xi[:last + 1]
    pi = pi[:last + 1]
    traj = ClassicalTrajectory(spec=spec, times=times, xi=xi, pi=pi,
                               energies=energies(spec, xi, pi), dt=dt)
    if last < m:
        raise FlowDivergedError(t_last=times[-1], trajectory=traj)
    return traj


def _integrate_leapfrog_1d(spec, alpha0, m, dt):
    # Scalar fast path: Horner on plain floats keeps long runs cheap.
    dcoef = list(spec.potential._derivative((1,)))
    mass = spec.mass
    xi = np.empty((m + 1, 1))
    pi = np.empty((m + 1, 1))
    x, p = float(alpha0.xi[0]), float(alpha0.pi[0])
    xi[0, 0], pi[0, 0] = x, p
    half = 0.5 * dt
    force = _horner(dcoef, x)
    for k in range(1, m + 1):
        p -= half * force
        x += dt * p / mass
        force = _horner(dcoef, x)
        p -= half * force
        xi[k, 0], pi[k, 0] = x, p
        if not (abs(x) < DIVERGENCE_NORM and abs(p) < DIVERGENCE_NORM):
            return _finish(spec, m, dt, xi, pi, k - 1)
    return _finish(spec, m, dt, xi, pi, m)


def _integrate_leapfrog(spec, alpha0, m, dt):
    pot = spec.potential
    xi = np.empty((m + 1, alpha0.n))
    pi = np.empty((m + 1, alpha0.n))
    x = alpha0.xi.copy()
    p = alpha0.pi.copy()
    xi[0], pi[0] = x, p
    half = 0.5 * dt
    force = pot.gradient(x)
    for k in range(1, m + 1):
        p = p - half * force
        x = x + dt * p / spec.mass
        force = pot.gradient(x)
        p = p - half * force
        xi[k], pi[k] = x, p
        if not np.all(np.abs(np.concatenate([x, p])) < DIVERGENCE_NORM):
            return _finish(spec, m, dt, xi, pi, k - 1)
    return _finish(spec, m, dt, xi, pi, m)


def _bisect_crossing(traj, region, t_lo, t_hi):
    """Boundary crossing time inside [t_lo, t_hi] (gap changes sign there)."""
    g_lo = float(region.gap(traj.at(t_lo)))
    tol = BISECT_REL_TOL * traj.dt
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if (float(region.gap(traj.at(mid))) <= 0.0) == (g_lo <= 0.0):
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def classical_transit_time(traj: ClassicalTrajectory, region: PhaseRegion,
                           window) -> float:
    """Time the trajectory spends inside the region during the window.

    The indicator integral is evaluated exactly between boundary crossings;
    each crossing is located by bisection on the Hermite interpolant to a
    tolerance of 1e-10 dt.  Double crossings inside a single step go
    unnoticed, which bounds the resolution by the sample step.

    Parameters
    ----------
    window : pair (t0, t1) with t0 <= t1, contained in the trajectory span.

    Returns
    -------
    tau in [0, t1 - t0].
    """
    t0, t1 = float(window[0]), float(window[1])
    if t0 > t1:
        raise ValueError("window must be ordered")
    if t0 < traj.times[0] - 1e-12 or t1 > traj.times[-1] + 1e-12:
        raise ValueError("window outside trajectory span")
    if t1 == t0:
        return 0.0
    interior = traj.times[(traj.times > t0) & (traj.times < t1)]
    grid = np.concatenate([[t0], interior, [t1]])
    gvals = np.empty(len(grid))
    gvals[1:-1] = region.gap(traj.states[(traj.times > t0) & (traj.times < t1)])
    gvals[0] = region.gap(traj.at(t0))
    gvals[-1] = region.gap(traj.at(t1))
    inside = gvals <= 0.0
    lengths = np.diff(grid)
    tau = float(np.sum(lengths[inside[:-1] & inside[1:]]))
    for k in np.nonzero(inside[:-1] != inside[1:])[0]:
        t_star = _bisect_crossing(traj, region, grid[k], grid[k + 1])
        if inside[k]:
            tau += t_star - grid[k]
        else:
            tau += grid[k + 1] - t_star
    return min(tau, t1 - t0)


@dataclass(frozen=True)
class ClassificationResult:
    """A finite-horizon bound/scattering verdict with its evidence."""

    label: str
    horizon: float
    diagnostics: dict = field(default_factory=dict)


def classify_classical(spec: HamiltonianSpec, alpha0: PhasePoint,
                       horizon: float, radii=None,
                       dt: float = CLASSIFY_DT) -> ClassificationResult:
    """Label alpha0 as bound, scattering or undecided over a finite horizon.

    Bound means the phase-space norm stays within one of the tested radii
    for the whole horizon.  Scattering means it exits every tested radius
    and keeps growing over the trailing fifth of the window, or the flow
    blows up in finite time.  Anything else is undecided; a state that
    escapes every radius without monotone growth is flagged as an
    exceptional candidate in the diagnostics, never asserted.  The
    diagnostics' dt is the step that ran, time_steps(horizon, dt).
    Given radii must be a nonempty list of positive numbers (ValueError
    otherwise).
    """
    if radii is None:
        base = max(1.0, alpha0.s_norm)
        radii = [base * 2.0 ** k for k in range(6)]
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be a nonempty list of positive numbers")
    diagnostics = {"dt": time_steps(horizon, dt)[1], "radii": radii,
                   "diverged": False}
    try:
        traj = integrate_flow(spec, alpha0, horizon, dt)
    except FlowDivergedError as err:
        diagnostics["diverged"] = True
        diagnostics["t_last"] = err.t_last
        traj = err.trajectory
        norms = np.sqrt(np.sum(traj.states ** 2, axis=1))
        diagnostics["sup_norm"] = float(np.max(norms))
        return ClassificationResult("scattering", horizon, diagnostics)
    norms = np.sqrt(np.sum(traj.states ** 2, axis=1))
    sup = float(np.max(norms))
    diagnostics["sup_norm"] = sup
    enclosing = [r for r in radii if sup <= r]
    if enclosing:
        diagnostics["enclosing_radius"] = enclosing[0]
        return ClassificationResult("bound", horizon, diagnostics)
    tail = norms[int(0.8 * len(norms)):]
    growing = bool(np.all(np.diff(tail) > 0))
    diagnostics["tail_growing"] = growing
    if growing:
        return ClassificationResult("scattering", horizon, diagnostics)
    diagnostics["exceptional_candidate"] = True
    return ClassificationResult("undecided", horizon, diagnostics)
