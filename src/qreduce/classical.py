"""Classical flows: Hamilton's equations, phase-space regions and state labels.

Trajectories are integrated with a kick-drift-kick symplectic stepper,
which h = pi^2/2m + V(xi) admits because it is separable.
Bound/scattering labels are finite-horizon proxies and say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FlowDivergedError
from .hamiltonian import HamiltonianSpec, PhasePoint, energies, time_steps

DIVERGENCE_NORM = 1e8
CLASSIFY_DT = 1e-3


@dataclass
class ClassicalTrajectory:
    """A uniformly sampled solution of Hamilton's equations.

    Fields hold the sample times t_k = k dt (plus the start offset) and
    the positions and momenta as (m+1, n) arrays.  The energy
    h(alpha(t_k)) at every sample is taken on first read of energies.
    Treat instances as immutable.
    """

    spec: HamiltonianSpec
    times: np.ndarray
    xi: np.ndarray
    pi: np.ndarray
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

    @cached_property
    def energies(self) -> np.ndarray:
        """h(alpha(t_k)) at every sample."""
        return energies(self.spec, self.xi, self.pi)

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
    return _integrate_leapfrog_2d(spec, alpha0, m, dt)


def _finish(spec, m, dt, xi, pi, last):
    times = dt * np.arange(last + 1)
    xi = xi[:last + 1]
    pi = pi[:last + 1]
    traj = ClassicalTrajectory(spec=spec, times=times, xi=xi, pi=pi, dt=dt)
    if last < m:
        raise FlowDivergedError(t_last=times[-1], trajectory=traj)
    return traj


def _integrate_leapfrog_1d(spec, alpha0, m, dt):
    # Scalar fast path: Horner on plain floats keeps long runs cheap.
    dcoef = list(spec.potential._derivative((1,)))
    mass = spec.mass
    xi = np.empty((m + 1, 1))
    pi = np.empty((m + 1, 1))
    # Writes through flat memoryviews: numpy's item assignment costs more
    # than the step's arithmetic, and Python lists would keep every float.
    xs, ps = memoryview(xi.ravel()), memoryview(pi.ravel())
    x, p = float(alpha0.xi[0]), float(alpha0.pi[0])
    xs[0], ps[0] = x, p
    half = 0.5 * dt
    force = _horner(dcoef, x)
    for k in range(1, m + 1):
        p -= half * force
        x += dt * p / mass
        force = _horner(dcoef, x)
        p -= half * force
        xs[k], ps[k] = x, p
        if not (abs(x) < DIVERGENCE_NORM and abs(p) < DIVERGENCE_NORM):
            return _finish(spec, m, dt, xi, pi, k - 1)
    return _finish(spec, m, dt, xi, pi, m)


def _horner_2d(columns, x, y):
    # hamiltonian._horner's order on plain floats, so bitwise
    # PotentialModel.gradient: each column D[:, j] in x, then the column
    # values in y, each started as D[-1] + x * 0.
    values = []
    for col in columns:
        acc = col[-1] + x * 0
        for c in col[-2::-1]:
            acc = c + acc * x
        values.append(acc)
    acc = values[-1] + y * 0
    for c in values[-2::-1]:
        acc = c + acc * y
    return acc


def _integrate_leapfrog_2d(spec, alpha0, m, dt):
    # 2D on plain floats: the derivative coefficients are taken once per
    # flow, and each kick and drift is the array loop's scalar arithmetic.
    pot = spec.potential
    dx = pot._derivative((1, 0)).T.tolist()
    dy = pot._derivative((0, 1)).T.tolist()
    mass = spec.mass
    xi = np.empty((m + 1, 2))
    pi = np.empty((m + 1, 2))
    xs, ps = memoryview(xi.ravel()), memoryview(pi.ravel())
    x, y = map(float, alpha0.xi)
    px, py = map(float, alpha0.pi)
    xs[0], xs[1], ps[0], ps[1] = x, y, px, py
    half = 0.5 * dt
    fx, fy = _horner_2d(dx, x, y), _horner_2d(dy, x, y)
    for k in range(1, m + 1):
        px -= half * fx
        py -= half * fy
        x += dt * px / mass
        y += dt * py / mass
        fx, fy = _horner_2d(dx, x, y), _horner_2d(dy, x, y)
        px -= half * fx
        py -= half * fy
        xs[2 * k], xs[2 * k + 1], ps[2 * k], ps[2 * k + 1] = x, y, px, py
        if not (abs(x) < DIVERGENCE_NORM and abs(y) < DIVERGENCE_NORM
                and abs(px) < DIVERGENCE_NORM and abs(py) < DIVERGENCE_NORM):
            return _finish(spec, m, dt, xi, pi, k - 1)
    return _finish(spec, m, dt, xi, pi, m)


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
