"""Error bounds and verdicts for the classical limit of packet dynamics.

The pipeline compares three evolutions of the same initial packet: the
classical flow of its center, the quadratic-approximation packet flow
W(t,0), and the full grid propagation U(t).  Two error terms are
measured and bounded: the state distance ||(W - U) psi|| (bounded by the
time integral of the nonquadratic remainder norm) and the comparator
defect ||(1 - Omega) W psi||.  The assembled inequality

    |alpha(t) - a_bar(t)| <= ||a Omega|| {(2||Omega|| + (E+1)||1-Omega||)
                             Delta_1 + 2(E+1) Delta_2}

bounds the expectation-value error whenever the propagated states stay
within magnitude E of the comparator; the specialized form for the
normalized number-basis comparator has prefactor (e^s / (s e))^{1/2}
with factors E+3 and 2(E+1).  A problem "reduces" at tolerance epsilon
when the measured expectation error stays below epsilon over the horizon
with all magnitude hypotheses holding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import cumulative_trapezoid

from . import __version__
from .classical import ClassicalTrajectory, PhaseRegion, integrate_flow
from .comparator import BasisResidualError, ComparatorSpec, apply_comparator, \
    comparator_scalars, within_magnitude
from .errors import ConfigError, NumericalError
from .grid import DEFAULT_GRID, GridSpec, GridWavefunction, expectation_a, \
    propagate
from .hamiltonian import HamiltonianSpec, PhasePoint
from .packets import GaussianPacket, PacketFlow, approximate_flow, packet, \
    sample_on_grid

CROSS_CHECK_TOL = 1e-8
DOMINATION_SLACK = 1e-8
DEFAULT_DT = 1e-3
E_MARGIN = 1.5
E_PROBE = 1e12


@dataclass(frozen=True)
class ReductionProblem:
    """A reduction question: does the classical flow track the quantum one.

    epsilon is the acceptable expectation-value error, a scalar (max over
    the 2n components) or a 2n-vector (componentwise).  E is the
    magnitude threshold for the comparator hypotheses; None selects it
    from the run itself with a 1.5x margin.  region, when given, is an
    initial-condition set sampled on a corner/center lattice.
    """

    spec: HamiltonianSpec
    alpha0: PhasePoint
    T: float
    epsilon: object
    comparator: ComparatorSpec = field(default_factory=lambda: ComparatorSpec(s=1.0))
    E: float = None
    grid: GridSpec = DEFAULT_GRID
    M0: object = 1.0
    region: PhaseRegion = None
    dt: float = DEFAULT_DT
    samples: int = 200

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        if np.any(eps <= 0):
            raise ConfigError("epsilon must be positive")
        if eps.size not in (1, 2 * self.alpha0.n):
            raise ConfigError("epsilon must be scalar or one value per component")
        if self.T <= 0:
            raise ConfigError("horizon T must be positive")
        if self.E is not None and self.E <= 0:
            raise ConfigError("magnitude threshold E must be positive")
        if self.grid.n != self.alpha0.n:
            raise ConfigError("grid dimension must match the phase point")
        if np.max(np.abs(self.alpha0.xi)) > 0.75 * self.grid.L:
            raise ConfigError("initial center too close to the grid edge")

    def epsilon_vector(self) -> np.ndarray:
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        if eps.size == 1:
            eps = np.full(2 * self.alpha0.n, eps[0])
        return eps


def _gaussian_even_moments(var: float, top: int) -> np.ndarray:
    """E[u^{2k}] = var^k (2k-1)!! for 2k = 0..top (odd slots zero)."""
    moments = np.zeros(top + 1)
    moments[0] = 1.0
    for two_k in range(2, top + 1, 2):
        moments[two_k] = moments[two_k - 2] * var * (two_k - 1)
    return moments


def _moment_norm_sq_1d(coef: np.ndarray, var: float) -> float:
    sq = npoly.polymul(coef, coef)
    return float(sq @ _gaussian_even_moments(var, len(sq) - 1))


def _quadrature_norm_sq_1d(coef: np.ndarray, var: float) -> float:
    sd = np.sqrt(var)
    u = np.linspace(-12.0 * sd, 12.0 * sd, 4001)
    r = npoly.polyval(u, coef)
    dens = np.exp(-0.5 * u ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    return float(np.trapezoid(r * r * dens, u))


def _quadrature_norm_sq_2d(spec, pkt) -> float:
    from .hamiltonian import taylor_remainder_V
    cov = np.linalg.inv(2.0 * np.real(np.atleast_2d(pkt.M)))
    sd = np.sqrt(np.max(np.linalg.eigvalsh(cov)))
    u = np.linspace(-10.0 * sd, 10.0 * sd, 321)
    mesh = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    r = taylor_remainder_V(spec, pkt.alpha.xi, mesh)
    prec = np.linalg.inv(cov)
    quad = np.einsum("...i,ij,...j->...", mesh, prec, mesh)
    dens = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
    du = u[1] - u[0]
    return float(np.sum(r * r * dens) * du * du)


def remainder_norm(spec: HamiltonianSpec, pkt: GaussianPacket) -> float:
    """L2 norm of the nonquadratic remainder applied to a unit packet.

    For h = p^2/2m + V the kinetic and quadratic parts cancel exactly in
    the difference generator, leaving multiplication by the
    cubic-and-higher Taylor remainder of V about the packet center.  The
    norm is E[r(u)^2]^{1/2} under the packet's Gaussian position density
    of variance (2 Re M)^{-1}: closed central moments in one dimension,
    cross-checked against quadrature; quadrature in two.

    Raises
    ------
    ValueError for non-polynomial potentials (no exact remainder).
    NumericalError if the moment and quadrature forms disagree.
    """
    if not spec.potential.is_polynomial:
        raise ValueError("remainder norms need a polynomial potential")
    if pkt.n == 1:
        coef = spec.potential.remainder_coeffs(float(pkt.alpha.xi[0]))
        var = 1.0 / (2.0 * float(np.real(np.atleast_2d(pkt.M)[0, 0])))
        value_sq = _moment_norm_sq_1d(coef, var)
        check_sq = _quadrature_norm_sq_1d(coef, var)
        if abs(value_sq - check_sq) > CROSS_CHECK_TOL * max(1.0, value_sq):
            raise NumericalError("moment and quadrature remainder norms disagree")
        return float(np.sqrt(value_sq))
    return float(np.sqrt(_quadrature_norm_sq_2d(spec, pkt)))


def _remainder_values(spec: HamiltonianSpec, flow: PacketFlow) -> np.ndarray:
    # Moment form at every step; quadrature cross-check on a spot sample.
    if not spec.potential.is_polynomial:
        raise ValueError("remainder norms need a polynomial potential")
    count = len(flow.times)
    values = np.empty(count)
    if flow.traj.n == 1:
        re_m = np.real(flow.series.M[:, 0, 0])
        centers = flow.traj.xi[:, 0]
        for k in range(count):
            coef = spec.potential.remainder_coeffs(float(centers[k]))
            values[k] = np.sqrt(_moment_norm_sq_1d(coef, 0.5 / re_m[k]))
    else:
        for k in range(count):
            values[k] = np.sqrt(_quadrature_norm_sq_2d(spec, flow.packet_at(k)))
    for k in {0, count // 2, count - 1}:
        spot = remainder_norm(spec, flow.packet_at(k))
        if abs(spot - values[k]) > CROSS_CHECK_TOL * max(1.0, spot):
            raise NumericalError("remainder spot check failed")
    return values


def duhamel_curve(spec: HamiltonianSpec, flow: PacketFlow) -> np.ndarray:
    """Cumulative integral of the remainder norm along the packet flow.

    Bounds ||(W(t,0) - U(t)) psi|| for every t on the flow's time grid;
    nondecreasing since the integrand is a norm.
    """
    values = _remainder_values(spec, flow)
    return cumulative_trapezoid(values, flow.times, initial=0.0)


@dataclass(eq=False)
class ErrorCurve:
    """Componentwise |alpha(t) - a_bar(t)| at the sampled times."""

    times: np.ndarray
    components: np.ndarray

    @property
    def max_norm(self) -> np.ndarray:
        """Per-time maximum over the 2n components."""
        return np.max(self.components, axis=1)

    @property
    def overall(self) -> float:
        return float(np.max(self.components))


@dataclass(eq=False)
class QuantumRun:
    """Grid propagation samples: states, expectations, health counters."""

    times: np.ndarray
    states: list
    expectations: np.ndarray
    boundary_mass_max: float
    norm_drift: float


def run_grid(spec: HamiltonianSpec, psi0: GridWavefunction, T: float,
             dt: float, samples: int = 200) -> QuantumRun:
    """Propagate psi0 and keep ~samples evenly spaced snapshots."""
    steps = max(1, int(round(T / dt)))
    stride = max(1, steps // max(1, samples))
    ev = propagate(spec, psi0, T, dt, store_stride=stride)
    states = ev.states
    expectations = np.array([
        expectation_a(s if s.is_unit else s.normalized()) for s in states])
    return QuantumRun(times=np.asarray(ev.times), states=states,
                      expectations=expectations,
                      boundary_mass_max=ev.boundary_mass_max,
                      norm_drift=ev.norm_drift)


def measured_error(run: QuantumRun, traj: ClassicalTrajectory) -> ErrorCurve:
    """Componentwise |classical alpha(t) - quantum expectations|."""
    classical = np.array([traj.at(t) for t in run.times])
    return ErrorCurve(times=run.times,
                      components=np.abs(classical - run.expectations))


@dataclass(eq=False)
class BoundAssembly:
    """Both assemblies of the expectation-error bound along a run.

    delta1 is ||(W - U) psi|| (measured on the grid, with the Duhamel
    integral alongside); delta2 is ||(1 - Omega) W psi|| for the
    normalized comparator.  general uses measured operator scalars;
    specialized uses the closed prefactor (e^s/(s e))^{1/2} with factors
    E+3 and 2(E+1).  Hypothesis flags record membership of both the true
    and the approximating states within magnitude E.
    """

    times: np.ndarray
    delta1_measured: np.ndarray
    delta1_duhamel: np.ndarray
    delta2: np.ndarray
    inv_norms_u: np.ndarray
    inv_norms_w: np.ndarray
    membership_u: np.ndarray
    membership_w: np.ndarray
    E_used: float
    omega_measured: float
    prefactor_closed: float
    general: np.ndarray
    specialized: np.ndarray

    @property
    def hypotheses_hold(self) -> bool:
        return bool(np.all(self.membership_u) and np.all(self.membership_w))


def _flow_state(flow: PacketFlow, k: int, grid: GridSpec) -> GridWavefunction:
    return sample_on_grid(flow.packet_at(k), grid)


def _membership_probe(comp: ComparatorSpec, E, state: GridWavefunction):
    # A state with mass beyond the truncated basis certifies nothing;
    # score it as divergent rather than aborting the assembly.
    try:
        probe = within_magnitude(comp, E or E_PROBE, state)
    except BasisResidualError:
        return np.inf, True
    return probe["inv_norm"], probe["divergent"]


def assemble_bounds(problem: ReductionProblem, run: QuantumRun,
                    flow: PacketFlow, error: ErrorCurve = None) -> BoundAssembly:
    """Evaluate both bound assemblies at the run's sample times.

    E defaults to 1.5x the largest measured inverse-comparator norm over
    both state families, so the magnitude hypotheses hold unless the
    truncated expansion diverges.  When the hypotheses hold and an error
    curve is supplied, domination of the measured error is asserted.
    """
    comp = problem.comparator
    traj = flow.traj
    stride_idx = [int(round(t / traj.dt)) for t in run.times]
    if np.max(np.abs(traj.times[stride_idx] - run.times)) > 1e-9:
        raise NumericalError("grid run and trajectory samples disagree")
    duh_full = duhamel_curve(problem.spec, flow)
    delta1_duh = duh_full[stride_idx]
    count = len(run.times)
    delta1 = np.empty(count)
    delta2 = np.empty(count)
    inv_u = np.empty(count)
    inv_w = np.empty(count)
    div_u = np.zeros(count, dtype=bool)
    div_w = np.zeros(count, dtype=bool)
    for j, k in enumerate(stride_idx):
        w_state = _flow_state(flow, k, problem.grid)
        u_state = run.states[j]
        delta1[j] = w_state.distance(u_state)
        smoothed = apply_comparator(comp, w_state, normalized=True)
        delta2[j] = w_state.distance(smoothed)
        inv_u[j], div_u[j] = _membership_probe(comp, problem.E, u_state)
        inv_w[j], div_w[j] = _membership_probe(comp, problem.E, w_state)
    finite = np.concatenate([inv_u[~div_u], inv_w[~div_w]])
    if problem.E is not None:
        E = problem.E
    elif finite.size:
        E = E_MARGIN * float(np.max(finite))
    else:
        E = E_PROBE
    member_u = (~div_u) & (inv_u <= E)
    member_w = (~div_w) & (inv_w <= E)
    scalars = comparator_scalars(comp, dimension=problem.grid.n)
    # Scalars describe the unnormalized operator; rescale to the
    # normalized comparator used in the assembly.
    omega = float(np.sqrt(scalars["aOmega_sq_measured"]) / comp.sigma)
    norm_one_minus = 1.0 - np.exp(-comp.s * comp.N)
    m1_general = 2.0 + (E + 1.0) * norm_one_minus
    m2 = 2.0 * (E + 1.0)
    prefactor = float(np.sqrt(np.exp(comp.s) / (comp.s * np.e)))
    general = omega * (m1_general * delta1 + m2 * delta2)
    specialized = prefactor * ((E + 3.0) * delta1 + m2 * delta2)
    assembly = BoundAssembly(
        times=run.times, delta1_measured=delta1, delta1_duhamel=delta1_duh,
        delta2=delta2, inv_norms_u=inv_u, inv_norms_w=inv_w,
        membership_u=member_u, membership_w=member_w, E_used=float(E),
        omega_measured=omega, prefactor_closed=prefactor,
        general=general, specialized=specialized)
    if error is not None and assembly.hypotheses_hold:
        worst = error.max_norm - np.minimum(general, specialized)
        if np.max(worst) > DOMINATION_SLACK:
            raise NumericalError("assembled bound fails to dominate the "
                                 "measured error; inconsistent pipeline")
    return assembly


@dataclass(eq=False)
class ReductionReport:
    """Outcome of a reduction run over the sampled initial conditions."""

    problem: ReductionProblem
    times: np.ndarray
    error: ErrorCurve
    bounds: BoundAssembly
    verdict: str
    sample_results: list
    provenance: dict

    def to_json_dict(self) -> dict:
        prob = self.problem
        return {
            "verdict": self.verdict,
            "epsilon": prob.epsilon_vector().tolist(),
            "horizon": prob.T,
            "alpha0": prob.alpha0.vector.tolist(),
            "times": self.times.tolist(),
            "error_components": self.error.components.tolist(),
            "error_max": self.error.max_norm.tolist(),
            "bound_general": self.bounds.general.tolist(),
            "bound_specialized": self.bounds.specialized.tolist(),
            "delta1_measured": self.bounds.delta1_measured.tolist(),
            "delta1_duhamel": self.bounds.delta1_duhamel.tolist(),
            "delta2": self.bounds.delta2.tolist(),
            "E_used": self.bounds.E_used,
            "hypotheses_hold": self.bounds.hypotheses_hold,
            "samples": self.sample_results,
            "provenance": self.provenance,
        }


def _region_lattice(problem: ReductionProblem) -> list:
    """Corner/center lattice over the initial-condition region."""
    region = problem.region
    if region is None:
        return [problem.alpha0]
    center = region.center.vector
    if region.kind == "ball":
        spans = np.full(center.size, region.radius / np.sqrt(center.size))
    else:
        spans = np.where(np.isfinite(region.half_widths),
                         region.half_widths, 0.0)
    # Pull corners strictly inside so boundary rounding cannot drop them.
    spans = spans * (1.0 - 1e-12)
    axes = [np.array([c - w, c, c + w]) for c, w in zip(center, spans)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    seen = set()
    points = []
    for v in mesh.reshape(-1, center.size):
        key = tuple(v)
        if key not in seen:
            seen.add(key)
            points.append(PhasePoint.from_vector(v))
    inside = region.contains(np.array([p.vector for p in points]))
    return [p for p, ok in zip(points, inside) if ok]


def _single_run(problem: ReductionProblem, alpha0: PhasePoint):
    spec = problem.spec
    traj = integrate_flow(spec, alpha0, problem.T, problem.dt)
    base = packet(alpha0, problem.M0)
    flow = approximate_flow(spec, traj, base)
    psi0 = sample_on_grid(base, problem.grid)
    run = run_grid(spec, psi0, problem.T, problem.dt, problem.samples)
    error = measured_error(run, traj)
    bounds = assemble_bounds(problem, run, flow, error)
    eps = problem.epsilon_vector()
    within = bool(np.all(error.components < eps[None, :]))
    # An epsilon violation disproves reduction outright; the magnitude
    # hypotheses only gate the positive certificate.
    if not within:
        verdict = "not-reduced"
    elif bounds.hypotheses_hold:
        verdict = "reduced"
    else:
        verdict = "hypothesis-failed"
    return run, flow, error, bounds, verdict


def run_reduction(problem: ReductionProblem) -> ReductionReport:
    """Full pipeline: flows, grid run, errors, bounds and the verdict.

    The verdict is "reduced" only if every sampled initial condition
    keeps the measured error below epsilon with all magnitude hypotheses
    holding.  An epsilon violation anywhere disproves reduction outright
    ("not-reduced"); otherwise any failed magnitude hypothesis leaves
    the question open ("hypothesis-failed").  The reported curves belong
    to the worst sample (largest error).
    """
    outcomes = []
    for a0 in _region_lattice(problem):
        run, flow, error, bounds, verdict = _single_run(problem, a0)
        outcomes.append((a0, run, error, bounds, verdict))
    worst = max(outcomes, key=lambda item: item[2].overall)
    _, run, error, bounds, _ = worst
    verdicts = [item[4] for item in outcomes]
    if any(v == "not-reduced" for v in verdicts):
        overall = "not-reduced"
    elif all(v == "reduced" for v in verdicts):
        overall = "reduced"
    else:
        overall = "hypothesis-failed"
    sample_results = [
        {"alpha0": a0.vector.tolist(), "max_error": err.overall,
         "verdict": v}
        for a0, _, err, _, v in outcomes]
    provenance = {
        "grid": {"n": problem.grid.n, "N": problem.grid.N, "L": problem.grid.L},
        "dt": problem.dt,
        "comparator": {"s": problem.comparator.s, "N": problem.comparator.N},
        "E_used": bounds.E_used,
        "boundary_mass_max": run.boundary_mass_max,
        "norm_drift": run.norm_drift,
        "version": __version__,
    }
    return ReductionReport(problem=problem, times=run.times, error=error,
                           bounds=bounds, verdict=overall,
                           sample_results=sample_results,
                           provenance=provenance)


@dataclass(eq=False)
class EhrenfestData:
    """Densely sampled expectations needed for the Ehrenfest identity."""

    times: np.ndarray
    position: np.ndarray
    momentum: np.ndarray
    grad_v_mean: np.ndarray
    grad_v_at_mean: np.ndarray


def ehrenfest_run(spec: HamiltonianSpec, psi0: GridWavefunction, T: float,
                  dt: float = DEFAULT_DT, sample_stride: int = 2) -> EhrenfestData:
    """Propagate and record <q>, <p>, <V'(q)> and V'(<q>) densely.

    One-dimensional only; the sampling interval sample_stride * dt sets
    the finite-difference accuracy of the identity residual.
    """
    if psi0.grid.n != 1:
        raise ValueError("ehrenfest diagnostics are one-dimensional")
    grid = psi0.grid
    dv = spec.potential.derivative(grid.x)
    cell = grid.cell
    rows = []

    def collect(t, psi):
        amp = psi.amp
        dens = (np.abs(amp) ** 2)
        mass = np.sum(dens) * cell
        q = np.sum(grid.x * dens) * cell / mass
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amp))
        p = np.sum(np.conj(amp) * -1j * dpsi).real * cell / mass
        rows.append((t, q, p, np.sum(dv * dens) * cell / mass,
                     float(spec.potential.derivative(q))))

    collect(0.0, psi0)
    steps = max(1, int(round(T / dt)))
    stride = max(1, sample_stride)

    def observer(t, psi):
        if int(round(t / (T / steps))) % stride == 0:
            collect(t, psi)

    propagate(spec, psi0, T, dt, observer=observer)
    data = np.array(rows)
    return EhrenfestData(times=data[:, 0], position=data[:, 1],
                         momentum=data[:, 2], grad_v_mean=data[:, 3],
                         grad_v_at_mean=data[:, 4])


def ehrenfest_residuals(data: EhrenfestData) -> dict:
    """The quantum identity residual and the classicality gap.

    identity = |d<p>/dt + <V'(q)>| must vanish to finite-difference
    accuracy for every potential; gap = |<V'(q)> - V'(<q>)| is zero
    exactly when V is quadratic and measures the failure of expectation
    values to follow the classical flow.  Both curves are on the
    interior sample times (central differences).
    """
    t, p = data.times, data.momentum
    dpdt = (p[2:] - p[:-2]) / (t[2:] - t[:-2])
    identity = np.abs(dpdt + data.grad_v_mean[1:-1])
    gap = np.abs(data.grad_v_mean - data.grad_v_at_mean)[1:-1]
    return {"times": t[1:-1], "identity": identity, "gap": gap}


def squeeze_sweep(problem: ReductionProblem, dilations) -> dict:
    """Trade-off table between remainder shrinking and comparator defect.

    For each dilation d the initial width is M0 = d (position narrowing
    for d > 1): the Duhamel term falls with d while the comparator term
    ||(1 - Omega) W psi(T)|| grows once the packet no longer matches the
    comparator vacuum.  The total uses the specialized assembly with the
    Duhamel integral standing in for Delta_1.  E is taken from the
    problem, else measured on the d = 1 flow.
    """
    dilations = [float(d) for d in dilations]
    if any(d <= 0 for d in dilations):
        raise ConfigError("dilations must be positive")
    spec = problem.spec
    traj = integrate_flow(spec, problem.alpha0, problem.T, problem.dt)
    comp = problem.comparator

    def final_state(d):
        flow = approximate_flow(spec, traj, packet(problem.alpha0, d))
        return flow, _flow_state(flow, len(flow.times) - 1, problem.grid)

    if problem.E is not None:
        E = problem.E
    else:
        _, reference = final_state(1.0)
        probe = within_magnitude(comp, E_PROBE, reference)
        E = E_MARGIN * probe["inv_norm"] if not probe["divergent"] else E_PROBE
    prefactor = float(np.sqrt(np.exp(comp.s) / (comp.s * np.e)))
    rows = []
    for d in dilations:
        flow, w_state = final_state(d)
        duh = float(duhamel_curve(spec, flow)[-1])
        smoothed = apply_comparator(comp, w_state, normalized=True)
        comparator_term = w_state.distance(smoothed)
        total = prefactor * ((E + 3.0) * duh
                             + 2.0 * (E + 1.0) * comparator_term)
        rows.append({"d": d, "duhamel_term": duh,
                     "comparator_term": comparator_term,
                     "total_bound": total})
    argmin = min(rows, key=lambda row: row["total_bound"])["d"]
    return {"rows": rows, "argmin": argmin, "E_used": float(E)}
