"""Error bounds and verdicts for the classical limit of packet dynamics.

The pipeline compares three evolutions of the same initial packet: the
classical flow of its center, the quadratic-approximation packet flow
W(t,0), and the full grid propagation U(t).  Two error terms are
measured and bounded: the state distance ||(W - U) psi|| (bounded by the
time integral of the nonquadratic remainder norm) and the comparator
defect ||(1 - Omega) W psi||; one exact remainder formula serves one
and two dimensions.  The assembled inequality

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

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import cumulative_trapezoid

from . import __version__
from .classical import ClassicalTrajectory, PhaseRegion, integrate_flow
from .comparator import RESIDUAL_TOL, BasisResidualError, ComparatorSpec, \
    _residual_error, apply_comparator, comparator_scalars, \
    hermite_coefficients, within_magnitude
from .errors import ConfigError, NumericalError, OverflowGuardError
from .grid import DEFAULT_GRID, GridSpec, GridWavefunction, _row_norms, \
    expectation_a, propagate
from .hamiltonian import MAX_POLY_DEGREE, HamiltonianSpec, PhasePoint, \
    taylor_remainder_V
from .packets import GaussianPacket, PacketFlow, approximate_flow, packet, \
    sample_on_grid

CROSS_CHECK_TOL = 1e-8
# Gauss-Hermite nodes per axis: exact to degree 17, so for r^2 at the caps.
GAUSS_NODES = MAX_POLY_DEGREE + 1
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
        try:
            _positive_int(self.samples, "samples")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.spec.dimension == self.grid.n == self.alpha0.n:
            raise ConfigError("potential, grid and alpha0 dimensions differ")
        if not self.comparator.fits(self.grid):
            raise ConfigError("grid cannot resolve the comparator basis")
        if np.max(np.abs(self.alpha0.xi)) > 0.75 * self.grid.L:
            raise ConfigError("initial center too close to the grid edge")

    def epsilon_vector(self) -> np.ndarray:
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        if eps.size == 1:
            eps = np.full(2 * self.alpha0.n, eps[0])
        return eps


def _gaussian_rule(z: np.ndarray, w: np.ndarray, re_m: np.ndarray):
    """Nodes u = L z (..., P, n), L L^T = (2 Re M)^{-1}, and weights (P,)
    of the n-fold product of a standard-normal rule (z, w)."""
    n = re_m.shape[-1]
    L = np.linalg.cholesky(np.linalg.inv(2.0 * re_m))
    z_nodes = np.stack(np.meshgrid(*[z] * n, indexing="ij", copy=False), -1)
    u = z_nodes.reshape(-1, n) @ np.swapaxes(L, -1, -2)
    return u, functools.reduce(np.multiply.outer, [w] * n).ravel()


def _dense_remainder(spec: HamiltonianSpec, center, re_m, z) -> np.ndarray:
    """r(c + L z) by subtraction on every node tuple of z, shape (P,) * n.

    L = chol((2 Re M)^{-1}) is lower triangular, so in 2D u_0 = L_00 z_a
    reads only the first node: V's x-polynomials are taken once per
    node, and Horner in y runs over the (z_a, z_b) grid.
    """
    L = np.linalg.cholesky(np.linalg.inv(2.0 * re_m))
    if spec.dimension == 1:
        return taylor_remainder_V(spec, center, L[0, 0] * z)
    pot = spec.potential
    u0 = (L[0, 0] * z)[:, None]
    u1 = L[1, 0] * z[:, None] + L[1, 1] * z
    x_poly = npoly.polyval(center[0] + u0[:, 0], pot.coeff_matrix)
    r = npoly.polyval(center[1] + u1, x_poly[..., None], tensor=False)
    (g0, g1), ((h00, h01), (_, h11)) = (pot.gradient(center),
                                        pot.hessian(center))
    # V(c) + g.u + u.H.u / 2, the terms in u_0 alone on the first node.
    r -= pot.value(center) + u0 * (g0 + 0.5 * h00 * u0)
    r -= u1 * (g1 + h01 * u0 + 0.5 * h11 * u1)
    return r


def _reference_norm(spec: HamiltonianSpec, center, re_m) -> float:
    # Dense trapezoid over whitened z in [-10, 10]^n; r by subtraction.
    z = np.linspace(-10.0, 10.0, 321)
    w = np.exp(-0.5 * z ** 2) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    w[[0, -1]] *= 0.5
    r = _dense_remainder(spec, center, re_m, z)
    total = w @ (r * r)
    return float(np.sqrt(total if r.ndim == 1 else total @ w))


def _remainder_norms(spec: HamiltonianSpec, centers, re_m, spots):
    # Tensor Gauss-Hermite for all samples at once, exact at the degree
    # caps; the dense reference checks the samples in spots.
    z, w = hermegauss(GAUSS_NODES)
    u, weights = _gaussian_rule(z, w / np.sqrt(2.0 * np.pi), re_m)
    r = spec.potential.remainder(centers, u)
    values = np.sqrt((r * r) @ weights)
    for k in spots:
        spot = _reference_norm(spec, centers[k], re_m[k])
        if abs(spot - values[k]) > CROSS_CHECK_TOL * max(1.0, spot):
            raise NumericalError("remainder spot check failed")
    return values


def remainder_norm(spec: HamiltonianSpec, pkt: GaussianPacket) -> float:
    """L2 norm of the nonquadratic remainder applied to a unit packet.

    For h = p^2/2m + V the kinetic and quadratic parts cancel exactly in
    the difference generator, leaving multiplication by the
    cubic-and-higher Taylor remainder r of V about the packet center.
    The norm is E[r(u)^2]^{1/2} under the packet's Gaussian position
    density of covariance (2 Re M)^{-1}: tensor Gauss-Hermite quadrature,
    exact within the degree caps.  It is cross-checked by a dense
    trapezoid rule, 321 nodes per whitened axis on [-10, 10] with r
    found by subtraction, V(c+u) - V(c) - grad V.u - u.H.u / 2; in 2D
    that rule runs on broadcast axes, u_0 on the first node and u_1 on
    the 321 x 321 grid, with no stack of node points.

    Raises
    ------
    NumericalError if the exact and reference norms disagree.
    """
    return float(_remainder_norms(spec, pkt.alpha.xi[None], pkt.M.real[None],
                                  [0])[0])


def duhamel_curve(spec: HamiltonianSpec, flow: PacketFlow) -> np.ndarray:
    """Cumulative integral of the remainder norm along the packet flow.

    Bounds ||(W(t,0) - U(t)) psi|| for every t on the flow's time grid;
    nondecreasing since the integrand is a norm.  The integrand is
    remainder_norm over the whole flow at once: one Gauss-Hermite
    evaluation for every step, with the dense trapezoid reference taken
    at the first, middle and last steps, one step at a time.  The
    reference only gates (NumericalError on a mismatch), so the curve is
    the exact integral.
    """
    count = len(flow.times)
    values = _remainder_norms(spec, flow.traj.xi, flow.series.M.real,
                              {0, count // 2, count - 1})
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


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(eq=False)
class QuantumRun:
    """What a streamed grid run measured at its snapshots.

    times and expectations (one (2n,) row per snapshot) come from every
    run; bound_inputs holds the per-snapshot bound measurements when the
    run was given a BoundInputs.  No grid state is kept.
    """

    times: np.ndarray
    expectations: np.ndarray
    boundary_mass_max: float
    norm_drift: float
    bound_inputs: "BoundInputs" = None


def run_grid(spec: HamiltonianSpec, psi0: GridWavefunction, T: float,
             dt: float, samples: int = 200,
             bound_inputs: "BoundInputs" = None) -> QuantumRun:
    """Propagate psi0 and measure ~samples evenly spaced snapshots.

    The snapshots are the start, every stride-th step (stride =
    steps // samples, at least 1) and the final step, also when stride
    does not divide the step count.  They are measured as propagate
    hands them over, a block at a time: one stacked expectation_a call
    per block and, with ``bound_inputs``, one BoundInputs.add call that
    takes the block's per-snapshot bound work.  samples must be a
    positive integer.
    """
    samples = _positive_int(samples, "samples")
    steps = max(1, int(round(T / dt)))
    stride = max(1, steps // samples)
    grid = psi0.grid
    times, expectations = [], []

    def observe(block_times, amps):
        times.append(block_times.copy())
        expectations.append(expectation_a(amps, grid))
        if bound_inputs is not None:
            bound_inputs.add(block_times, amps)

    observe(np.zeros(1), psi0.amp[None])
    ev = propagate(spec, psi0, T, dt, observer=observe, observe_stride=stride)
    if steps % stride:
        observe(np.array([steps * (T / steps)]), ev.final.amp[None])
    return QuantumRun(times=np.concatenate(times),
                      expectations=np.concatenate(expectations),
                      boundary_mass_max=ev.boundary_mass_max,
                      norm_drift=ev.norm_drift, bound_inputs=bound_inputs)


def measured_error(run: QuantumRun, traj: ClassicalTrajectory) -> ErrorCurve:
    """Componentwise |classical alpha(t) - quantum expectations|.

    The classical states come from one stacked cubic Hermite
    interpolation over all run times, bitwise traj.at(t) per time.
    """
    classical = traj.at(run.times)
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


def _membership_probe(comp: ComparatorSpec, E, projection):
    # A state with mass beyond the truncated basis certifies nothing;
    # score it as divergent rather than aborting the assembly.
    try:
        probe = within_magnitude(comp, E or E_PROBE, None,
                                 projection=projection)
    except BasisResidualError:
        return np.inf, True
    return probe["inv_norm"], probe["divergent"]


class BoundInputs:
    """The per-snapshot half of the bound assembly, fed as a run streams.

    add(times, amps) takes a block of grid states u (amps, shape (B,) +
    (N,) * n on the problem's grid) at snapshot times, as propagate hands
    them to run_grid, and scores the block as arrays.  flow.sample writes
    the approximating packets W, at the trajectory step of each time,
    into one block-sized buffer.  u and W are projected by one row-exact
    stacked hermite_coefficients product each, and the W rows are
    smoothed by one stacked apply_comparator call.  delta1 = ||W - u||
    and delta2 = ||(1 - Omega) W|| are stacked row norms.  The membership
    probes stay one within_magnitude call per state, each given that
    state's projection, so W's one projection serves delta2 and its
    probe alike.  Every number is bitwise the one a per-state run gives.
    The first W row with more than RESIDUAL_TOL of its mass outside the
    basis ends the bound work of the run: the rows before it are kept,
    the BasisResidualError that apply_comparator raises for that row is
    kept in ``failure``, and assemble_bounds raises it.  An error from
    the smoothing of the rows before it ends the run's bound work too,
    with none of the block's rows kept.
    """

    def __init__(self, problem: ReductionProblem, flow: PacketFlow):
        self.problem = problem
        self.flow = flow
        self.steps = []
        self.rows = []
        self.failure = None

    def add(self, times, amps):
        traj = self.flow.traj
        steps = np.rint(times / traj.dt).astype(int)
        if np.any(np.abs(traj.times[steps] - times) > 1e-9):
            raise NumericalError("grid run and trajectory samples disagree")
        if self.failure is not None:
            return
        comp, E, grid = (self.problem.comparator, self.problem.E,
                         self.problem.grid)
        w = self.flow.sample(steps, grid)
        delta1 = _row_norms(w - amps, grid)
        u_coeffs, u_residual = hermite_coefficients(comp, amps, grid)
        w_coeffs, w_residual = hermite_coefficients(comp, w, grid)
        outside = np.flatnonzero(w_residual > RESIDUAL_TOL)
        kept = outside[0] if outside.size else len(amps)
        try:
            # W's rows are not read again once projected, so they turn
            # into W - Omega W, whose norms are delta2.
            w[:kept] -= apply_comparator(
                comp, w[:kept], normalized=True,
                projection=(w_coeffs[:kept], w_residual[:kept]), grid=grid)
        except (BasisResidualError, OverflowGuardError) as exc:
            self.failure = exc
            return
        if kept < len(amps):
            self.failure = _residual_error(w_residual[kept])
        delta2 = _row_norms(w[:kept], grid)
        self.steps.extend(steps[:kept].tolist())
        for row in range(kept):
            inv_u, div_u = _membership_probe(
                comp, E, (u_coeffs[row], float(u_residual[row])))
            inv_w, div_w = _membership_probe(
                comp, E, (w_coeffs[row], float(w_residual[row])))
            self.rows.append((delta1[row], delta2[row], inv_u, inv_w, div_u,
                              div_w))


def assemble_bounds(problem: ReductionProblem, run: QuantumRun,
                    flow: PacketFlow, error: ErrorCurve = None) -> BoundAssembly:
    """Evaluate both bound assemblies at the run's sample times.

    The run must have been streamed with BoundInputs(problem, flow),
    which measured delta1, delta2 and the inverse norms of every
    snapshot; this stage adds the Duhamel curve, selects E, takes the
    operator scalars and assembles.  E defaults to 1.5x the largest
    measured inverse-comparator norm over both state families, so the
    magnitude hypotheses hold unless the truncated expansion diverges.
    When the hypotheses hold and an error curve is supplied, domination
    of the measured error is asserted.

    Raises
    ------
    BasisResidualError, OverflowGuardError
        The first failure of the streamed bound work, if there was one.
    """
    inputs = run.bound_inputs
    if inputs is None or inputs.flow is not flow:
        raise ValueError("the run was not streamed with BoundInputs for "
                         "this flow")
    comp = problem.comparator
    duh_full = duhamel_curve(problem.spec, flow)
    if inputs.failure is not None:
        raise inputs.failure
    delta1_duh = duh_full[inputs.steps]
    delta1, delta2, inv_u, inv_w, div_u, div_w = (
        np.array(column) for column in zip(*inputs.rows))
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
    """Outcome of a reduction run over the sampled initial conditions.

    bounds is None when the bound stage of the worst sample broke down;
    bound_failure ({alpha0, error, message}) then names the first sample
    whose bound stage failed, and its JSON form writes every bound field
    as null.
    """

    problem: ReductionProblem
    times: np.ndarray
    error: ErrorCurve
    bounds: BoundAssembly
    verdict: str
    sample_results: list
    provenance: dict
    bound_failure: dict = None

    def to_json_dict(self) -> dict:
        prob = self.problem
        b = self.bounds
        curves = {"bound_general": "general",
                  "bound_specialized": "specialized",
                  "delta1_measured": "delta1_measured",
                  "delta1_duhamel": "delta1_duhamel", "delta2": "delta2"}
        out = {
            "verdict": self.verdict,
            "epsilon": prob.epsilon_vector().tolist(),
            "horizon": prob.T,
            "alpha0": prob.alpha0.vector.tolist(),
            "times": self.times.tolist(),
            "error_components": self.error.components.tolist(),
            "error_max": self.error.max_norm.tolist(),
            "E_used": None if b is None else b.E_used,
            "hypotheses_hold": None if b is None else b.hypotheses_hold,
            "samples": self.sample_results,
            "provenance": self.provenance,
        }
        for key, name in curves.items():
            out[key] = None if b is None else getattr(b, name).tolist()
        if self.bound_failure is not None:
            out["bound_failure"] = self.bound_failure
        return out


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
    run = run_grid(spec, psi0, problem.T, problem.dt, problem.samples,
                   BoundInputs(problem, flow))
    error = measured_error(run, traj)
    eps = problem.epsilon_vector()
    within = bool(np.all(error.components < eps[None, :]))
    bounds = failure = None
    try:
        bounds = assemble_bounds(problem, run, flow, error)
    except (BasisResidualError, OverflowGuardError) as exc:
        # The certificate broke down, not the run: the measured error
        # still decides the verdict, and no bound is reported.
        failure = {"alpha0": alpha0.vector.tolist(),
                   "error": type(exc).__name__, "message": str(exc)}
    # An epsilon violation disproves reduction outright; the magnitude
    # hypotheses only gate the positive certificate.
    if not within:
        verdict = "not-reduced"
    elif bounds is not None and bounds.hypotheses_hold:
        verdict = "reduced"
    else:
        verdict = "hypothesis-failed"
    return run, error, bounds, verdict, failure


def run_reduction(problem: ReductionProblem) -> ReductionReport:
    """Full pipeline: flows, grid run, errors, bounds and the verdict.

    The verdict is "reduced" only if every sampled initial condition
    keeps the measured error below epsilon with all magnitude hypotheses
    holding.  An epsilon violation anywhere disproves reduction outright
    ("not-reduced"); otherwise any failed magnitude hypothesis leaves
    the question open ("hypothesis-failed").  The reported curves belong
    to the worst sample (largest error).  A bound stage that breaks down
    (BasisResidualError, OverflowGuardError) leaves that sample without
    bounds, so its hypotheses count as failed; the report's
    bound_failure names the first such sample.  provenance["E_source"]
    is "given" for a user E and "auto" for one selected from the run,
    where the magnitude hypotheses hold by construction.
    """
    outcomes = []
    for a0 in _region_lattice(problem):
        run, error, bounds, verdict, failure = _single_run(problem, a0)
        outcomes.append((a0, run, error, bounds, verdict, failure))
    worst = max(outcomes, key=lambda item: item[2].overall)
    _, run, error, bounds, _, _ = worst
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
        for a0, _, err, _, v, _ in outcomes]
    failures = [item[5] for item in outcomes if item[5] is not None]
    provenance = {
        "grid": {"n": problem.grid.n, "N": problem.grid.N, "L": problem.grid.L},
        "dt": problem.dt,
        "comparator": {"s": problem.comparator.s, "N": problem.comparator.N},
        "E_used": None if bounds is None else bounds.E_used,
        "E_source": "auto" if problem.E is None else "given",
        "boundary_mass_max": run.boundary_mass_max,
        "norm_drift": run.norm_drift,
        "version": __version__,
    }
    return ReductionReport(problem=problem, times=run.times, error=error,
                           bounds=bounds, verdict=overall,
                           sample_results=sample_results,
                           provenance=provenance,
                           bound_failure=failures[0] if failures else None)


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
    the finite-difference accuracy of the identity residual, and
    sample_stride must be a positive integer.  The start
    and every sample_stride-th step are recorded, a block of states at a
    time: one batched FFT pair for <p>, row sums for the moments and one
    polynomial evaluation for V'(<q>) per block.
    """
    if psi0.grid.n != 1:
        raise ValueError("ehrenfest diagnostics are one-dimensional")
    grid = psi0.grid
    dv = spec.potential.derivative(grid.x)
    cell = grid.cell
    blocks = []

    def collect(times, amps):
        dens = np.abs(amps) ** 2
        mass = np.sum(dens, axis=-1) * cell
        q = np.sum(grid.x * dens, axis=-1) * cell / mass
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amps))
        p = np.sum(np.conj(amps) * -1j * dpsi, axis=-1).real * cell / mass
        blocks.append(np.column_stack([
            times, q, p, np.sum(dv * dens, axis=-1) * cell / mass,
            spec.potential.derivative(q)]))

    collect(np.zeros(1), psi0.amp[None])
    propagate(spec, psi0, T, dt, observer=collect,
              observe_stride=_positive_int(sample_stride, "sample_stride"))
    data = np.concatenate(blocks)
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
    problem, else measured on the d = 1 flow, which its row then reuses;
    E_source in the result says which ("given" or "auto").
    """
    dilations = [float(d) for d in dilations]
    if any(d <= 0 for d in dilations):
        raise ConfigError("dilations must be positive")
    spec = problem.spec
    traj = integrate_flow(spec, problem.alpha0, problem.T, problem.dt)
    comp = problem.comparator

    @functools.cache
    def final_state(d):
        flow = approximate_flow(spec, traj, packet(problem.alpha0, d))
        return flow, sample_on_grid(flow.packet_at(-1), problem.grid)

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
    return {"rows": rows, "argmin": argmin, "E_used": float(E),
            "E_source": "auto" if problem.E is None else "given"}
