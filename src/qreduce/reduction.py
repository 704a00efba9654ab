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

from . import __version__
from .classical import ClassicalTrajectory, PhaseRegion, integrate_flow
from .comparator import RESIDUAL_TOL, BasisResidualError, ComparatorSpec, \
    _residual_error, apply_comparator, comparator_scalars, \
    hermite_coefficients, within_magnitude
from .errors import ConfigError, NumericalError
from .grid import DEFAULT_GRID, OFF_GRID, GridSpec, GridStack, \
    GridWavefunction, _block_rows, _chunk_rows, _chunks, _moment_sums, \
    _observer_block, _row_norms, expectation_a, propagate
from .hamiltonian import HamiltonianSpec, PhasePoint, \
    _remainder_by_subtraction, normal_rule, time_steps
from .packets import PacketFlow, _sample_flows, approximate_flow, packet, \
    sample_on_grid
from .quadrature import cumulative_trapezoid

CROSS_CHECK_TOL = 1e-8
DOMINATION_SLACK = 1e-8
DEFAULT_DT = 1e-3
DEFAULT_SAMPLES = 200
DEFAULT_S = 1.0
EHRENFEST_STRIDE = 2
E_MARGIN = 1.5
E_PROBE = 1e12


@dataclass(frozen=True)
class ReductionProblem:
    """A reduction question: does the classical flow track the quantum one.

    epsilon is the acceptable expectation-value error, a scalar (max over
    the 2n components) or a 2n-vector (componentwise).  E is the
    magnitude threshold for the comparator hypotheses; None selects it
    from the run itself with a 1.5x margin.  region, when given, is an
    initial-condition set sampled on a corner/center lattice.  alpha0
    and every lattice point must hold GridSpec.holds_center, in position
    and in momentum.  epsilon, T and E must be finite, and dt must hold
    time_steps' rule, 0 < dt <= T.

    lattice, set at construction, holds the (K, 2n) start points that
    run_reduction runs, one per row in lattice order (_lattice_vectors):
    every corner/center point of the region, or alpha0 alone without one.
    A refusal is a ConfigError whose ``field`` names the field at fault.
    """

    spec: HamiltonianSpec
    alpha0: PhasePoint
    T: float
    epsilon: object
    comparator: ComparatorSpec = field(
        default_factory=lambda: ComparatorSpec(s=DEFAULT_S))
    E: float = None
    grid: GridSpec = DEFAULT_GRID
    M0: object = 1.0
    region: PhaseRegion = None
    dt: float = DEFAULT_DT
    samples: int = DEFAULT_SAMPLES
    lattice: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = self.epsilon_vector()
        if np.any(eps <= 0):
            raise ConfigError("epsilon must be positive", "epsilon")
        if eps.size != 2 * self.alpha0.n:
            raise ConfigError("epsilon must be scalar or one value per "
                              "component", "epsilon")
        if self.T <= 0:
            raise ConfigError("horizon T must be positive", "T")
        if self.E is not None and self.E <= 0:
            raise ConfigError("magnitude threshold E must be positive", "E")
        # An infinite E would admit the states that certify nothing.
        for name, value in (("epsilon", eps), ("T", self.T), ("E", self.E)):
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite", name)
        try:
            time_steps(self.T, self.dt)
        except ValueError:
            raise ConfigError("time step dt must be positive and at most T",
                              "dt") from None
        try:
            _positive_int(self.samples, "samples")
        except ValueError as exc:
            raise ConfigError(str(exc), "samples") from None
        if not self.spec.dimension == self.grid.n == self.alpha0.n:
            raise ConfigError("potential, grid and alpha0 dimensions differ",
                              "alpha0")
        if self.region is not None and self.region.center.n != self.alpha0.n:
            raise ConfigError("region and alpha0 dimensions differ", "region")
        if not self.comparator.fits(self.grid):
            raise ConfigError("grid cannot resolve the comparator basis",
                              "comparator")
        if not self.grid.holds_center(self.alpha0.vector):
            raise ConfigError(f"initial packet {OFF_GRID}", "alpha0")
        object.__setattr__(self, "lattice", _lattice_vectors(self))
        if not self.grid.holds_center(self.lattice):
            raise ConfigError(f"a region lattice point {OFF_GRID}", "region")

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

    L = chol((2 Re M)^{-1}) is lower triangular, so u_i = sum_{j<=i}
    L_ij z_j reads only the first i + 1 nodes: on broadcast axes, node
    z_j along axis j, V's polynomials in the first coordinate are taken
    once per node and each subtracted term spans only the axes it reads.
    The nodes go a chunk of first-axis nodes at a time (_chunk_rows),
    each chunk's rows of r within grid.CHUNK_BYTES: r is elementwise, so
    the chunks keep its bits, and only the result spans every node tuple.
    """
    n = len(center)
    L = np.linalg.cholesky(np.linalg.inv(2.0 * re_m))
    remainder = _remainder_by_subtraction(spec.potential, center)
    out = np.empty((len(z),) * n)
    for rows in _chunks(len(z), _chunk_rows(out[0].nbytes, len(z))):
        zs = [(z[rows] if j == 0 else z).reshape((-1,) + (1,) * (n - 1 - j))
              for j in range(n)]
        out[rows] = remainder(
            [functools.reduce(np.add, [L[i, j] * zs[j] for j in range(i + 1)])
             for i in range(n)])
    return out


def _reference_norm(spec: HamiltonianSpec, center, re_m) -> float:
    # Dense trapezoid over whitened z in [-10, 10]^n; r by subtraction.
    z = np.linspace(-10.0, 10.0, 321)
    w = np.exp(-0.5 * z ** 2) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    w[[0, -1]] *= 0.5
    total = _dense_remainder(spec, center, re_m, z)
    total *= total
    for _ in range(len(center)):
        total = w @ total
    return float(np.sqrt(total))


def _remainder_norms(spec: HamiltonianSpec, centers, re_m, spots):
    # Tensor Gauss-Hermite for all samples at once, exact at the degree
    # caps; the dense reference checks the samples in spots.
    u, weights = _gaussian_rule(*normal_rule(), re_m)
    r = spec.potential.remainder(centers, u)
    values = np.sqrt((r * r) @ weights)
    for k in spots:
        spot = _reference_norm(spec, centers[k], re_m[k])
        if abs(spot - values[k]) > CROSS_CHECK_TOL * max(1.0, spot):
            raise NumericalError("remainder spot check failed")
    return values


def duhamel_curve(spec: HamiltonianSpec, flow: PacketFlow) -> np.ndarray:
    """Cumulative integral of the remainder norm along the packet flow.

    Bounds ||(W(t,0) - U(t)) psi|| for every t on the flow's time grid;
    nondecreasing since the integrand is a norm.  For h = p^2/2m + V the
    kinetic and quadratic parts cancel exactly in the difference
    generator, leaving multiplication by the cubic-and-higher Taylor
    remainder r of V about the packet center.  The integrand at each
    step is the L2 norm of r applied to the unit packet there,
    E[r(u)^2]^{1/2} under its Gaussian position density of covariance
    (2 Re M)^{-1}: tensor Gauss-Hermite quadrature, exact within the
    degree caps, for every step in one evaluation (_remainder_norms).
    At the first, middle and last steps, one step at a time, it is
    cross-checked by a dense trapezoid rule, 321 nodes per whitened axis
    on [-10, 10] with r found by subtraction, V(c+u) - V(c) - grad V.u -
    u.H.u / 2; that rule runs on broadcast axes, u_i on the first i + 1
    nodes, with no stack of node points.  The reference only gates, so
    the curve is the exact integral.

    Raises
    ------
    NumericalError if the exact and reference norms disagree.
    """
    count = len(flow.traj.times)
    values = _remainder_norms(spec, flow.traj.xi, flow.series.M.real,
                              {0, count // 2, count - 1})
    return cumulative_trapezoid(values, flow.traj.dt)


@dataclass(eq=False)
class ErrorCurve:
    """Componentwise |alpha(t) - a_bar(t)| at the run's sample times."""

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
    run; the bound measurements, when there are any, went to the
    BoundInputs the run was given.  No grid state is kept.
    """

    times: np.ndarray
    expectations: np.ndarray
    boundary_mass_max: float
    norm_drift: float


def run_grid(spec: HamiltonianSpec, psi0: GridStack, T: float, dt: float,
             samples: int = DEFAULT_SAMPLES,
             bound_inputs: list = None) -> list:
    """Propagate the S states of psi0 and measure ~samples evenly spaced
    snapshots of each: a list of S QuantumRuns, one per row.

    The snapshots are the start, every stride-th step (stride =
    steps // samples, at least 1) and the final step, also when stride
    does not divide the step count; the steps follow time_steps(T, dt).
    They are measured as propagate hands them over, a block of the
    whole stack at a time: one stacked expectation_a call per block and,
    with ``bound_inputs`` (S BoundInputs, one per row),
    BoundInputs.add_stack, which takes the block's per-snapshot bound
    work and keeps it for assemble_bounds.  Each run is bitwise the run
    of its row alone.  samples must be a positive integer.

    The run allocates one scratch block, of the size of propagate's
    observer block, and every block's work goes through its leading
    rows: first the spectra of expectation_a, then the bound stage's W.
    The observed states u are scored in the block that holds them, which
    the bound stage overwrites with W - u (BoundInputs).  So the observer
    allocates no block-sized array of its own, and the heap does not grow
    and trim again for each block.  Every block it scores is the run's own:
    propagate's observer blocks, its final rows, and a copy of psi0's
    rows for the start, so psi0 keeps its bits.
    """
    samples = _positive_int(samples, "samples")
    steps, step_dt = time_steps(T, dt)
    stride = max(1, steps // samples)
    grid = psi0.grid
    scratch = _observer_block(grid, steps // stride, len(psi0))
    times, expectations = [], []

    def observe(block_times, amps):
        # amps is (S, rows) + (N,) * n, the rows of each state together.
        work = scratch[:len(amps) * len(block_times)].reshape(amps.shape)
        times.append(block_times.copy())
        expectations.append(expectation_a(amps, grid, work=work))
        if bound_inputs is not None:
            BoundInputs.add_stack(bound_inputs, block_times, amps, work)

    observe(np.zeros(1), psi0.amps[:, None].copy())
    ev = propagate(spec, psi0, T, dt, observer=observe, observe_stride=stride)
    if steps % stride:
        observe(np.array([steps * step_dt]), ev.final.amps[:, None])
    times = np.concatenate(times)
    expectations = np.concatenate(expectations, axis=1)
    return [QuantumRun(times=times, expectations=moments,
                       boundary_mass_max=float(boundary),
                       norm_drift=float(drift))
            for moments, boundary, drift in zip(
                expectations, ev.boundary_mass_max, ev.norm_drift)]


def measured_error(run: QuantumRun, traj: ClassicalTrajectory) -> ErrorCurve:
    """Componentwise |classical alpha(t) - quantum expectations|.

    The classical states come from one stacked cubic Hermite
    interpolation over all run times, bitwise traj.at(t) per time.
    """
    classical = traj.at(run.times)
    return ErrorCurve(components=np.abs(classical - run.expectations))


@dataclass(eq=False)
class BoundAssembly:
    """Both assemblies of the expectation-error bound along a run.

    delta1 is ||(W - U) psi|| (measured on the grid, with the Duhamel
    integral alongside); delta2 is ||(1 - Omega) W psi|| for the
    normalized comparator.  general uses measured operator scalars;
    specialized uses the closed prefactor (e^s/(s e))^{1/2} with factors
    E+3 and 2(E+1).  Hypothesis flags record membership of both the true
    and the approximating states within magnitude E, as assemble_bounds
    decides it.
    """

    times: np.ndarray
    delta1_measured: np.ndarray
    delta1_duhamel: np.ndarray
    delta2: np.ndarray
    membership_u: np.ndarray
    membership_w: np.ndarray
    E_used: float
    prefactor_closed: float
    general: np.ndarray
    specialized: np.ndarray

    @property
    def hypotheses_hold(self) -> bool:
        return bool(np.all(self.membership_u) and np.all(self.membership_w))


def _inverse_norms(comp: ComparatorSpec, coeffs, residual) -> np.ndarray:
    # One within_magnitude call per row, given its projection: inf for a
    # state that certifies nothing, mass beyond the basis included.
    return np.array([within_magnitude(comp, projection)["inv_norm"]
                     for projection in zip(coeffs, residual.tolist())])


class BoundInputs:
    """The per-snapshot half of the bound assembly of one sample, fed as a
    run streams.

    BoundInputs.add_stack(inputs, times, amps, work) scores one block of
    a stacked run for the S samples' inputs at once: grid states u (amps,
    shape (S, B) + (N,) * n on the problem's grid, row i for inputs[i])
    at snapshot times, as propagate hands them to run_grid.  The
    approximating packets W of every sample, at the trajectory step of
    each time, go into ``work``: a complex block of amps' shape whose
    contents are not read, run_grid's scratch block for the run.  W and
    u are projected by one row-exact hermite_coefficients call each.
    delta1 = ||W - u|| is a stacked row norm: once both are projected,
    the rows of amps turn into W - u, so amps must be the caller's to
    overwrite, and the call allocates no block of its own.
    delta2 = ||(1 - Omega) W|| is taken from W's projection alone
    (_comparator_defects), with no grid pass.  The membership probes are
    one within_magnitude call per state, on that state's row of the
    projection, so W's one projection serves delta2 and its probe alike.
    Every number is bitwise the one a stack of one gives.  ``blocks``
    holds one (steps, values) pair per block: values is a (4, B) array
    of delta1, delta2 and the inverse norms of u and W, inf for a state
    that certifies nothing.  The first W row of a sample with more than
    RESIDUAL_TOL of its mass outside the basis ends that sample's bound
    work: its BasisResidualError goes to the sample's ``failure``, for
    assemble_bounds to raise, and its block is not kept; the other
    samples of the stack go on.
    """

    def __init__(self, problem: ReductionProblem, flow: PacketFlow):
        self.problem = problem
        self.flow = flow
        self.blocks = []
        self.failure = None

    @staticmethod
    def add_stack(inputs: list, times, amps, work):
        # The samples of one run share its snapshot times, and every flow
        # its time grid, time_steps(T, dt): one check serves them all.
        traj = inputs[0].flow.traj
        steps = np.rint(times / traj.dt).astype(int)
        if np.any(np.abs(traj.times[steps] - times) > 1e-9):
            raise NumericalError("grid run and trajectory samples disagree")
        live = [row for row, item in enumerate(inputs) if item.failure is None]
        if not live:
            return
        comp, grid = inputs[0].problem.comparator, inputs[0].problem.grid
        w = work[:len(live)]
        _sample_flows([inputs[row].flow for row in live], steps, grid, w)
        w_coeffs, w_residual = hermite_coefficients(comp, _rows(w), grid)
        residual = w_residual.reshape(len(live), -1)
        outside = residual > RESIDUAL_TOL
        if np.any(outside):
            for row, over, row_residual in zip(live, outside, residual):
                if np.any(over):
                    inputs[row].failure = _residual_error(
                        row_residual[np.argmax(over)])
            # The block again, for the samples still in the basis.
            BoundInputs.add_stack(inputs, times, amps, work)
            return
        # The live samples' states move to the leading rows of amps, in
        # order: a row only moves up, past rows already read.
        for at, row in enumerate(live):
            if at != row:
                amps[at] = amps[row]
        u_rows, w_rows = _rows(amps[:len(live)]), _rows(w)
        u_coeffs, u_residual = hermite_coefficients(comp, u_rows, grid)
        # u is not read again once projected: its rows turn into W - u,
        # whose norms are delta1.
        np.subtract(w_rows, u_rows, out=u_rows)
        delta1 = _row_norms(u_rows, grid)
        delta2 = _comparator_defects(comp, (w_coeffs, w_residual))
        values = np.stack([delta1, delta2,
                           _inverse_norms(comp, u_coeffs, u_residual),
                           _inverse_norms(comp, w_coeffs, w_residual)
                           ]).reshape(4, len(live), -1)
        for at, row in enumerate(live):
            inputs[row].blocks.append((steps, values[:, at]))


def _comparator_defects(comp: ComparatorSpec, projection) -> np.ndarray:
    """||(1 - Omega) W|| per row of a projected stack of states W.

    Omega is diagonal on the Hermite functions, so in the basis
    (1 - Omega) W has the coefficients c - apply_comparator's image, and
    W's mass outside it, ||W||^2 - sum |c|^2 = residual sum |c|^2 /
    (1 - residual), passes unchanged.  So no grid pass is made, and each
    row is bitwise the result for that row alone.  A row with more than
    RESIDUAL_TOL of its mass outside the basis raises apply_comparator's
    BasisResidualError.
    """
    coeffs, residual = projection
    defect = coeffs - apply_comparator(comp, projection)
    rows = len(coeffs)
    captured = np.sum(np.abs(coeffs.reshape(rows, -1)) ** 2, axis=-1)
    in_basis = np.sum(np.abs(defect.reshape(rows, -1)) ** 2, axis=-1)
    return np.sqrt(in_basis + residual * captured / (1.0 - residual))


def _rows(stack):
    """A (S, B, ...) array of S samples' blocks as S * B rows."""
    return stack.reshape((-1,) + stack.shape[2:])


def _select_E(E, probe) -> float:
    """The magnitude threshold of a run: E when given.  Otherwise probe()
    returns the inverse comparator norms of the probed states, and E is
    E_MARGIN times the largest finite one, or E_PROBE when every probed
    state's norm is inf."""
    if E is not None:
        return E
    inv_norms = probe()
    finite = inv_norms[np.isfinite(inv_norms)]
    return E_MARGIN * float(np.max(finite)) if finite.size else E_PROBE


def _closed_prefactor(comp: ComparatorSpec) -> float:
    """(e^s / (s e))^{1/2}: the specialized bound's operator prefactor."""
    return float(np.sqrt(np.exp(comp.s) / (comp.s * np.e)))


def _specialized_bound(prefactor: float, E: float, delta1, delta2):
    """prefactor ((E + 3) delta1 + 2 (E + 1) delta2), for scalars or arrays."""
    return prefactor * ((E + 3.0) * delta1 + 2.0 * (E + 1.0) * delta2)


def _E_source(problem: ReductionProblem) -> str:
    """How E was chosen: "given" by the user, or "auto" from the run."""
    return "auto" if problem.E is None else "given"


def _provenance(grid: GridSpec = None, comparator: ComparatorSpec = None,
                T: float = None, dt: float = None) -> dict:
    """The numerics a report ran with: grid, time step and comparator.

    Each entry is written when its argument is given.  With the horizon
    T, "dt" is the step time_steps(T, dt) runs, which divides T; without
    it, dt is written as given.
    """
    out = {}
    if grid is not None:
        out["grid"] = {"n": grid.n, "N": grid.N, "L": grid.L}
    if dt is not None:
        out["dt"] = dt if T is None else time_steps(T, dt)[1]
    if comparator is not None:
        out["comparator"] = {"s": comparator.s, "N": comparator.N}
    return out


def assemble_bounds(problem: ReductionProblem, run: QuantumRun,
                    inputs: BoundInputs, error: ErrorCurve) -> BoundAssembly:
    """Evaluate both bound assemblies at the run's sample times.

    inputs is the BoundInputs(problem, flow) the run was streamed with,
    which measured delta1, delta2 and the inverse norms of every
    snapshot; this stage adds the Duhamel curve of inputs.flow, selects
    E, takes the operator scalars and assembles.  E defaults to 1.5x the
    largest finite inverse-comparator norm over both state families, so
    the magnitude hypotheses hold unless a state certifies nothing.  A
    state is a member within magnitude E when its inverse norm is at
    most E, which a state that certifies nothing (inf) never is, since
    E is finite: the one membership rule, taken here since E is chosen
    only after every probe.  error is the run's measured_error(run,
    traj); when the hypotheses hold, the assembled bounds must dominate
    it.

    Raises
    ------
    NumericalError
        From the Duhamel curve's spot check, which runs first, or when
        the hypotheses hold and a bound falls below the measured error
        by more than DOMINATION_SLACK.
    BasisResidualError
        The W residual that ended the streamed bound work, if one did.
    """
    comp = problem.comparator
    duh_full = duhamel_curve(problem.spec, inputs.flow)
    if inputs.failure is not None:
        raise inputs.failure
    steps, values = (np.concatenate(column, axis=-1)
                     for column in zip(*inputs.blocks))
    delta1, delta2, inv_u, inv_w = values
    delta1_duh = duh_full[steps]
    E = _select_E(problem.E, lambda: np.concatenate([inv_u, inv_w]))
    scalars = comparator_scalars(comp, dimension=problem.grid.n)
    # Scalars describe the unnormalized operator; rescale to the
    # normalized comparator used in the assembly.
    omega = float(np.sqrt(scalars["aOmega_sq_measured"]) / comp.sigma)
    norm_one_minus = 1.0 - np.exp(-comp.s * comp.N)
    m1_general = 2.0 + (E + 1.0) * norm_one_minus
    general = omega * (m1_general * delta1 + 2.0 * (E + 1.0) * delta2)
    prefactor = _closed_prefactor(comp)
    specialized = _specialized_bound(prefactor, E, delta1, delta2)
    assembly = BoundAssembly(
        times=run.times, delta1_measured=delta1, delta1_duhamel=delta1_duh,
        delta2=delta2, membership_u=inv_u <= E, membership_w=inv_w <= E,
        E_used=float(E), prefactor_closed=prefactor, general=general,
        specialized=specialized)
    if assembly.hypotheses_hold:
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


def _lattice_vectors(problem: ReductionProblem) -> np.ndarray:
    """The (K, 2n) points of the corner/center lattice over the
    initial-condition region, in lattice order; alpha0 alone without one.

    A box spans its finite half-widths on their axes, a ball r / sqrt(2n)
    on every axis, so each point lies in the region by construction, and
    every one is kept: K is 3^(2n) less the repeats of a zero span.
    """
    region = problem.region
    if region is None:
        return problem.alpha0.vector[None]
    center = region.center.vector
    if region.kind == "ball":
        spans = np.full(center.size, region.radius / np.sqrt(center.size))
    else:
        spans = np.where(np.isfinite(region.half_widths),
                         region.half_widths, 0.0)
    # The pull-in sets the corners' bits, and with them the sample points
    # and the pinned E_used of the benchmark's lattice-1d unit.
    spans = spans * (1.0 - 1e-12)
    axes = [np.array([c - w, c, c + w]) for c, w in zip(center, spans)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    # Each point once (a zero span repeats it), first come first.
    return np.array(list(dict.fromkeys(map(tuple, mesh.reshape(
        -1, center.size)))))


def run_reduction(problem: ReductionProblem) -> ReductionReport:
    """Full pipeline: flows, grid run, errors, bounds and the verdict.

    The verdict is "reduced" only if every sampled initial condition
    keeps the measured error below epsilon with all magnitude hypotheses
    holding.  An epsilon violation anywhere disproves reduction outright
    ("not-reduced"); otherwise any failed magnitude hypothesis leaves
    the question open ("hypothesis-failed").  The reported curves belong
    to the worst sample (largest error).  A bound stage that breaks down
    (BasisResidualError: a W state outside the comparator basis) leaves
    that sample without bounds, so its hypotheses count as failed; the
    report's bound_failure names the first such sample.  provenance["E_source"]
    is "given" for a user E and "auto" for one selected from the run,
    where every state with a finite inverse norm is a member.

    The samples are the rows of problem.lattice.  Each has its own
    classical flow, packet flow and Duhamel curve.  The grid runs go as
    stacks: one run_grid call per chunk of as many states as a single
    run's observer block holds (32 in 1D at N = 1024, 4 in 2D at
    N = 128), with one BoundInputs per sample.  Every measurement is
    row-exact, so every number is bitwise the one a run of the sample
    alone gives.
    """
    spec, grid = problem.spec, problem.grid
    eps = problem.epsilon_vector()
    points = problem.lattice
    chunk = _block_rows(grid, len(points))
    outcomes = []
    for first in range(0, len(points), chunk):
        lattice = points[first:first + chunk]
        inputs = []
        amps = np.empty((len(lattice),) + (grid.N,) * grid.n, dtype=complex)
        for row, vector in enumerate(lattice):
            alpha0 = PhasePoint.from_vector(vector)
            traj = integrate_flow(spec, alpha0, problem.T, problem.dt)
            base = packet(alpha0, problem.M0)
            inputs.append(BoundInputs(problem, approximate_flow(
                spec, traj, base)))
            amps[row] = sample_on_grid(base, grid).amp
        runs = run_grid(spec, GridStack(grid, amps), problem.T, problem.dt,
                        problem.samples, inputs)
        for alpha0, run, item in zip(lattice.tolist(), runs, inputs):
            error = measured_error(run, item.flow.traj)
            bounds = failure = None
            try:
                bounds = assemble_bounds(problem, run, item, error)
            except BasisResidualError as exc:
                # The certificate broke down, not the run: the measured
                # error still decides the verdict, and no bound is
                # reported.
                failure = {"alpha0": alpha0, "error": type(exc).__name__,
                           "message": str(exc)}
            # An epsilon violation disproves reduction outright; the
            # magnitude hypotheses only gate the positive certificate.
            if not np.all(error.components < eps[None, :]):
                verdict = "not-reduced"
            elif bounds is not None and bounds.hypotheses_hold:
                verdict = "reduced"
            else:
                verdict = "hypothesis-failed"
            outcomes.append((alpha0, run, error, bounds, verdict, failure))
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
        {"alpha0": a0, "max_error": err.overall, "verdict": v}
        for a0, _, err, _, v, _ in outcomes]
    failures = [item[5] for item in outcomes if item[5] is not None]
    provenance = {
        **_provenance(problem.grid, problem.comparator, problem.T, problem.dt),
        "E_used": None if bounds is None else bounds.E_used,
        "E_source": _E_source(problem),
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
    momentum: np.ndarray
    grad_v_mean: np.ndarray
    grad_v_at_mean: np.ndarray


def ehrenfest_run(spec: HamiltonianSpec, psi0: GridWavefunction, T: float,
                  dt: float = DEFAULT_DT,
                  sample_stride: int = EHRENFEST_STRIDE) -> EhrenfestData:
    """Propagate and record <p>, <V'(q)> and V'(<q>) densely.

    One-dimensional only; the sampling interval sample_stride * dt sets
    the finite-difference accuracy of the identity residual, and
    sample_stride must be a positive integer.  The start
    and every sample_stride-th step are recorded, a block of states at a
    time: the mass and the sums for <q>, <p> and <V'(q)> from one
    _moment_sums call, the 1D moments' sums, which takes |psi|^2 a chunk
    of rows at a time; each sum times cell / mass; and one polynomial
    evaluation for V'(<q>) per block.
    """
    if psi0.grid.n != 1:
        raise ValueError("ehrenfest diagnostics are one-dimensional")
    grid = psi0.grid
    dv = spec.potential.derivative(grid.x)
    cell = grid.cell
    stride = _positive_int(sample_stride, "sample_stride")
    work = _observer_block(grid, time_steps(T, dt)[0] // stride)
    blocks = []

    def collect(times, stack):
        amps = stack[0]
        mass, *sums = _moment_sums(amps, grid, work[:len(amps)], (dv,))
        mass = mass * cell
        q, p, grad_v_mean = (s * cell / mass for s in sums)
        blocks.append(np.column_stack([times, p, grad_v_mean,
                                       spec.potential.derivative(q)]))

    collect(np.zeros(1), psi0.amp[None, None])
    propagate(spec, GridStack.of(psi0), T, dt, observer=collect,
              observe_stride=stride)
    data = np.concatenate(blocks)
    return EhrenfestData(times=data[:, 0], momentum=data[:, 1],
                         grad_v_mean=data[:, 2], grad_v_at_mean=data[:, 3])


def ehrenfest_residuals(data: EhrenfestData) -> dict:
    """The quantum identity residual and the classicality gap.

    identity = |d<p>/dt + <V'(q)>| must vanish to finite-difference
    accuracy for every potential; gap = |<V'(q)> - V'(<q>)| is zero
    exactly when V is quadratic and measures the failure of expectation
    values to follow the classical flow.  Both curves are on the
    interior sample times (central differences), so the data needs at
    least three samples (ValueError otherwise).
    """
    t, p = data.times, data.momentum
    if len(t) < 3:
        raise ValueError("the residuals need at least three samples")
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
    E_source in the result says which ("given" or "auto").  Each final
    state W is scored by the bound stage's code, as BoundInputs.add_stack
    scores a block: sampled by _sample_flows as a stack of one, then one
    hermite_coefficients projection, which serves both the comparator
    term (_comparator_defects, with no grid pass) and the E probe
    (_inverse_norms).  A W with mass beyond the basis raises
    apply_comparator's BasisResidualError as soon as it is scored: with
    E auto, the d = 1 state first.
    """
    dilations = [float(d) for d in dilations]
    if any(d <= 0 for d in dilations):
        raise ConfigError("dilations must be positive")
    spec = problem.spec
    traj = integrate_flow(spec, problem.alpha0, problem.T, problem.dt)
    comp, grid, last = problem.comparator, problem.grid, len(traj) - 1

    @functools.cache
    def final_state(d):
        # (flow, ||(1 - Omega) W||, W's projection).
        flow = approximate_flow(spec, traj, packet(problem.alpha0, d))
        w = np.empty((1, 1) + (grid.N,) * grid.n, dtype=complex)
        _sample_flows([flow], [last], grid, w)
        projection = hermite_coefficients(comp, w[0], grid)
        return (flow, float(_comparator_defects(comp, projection)[0]),
                projection)

    E = _select_E(problem.E, lambda: _inverse_norms(
        comp, *final_state(1.0)[2]))
    prefactor = _closed_prefactor(comp)
    rows = []
    for d in dilations:
        flow, comparator_term, _ = final_state(d)
        duh = float(duhamel_curve(spec, flow)[-1])
        rows.append({"d": d, "duhamel_term": duh,
                     "comparator_term": comparator_term,
                     "total_bound": _specialized_bound(prefactor, E, duh,
                                                       comparator_term)})
    argmin = min(rows, key=lambda row: row["total_bound"])["d"]
    return {"rows": rows, "argmin": argmin, "E_used": float(E),
            "E_source": _E_source(problem)}
