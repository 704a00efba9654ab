import json

import numpy as np
import pytest
from conftest import spectral_moments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from qreduce import reduction
from qreduce.classical import PhaseRegion, integrate_flow
from qreduce.comparator import RESIDUAL_TOL, ComparatorSpec, \
    apply_comparator, hermite_coefficients, within_magnitude
from qreduce.errors import BasisResidualError, ConfigError, NumericalError
from qreduce.grid import GridSpec, GridWavefunction, propagate
from qreduce.hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel, \
    _remainder_by_subtraction
from qreduce.packets import approximate_flow, packet, sample_on_grid
from qreduce.reduction import (BoundInputs, ReductionProblem, assemble_bounds,
                               duhamel_curve, ehrenfest_run,
                               ehrenfest_residuals, measured_error,
                               remainder_norm, run_grid, run_reduction,
                               squeeze_sweep)

HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
CUBIC_PERTURBED = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5, 0.1 / 6]))
PURE_CUBIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 1 / 6]))
FREE = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0.0]))
QUARTIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))
X2Y = np.zeros((3, 2))
X2Y[2, 1] = 1.0
CUBIC_2D = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial2d(X2Y))
# Harmonic in both axes plus x^2 y; the origin is a fixed point.
COUPLED_2D = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial2d(
        [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 1.0, 0.0]]))

CUBIC_AT_REST = 0.22821773229381922
QUARTIC_AT_REST = 0.6404344228724749


def origin_packet(M=1.0):
    return packet(PhasePoint(0.0, 0.0), M)


def test_remainder_norm_quadratic_is_zero():
    assert remainder_norm(HARMONIC, origin_packet()) == 0.0


def test_remainder_norm_cubic_at_rest():
    value = remainder_norm(PURE_CUBIC, origin_packet())
    assert abs(value - (1.0 / 6.0) * np.sqrt(15.0 / 8.0)) < 1e-12
    assert abs(value - CUBIC_AT_REST) < 1e-12


def test_remainder_norm_quartic_at_rest():
    value = remainder_norm(QUARTIC, origin_packet())
    assert abs(value - 0.25 * np.sqrt(105.0 / 16.0)) < 1e-12
    assert abs(value - QUARTIC_AT_REST) < 1e-12


def test_remainder_norm_displaced_quartic_mixes_orders():
    # About xi=1 the quartic remainder is u^3 + u^4/4; only even total
    # powers survive the Gaussian average.
    value = remainder_norm(QUARTIC, packet(PhasePoint(1.0, 0.0), 1.0))
    assert abs(value - np.sqrt(15.0 / 8.0 + 105.0 / 256.0)) < 1e-12


def test_remainder_norm_tracks_width():
    # Narrower packet, smaller cubic remainder: norm ~ variance^{3/2}.
    wide = remainder_norm(PURE_CUBIC, origin_packet(1.0))
    narrow = remainder_norm(PURE_CUBIC, origin_packet(2.0))
    assert abs(narrow / wide - (0.5) ** 1.5) < 1e-10


def test_remainder_norm_two_dimensional_closed_forms():
    # V = x^2 y about the origin: r = u^2 v with independent Gaussian
    # axes, so E[r^2] = 3 var_x^2 var_y.
    origin = PhasePoint([0.0, 0.0], [0.0, 0.0])
    iso = remainder_norm(CUBIC_2D, packet(origin, np.eye(2)))
    assert abs(iso - np.sqrt(3.0 / 8.0)) < 1e-12
    # A strongly anisotropic width: var_x = 1/8, var_y = 500.
    aniso = remainder_norm(CUBIC_2D, packet(origin, np.diag([4.0, 0.001])))
    expected = np.sqrt(3.0 * (1.0 / 8.0) ** 2 * 500.0)
    assert abs(aniso - expected) < 1e-12


@st.composite
def remainder_cases(draw):
    # A polynomial within the degree caps, a centre, and a complex
    # symmetric width whose real part has eigenvalue ratio up to 1e3.
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    n = draw(st.sampled_from([1, 2]))
    if n == 1:
        size = draw(st.integers(min_value=1, max_value=9))
        pot = PotentialModel.polynomial([draw(coeff) for _ in range(size)])
    else:
        C = np.zeros((5, 5))
        for i, j in np.ndindex(C.shape):
            if i + j <= 4:
                C[i, j] = draw(coeff)
        pot = PotentialModel.polynomial2d(C)
    spec = HamiltonianSpec(mass=1.0, potential=pot)
    center = np.array([draw(st.floats(min_value=-2.0, max_value=2.0))
                       for _ in range(n)])
    top = 10.0 ** draw(st.floats(min_value=-1.5, max_value=1.5))
    ratio = 10.0 ** draw(st.floats(min_value=0.0, max_value=3.0))
    angle = draw(st.floats(min_value=0.0, max_value=np.pi))
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])[:n, :n]
    re_m = rot @ np.diag([top, top / ratio][:n]) @ rot.T
    im = np.array([draw(st.floats(min_value=-2.0, max_value=2.0))
                   for _ in range(3)])
    im_m = np.array([[im[0], im[1]], [im[1], im[2]]])[:n, :n]
    return spec, center, re_m + 1j * im_m


@settings(max_examples=40, deadline=None)
@given(case=remainder_cases())
def test_exact_remainder_norm_matches_dense_reference(case):
    spec, center, M = case
    start = PhasePoint(center, np.zeros_like(center))
    exact = remainder_norm(spec, packet(start, M))
    reference = reduction._reference_norm(spec, center, np.real(M))
    assert abs(exact - reference) <= 1e-8 * max(1.0, reference)


def stacked_reference(spec, center, re_m):
    """The dense reference as a stack of meshgrid nodes u = L z, with
    _remainder_by_subtraction at each; also the same norm of the terms its
    subtraction cancels, the size below which r is rounding."""
    z = np.linspace(-10.0, 10.0, 321)
    w = np.exp(-0.5 * z ** 2) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    w[[0, -1]] *= 0.5
    u, weights = reduction._gaussian_rule(z, w, re_m)
    r = _remainder_by_subtraction(spec.potential, center, u.T)
    pot = spec.potential
    shifted = center + u if spec.dimension == 2 else center[0] + u[:, 0]
    hess = pot.hessian(center)
    cancelled = (np.abs(pot.value(shifted)) + np.abs(pot.value(center))
                 + np.abs(u @ pot.gradient(center))
                 + np.abs(0.5 * np.einsum("pi,ij,pj->p", u, hess, u)))
    return (float(np.sqrt(weights @ (r * r))),
            float(np.sqrt(weights @ (cancelled * cancelled))))


@settings(max_examples=40, deadline=None)
@given(case=remainder_cases())
def test_broadcast_reference_is_the_stacked_point_formula(case):
    # Same nodes, weights and subtraction, evaluated on broadcast axes:
    # 1e-13 relative, above the rounding of the cancelled terms.
    spec, center, M = case
    stacked, cancelled = stacked_reference(spec, center, np.real(M))
    broadcast = reduction._reference_norm(spec, center, np.real(M))
    if spec.dimension == 1:
        assert broadcast == stacked
    assert abs(broadcast - stacked) <= 1e-13 * stacked + 1e-14 * cancelled


def test_duhamel_curve_keeps_its_bits_on_the_remainder_2d_config(
        monkeypatch):
    # The dense reference only gates: the curve is bitwise the exact
    # integral with no spot checked, and the stacked-point reference
    # passes the same curve.
    C = np.zeros((4, 4))
    C[0, 2] = C[2, 0] = 0.5
    C[2, 1], C[3, 0] = 0.01, 0.02
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(C))
    start = PhasePoint([1.0, 0.0], [0.0, 0.5])
    traj = integrate_flow(spec, start, 0.5, 0.01)
    flow = approximate_flow(spec, traj, packet(start, np.eye(2)))
    curve = duhamel_curve(spec, flow)
    assert len(curve) == 51
    assert curve[-1] == pytest.approx(0.013826466248830395, rel=1e-14, abs=0)
    unchecked = reduction._remainder_norms(spec, flow.traj.xi,
                                           flow.series.M.real, ())
    assert np.array_equal(
        curve, cumulative_trapezoid(unchecked, flow.times, initial=0.0))
    monkeypatch.setattr(reduction, "_reference_norm",
                        lambda *args: stacked_reference(*args)[0])
    assert np.array_equal(duhamel_curve(spec, flow), curve)


@pytest.mark.parametrize("spec, start", [
    (PURE_CUBIC, PhasePoint(0.0, 0.0)),
    (COUPLED_2D, PhasePoint([0.0, 0.0], [0.0, 0.0])),
])
def test_remainder_spot_check_is_live(monkeypatch, spec, start):
    # A reference off by 1e-6 relative must trip the cross-check.
    traj = integrate_flow(spec, start, 0.1, 0.01)
    flow = approximate_flow(spec, traj, packet(start, 1.0))
    duhamel_curve(spec, flow)
    exact = reduction._dense_remainder
    monkeypatch.setattr(reduction, "_dense_remainder",
                        lambda *args: exact(*args) * (1.0 + 1e-6))
    with pytest.raises(NumericalError):
        duhamel_curve(spec, flow)
    with pytest.raises(NumericalError):
        remainder_norm(spec, flow.packet_at(0))


def test_duhamel_linear_at_fixed_point():
    # At the cubic-perturbed fixed point the width is frozen, so the
    # bound integrates a constant remainder norm.
    traj = integrate_flow(CUBIC_PERTURBED, PhasePoint(0.0, 0.0), 1.0, 1e-3)
    flow = approximate_flow(CUBIC_PERTURBED, traj, origin_packet())
    curve = duhamel_curve(CUBIC_PERTURBED, flow)
    assert abs(curve[-1] - 0.1 * CUBIC_AT_REST) < 1e-9
    assert np.all(np.diff(curve) >= 0.0)
    assert flow.times[500] == pytest.approx(0.5, abs=1e-12)
    assert abs(curve[500] - 0.05 * CUBIC_AT_REST) < 1e-9
    assert curve[0] == 0.0


def test_duhamel_dominates_measured_distance():
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=PhasePoint(0.0, 0.0),
                               T=1.0, epsilon=1.0)
    traj = integrate_flow(CUBIC_PERTURBED, problem.alpha0, 1.0, problem.dt)
    flow = approximate_flow(CUBIC_PERTURBED, traj, origin_packet())
    psi0 = sample_on_grid(origin_packet(), problem.grid)
    inputs = BoundInputs(problem, flow)
    run = run_grid(CUBIC_PERTURBED, psi0, 1.0, problem.dt,
                   bound_inputs=inputs)
    bounds = assemble_bounds(problem, run, inputs)
    assert np.all(bounds.delta1_measured <= bounds.delta1_duhamel + 1e-6)
    assert bounds.delta1_measured[-1] > 1e-6


def test_quadratic_reduces_over_full_period():
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                               T=2.0 * np.pi, epsilon=1e-5)
    report = run_reduction(problem)
    assert report.verdict == "reduced"
    assert report.error.overall <= 1e-6
    assert report.bounds.hypotheses_hold


def test_quartic_error_grows_and_verdict_flips_with_epsilon():
    tight = ReductionProblem(spec=QUARTIC, alpha0=PhasePoint(1.0, 0.0),
                             T=1.0, epsilon=1e-4)
    report = run_reduction(tight)
    assert report.verdict == "not-reduced"
    assert report.error.components[0] == pytest.approx(0.0, abs=1e-9)
    assert report.error.max_norm[-1] > 0.01
    # Loosening epsilon removes the disproof, but the quartic run has
    # left the comparator's certifiable range, so no positive verdict.
    loose = ReductionProblem(spec=QUARTIC, alpha0=PhasePoint(1.0, 0.0),
                             T=1.0, epsilon=1.0)
    report = run_reduction(loose)
    assert report.verdict == "hypothesis-failed"
    assert not report.bounds.hypotheses_hold


def test_quartic_short_horizon_certifies_with_soft_comparator():
    # Over a short horizon the state stays certifiable once the
    # comparator weight is soft enough for its excitation content.
    problem = ReductionProblem(spec=QUARTIC, alpha0=PhasePoint(1.0, 0.0),
                               T=0.1, epsilon=1.0,
                               comparator=ComparatorSpec(s=0.05))
    report = run_reduction(problem)
    assert report.verdict == "reduced"
    assert report.bounds.hypotheses_hold
    # The same run under the default sharp comparator is honest about
    # the truncated inverse norm being untrustworthy.
    sharp = ReductionProblem(spec=QUARTIC, alpha0=PhasePoint(1.0, 0.0),
                             T=0.1, epsilon=1.0)
    assert run_reduction(sharp).verdict == "hypothesis-failed"


def test_hypothesis_failure_verdict_for_strong_squeezing():
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(0.0, 0.0),
                               T=0.05, epsilon=1.0, M0=10.0,
                               comparator=ComparatorSpec(s=1.0))
    report = run_reduction(problem)
    assert report.verdict == "hypothesis-failed"
    assert not report.bounds.hypotheses_hold


def test_theorem_bound_dominates_and_prefactor_is_one():
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=PhasePoint(0.0, 0.0),
                               T=1.0, epsilon=1.0,
                               comparator=ComparatorSpec(s=1.0))
    report = run_reduction(problem)
    assert report.bounds.prefactor_closed == pytest.approx(1.0, abs=1e-15)
    assert report.bounds.hypotheses_hold
    margin = np.minimum(report.bounds.general, report.bounds.specialized) \
        - report.error.max_norm
    assert np.min(margin) > -1e-8
    # Measured scalars can only tighten the closed-form assembly.
    assert np.all(report.bounds.general <= report.bounds.specialized + 1e-12)


def test_theorem_bound_single_time_api():
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                               T=0.5, epsilon=1.0)
    traj = integrate_flow(HARMONIC, problem.alpha0, 0.5, problem.dt)
    flow = approximate_flow(HARMONIC, traj, packet(problem.alpha0, 1.0))
    psi0 = sample_on_grid(packet(problem.alpha0, 1.0), problem.grid)
    inputs = BoundInputs(problem, flow)
    run = run_grid(HARMONIC, psi0, 0.5, problem.dt, bound_inputs=inputs)
    bounds = assemble_bounds(problem, run, inputs)
    assert bounds.hypotheses_hold
    assert bounds.specialized[-1] >= bounds.general[-1] >= 0.0


def test_run_reduction_builds_each_basis_once(monkeypatch):
    # Nine lattice samples share one comparator and one grid, so every
    # projection of every snapshot reuses a single Hermite basis, and the
    # power iteration behind the operator scalars runs once.
    import qreduce.comparator as comparator
    build = comparator.hermite_functions
    iterate = comparator._power_iteration_sq
    calls = []
    iterations = []

    def counting(x, K):
        calls.append(K)
        return build(x, K)

    def counting_iterations(mat, *args, **kwargs):
        iterations.append(mat.shape)
        return iterate(mat, *args, **kwargs)

    monkeypatch.setattr(comparator, "hermite_functions", counting)
    monkeypatch.setattr(comparator, "_power_iteration_sq", counting_iterations)
    center = PhasePoint(1.0, 0.0)
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=center, T=0.1,
                               epsilon=1.0, dt=0.01,
                               region=PhaseRegion.box(center, [0.1, 0.1]))
    report = run_reduction(problem)
    assert len(report.sample_results) == 9
    assert len(report.times) == 11
    assert calls == [problem.comparator.N]
    assert len(iterations) == 1


def test_scalar_M0_broadcasts_in_two_dimensions():
    pot = PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.01, 0.0], [0.02, 0.0, 0.0]])
    spec2 = HamiltonianSpec(mass=1.0, potential=pot)

    def report(**width):
        problem = ReductionProblem(
            spec=spec2, alpha0=PhasePoint([1.0, 0.0], [0.0, 0.5]), T=0.1,
            epsilon=0.05, dt=0.01, grid=GridSpec(n=2, N=64, L=10.0),
            comparator=ComparatorSpec(s=1.0, N=32), **width)
        return run_reduction(problem).to_json_dict()

    default = report()
    assert default == report(M0=np.eye(2))
    assert max(default["delta1_duhamel"]) > 0.0


def test_measured_error_zero_at_start():
    traj = integrate_flow(QUARTIC, PhasePoint(1.0, 0.0), 0.2, 1e-3)
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0), GridSpec(1, 1024, 20.0))
    run = run_grid(QUARTIC, psi0, 0.2, 1e-3)
    error = measured_error(run, traj)
    assert error.times[0] == 0.0
    assert np.max(error.components[0]) < 1e-9


@pytest.mark.parametrize("spec, alpha0, T, dt, samples", [
    (QUARTIC, PhasePoint(1.0, 0.0), 0.2, 1e-3, 200),
    (CUBIC_PERTURBED, PhasePoint(0.8, 0.3), 0.5, 0.02, 7),
    (HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
        [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.01, 0.0], [0.02, 0.0, 0.0]])),
     PhasePoint([1.0, 0.0], [0.0, 0.5]), 0.1, 0.01, 3),
], ids=["quartic", "cubic-off-stride", "coupled-2d"])
def test_measured_error_is_bitwise_the_per_time_interpolation(
        spec, alpha0, T, dt, samples):
    # One stacked interpolation over the run times, the same bits as
    # traj.at(t) one time at a time.
    traj = integrate_flow(spec, alpha0, T, dt)
    grid = GridSpec(1, 1024, 20.0) if spec.dimension == 1 \
        else GridSpec(2, 64, 10.0)
    run = run_grid(spec, sample_on_grid(packet(alpha0, 1.0), grid), T, dt,
                   samples)
    per_time = np.array([traj.at(t) for t in run.times])
    assert np.array_equal(traj.at(run.times), per_time)
    error = measured_error(run, traj)
    assert np.array_equal(error.components,
                          np.abs(per_time - run.expectations))


def test_region_lattice_sampling():
    region = PhaseRegion.ball(PhasePoint(1.0, 0.0), 0.1)
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                               T=0.5, epsilon=1e-4, region=region)
    report = run_reduction(problem)
    assert len(report.sample_results) == 9
    assert report.verdict == "reduced"
    assert all(r["verdict"] == "reduced" for r in report.sample_results)


def test_report_serializes_to_json():
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(0.5, 0.0),
                               T=0.3, epsilon=1e-4)
    report = run_reduction(problem)
    payload = json.dumps(report.to_json_dict())
    back = json.loads(payload)
    assert back["verdict"] == "reduced"
    assert back["provenance"]["grid"]["N"] == 1024
    assert len(back["times"]) == len(back["error_max"])


def test_problem_validation():
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=1.0, epsilon=-1.0)
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=0.0, epsilon=1.0)
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=1.0, epsilon=[1.0, 1.0, 1.0])
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(19.0, 0.0),
                         T=1.0, epsilon=1.0)
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=1.0, epsilon=1.0, E=-2.0)
    with pytest.raises(ConfigError, match="region"):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=1.0, epsilon=1.0, region=PhaseRegion.ball(
                             PhasePoint([1.0, 0.0], [0.0, 0.0]), 0.1))
    # The default comparator needs more functions than a 64-point grid holds.
    with pytest.raises(ConfigError):
        ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                         T=1.0, epsilon=1.0, grid=GridSpec(n=1, N=64, L=6.0))


def test_ehrenfest_harmonic_residuals_tiny():
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0),
                          GridSpec(1, 1024, 20.0))
    data = ehrenfest_run(HARMONIC, psi0, 2.0, dt=1e-3, sample_stride=2)
    out = ehrenfest_residuals(data)
    assert np.max(out["identity"]) < 1e-6
    assert np.max(out["gap"]) < 1e-6


def test_ehrenfest_quartic_gap_oracle():
    # V' = q^3: gap(0) = |E[q^3] - <q>^3| = |1 + 3/2 - 1| = 1.5 for a
    # unit-width packet at <q> = 1.
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0),
                          GridSpec(1, 1024, 20.0))
    data = ehrenfest_run(QUARTIC, psi0, 1.0, dt=1e-3)
    gap0 = abs(data.grad_v_mean[0] - data.grad_v_at_mean[0])
    assert abs(gap0 - 1.5) < 1e-6
    out = ehrenfest_residuals(data)
    assert np.max(out["identity"]) < 5e-5
    assert np.max(out["gap"]) > 1.0


def test_ehrenfest_blocks_equal_the_per_state_formulas():
    # The per-state formulas written out over the start state and every
    # step an every-step observer sees; 3141 steps at stride 3 end on a
    # partial block.
    grid = GridSpec(1, 1024, 20.0)
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0), grid)
    T, dt, stride = 3.141, 1e-3, 3
    data = ehrenfest_run(CUBIC_PERTURBED, psi0, T, dt=dt, sample_stride=stride)
    times, states = [np.zeros(1)], [psi0.amp[None]]

    def store(t, amps):
        times.append(t.copy())
        states.append(amps.copy())

    propagate(CUBIC_PERTURBED, psi0, T, dt, observer=store)
    times, states = np.concatenate(times), np.concatenate(states)
    pot = CUBIC_PERTURBED.potential
    dv = pot.derivative(grid.x)
    rows = []
    for k in range(0, len(states), stride):
        amp = states[k]
        dens = np.abs(amp) ** 2
        mass = np.sum(dens) * grid.cell
        q = np.sum(grid.x * dens) * grid.cell / mass
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amp))
        p = np.sum(np.conj(amp) * -1j * dpsi).real * grid.cell / mass
        rows.append((times[k], q, p, np.sum(dv * dens) * grid.cell / mass,
                     float(pot.derivative(q))))
    expected = np.array(rows)
    assert len(data.times) == 1048
    for column, got in enumerate((data.times, data.position, data.momentum,
                                  data.grad_v_mean, data.grad_v_at_mean)):
        assert np.array_equal(got, expected[:, column])


def test_ehrenfest_rejects_two_dimensional_grids():
    grid2 = GridSpec(n=2, N=64, L=8.0)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * grid2.x ** 2)
    from qreduce.grid import GridWavefunction
    psi = GridWavefunction(grid2, np.outer(h0, h0))
    spec2 = HamiltonianSpec(mass=1.0,
                            potential=PotentialModel.polynomial2d([[0.0]]))
    with pytest.raises(ValueError):
        ehrenfest_run(spec2, psi, 0.1)


def test_squeeze_sweep_quadratic_prefers_matched_width():
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(0.0, 0.0),
                               T=0.3, epsilon=1.0,
                               comparator=ComparatorSpec(s=1.0))
    table = squeeze_sweep(problem, [0.25, 0.5, 1.0, 2.0, 4.0])
    assert all(row["duhamel_term"] == 0.0 for row in table["rows"])
    assert table["argmin"] == 1.0
    matched = next(r for r in table["rows"] if r["d"] == 1.0)
    assert matched["comparator_term"] < 1e-9


def test_squeeze_sweep_cubic_tradeoff():
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=PhasePoint(0.0, 0.0),
                               T=0.3, epsilon=1.0,
                               comparator=ComparatorSpec(s=1.0))
    table = squeeze_sweep(problem, [0.25, 0.5, 1.0, 2.0, 4.0])
    duh = [row["duhamel_term"] for row in table["rows"]]
    assert np.all(np.diff(duh) < 0.0)
    totals = [row["total_bound"] for row in table["rows"]]
    assert table["argmin"] not in (0.25, 4.0)
    assert min(totals) < totals[0] and min(totals) < totals[-1]
    with pytest.raises(ConfigError):
        squeeze_sweep(problem, [0.0, 1.0])


def test_squeeze_projects_each_final_state_once(monkeypatch):
    # With E auto, the d = 1 projection serves both the E probe and the
    # smoothing of its row.
    import qreduce.comparator as comparator
    project = comparator.hermite_coefficients
    calls = []

    def counting(spec, psi, grid=None):
        calls.append(psi)
        return project(spec, psi, grid)

    problem = ReductionProblem(spec=CUBIC_PERTURBED,
                               alpha0=PhasePoint(0.5, 0.0), T=0.1, dt=0.01,
                               epsilon=1.0)
    expected = squeeze_sweep(problem, [0.5, 1.0, 2.0])
    monkeypatch.setattr(comparator, "hermite_coefficients", counting)
    monkeypatch.setattr(reduction, "hermite_coefficients", counting)
    assert squeeze_sweep(problem, [0.5, 1.0, 2.0]) == expected
    assert len(calls) == 3


@pytest.mark.parametrize("E, source", [(None, "auto"), (50.0, "given")])
def test_reports_say_whether_E_was_given(E, source):
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=PhasePoint(0.5, 0.0),
                               T=0.1, epsilon=1.0, dt=0.01, E=E)
    report = run_reduction(problem)
    assert report.provenance["E_source"] == source
    assert (report.bounds.E_used == 50.0) == (source == "given")
    assert squeeze_sweep(problem, [1.0])["E_source"] == source


def test_bound_stage_failure_leaves_the_verdict_to_the_error(monkeypatch):
    # Epsilon holds, so a broken certificate is a failed hypothesis: the
    # first W block reads 1e-7 of its mass outside the basis.
    project = reduction.hermite_coefficients

    def outside(spec, psi, grid=None):
        coeffs, residual = project(spec, psi, grid)
        return coeffs, np.full_like(residual, 1e-7)

    monkeypatch.setattr(reduction, "hermite_coefficients", outside)
    problem = ReductionProblem(spec=HARMONIC, alpha0=PhasePoint(1.0, 0.0),
                               T=0.1, epsilon=1e-3, dt=0.01)
    report = run_reduction(problem)
    assert report.verdict == "hypothesis-failed"
    assert report.bounds is None
    assert report.bound_failure == {
        "alpha0": [1.0, 0.0], "error": "BasisResidualError",
        "message": "basis projection lost mass fraction 1e-07"}
    out = report.to_json_dict()
    for key in ("bound_general", "bound_specialized", "delta1_measured",
                "delta1_duhamel", "delta2", "E_used", "hypotheses_hold"):
        assert out[key] is None
    assert out["provenance"]["E_used"] is None
    assert out["bound_failure"] == report.bound_failure
    json.dumps(out, allow_nan=False)


def stored_run(spec, psi0, T, dt, samples):
    """The start, every stride-th step before the last, and the last step:
    the states a snapshot list kept, collected with an observer."""
    steps = max(1, round(T / dt))
    stride = max(1, steps // samples)
    every = [psi0.amp[None]]
    propagate(spec, psi0, T, dt, observer=lambda t, amps: every.append(
        amps.copy()))
    every = np.concatenate(every)
    kept = [0] + [k for k in range(1, steps) if k % stride == 0] + [steps]
    return (np.array(kept) * (T / steps),
            [GridWavefunction(psi0.grid, every[k]) for k in kept])


def snapshot_list_assembly(problem, flow, times, states):
    """delta1, delta2 and both membership probes per stored state."""
    comp = problem.comparator

    def probe(state):
        try:
            out = within_magnitude(comp, reduction.E_PROBE, state)
        except BasisResidualError:
            return np.inf, True
        return out["inv_norm"], out["divergent"]

    rows = []
    for t, u in zip(times, states):
        w = sample_on_grid(flow.packet_at(round(t / flow.traj.dt)),
                           problem.grid)
        smoothed = apply_comparator(comp, w, normalized=True)
        rows.append((w.distance(u), w.distance(smoothed)) + probe(u)
                    + probe(w))
    d1, d2, inv_u, div_u, inv_w, div_w = map(np.array, zip(*rows))
    E = 1.5 * np.max(np.concatenate([inv_u[~div_u], inv_w[~div_w]]))
    return {"E_used": E, "delta1_measured": d1, "delta2": d2,
            "inv_norms_u": inv_u, "inv_norms_w": inv_w,
            "membership_u": ~div_u & (inv_u <= E),
            "membership_w": ~div_w & (inv_w <= E)}


def test_a_2d_reduce_runs_from_a_spec_without_a_dimension():
    spec = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
        [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert spec.dimension == 2
    report = run_reduction(ReductionProblem(
        spec=spec, alpha0=PhasePoint([1.0, 0.0], [0.0, 0.5]), T=0.1,
        dt=0.01, epsilon=0.05, samples=3, grid=GridSpec(n=2, N=64, L=10.0),
        comparator=ComparatorSpec(s=1.0, N=32)))
    assert report.provenance["grid"]["n"] == 2
    assert report.verdict != "not-reduced"
    assert report.error.overall < 1e-3


STREAM_CASES = {
    # 25 steps at stride 3: the last step is off the stride.
    "lattice-1d": ReductionProblem(
        spec=CUBIC_PERTURBED, alpha0=PhasePoint(1.0, 0.0), T=0.5, dt=0.02,
        epsilon=0.05, samples=7,
        region=PhaseRegion.box(PhasePoint(1.0, 0.0), [0.2, 0.2])),
    "coupled-2d": ReductionProblem(
        spec=HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
            [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.01, 0.0],
             [0.02, 0.0, 0.0]])),
        alpha0=PhasePoint([1.0, 0.0], [0.0, 0.5]), T=0.1, dt=0.01,
        epsilon=0.05, samples=3, grid=GridSpec(n=2, N=64, L=10.0),
        comparator=ComparatorSpec(s=1.0, N=32)),
    # 200 snapshots after the start: three full 64-row observer blocks
    # and a partial last one.
    "blocks-1d": ReductionProblem(
        spec=CUBIC_PERTURBED, alpha0=PhasePoint(1.0, 0.0), T=2.0, dt=0.01,
        epsilon=0.05, samples=200),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_streamed_bounds_equal_the_snapshot_list_assembly(name):
    # The streamed run projects the same states as a kept snapshot list
    # would, so every projection-derived number is bitwise the same.
    problem = STREAM_CASES[name]
    points = reduction._region_lattice(problem)
    olds = {}
    for alpha0 in points:
        traj = integrate_flow(problem.spec, alpha0, problem.T, problem.dt)
        base = packet(alpha0, problem.M0)
        flow = approximate_flow(problem.spec, traj, base)
        psi0 = sample_on_grid(base, problem.grid)
        inputs = BoundInputs(problem, flow)
        run = run_grid(problem.spec, psi0, problem.T, problem.dt,
                       problem.samples, inputs)
        bounds = assemble_bounds(problem, run, inputs)
        times, states = stored_run(problem.spec, psi0, problem.T, problem.dt,
                                   problem.samples)
        assert np.array_equal(run.times, times)
        old = olds[tuple(alpha0.vector)] = snapshot_list_assembly(
            problem, flow, times, states)
        for key, value in old.items():
            assert np.array_equal(getattr(bounds, key), value), key
        moments = np.array([spectral_moments(s) for s in states])
        assert np.max(np.abs(run.expectations - moments)) <= 1e-13
    assert len(points) == (9 if name == "lattice-1d" else 1)
    report = run_reduction(problem)
    worst = max(report.sample_results, key=lambda r: r["max_error"])
    for key, value in olds[tuple(worst["alpha0"])].items():
        assert np.array_equal(getattr(report.bounds, key), value), key


def test_residual_failure_mid_block_ends_the_bound_stage():
    # A free packet spreads out of a 17-function basis: W's residual
    # passes RESIDUAL_TOL near t = 0.85, inside the second 64-row block.
    comp = ComparatorSpec(s=1.0, N=16)
    problem = ReductionProblem(spec=FREE, alpha0=PhasePoint(0.0, 0.0),
                               T=2.0, dt=0.01, epsilon=1.0, comparator=comp)
    traj = integrate_flow(FREE, problem.alpha0, problem.T, problem.dt)
    base = packet(problem.alpha0, 1.0)
    flow = approximate_flow(FREE, traj, base)
    psi0 = sample_on_grid(base, problem.grid)
    inputs = BoundInputs(problem, flow)
    run = run_grid(FREE, psi0, problem.T, problem.dt, problem.samples, inputs)
    w_states = [sample_on_grid(flow.packet_at(round(t / problem.dt)),
                               problem.grid) for t in run.times]
    first = next(row for row, w in enumerate(w_states)
                 if hermite_coefficients(comp, w)[1] > RESIDUAL_TOL)
    assert 65 < first < 129
    with pytest.raises(BasisResidualError) as raised:
        apply_comparator(comp, w_states[first], normalized=True)
    assert str(inputs.failure) == str(raised.value)
    with pytest.raises(BasisResidualError, match=str(raised.value)):
        assemble_bounds(problem, run, inputs)
    report = run_reduction(problem)
    assert report.verdict == "hypothesis-failed"
    assert report.bound_failure["message"] == str(raised.value)


def test_each_snapshot_state_is_projected_once(monkeypatch):
    # u and W once each per snapshot: W's projection serves delta2 and
    # its membership probe alike.
    import qreduce.comparator as comparator
    project = comparator.hermite_coefficients
    rows = []

    def counting(spec, psi, grid=None):
        rows.append(1 if grid is None else len(psi))
        return project(spec, psi, grid)

    monkeypatch.setattr(comparator, "hermite_coefficients", counting)
    monkeypatch.setattr(reduction, "hermite_coefficients", counting)
    report = run_reduction(STREAM_CASES["lattice-1d"])
    snapshots = len(report.sample_results) * len(report.times)
    assert len(report.sample_results) == 9
    assert sum(rows) == 2 * snapshots
