import dataclasses
import json

import numpy as np
import pytest
from conftest import explicit_synthesis, packet_at, spectral_moments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from qreduce import grid as grid_module, hamiltonian, reduction, spectral
from qreduce.classical import PhaseRegion, integrate_flow
from qreduce.comparator import RESIDUAL_TOL, ComparatorSpec, \
    apply_comparator, comparator_scalars, hermite_coefficients, \
    hermite_functions, within_magnitude
from qreduce.errors import BasisResidualError, ConfigError, NumericalError
from qreduce.grid import GridSpec, GridStack, GridWavefunction, expectation_a, \
    propagate
from qreduce.hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel, \
    _remainder_by_subtraction, time_steps
from qreduce.packets import approximate_flow, packet, sample_on_grid
from qreduce.reduction import (BoundInputs, ReductionProblem, assemble_bounds,
                               duhamel_curve, ehrenfest_run,
                               ehrenfest_residuals, measured_error,
                               run_grid, run_reduction, squeeze_sweep)
from qreduce.spectral import GridHamiltonian

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


def packet_remainder_norm(spec, pkt):
    """The remainder norm of one packet as duhamel_curve takes it at a
    step: _remainder_norms on a stack of one, its spot checked."""
    return float(reduction._remainder_norms(
        spec, pkt.alpha.xi[None], pkt.M.real[None], [0])[0])


def test_remainder_norm_quadratic_is_zero():
    assert packet_remainder_norm(HARMONIC, origin_packet()) == 0.0


def test_remainder_norm_cubic_at_rest():
    value = packet_remainder_norm(PURE_CUBIC, origin_packet())
    assert abs(value - (1.0 / 6.0) * np.sqrt(15.0 / 8.0)) < 1e-12
    assert abs(value - CUBIC_AT_REST) < 1e-12


def test_remainder_norm_quartic_at_rest():
    value = packet_remainder_norm(QUARTIC, origin_packet())
    assert abs(value - 0.25 * np.sqrt(105.0 / 16.0)) < 1e-12
    assert abs(value - QUARTIC_AT_REST) < 1e-12


def test_remainder_norm_displaced_quartic_mixes_orders():
    # About xi=1 the quartic remainder is u^3 + u^4/4; only even total
    # powers survive the Gaussian average.
    value = packet_remainder_norm(QUARTIC, packet(PhasePoint(1.0, 0.0), 1.0))
    assert abs(value - np.sqrt(15.0 / 8.0 + 105.0 / 256.0)) < 1e-12


def test_remainder_norm_tracks_width():
    # Narrower packet, smaller cubic remainder: norm ~ variance^{3/2}.
    wide = packet_remainder_norm(PURE_CUBIC, origin_packet(1.0))
    narrow = packet_remainder_norm(PURE_CUBIC, origin_packet(2.0))
    assert abs(narrow / wide - (0.5) ** 1.5) < 1e-10


def test_remainder_norm_two_dimensional_closed_forms():
    # V = x^2 y about the origin: r = u^2 v with independent Gaussian
    # axes, so E[r^2] = 3 var_x^2 var_y.
    origin = PhasePoint([0.0, 0.0], [0.0, 0.0])
    iso = packet_remainder_norm(CUBIC_2D, packet(origin, np.eye(2)))
    assert abs(iso - np.sqrt(3.0 / 8.0)) < 1e-12
    # A strongly anisotropic width: var_x = 1/8, var_y = 500.
    aniso = packet_remainder_norm(CUBIC_2D,
                                  packet(origin, np.diag([4.0, 0.001])))
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
    exact = packet_remainder_norm(spec, packet(start, M))
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
    r = _remainder_by_subtraction(spec.potential, center)(u.T)
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


def horner_by_expression(D, axes):
    """hamiltonian._horner as it ran before it went in place."""
    for x in axes:
        out = D[-1] + x * 0
        for c in D[-2::-1]:
            out = c + out * x
        D = out
    return D


@settings(max_examples=40, deadline=None)
@given(case=remainder_cases())
def test_in_place_remainders_are_bitwise_their_expression_forms(case):
    # The dense reference squares in place and its Horner runs in place;
    # the Gauss-Hermite remainder shares that Horner.
    spec, center, M = case
    re_m = np.real(M)
    reference = reduction._reference_norm(spec, center, re_m)
    exact = reduction._remainder_norms(spec, center[None], re_m[None], ())
    z = np.linspace(-10.0, 10.0, 321)
    w = np.exp(-0.5 * z ** 2) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    w[[0, -1]] *= 0.5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonian, "_horner", horner_by_expression)
        r = reduction._dense_remainder(spec, center, re_m, z)
        assert np.array_equal(
            reduction._remainder_norms(spec, center[None], re_m[None], ()),
            exact)
    total = r * r
    for _ in range(r.ndim):
        total = w @ total
    assert reference == float(np.sqrt(total))


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
        curve, cumulative_trapezoid(unchecked, dx=flow.traj.dt, initial=0.0))
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
        packet_remainder_norm(spec, packet_at(flow, 0))


def test_duhamel_linear_at_fixed_point():
    # At the cubic-perturbed fixed point the width is frozen, so the
    # bound integrates a constant remainder norm.
    traj = integrate_flow(CUBIC_PERTURBED, PhasePoint(0.0, 0.0), 1.0, 1e-3)
    flow = approximate_flow(CUBIC_PERTURBED, traj, origin_packet())
    curve = duhamel_curve(CUBIC_PERTURBED, flow)
    assert abs(curve[-1] - 0.1 * CUBIC_AT_REST) < 1e-9
    assert np.all(np.diff(curve) >= 0.0)
    assert flow.traj.times[500] == pytest.approx(0.5, abs=1e-12)
    assert abs(curve[500] - 0.05 * CUBIC_AT_REST) < 1e-9
    assert curve[0] == 0.0


def test_duhamel_dominates_measured_distance():
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=PhasePoint(0.0, 0.0),
                               T=1.0, epsilon=1.0)
    traj = integrate_flow(CUBIC_PERTURBED, problem.alpha0, 1.0, problem.dt)
    flow = approximate_flow(CUBIC_PERTURBED, traj, origin_packet())
    psi0 = sample_on_grid(origin_packet(), problem.grid)
    inputs = BoundInputs(problem, flow)
    run, = run_grid(CUBIC_PERTURBED, GridStack.of(psi0), 1.0, problem.dt,
                    bound_inputs=[inputs])
    bounds = assemble_bounds(problem, run, inputs, measured_error(run, traj))
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
    run, = run_grid(HARMONIC, GridStack.of(psi0), 0.5, problem.dt,
                    bound_inputs=[inputs])
    bounds = assemble_bounds(problem, run, inputs, measured_error(run, traj))
    assert bounds.hypotheses_hold
    assert bounds.specialized[-1] >= bounds.general[-1] >= 0.0


def test_run_reduction_builds_each_basis_once(monkeypatch):
    # Nine lattice samples share one comparator and one grid, so every
    # projection of every snapshot reuses a single Hermite basis, and the
    # operator scalars are computed once.
    import qreduce.comparator as comparator
    build = comparator.hermite_functions
    scalars = comparator._scalars
    calls = []
    scalar_calls = []

    def counting(x, K):
        calls.append(K)
        return build(x, K)

    def counting_scalars(spec, dimension):
        scalar_calls.append(dimension)
        return scalars(spec, dimension)

    monkeypatch.setattr(comparator, "hermite_functions", counting)
    monkeypatch.setattr(comparator, "_scalars", counting_scalars)
    center = PhasePoint(1.0, 0.0)
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=center, T=0.1,
                               epsilon=1.0, dt=0.01,
                               region=PhaseRegion.box(center, [0.1, 0.1]))
    report = run_reduction(problem)
    assert len(report.sample_results) == 9
    assert len(report.times) == 11
    assert calls == [problem.comparator.N]
    assert scalar_calls == [1]


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
    run, = run_grid(QUARTIC, GridStack.of(psi0), 0.2, 1e-3)
    error = measured_error(run, traj)
    assert run.times[0] == 0.0
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
    run, = run_grid(spec, GridStack.of(sample_on_grid(packet(alpha0, 1.0), grid)),
                    T, dt, samples)
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


# Regions so small that rounding puts lattice points a few ulps past
# their boundary.
TINY_REGIONS = {
    "box": PhaseRegion.box(PhasePoint(0.1, 2.9), [1e-6, 1e-6]),
    "ball": PhaseRegion.ball(PhasePoint(1.3, 0.7), 3e-7),
}


@pytest.mark.parametrize("name", sorted(TINY_REGIONS))
def test_every_lattice_point_of_a_tiny_region_runs(monkeypatch, name):
    # The problem keeps its lattice, and run_reduction runs every point of
    # it, in lattice order, with no second lattice built.
    region = TINY_REGIONS[name]
    problem = ReductionProblem(spec=HARMONIC, alpha0=region.center, T=0.1,
                               dt=0.01, epsilon=1e-3, region=region)
    assert problem.lattice.shape == (9, 2)
    # Rounding puts the box's 8 outer points and the ball's 4 corners
    # just past the boundary.
    offsets = problem.lattice - region.center.vector
    past = (np.sqrt(np.sum(offsets ** 2, axis=1)) - region.radius
            if name == "ball"
            else np.max(np.abs(offsets) - region.half_widths, axis=1))
    assert np.sum(past > 0) == (4 if name == "ball" else 8)
    calls = []
    lattice_vectors = reduction._lattice_vectors
    monkeypatch.setattr(reduction, "_lattice_vectors",
                        lambda problem: calls.append(problem)
                        or lattice_vectors(problem))
    report = run_reduction(problem)
    assert calls == []
    assert [r["alpha0"] for r in report.sample_results] == \
        problem.lattice.tolist()


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



@pytest.mark.parametrize("fields, message", [
    ({"epsilon": np.nan}, "epsilon must be finite"),
    ({"epsilon": np.inf}, "epsilon must be finite"),
    ({"epsilon": [0.1, np.inf]}, "epsilon must be finite"),
    ({"T": np.inf}, "T must be finite"),
    ({"T": np.nan}, "T must be finite"),
    ({"dt": np.nan}, "time step dt must be positive and at most T"),
    ({"dt": 2.0}, "time step dt must be positive and at most T"),
    ({"E": np.inf}, "E must be finite"),
    ({"E": np.nan}, "E must be finite"),
    # The refusals the CLI reaches keep their texts.
    ({"epsilon": 0.0}, "epsilon must be positive"),
    ({"E": -2.0}, "magnitude threshold E must be positive"),
], ids=["epsilon-nan", "epsilon-inf", "epsilon-component-inf", "T-inf",
        "T-nan", "dt-nan", "dt-past-T", "E-inf", "E-nan", "epsilon-zero",
        "E-negative"])
def test_a_problem_that_cannot_run_is_refused_by_its_field(fields, message):
    # A non-finite epsilon, T or E, or a dt that time_steps refuses, would
    # write NaN or Infinity bounds, read an infinite E as a magnitude that
    # every state holds, or fail only at run time.
    with pytest.raises(ConfigError) as info:
        ReductionProblem(**{"spec": HARMONIC, "alpha0": PhasePoint(1.0, 0.0),
                            "T": 1.0, "epsilon": 1.0, **fields})
    assert str(info.value) == message
    assert info.value.field == next(iter(fields))

def test_ehrenfest_harmonic_residuals_tiny():
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0),
                          GridSpec(1, 1024, 20.0))
    data = ehrenfest_run(HARMONIC, psi0, 2.0, dt=1e-3, sample_stride=2)
    out = ehrenfest_residuals(data)
    assert np.max(out["identity"]) < 1e-6
    assert np.max(out["gap"]) < 1e-6


def test_ehrenfest_residuals_need_three_samples():
    # Three steps sampled every second record two states: the central
    # differences have no interior time.  Three samples give one.
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0),
                          GridSpec(1, 1024, 20.0))
    data = ehrenfest_run(HARMONIC, psi0, 0.006, dt=0.002, sample_stride=2)
    assert len(data.times) == 2
    with pytest.raises(ValueError, match="at least three samples"):
        ehrenfest_residuals(data)
    data = ehrenfest_run(HARMONIC, psi0, 0.008, dt=0.002, sample_stride=2)
    assert len(ehrenfest_residuals(data)["times"]) == 1


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
        states.append(amps[0].copy())

    propagate(CUBIC_PERTURBED, GridStack.of(psi0), T, dt, observer=store)
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
    # <q> (column 1) is not kept; V'(<q>) reads it.
    for column, got in zip((0, 2, 3, 4), (data.times, data.momentum,
                                          data.grad_v_mean,
                                          data.grad_v_at_mean)):
        assert np.array_equal(got, expected[:, column])


def test_ehrenfest_reads_its_moments_per_unit_mass():
    # Doubling a state doubles every amplitude of its run exactly, so its
    # densities, sums and mass are exactly four times the unit state's;
    # read per unit mass, every recorded number keeps its bits.  Sums not
    # divided by the mass, or divided twice, read 4x or x/4 here.
    grid = GridSpec(1, 1024, 20.0)
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.3), 1.3), grid)
    doubled = GridWavefunction(grid, 2.0 * psi0.amp)
    unit = ehrenfest_run(CUBIC_PERTURBED, psi0, 0.3, dt=2e-3, sample_stride=3)
    twice = ehrenfest_run(CUBIC_PERTURBED, doubled, 0.3, dt=2e-3,
                          sample_stride=3)
    for name in ("times", "momentum", "grad_v_mean", "grad_v_at_mean"):
        assert np.array_equal(getattr(twice, name), getattr(unit, name))
    q, p = expectation_a(psi0)
    assert abs(unit.momentum[0] - p) <= 1e-12
    assert unit.grad_v_at_mean[0] == pytest.approx(
        float(CUBIC_PERTURBED.potential.derivative(q)), rel=0, abs=1e-12)


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

    def counting(spec, amps, grid):
        calls.append(amps)
        return project(spec, amps, grid)

    problem = ReductionProblem(spec=CUBIC_PERTURBED,
                               alpha0=PhasePoint(0.5, 0.0), T=0.1, dt=0.01,
                               epsilon=1.0)
    expected = squeeze_sweep(problem, [0.5, 1.0, 2.0])
    monkeypatch.setattr(comparator, "hermite_coefficients", counting)
    monkeypatch.setattr(reduction, "hermite_coefficients", counting)
    assert squeeze_sweep(problem, [0.5, 1.0, 2.0]) == expected
    assert len(calls) == 3


def test_squeeze_reads_E_from_the_unit_width_final_state():
    # E auto is 1.5 times the inverse comparator norm of the d = 1 final
    # state W, also when d = 1 is not in the sweep: that W sampled on its
    # own, projected and probed as within_magnitude probes one state.
    problem = ReductionProblem(spec=CUBIC_PERTURBED,
                               alpha0=PhasePoint(0.5, 0.2), T=0.1, dt=0.01,
                               epsilon=1.0)
    traj = integrate_flow(CUBIC_PERTURBED, problem.alpha0, 0.1, 0.01)
    flow = approximate_flow(CUBIC_PERTURBED, traj, packet(problem.alpha0, 1.0))
    w = sample_on_grid(packet_at(flow, len(traj) - 1), problem.grid)
    coeffs, residual = hermite_coefficients(problem.comparator, w.amp[None],
                                            problem.grid)
    probe = within_magnitude(problem.comparator, (coeffs[0], residual[0]))
    assert not probe["divergent"]
    table = squeeze_sweep(problem, [2.0, 0.5])
    assert table["E_used"] == 1.5 * probe["inv_norm"]
    assert table["E_used"] == squeeze_sweep(problem, [1.0])["E_used"]


def test_squeeze_raises_the_residual_of_the_first_state_scored():
    # Over 2 pi of the quartic the d = 0.5 and d = 1 final states W leave
    # the basis.  With E auto the d = 1 probe scores first and raises that
    # state's residual; with E given, the first state of the sweep does.
    problem = ReductionProblem(spec=QUARTIC, alpha0=PhasePoint(1.0, 0.0),
                               T=2 * np.pi, dt=0.01, epsilon=1.0)
    traj = integrate_flow(QUARTIC, problem.alpha0, problem.T, problem.dt)

    def message(d):
        flow = approximate_flow(QUARTIC, traj, packet(problem.alpha0, d))
        w = sample_on_grid(packet_at(flow, len(traj) - 1), problem.grid)
        residual = hermite_coefficients(problem.comparator, w.amp[None],
                                        problem.grid)[1][0]
        assert residual > RESIDUAL_TOL
        return f"basis projection lost mass fraction {residual:.3g}"

    assert message(0.5) != message(1.0)
    for E, d in ((None, 1.0), (10.0, 0.5)):
        with pytest.raises(BasisResidualError) as info:
            squeeze_sweep(dataclasses.replace(problem, E=E), [0.5, 1.0, 2.0])
        assert str(info.value) == message(d)


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

    def outside(spec, amps, grid):
        coeffs, residual = project(spec, amps, grid)
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
    propagate(spec, GridStack.of(psi0), T, dt,
              observer=lambda t, amps: every.append(amps[0].copy()))
    every = np.concatenate(every)
    kept = [0] + [k for k in range(1, steps) if k % stride == 0] + [steps]
    return (np.array(kept) * (T / steps),
            [GridWavefunction(psi0.grid, every[k]) for k in kept])


def delta2_tolerance(comp, grid, coeffs):
    """How far delta2 from W's coefficients may lie from the grid norm
    ||W - Omega W||, per row of coeffs: 1e-12 in 1D, and in 2D the
    sampled basis's Gram defect max |h h^T dx - I| times sum |c|^2, as
    the grid norm reads the sampled basis as orthonormal."""
    if grid.n == 1:
        return np.full(len(coeffs), 1e-12)
    h = hermite_functions(grid.x, comp.N)
    gram_defect = np.max(np.abs(h @ h.T * grid.dx - np.eye(comp.N + 1)))
    return gram_defect * np.sum(np.abs(coeffs.reshape(len(coeffs), -1)) ** 2,
                                axis=-1)


def snapshot_list_assembly(problem, flow, times, states):
    """delta1, delta2, both membership probes and both bound curves per
    stored state, each state projected as a stack of one and delta2 the
    grid norm of W minus Omega W synthesized from W's coefficients; and
    the tolerance of delta2 and of the bounds that read it."""
    comp, grid = problem.comparator, problem.grid

    def probe(projection):
        coeffs, residual = projection
        try:
            out = within_magnitude(comp, (coeffs[0], residual[0]))
        except BasisResidualError:
            return np.inf, True
        return out["inv_norm"], out["divergent"]

    rows = []
    for t, u in zip(times, states):
        w = sample_on_grid(packet_at(flow, round(t / flow.traj.dt)), grid)
        w_projection = hermite_coefficients(comp, w.amp[None], grid)
        smoothed = GridWavefunction(grid, explicit_synthesis(
            comp, w_projection[0][0], grid))
        u_projection = hermite_coefficients(comp, u.amp[None], grid)
        rows.append((w.distance(u), w.distance(smoothed),
                     delta2_tolerance(comp, grid, w_projection[0])[0])
                    + probe(u_projection) + probe(w_projection))
    d1, d2, tol, inv_u, div_u, inv_w, div_w = map(np.array, zip(*rows))
    E = 1.5 * np.max(np.concatenate([inv_u[~div_u], inv_w[~div_w]]))
    # The bounds as assemble_bounds states them, on the normalized
    # comparator.
    s = comp.s
    omega = np.sqrt(comparator_scalars(comp, grid.n)["aOmega_sq_measured"]) \
        / comp.sigma
    m1 = 2.0 + (E + 1.0) * (1.0 - np.exp(-s * comp.N))
    prefactor = np.sqrt(np.exp(s) / (s * np.e))
    fields = {"E_used": E, "delta1_measured": d1, "delta2": d2,
              "membership_u": ~div_u & (inv_u <= E),
              "membership_w": ~div_w & (inv_w <= E),
              "general": omega * (m1 * d1 + 2.0 * (E + 1.0) * d2),
              "specialized": prefactor * ((E + 3.0) * d1
                                          + 2.0 * (E + 1.0) * d2)}
    tolerance = {"delta2": tol,
                 "general": omega * 2.0 * (E + 1.0) * tol,
                 "specialized": prefactor * 2.0 * (E + 1.0) * tol}
    return fields, tolerance


def assert_matches_the_snapshot_list(bounds, fields, tolerance):
    """Every field bitwise, but delta2 and the bounds that read it, which
    agree within their tolerance and a few ulps."""
    for key, value in fields.items():
        got = getattr(bounds, key)
        if key in tolerance:
            gap = np.abs(got - value) - tolerance[key]
            assert np.all(gap <= 8 * np.finfo(float).eps * np.abs(value)), key
        else:
            assert np.array_equal(got, value), key


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


def lattice_points(problem):
    """The problem's lattice as the PhasePoints run_reduction starts from."""
    return [PhasePoint.from_vector(v) for v in problem.lattice]


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
    # 200 snapshots after the start: six full 32-row observer blocks
    # and a partial last one.
    "blocks-1d": ReductionProblem(
        spec=CUBIC_PERTURBED, alpha0=PhasePoint(1.0, 0.0), T=2.0, dt=0.01,
        epsilon=0.05, samples=200),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_streamed_bounds_equal_the_snapshot_list_assembly(name):
    # The streamed run projects the same states as a kept snapshot list
    # would, so every projection-derived number is bitwise the same;
    # delta2, taken from W's coefficients, is the grid norm of
    # W - Omega W within its tolerance.
    problem = STREAM_CASES[name]
    points = lattice_points(problem)
    olds = {}
    for alpha0 in points:
        traj = integrate_flow(problem.spec, alpha0, problem.T, problem.dt)
        base = packet(alpha0, problem.M0)
        flow = approximate_flow(problem.spec, traj, base)
        psi0 = sample_on_grid(base, problem.grid)
        inputs = BoundInputs(problem, flow)
        run, = run_grid(problem.spec, GridStack.of(psi0), problem.T,
                        problem.dt, problem.samples, [inputs])
        bounds = assemble_bounds(problem, run, inputs,
                                 measured_error(run, traj))
        times, states = stored_run(problem.spec, psi0, problem.T, problem.dt,
                                   problem.samples)
        assert np.array_equal(run.times, times)
        old = olds[tuple(alpha0.vector)] = snapshot_list_assembly(
            problem, flow, times, states)
        assert_matches_the_snapshot_list(bounds, *old)
        moments = np.array([spectral_moments(s) for s in states])
        assert np.max(np.abs(run.expectations - moments)) <= 1e-13
    assert len(points) == (9 if name == "lattice-1d" else 1)
    report = run_reduction(problem)
    worst = max(report.sample_results, key=lambda r: r["max_error"])
    assert_matches_the_snapshot_list(report.bounds,
                                     *olds[tuple(worst["alpha0"])])


DEFECT_CASES = {
    "1d": (GridSpec(n=1, N=1024, L=20.0), ComparatorSpec(s=1.0, N=128)),
    "2d-N64": (GridSpec(n=2, N=64, L=10.0), ComparatorSpec(s=1.0, N=32)),
    "2d-N128": (GridSpec(n=2, N=128, L=10.0), ComparatorSpec(s=1.0, N=32)),
}


@pytest.mark.parametrize("name", sorted(DEFECT_CASES))
@settings(max_examples=8, deadline=None)
@given(rows=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_comparator_defect_is_the_grid_norm_of_w_minus_omega_w(name, rows,
                                                               seed):
    # delta2 from W's coefficients and residual, against ||W - Omega W||
    # on the grid with Omega W synthesized from the same coefficients.
    # Each row of the stacked call is bitwise the call on that row alone.
    grid, comp = DEFECT_CASES[name]
    rng = np.random.default_rng(seed)
    states = [sample_on_grid(packet(
        PhasePoint(*rng.uniform(-1.5, 1.5, (2, grid.n))),
        complex(rng.uniform(0.6, 1.7), rng.uniform(-0.5, 0.5))
        * np.eye(grid.n)), grid) for _ in range(rows)]
    if grid.n == 1:
        # Nearly RESIDUAL_TOL of this packet's mass lies outside the
        # basis; without that mass delta2 reads 5e-9 low.
        states.insert(int(rng.integers(rows + 1)), sample_on_grid(
            packet(PhasePoint(12.25, 0.0), 1.0), grid))
    amps = np.stack([psi.amp for psi in states])
    coeffs, residual = projection = hermite_coefficients(comp, amps, grid)
    assert grid.n == 2 or RESIDUAL_TOL / 2 < residual.max() <= RESIDUAL_TOL
    defects = reduction._comparator_defects(comp, projection)
    assert defects.shape == (len(states),)
    tolerance = delta2_tolerance(comp, grid, coeffs)
    for row, psi in enumerate(states):
        smoothed = GridWavefunction(grid, explicit_synthesis(
            comp, coeffs[row], grid))
        assert abs(defects[row] - psi.distance(smoothed)) <= tolerance[row]
        single = reduction._comparator_defects(comp, hermite_coefficients(
            comp, amps[row:row + 1], grid))
        assert defects[row] == single[0]


def fresh_buffer_run(problem, psi0, inputs):
    """run_grid's snapshots and expectations with a fresh spectrum and a
    fresh W block for every block, as the observer ran before one scratch
    block served the run."""
    steps, step_dt = time_steps(problem.T, problem.dt)
    stride = max(1, steps // problem.samples)
    grid = psi0.grid
    times, moments = [], []

    def observe(block_times, amps):
        # amps holds the block of the one state, shape (1, rows) + (N, N).
        times.append(block_times.copy())
        moments.append(expectation_a(amps[0], grid))
        BoundInputs.add_stack([inputs], block_times, amps, np.empty_like(amps))

    # add_stack overwrites the block it scores, so the start goes as a copy.
    observe(np.zeros(1), psi0.amp[None, None].copy())
    final = propagate(problem.spec, GridStack.of(psi0), problem.T, problem.dt,
                      observer=observe, observe_stride=stride).final
    if steps % stride:
        observe(np.array([steps * step_dt]), final.amps[:, None])
    return np.concatenate(times), np.concatenate(moments)


def test_a_2d_run_works_in_one_scratch_block(monkeypatch):
    # 23 steps at stride 2 on a 4-row grid: the start, blocks of 4, 4 and
    # 3 rows and the off-stride last step, all in one scratch base.
    problem = dataclasses.replace(STREAM_CASES["coupled-2d"], T=0.23,
                                  samples=11, grid=GridSpec(n=2, N=128, L=10.0))
    traj = integrate_flow(problem.spec, problem.alpha0, problem.T, problem.dt)
    base = packet(problem.alpha0, problem.M0)
    flow = approximate_flow(problem.spec, traj, base)
    psi0 = sample_on_grid(base, problem.grid)
    inputs = BoundInputs(problem, flow)
    works = []
    add_stack = BoundInputs.add_stack

    def recording(inputs, times, amps, work):
        works.append(work)
        add_stack(inputs, times, amps, work)

    monkeypatch.setattr(BoundInputs, "add_stack", recording)
    run, = run_grid(problem.spec, GridStack.of(psi0), problem.T, problem.dt,
                    problem.samples, [inputs])
    monkeypatch.undo()
    assert [work.shape[:2] for work in works] == [
        (1, 1), (1, 4), (1, 4), (1, 3), (1, 1)]
    scratch = works[0].base
    assert scratch.shape == (4, 128, 128)
    assert all(work.base is scratch for work in works)
    fresh = BoundInputs(problem, flow)
    times, moments = fresh_buffer_run(problem, psi0, fresh)
    assert np.array_equal(run.times, times)
    assert np.array_equal(run.expectations, moments)
    assert len(inputs.blocks) == len(fresh.blocks) == 5
    for got, want in zip(inputs.blocks, fresh.blocks):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


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
    run, = run_grid(FREE, GridStack.of(psi0), problem.T, problem.dt,
                    problem.samples, [inputs])
    w_projections = [hermite_coefficients(
        comp, sample_on_grid(packet_at(flow, round(t / problem.dt)),
                             problem.grid).amp[None], problem.grid)
        for t in run.times]
    first = next(row for row, (_, residual) in enumerate(w_projections)
                 if residual[0] > RESIDUAL_TOL)
    assert 65 < first < 129
    with pytest.raises(BasisResidualError) as raised:
        apply_comparator(comp, w_projections[first])
    assert str(inputs.failure) == str(raised.value)
    with pytest.raises(BasisResidualError, match=str(raised.value)):
        assemble_bounds(problem, run, inputs, measured_error(run, traj))
    report = run_reduction(problem)
    assert report.verdict == "hypothesis-failed"
    assert report.bound_failure["message"] == str(raised.value)


def test_each_snapshot_state_is_projected_once(monkeypatch):
    # u and W once each per snapshot: W's projection serves delta2 and
    # its membership probe alike.
    import qreduce.comparator as comparator
    project = comparator.hermite_coefficients
    rows = []

    def counting(spec, amps, grid):
        rows.append(len(amps))
        return project(spec, amps, grid)

    monkeypatch.setattr(comparator, "hermite_coefficients", counting)
    monkeypatch.setattr(reduction, "hermite_coefficients", counting)
    report = run_reduction(STREAM_CASES["lattice-1d"])
    snapshots = len(report.sample_results) * len(report.times)
    assert len(report.sample_results) == 9
    assert sum(rows) == 2 * snapshots


def per_sample_loop(problem, count=None):
    """(alpha0, run, inputs, error, bounds, verdict, failure) per lattice
    sample, or per one of its first ``count``, as run_reduction ran the
    lattice before it was stacked: each sample's flow, grid run and
    bound stage on its own, one after another."""
    eps = problem.epsilon_vector()
    outcomes = []
    for alpha0 in lattice_points(problem)[:count]:
        traj = integrate_flow(problem.spec, alpha0, problem.T, problem.dt)
        base = packet(alpha0, problem.M0)
        inputs = BoundInputs(problem,
                             approximate_flow(problem.spec, traj, base))
        run, = run_grid(problem.spec,
                        GridStack.of(sample_on_grid(base, problem.grid)),
                        problem.T, problem.dt, problem.samples, [inputs])
        error = measured_error(run, traj)
        bounds = failure = None
        try:
            bounds = assemble_bounds(problem, run, inputs, error)
        except BasisResidualError as exc:
            failure = {"alpha0": alpha0.vector.tolist(),
                       "error": type(exc).__name__, "message": str(exc)}
        if not np.all(error.components < eps[None, :]):
            verdict = "not-reduced"
        elif bounds is not None and bounds.hypotheses_hold:
            verdict = "reduced"
        else:
            verdict = "hypothesis-failed"
        outcomes.append((alpha0, run, inputs, error, bounds, verdict, failure))
    return outcomes


BOUND_FIELDS = ("delta1_measured", "delta1_duhamel", "delta2", "membership_u",
                "membership_w", "general", "specialized", "E_used",
                "prefactor_closed")


def assert_report_is_the_per_sample_loop(problem, report):
    outcomes = per_sample_loop(problem)
    assert report.sample_results == [
        {"alpha0": alpha0.vector.tolist(), "max_error": error.overall,
         "verdict": verdict}
        for alpha0, _, _, error, _, verdict, _ in outcomes]
    _, run, _, error, bounds, _, _ = max(outcomes,
                                         key=lambda item: item[3].overall)
    assert np.array_equal(report.times, run.times)
    assert np.array_equal(report.error.components, error.components)
    assert report.provenance["boundary_mass_max"] == run.boundary_mass_max
    assert report.provenance["norm_drift"] == run.norm_drift
    failures = [item[6] for item in outcomes if item[6] is not None]
    assert report.bound_failure == (failures[0] if failures else None)
    assert (report.bounds is None) == (bounds is None)
    for key in BOUND_FIELDS if bounds is not None else ():
        assert np.array_equal(getattr(report.bounds, key),
                              getattr(bounds, key)), key
    return report, outcomes


def stacked_reduction(problem, monkeypatch):
    """run_reduction's report and the stack size of each grid run."""
    sizes = []

    def counting(spec, psi0, *args, **kwargs):
        sizes.append(len(psi0.amps))
        return propagate(spec, psi0, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(reduction, "propagate", counting)
        return run_reduction(problem), sizes


def test_a_1d_region_reduce_is_bitwise_the_per_sample_loop(monkeypatch):
    # Nine samples, one stack: one propagate loop for the lattice.
    problem = STREAM_CASES["lattice-1d"]
    report, sizes = stacked_reduction(problem, monkeypatch)
    assert sizes == [9]
    assert_report_is_the_per_sample_loop(problem, report)
    assert report.bounds is not None


# Nine samples of the coupled 2D unit on a 128-point grid, run as stacks
# of 4, 4 and 1: a single 2D run's observer block holds 4 states.
REGION_2D = dataclasses.replace(
    STREAM_CASES["coupled-2d"], grid=GridSpec(n=2, N=128, L=10.0),
    region=PhaseRegion.box(STREAM_CASES["coupled-2d"].alpha0,
                           [0.01, 0.01, np.inf, np.inf]))


def test_a_2d_region_reduce_in_chunks_is_bitwise_the_per_sample_loop(
        monkeypatch):
    report, sizes = stacked_reduction(REGION_2D, monkeypatch)
    assert sizes == [4, 4, 1]
    assert_report_is_the_per_sample_loop(REGION_2D, report)
    assert len(report.sample_results) == 9


# A free packet spreads out of a 17-function basis; the samples displaced
# by +-1 leave it before T, the centre does not.
SPREADING = ReductionProblem(
    spec=FREE, alpha0=PhasePoint(0.0, 0.0), T=0.6, dt=0.01, epsilon=1.0,
    comparator=ComparatorSpec(s=1.0, N=16),
    region=PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0, np.inf]))


def test_a_sample_outside_the_basis_fails_alone():
    report, outcomes = assert_report_is_the_per_sample_loop(
        SPREADING, run_reduction(SPREADING))
    assert [item[6] is not None for item in outcomes] == [True, False, True]
    assert report.bound_failure["alpha0"] == outcomes[0][0].vector.tolist()
    assert outcomes[1][4] is not None
    assert [r["verdict"] for r in report.sample_results] == [
        "hypothesis-failed", outcomes[1][5], "hypothesis-failed"]


@pytest.mark.parametrize("problem", [STREAM_CASES["lattice-1d"], SPREADING,
                                     REGION_2D],
                         ids=["lattice-1d", "spreading", "region-2d"])
def test_a_stacked_run_feeds_each_sample_its_own_numbers(problem):
    # One run_grid call for a stack of the first four samples: each
    # sample's QuantumRun and BoundInputs (its columns, or its own
    # failure) are bitwise those of its run alone.  The stack's blocks
    # are its rows' share of a single run's block (in 2D at N = 128, one
    # state of a run alone's four), so the columns are compared across
    # blocks.
    outcomes = per_sample_loop(problem, 4)
    inputs = [BoundInputs(problem, item[2].flow) for item in outcomes]
    stack = GridStack.of(*[sample_on_grid(item[2].flow.base, problem.grid)
                           for item in outcomes])
    runs = run_grid(problem.spec, stack, problem.T, problem.dt,
                    problem.samples, inputs)
    for run, got, (_, alone, want, *_) in zip(runs, inputs, outcomes):
        assert np.array_equal(run.times, alone.times)
        assert np.array_equal(run.expectations, alone.expectations)
        assert run.boundary_mass_max == alone.boundary_mass_max
        assert run.norm_drift == alone.norm_drift
        assert str(got.failure) == str(want.failure)
        if want.failure is not None:
            # The blocks before the failing one are never read.
            continue
        for a, b in zip(zip(*got.blocks), zip(*want.blocks), strict=True):
            assert np.array_equal(np.concatenate(a, axis=-1),
                                  np.concatenate(b, axis=-1))


def test_ehrenfest_blocks_are_bitwise_the_written_out_block_form():
    # The block observer as it ran before it went in place, on full
    # 32-row blocks (512 KiB, where numpy elides the expression's
    # temporaries) and a partial one; the momentum integrand is summed as
    # complex numbers.
    grid = GridSpec(1, 1024, 20.0)
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.3), 1.3), grid)
    T, dt, stride = 0.8, 2e-3, 2
    pot = CUBIC_PERTURBED.potential
    dv = pot.derivative(grid.x)
    cell = grid.cell
    blocks = []

    def collect(times, stack):
        amps = stack[0]
        dens = np.abs(amps) ** 2
        mass = np.sum(dens, axis=-1) * cell
        q = np.sum(grid.x * dens, axis=-1) * cell / mass
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amps))
        p = np.sum(np.conj(amps) * -1j * dpsi, axis=-1).real * cell / mass
        blocks.append(np.column_stack([
            times, q, p, np.sum(dv * dens, axis=-1) * cell / mass,
            pot.derivative(q)]))

    collect(np.zeros(1), psi0.amp[None, None])
    propagate(CUBIC_PERTURBED, GridStack.of(psi0), T, dt, observer=collect,
              observe_stride=stride)
    expected = np.concatenate(blocks)
    data = ehrenfest_run(CUBIC_PERTURBED, psi0, T, dt=dt, sample_stride=stride)
    assert [len(block) for block in blocks] == [1] + [32] * 6 + [8]
    # <q> (column 1) is not kept; V'(<q>) reads it.
    for column, got in zip((0, 2, 3, 4), (data.times, data.momentum,
                                          data.grad_v_mean,
                                          data.grad_v_at_mean)):
        assert np.array_equal(got, expected[:, column])


def test_observer_block_caps_change_no_bits(monkeypatch):
    # The state cap of an observer block sets only how many states each
    # observer call measures: a stacked region run, a run of one state
    # and an Ehrenfest run (stride 3) keep their bits from blocks of one
    # state to blocks of 64.  So does the stay curve over 70, 33 and 49
    # steps, at caps of 1 and 2 too, where every block holds one state
    # per run; at most other caps the last block of 33 or 49 steps does.
    # A 2D block at N = 128 is bound by bytes, not by the cap.
    # 150 snapshots of 9 samples: 1, 1, 3 and 7 states per sample a block.
    comp = ComparatorSpec(s=1.0, N=16)
    problem = dataclasses.replace(STREAM_CASES["lattice-1d"], T=0.3,
                                  dt=0.002, samples=150, comparator=comp)
    grid = problem.grid
    psi0 = sample_on_grid(packet(PhasePoint(1.0, 0.3), 1.3), grid)
    handle = GridHamiltonian(HARMONIC, dt=0.0625)

    def measured():
        inputs = [BoundInputs(problem, approximate_flow(
            problem.spec, integrate_flow(problem.spec, alpha0, problem.T,
                                         problem.dt), packet(alpha0, 1.0)))
            for alpha0 in lattice_points(problem)]
        stack = GridStack.of(*[sample_on_grid(item.flow.base, grid)
                               for item in inputs])
        runs = run_grid(problem.spec, stack, problem.T, problem.dt,
                        problem.samples, inputs)
        run, = run_grid(CUBIC_PERTURBED, GridStack.of(psi0), 0.3, 1e-3, 100)
        data = ehrenfest_run(CUBIC_PERTURBED, psi0, 0.3, dt=1e-3,
                             sample_stride=3)
        out = [run.times, run.expectations, data.times, data.momentum,
               data.grad_v_mean, data.grad_v_at_mean]
        for sample, item in zip(runs, inputs):
            assert item.failure is None
            out += [sample.times, sample.expectations,
                    np.array([sample.boundary_mass_max, sample.norm_drift])]
            out += [np.concatenate(column, axis=-1)
                    for column in zip(*item.blocks)]
        return out

    def stay_curves():
        return [value for steps in (70, 33, 49)
                for value in spectral._grid_stay_curve(handle, psi0, comp,
                                                       steps * 0.0625)]

    results, curves = {}, {}
    for cap, rows in zip((1, 7, 32, 64), (1, 1, 3, 7)):
        monkeypatch.setattr(grid_module, "OBSERVE_BLOCK_STATES", cap)
        assert grid_module._block_rows(grid, 150, 9) == rows
        results[cap] = measured()
    for cap in (1, 2, 7, 32, 64):
        monkeypatch.setattr(grid_module, "OBSERVE_BLOCK_STATES", cap)
        curves[cap] = stay_curves()
    assert grid_module._block_rows(grid, 500) == 64
    assert len(results[1]) == 6 + 9 * 5
    for cap in (1, 7, 32):
        for got, want in zip(results[cap], results[64], strict=True):
            assert np.array_equal(got, want)
    for cap in (1, 2, 7, 32):
        for got, want in zip(curves[cap], curves[64], strict=True):
            assert np.array_equal(got, want)
    monkeypatch.undo()
    assert grid_module._block_rows(GridSpec(n=2, N=128, L=10.0), 500) == 4


def test_the_normal_rule_is_computed_once_and_read_only():
    from numpy.polynomial.hermite_e import hermegauss
    z, w = hamiltonian.normal_rule()
    assert hamiltonian.normal_rule()[0] is z
    nodes, weights = hermegauss(hamiltonian.GAUSS_NODES)
    np.testing.assert_allclose(z, nodes, rtol=1e-13, atol=0)
    np.testing.assert_allclose(w, weights / np.sqrt(2.0 * np.pi),
                               rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        w[0] = 0.0


def frozen(array):
    """A read-only copy of array: writing into it raises ValueError."""
    array = np.array(array)
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("name", ["lattice-1d", "coupled-2d"])
def test_a_run_never_writes_into_its_callers_states(name, monkeypatch):
    # The bound stage overwrites every block it scores, so run_grid hands
    # it only blocks the run owns: read-only start states run through
    # run_grid with bound inputs, and through run_reduction's and
    # squeeze_sweep's own calls, and keep their bits.
    case = STREAM_CASES[name]
    problem = dataclasses.replace(
        case, alpha0=PhasePoint.from_vector(case.alpha0.vector))
    flows = [approximate_flow(problem.spec, integrate_flow(
        problem.spec, alpha0, problem.T, problem.dt), packet(alpha0, 1.0))
        for alpha0 in lattice_points(problem)[:3]]
    amps = frozen([sample_on_grid(flow.base, problem.grid).amp
                   for flow in flows])
    want = amps.copy()
    inputs = [BoundInputs(problem, flow) for flow in flows]
    run_grid(problem.spec, GridStack(problem.grid, amps), problem.T,
             problem.dt, problem.samples, inputs)
    assert np.array_equal(amps, want)
    assert all(item.blocks and item.failure is None for item in inputs)

    expected = run_reduction(problem).to_json_dict()
    starts = []
    grid_run = reduction.run_grid

    def freezing(spec, psi0, *args):
        starts.append((psi0.amps, psi0.amps.copy()))
        psi0.amps.flags.writeable = False
        return grid_run(spec, psi0, *args)

    monkeypatch.setattr(reduction, "run_grid", freezing)
    for vector in (problem.lattice, problem.alpha0.xi, problem.alpha0.pi):
        vector.flags.writeable = False
    assert run_reduction(problem).to_json_dict() == expected
    assert starts and all(np.array_equal(got, copy) for got, copy in starts)
    if problem.grid.n == 1:
        table = squeeze_sweep(problem, [0.5, 1.0])
        assert table == squeeze_sweep(dataclasses.replace(problem), [0.5, 1.0])


def test_scoring_a_2d_block_allocates_less_than_a_block():
    # add_stack scores a 4-state 2D block at N = 128 (1 MiB) in that block
    # and the scratch block it is handed: tracemalloc's peak rises by less
    # than one block over its inputs.  A first call fills the caches.
    import tracemalloc
    problem = dataclasses.replace(STREAM_CASES["coupled-2d"], T=0.04,
                                  grid=GridSpec(n=2, N=128, L=10.0))
    traj = integrate_flow(problem.spec, problem.alpha0, problem.T, problem.dt)
    flow = approximate_flow(problem.spec, traj, packet(problem.alpha0, 1.0))
    blocks = []
    propagate(problem.spec, GridStack.of(sample_on_grid(
        flow.base, problem.grid)), problem.T, problem.dt,
        observer=lambda times, amps: blocks.append(amps.copy()))
    amps, = blocks
    assert amps.shape == (1, 4, 128, 128) and amps.nbytes == 1 << 20
    times = traj.times[1:5]
    work = np.empty_like(amps)
    BoundInputs.add_stack([BoundInputs(problem, flow)], times, amps.copy(),
                          work)
    inputs = BoundInputs(problem, flow)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        BoundInputs.add_stack([inputs], times, amps, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inputs.failure is None and len(inputs.blocks) == 1
    assert peak - before < amps.nbytes
