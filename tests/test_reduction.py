import json

import numpy as np
import pytest

from qreduce.classical import PhaseRegion, integrate_flow
from qreduce.comparator import ComparatorSpec
from qreduce.errors import ConfigError
from qreduce.grid import GridSpec
from qreduce.hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.packets import approximate_flow, packet, sample_on_grid
from qreduce.reduction import (ReductionProblem, assemble_bounds,
                               duhamel_curve, ehrenfest_run,
                               ehrenfest_residuals, measured_error,
                               remainder_norm, run_grid, run_reduction,
                               squeeze_sweep)

HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
CUBIC_PERTURBED = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5, 0.1 / 6]))
PURE_CUBIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 1 / 6]))
QUARTIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))

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


def test_remainder_norm_rejects_tabulated():
    x = np.linspace(-5, 5, 201)
    spec = HamiltonianSpec(
        mass=1.0, potential=PotentialModel.tabulated(x, 0.5 * x ** 2))
    with pytest.raises(ValueError):
        remainder_norm(spec, origin_packet())


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
    run = run_grid(CUBIC_PERTURBED, psi0, 1.0, problem.dt)
    bounds = assemble_bounds(problem, run, flow)
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
    run = run_grid(HARMONIC, psi0, 0.5, problem.dt)
    bounds = assemble_bounds(problem, run, flow)
    assert bounds.hypotheses_hold
    assert bounds.specialized[-1] >= bounds.general[-1] >= 0.0


def test_run_reduction_builds_each_basis_once(monkeypatch):
    # Nine lattice samples share one comparator and one grid, so every
    # projection of every snapshot reuses a single Hermite basis.
    import qreduce.comparator as comparator
    build = comparator.hermite_functions
    calls = []

    def counting(x, K):
        calls.append(K)
        return build(x, K)

    monkeypatch.setattr(comparator, "hermite_functions", counting)
    center = PhasePoint(1.0, 0.0)
    problem = ReductionProblem(spec=CUBIC_PERTURBED, alpha0=center, T=0.1,
                               epsilon=1.0, dt=0.01,
                               region=PhaseRegion.box(center, [0.1, 0.1]))
    report = run_reduction(problem)
    assert len(report.sample_results) == 9
    assert len(report.times) == 11
    assert calls == [problem.comparator.N]


def test_scalar_M0_broadcasts_in_two_dimensions():
    pot = PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.01, 0.0], [0.02, 0.0, 0.0]])
    spec2 = HamiltonianSpec(mass=1.0, potential=pot, dimension=2)

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


def test_ehrenfest_rejects_two_dimensional_grids():
    grid2 = GridSpec(n=2, N=64, L=8.0)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * grid2.x ** 2)
    from qreduce.grid import GridWavefunction
    psi = GridWavefunction(grid2, np.outer(h0, h0))
    spec2 = HamiltonianSpec(mass=1.0, dimension=2,
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
