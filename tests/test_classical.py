import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreduce import FlowDivergedError, HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.classical import (
    PhaseRegion,
    classical_average_stay,
    classical_transit_time,
    classify_classical,
    integrate_flow,
)

HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
FREE = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0.0]))
QUARTIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))
# Barrier top at xi = sqrt(5) with height 1.25.
BARRIER = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5, 0, -1 / 20]))


def test_harmonic_half_period():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), np.pi, 1e-3)
    assert traj.xi[-1, 0] == pytest.approx(-1.0, abs=1e-6)
    assert traj.pi[-1, 0] == pytest.approx(0.0, abs=1e-6)


def test_free_flow_exact():
    spec = HamiltonianSpec(mass=2.0, potential=PotentialModel.polynomial([0.0]))
    traj = integrate_flow(spec, PhasePoint(0.0, 4.0), 3.0, 1e-2)
    assert traj.xi[-1, 0] == pytest.approx(6.0, abs=1e-12)
    assert traj.pi[-1, 0] == pytest.approx(4.0, abs=1e-12)


def test_quartic_self_convergence():
    coarse = integrate_flow(QUARTIC, PhasePoint(1.0, 0.0), 1.0, 1e-3)
    fine = integrate_flow(QUARTIC, PhasePoint(1.0, 0.0), 1.0, 1e-5)
    assert coarse.xi[-1, 0] == pytest.approx(fine.xi[-1, 0], abs=1e-6)
    assert coarse.pi[-1, 0] == pytest.approx(fine.pi[-1, 0], abs=1e-6)


def test_energy_drift_harmonic_long_run():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 100.0, 1e-3)
    assert traj.energy_drift <= 1e-6


def test_time_reversal_roundtrip():
    start = PhasePoint(0.3, 0.7)
    fwd = integrate_flow(QUARTIC, start, 2.0, 1e-3)
    flipped = PhasePoint(fwd.xi[-1], -fwd.pi[-1])
    back = integrate_flow(QUARTIC, flipped, 2.0, 1e-3)
    assert back.xi[-1, 0] == pytest.approx(0.3, abs=1e-6)
    assert back.pi[-1, 0] == pytest.approx(-0.7, abs=1e-6)


def test_divergence_carries_partial_trajectory():
    with pytest.raises(FlowDivergedError) as exc:
        integrate_flow(BARRIER, PhasePoint(0.0, 1.7), 50.0, 1e-3)
    err = exc.value
    assert err.trajectory is not None
    assert 0.0 < err.t_last < 50.0
    assert err.trajectory.times[-1] == pytest.approx(err.t_last)


def test_step_validation():
    with pytest.raises(ValueError):
        integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 1.0, 2.0)
    with pytest.raises(ValueError):
        integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), -1.0, 0.1)


def test_trajectory_interpolation_matches_fine_sampling():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2.0, 1e-2)
    # At sample times the interpolant reproduces the samples exactly.
    assert traj.at(traj.times[57]) == pytest.approx(traj.states[57], abs=1e-14)
    # Constant force: the path is quadratic in t and the stepper exact,
    # so the cubic interpolant must reproduce the closed form between samples.
    g = 0.3
    lin = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, g]))
    ltraj = integrate_flow(lin, PhasePoint(0.2, 1.0), 2.0, 1e-2)
    t = 1.2345
    state = ltraj.at(t)
    assert state[0] == pytest.approx(0.2 + t - 0.5 * g * t * t, abs=1e-12)
    assert state[1] == pytest.approx(1.0 - g * t, abs=1e-12)


def test_to_csv_roundtrip(tmp_path):
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 0.1, 1e-2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,xi0,pi0,energy"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (11, 4)
    assert data[-1, 0] == pytest.approx(0.1)


def test_transit_time_free_chord():
    # Speed 2 through the position box [-1, 1]: chord time 1.
    traj = integrate_flow(FREE, PhasePoint(-3.0, 2.0), 4.0, 1e-3)
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0, np.inf])
    tau = classical_transit_time(traj, region, (0.0, 4.0))
    assert tau == pytest.approx(1.0, abs=1e-3)


def test_transit_time_orbit_inside_ball():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    region = PhaseRegion.ball(PhasePoint(0.0, 0.0), 2.0)
    tau = classical_transit_time(traj, region, (0.0, 2 * np.pi))
    assert tau == pytest.approx(2 * np.pi, abs=1e-3)


def test_transit_time_against_fine_indicator_sum():
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [0.5, np.inf])
    traj = integrate_flow(QUARTIC, PhasePoint(1.0, 0.0), 4.0, 1e-3)
    tau = classical_transit_time(traj, region, (0.0, 4.0))
    fine = integrate_flow(QUARTIC, PhasePoint(1.0, 0.0), 4.0, 1e-5)
    oracle = float(np.sum(np.abs(fine.xi[:, 0]) <= 0.5)) * fine.dt
    assert tau == pytest.approx(oracle, abs=2e-3)


def test_average_stay_orbit_inside():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    region = PhaseRegion.ball(PhasePoint(0.0, 0.0), 2.0)
    assert classical_average_stay(traj, region, (0.0, 2 * np.pi)) == pytest.approx(1.0)


def test_average_stay_free_tail_decreasing():
    traj = integrate_flow(FREE, PhasePoint(0.0, 1.0), 40.0, 1e-2)
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0, np.inf])
    mus = [classical_average_stay(traj, region, (0.0, t)) for t in (5.0, 10.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(mus, mus[1:]))
    assert mus[-1] == pytest.approx(1.0 / 40.0, abs=1e-3)


def test_average_stay_half_period():
    # |cos t| <= 1/sqrt(2) holds on half of each period.
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [np.sqrt(0.5), np.inf])
    mu = classical_average_stay(traj, region, (0.0, 2 * np.pi))
    assert mu == pytest.approx(0.5, abs=1e-3)


def test_window_validation():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 1.0, 1e-2)
    region = PhaseRegion.ball(PhasePoint(0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        classical_transit_time(traj, region, (0.0, 2.0))
    with pytest.raises(ValueError):
        classical_average_stay(traj, region, (0.5, 0.5))


def test_region_validation():
    with pytest.raises(ValueError):
        PhaseRegion.ball(PhasePoint(0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0])


@settings(max_examples=25, deadline=None)
@given(x0=st.floats(-1.5, 1.5), p0=st.floats(-1.5, 1.5),
       t0=st.floats(0.0, 2.0), span=st.floats(0.1, 4.0))
def test_mu_is_tau_over_window(x0, p0, t0, span):
    traj = integrate_flow(HARMONIC, PhasePoint(x0, p0), 6.5, 1e-2)
    region = PhaseRegion.ball(PhasePoint(0.0, 0.0), 1.0)
    window = (t0, min(t0 + span, 6.5))
    tau = classical_transit_time(traj, region, window)
    mu = classical_average_stay(traj, region, window)
    assert 0.0 <= mu <= 1.0
    assert mu * (window[1] - window[0]) == pytest.approx(tau, abs=1e-12)


def test_classify_harmonic_bound():
    result = classify_classical(HARMONIC, PhasePoint(1.0, 0.0), horizon=50.0)
    assert result.label == "bound"
    assert result.diagnostics["sup_norm"] == pytest.approx(1.0, abs=1e-6)


def test_classify_free_scattering():
    result = classify_classical(FREE, PhasePoint(0.0, 1.0), horizon=200.0, dt=1e-2)
    assert result.label == "scattering"
    assert result.diagnostics["tail_growing"]


def test_classify_barrier_threshold():
    # Barrier height 1.25 means p_crit = sqrt(2.5) for launches from the well.
    above = classify_classical(BARRIER, PhasePoint(0.0, 1.65), horizon=60.0)
    below = classify_classical(BARRIER, PhasePoint(0.0, 1.5), horizon=60.0)
    assert above.label == "scattering"
    assert above.diagnostics["diverged"]
    assert below.label == "bound"


def test_no_capture_forward_backward_symmetry():
    # Harmonic flow conserves the phase-space norm, so bound forward
    # if and only if bound backward.
    rng = np.random.default_rng(7)
    for _ in range(8):
        alpha = PhasePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        fwd = classify_classical(HARMONIC, alpha, horizon=20.0, dt=1e-2)
        rev = classify_classical(HARMONIC, PhasePoint(alpha.xi, -alpha.pi),
                                 horizon=20.0, dt=1e-2)
        assert fwd.label == rev.label == "bound"
