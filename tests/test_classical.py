import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreduce import FlowDivergedError, HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.classical import (
    DIVERGENCE_NORM,
    PhaseRegion,
    _horner,
    classical_transit_time,
    classify_classical,
    integrate_flow,
)
from qreduce.cli import PRESETS
from qreduce.hamiltonian import time_steps

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


def scalar_interpolant(traj, t):
    """The cubic Hermite state at one time, in scalar arithmetic."""
    k = min(int((t - traj.times[0]) / traj.dt), len(traj.times) - 2)
    s = (t - traj.times[k]) / traj.dt
    y0, y1 = traj.states[k], traj.states[k + 1]
    d0, d1 = traj.derivatives[k], traj.derivatives[k + 1]
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * traj.dt * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * traj.dt * d1)


def test_interpolation_takes_an_array_of_times():
    # Each row of the stacked form, and the single-time form, is bitwise
    # the scalar interpolant; the sample stack is built once and kept.
    traj = integrate_flow(QUARTIC, PhasePoint(1.0, 0.3), 1.0, 1e-2)
    times = np.concatenate([traj.times[[0, 3, 57, -1]],
                            [0.123456, 0.4567, 0.5, 0.7777, 0.9999,
                             1.0 + 1e-13]])
    stacked = traj.at(times)
    assert stacked.shape == (len(times), 2)
    for t, row in zip(times, stacked):
        assert np.array_equal(scalar_interpolant(traj, t), row)
        assert np.array_equal(traj.at(t), row)
    assert traj.states is traj.states
    for outside in ([0.5, 1.0 + 1e-9], [-1e-9], [np.nan]):
        with pytest.raises(ValueError, match="outside trajectory span"):
            traj.at(np.array(outside))


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
    tau = classical_transit_time(traj, region, (0.0, 2 * np.pi))
    assert tau / (2 * np.pi) == pytest.approx(1.0)


def test_average_stay_free_tail_decreasing():
    # The mean stay tau / t of a free particle that leaves the box at t = 1.
    traj = integrate_flow(FREE, PhasePoint(0.0, 1.0), 40.0, 1e-2)
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0, np.inf])
    mus = [classical_transit_time(traj, region, (0.0, t)) / t
           for t in (5.0, 10.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(mus, mus[1:]))
    assert mus[-1] == pytest.approx(1.0 / 40.0, abs=1e-3)


def test_average_stay_half_period():
    # |cos t| <= 1/sqrt(2) holds on half of each period.
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    region = PhaseRegion.box(PhasePoint(0.0, 0.0), [np.sqrt(0.5), np.inf])
    tau = classical_transit_time(traj, region, (0.0, 2 * np.pi))
    assert tau == pytest.approx(np.pi, abs=2e-3 * np.pi)


def test_window_validation():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 1.0, 1e-2)
    region = PhaseRegion.ball(PhasePoint(0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        classical_transit_time(traj, region, (0.0, 2.0))
    with pytest.raises(ValueError):
        classical_transit_time(traj, region, (0.5, 0.25))


def test_region_validation():
    with pytest.raises(ValueError):
        PhaseRegion.ball(PhasePoint(0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        PhaseRegion.box(PhasePoint(0.0, 0.0), [1.0])


def test_classify_harmonic_bound():
    result = classify_classical(HARMONIC, PhasePoint(1.0, 0.0), horizon=50.0)
    assert result.label == "bound"
    assert result.diagnostics["sup_norm"] == pytest.approx(1.0, abs=1e-6)
    for radii in ([2.0, -1.0], [0.0], []):
        with pytest.raises(ValueError, match="radii"):
            classify_classical(HARMONIC, PhasePoint(1.0, 0.0), 50.0, radii)


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


def two_force_leapfrog(force, x, p, mass, steps, dt):
    """Kick-drift-kick with the force evaluated at both kicks of a step,
    up to the first state outside the divergence window."""
    xs, ps = [x], [p]
    half = 0.5 * dt
    for _ in range(steps):
        p = p - half * force(x)
        x = x + dt * p / mass
        p = p - half * force(x)
        xs.append(x)
        ps.append(p)
        if not np.all(np.abs(np.append(x, p)) < DIVERGENCE_NORM):
            break
    return np.array(xs), np.array(ps)


@st.composite
def flow_cases(draw):
    # A preset in 1D, or a 2D polynomial within the degree cap; a start
    # point, a mass, a horizon and a step.
    unit = st.floats(min_value=-2.0, max_value=2.0)
    n = draw(st.sampled_from([1, 2]))
    if n == 1:
        pot = PotentialModel.polynomial(PRESETS[draw(st.sampled_from(
            sorted(PRESETS)))])
    else:
        C = np.zeros((5, 5))
        for i, j in np.ndindex(C.shape):
            if i + j <= 4:
                C[i, j] = draw(unit)
        pot = PotentialModel.polynomial2d(C)
    spec = HamiltonianSpec(mass=draw(st.floats(min_value=0.5, max_value=2.0)),
                           potential=pot)
    alpha0 = PhasePoint([draw(unit) for _ in range(n)],
                        [draw(unit) for _ in range(n)])
    T = draw(st.floats(min_value=0.1, max_value=5.0))
    return spec, alpha0, T, draw(st.floats(min_value=1e-3, max_value=T))


@settings(max_examples=60, deadline=None)
@given(case=flow_cases())
def test_leapfrog_reuses_each_force_bitwise(case):
    # One force evaluation per step is the same arithmetic on the same
    # operands as two, so the trajectory keeps its bits.
    spec, alpha0, T, dt = case
    pot = spec.potential
    if spec.dimension == 1:
        dcoef = list(np.polynomial.polynomial.polyder(pot.coeffs))
        xs, ps = two_force_leapfrog(lambda x: _horner(dcoef, x),
                                    float(alpha0.xi[0]), float(alpha0.pi[0]),
                                    spec.mass, *time_steps(T, dt))
        xs, ps = xs[:, None], ps[:, None]
    else:
        xs, ps = two_force_leapfrog(pot.gradient, alpha0.xi.copy(),
                                    alpha0.pi.copy(), spec.mass,
                                    *time_steps(T, dt))
    try:
        traj = integrate_flow(spec, alpha0, T, dt)
    except FlowDivergedError as err:
        traj = err.trajectory
        assert len(traj.times) == len(xs) - 1
    else:
        assert len(traj.times) == len(xs)
    kept = len(traj.times)
    assert np.array_equal(traj.xi, xs[:kept])
    assert np.array_equal(traj.pi, ps[:kept])
