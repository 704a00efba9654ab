import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreduce import FlowDivergedError, HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.classical import (
    CLASSIFY_DT,
    DIVERGENCE_NORM,
    PhaseRegion,
    _horner,
    _horner_2d,
    classify_classical,
    integrate_flow,
)
from qreduce.cli import PRESETS
from qreduce.hamiltonian import energies, time_steps

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
def flow_cases(draw, dims=(1, 2)):
    # A preset in 1D, or a 2D polynomial within the degree cap; a start
    # point, a mass, a horizon and a step.
    unit = st.floats(min_value=-2.0, max_value=2.0)
    n = draw(st.sampled_from(dims))
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


def numpy_leapfrog_2d(spec, alpha0, m, dt):
    """The 2D kick-drift-kick on numpy arrays with PotentialModel.gradient,
    up to the last state inside the divergence window, and whether the
    flow left it."""
    x, p = alpha0.xi.copy(), alpha0.pi.copy()
    xs, ps = [x], [p]
    half = 0.5 * dt
    force = spec.potential.gradient(x)
    for _ in range(m):
        p = p - half * force
        x = x + dt * p / spec.mass
        force = spec.potential.gradient(x)
        p = p - half * force
        if not np.all(np.abs(np.concatenate([x, p])) < DIVERGENCE_NORM):
            return np.array(xs), np.array(ps), True
        xs.append(x)
        ps.append(p)
    return np.array(xs), np.array(ps), False


def check_2d_flow_matches_the_numpy_loop(spec, alpha0, T, dt):
    m, step = time_steps(T, dt)
    xs, ps, diverged = numpy_leapfrog_2d(spec, alpha0, m, step)
    try:
        traj = integrate_flow(spec, alpha0, T, dt)
    except FlowDivergedError as err:
        traj = err.trajectory
        assert diverged
        assert err.t_last == traj.times[-1]
    else:
        assert not diverged
    assert np.array_equal(traj.times, step * np.arange(len(xs)))
    # Bit for bit, signs of zero included: reports print them.
    for got, want in ((traj.xi, xs), (traj.pi, ps),
                      (traj.energies, energies(spec, xs, ps))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return diverged


# A free particle whose coefficients are all -0.0, at rest with momenta
# -0.0: the x force and so the x momentum keep the sign of zero that
# gradient's Horner start, D[-1] + x * 0, gives them.
NEGATIVE_ZERO_CASE = (
    HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
        np.full((3, 1), -0.0))),
    PhasePoint([1.0, -0.5], [-0.0, -0.0]), 1.0, 0.1)


@settings(max_examples=60, deadline=None)
@given(case=flow_cases(dims=(2,)))
@example(case=NEGATIVE_ZERO_CASE)
def test_2d_float_flow_is_bitwise_the_numpy_loop(case):
    check_2d_flow_matches_the_numpy_loop(*case)


def test_2d_float_flow_stops_where_the_numpy_loop_does():
    C = np.zeros((5, 5))
    C[2, 0] = C[0, 2] = 0.5
    C[4, 0] = C[0, 4] = -2.0
    spec = HamiltonianSpec(mass=1.3, potential=PotentialModel.polynomial2d(C))
    assert check_2d_flow_matches_the_numpy_loop(
        spec, PhasePoint([1.5, -0.5], [0.5, 1.0]), 5.0, 1e-2)


def array_leapfrog(spec, alpha0, m, dt):
    """The flow loops as they wrote each step into preallocated arrays,
    then kept the rows before the first that left the window: (times,
    xi, pi, whether the flow left it)."""
    n = spec.dimension
    xi, pi = np.empty((m + 1, n)), np.empty((m + 1, n))
    half = 0.5 * dt
    last = m
    if n == 1:
        dcoef = list(spec.potential._derivative((1,)))
        x, p = float(alpha0.xi[0]), float(alpha0.pi[0])
        xi[0, 0], pi[0, 0] = x, p
        force = _horner(dcoef, x)
        for k in range(1, m + 1):
            p -= half * force
            x += dt * p / spec.mass
            force = _horner(dcoef, x)
            p -= half * force
            xi[k, 0], pi[k, 0] = x, p
            if not (abs(x) < DIVERGENCE_NORM and abs(p) < DIVERGENCE_NORM):
                last = k - 1
                break
    else:
        dx = spec.potential._derivative((1, 0)).T.tolist()
        dy = spec.potential._derivative((0, 1)).T.tolist()
        x, y = map(float, alpha0.xi)
        px, py = map(float, alpha0.pi)
        xi[0], pi[0] = (x, y), (px, py)
        fx, fy = _horner_2d(dx, x, y), _horner_2d(dy, x, y)
        for k in range(1, m + 1):
            px -= half * fx
            py -= half * fy
            x += dt * px / spec.mass
            y += dt * py / spec.mass
            fx, fy = _horner_2d(dx, x, y), _horner_2d(dy, x, y)
            px -= half * fx
            py -= half * fy
            xi[k, 0], xi[k, 1], pi[k, 0], pi[k, 1] = x, y, px, py
            if not (abs(x) < DIVERGENCE_NORM and abs(y) < DIVERGENCE_NORM
                    and abs(px) < DIVERGENCE_NORM
                    and abs(py) < DIVERGENCE_NORM):
                last = k - 1
                break
    return (dt * np.arange(last + 1), xi[:last + 1], pi[:last + 1],
            last < m)


QUARTIC_WELL_2D = np.zeros((5, 5))
QUARTIC_WELL_2D[2, 0] = QUARTIC_WELL_2D[0, 2] = 0.5
QUARTIC_WELL_2D[4, 0] = QUARTIC_WELL_2D[0, 4] = -2.0
ARRAY_LOOP_CASES = {
    # The classify-classical benchmark unit's 20,000-step cubic flow.
    "cubic-1d": (HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial(
        PRESETS["cubic-perturbed"])), PhasePoint(1.0, 0.0), 20.0, CLASSIFY_DT),
    "barrier-1d-diverges": (BARRIER, PhasePoint(0.0, 1.7), 50.0, 1e-3),
    "coupled-2d": (HamiltonianSpec(mass=1.5, potential=PotentialModel.polynomial2d(
        [[0.0, 0.1, 0.5], [0.0, 0.0, 0.0], [0.5, 0.01, 0.0]])),
        PhasePoint([1.0, -0.5], [0.3, 0.5]), 10.0, 1e-3),
    "quartic-2d-diverges": (HamiltonianSpec(
        mass=1.3, potential=PotentialModel.polynomial2d(QUARTIC_WELL_2D)),
        PhasePoint([1.5, -0.5], [0.5, 1.0]), 5.0, 1e-2),
}


@pytest.mark.parametrize("name", ARRAY_LOOP_CASES)
def test_flows_are_bitwise_the_array_writing_loops(name):
    # The loops keep their samples in lists and build the arrays once:
    # every sample, energy and time keeps its bits, and a flow that
    # leaves the window keeps the samples before that step, no more.
    spec, alpha0, T, dt = ARRAY_LOOP_CASES[name]
    m, step = time_steps(T, dt)
    times, xs, ps, diverged = array_leapfrog(spec, alpha0, m, step)
    assert diverged == name.endswith("-diverges")
    try:
        traj = integrate_flow(spec, alpha0, T, dt)
    except FlowDivergedError as err:
        traj = err.trajectory
        assert diverged and err.t_last == times[-1]
    else:
        assert not diverged
    for got, want in ((traj.times, times), (traj.xi, xs), (traj.pi, ps),
                      (traj.energies, energies(spec, xs, ps))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["cubic-1d", "barrier-1d-diverges",
                                  "coupled-2d"])
def test_energies_are_taken_on_first_read(monkeypatch, name):
    # integrate_flow evaluates no h; the first read of traj.energies
    # takes it once, with the bits of energies(spec, xi, pi).
    import qreduce.classical as classical
    spec, alpha0, T, dt = ARRAY_LOOP_CASES[name]
    calls = []

    def counting(*args):
        calls.append(args)
        return energies(*args)

    monkeypatch.setattr(classical, "energies", counting)
    try:
        traj = integrate_flow(spec, alpha0, T, dt)
    except FlowDivergedError as err:
        traj = err.trajectory
    assert calls == []
    got = traj.energies
    assert len(calls) == 1 and traj.energies is got
    want = energies(spec, traj.xi, traj.pi)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
