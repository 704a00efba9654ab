import dataclasses

import numpy as np
import pytest
from conftest import normalized, packet_at
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from qreduce import HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.classical import _hermite, integrate_flow
from qreduce.hamiltonian import energies
from qreduce.grid import DEFAULT_GRID, GridSpec, GridStack, expectation_a, \
    propagate
from qreduce.packets import (
    GaussianPacket,
    _check_widths,
    _sample_flows,
    _sample_rows,
    approximate_flow,
    evolve_AB,
    packet,
    phase_X,
    sample_on_grid,
    vacuum,
)

HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
FREE = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0.0]))
LINEAR = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0.3]))
CUBIC = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5, 0.1 / 6]))
INVERTED = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, -0.5]))


def closed_norm(norm_prefactor, M, B):
    """L2 norm of a packet from its closed form: det(Re M)^{-1/4}
    |det B|^{-1/2} times its prefactor; 1 for evolution-consistent factors."""
    det_re = float(np.linalg.det(M.real))
    det_b = abs(np.linalg.det(B))
    return float(norm_prefactor / np.sqrt(det_b) / det_re ** 0.25)


def test_vacuum_properties():
    g = vacuum()
    assert closed_norm(g.norm_prefactor, g.M, np.eye(1)) == pytest.approx(
        1.0, abs=1e-12)
    psi = sample_on_grid(g, DEFAULT_GRID)
    assert psi.norm == pytest.approx(1.0, abs=1e-10)
    x = DEFAULT_GRID.x
    assert np.sum(x ** 2 * psi.density) * DEFAULT_GRID.dx == pytest.approx(0.5, abs=1e-10)
    ft = np.fft.fft(psi.amp)
    w = np.abs(ft) ** 2
    assert np.sum(DEFAULT_GRID.k ** 2 * w) / np.sum(w) == pytest.approx(0.5, abs=1e-10)
    # Annihilation: (Q + iP) Gamma = 0.
    dpsi = np.fft.ifft(1j * DEFAULT_GRID.k * ft)
    resid = x * psi.amp + 1j * (-1j) * dpsi
    assert np.sqrt(np.sum(np.abs(resid) ** 2) * DEFAULT_GRID.dx) < 1e-8


def test_vacuum_matches_closed_form_pointwise():
    psi = sample_on_grid(vacuum(), DEFAULT_GRID)
    x = DEFAULT_GRID.x
    assert np.max(np.abs(psi.amp - np.pi ** -0.25 * np.exp(-0.5 * x ** 2))) < 1e-12


def test_packet_complex_width_variance():
    # M = (1 - i)/2 has Re M = 1/2, so the density variance is 1.
    pkt = packet(PhasePoint(0.0, 0.0), (1 - 1j) / 2)
    assert closed_norm(pkt.norm_prefactor, pkt.M, np.eye(1)) == pytest.approx(
        1.0, abs=1e-12)
    psi = sample_on_grid(pkt, DEFAULT_GRID)
    assert psi.norm == pytest.approx(1.0, abs=1e-8)
    x = DEFAULT_GRID.x
    var = np.sum(x ** 2 * psi.density) * DEFAULT_GRID.dx
    assert var == pytest.approx(1.0, abs=1e-8)


def test_packet_displaced_expectation():
    pkt = packet(PhasePoint(1.0, 3.0), 1.0)
    psi = sample_on_grid(pkt, DEFAULT_GRID)
    assert expectation_a(normalized(psi)) == pytest.approx([1.0, 3.0], abs=1e-10)


def test_packet_validation():
    with pytest.raises(ValueError):
        packet(PhasePoint(0.0, 0.0), -1.0)
    with pytest.raises(ValueError, match="width matrix must be symmetric"):
        GaussianPacket(alpha=PhasePoint([0.0, 0.0], [0.0, 0.0]),
                       M=[[1.0, 0.5], [0.0, 1.0]])


def test_evolve_harmonic_width_stationary():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    series = evolve_AB(HARMONIC, traj)
    phases = np.exp(1j * traj.times)
    assert np.max(np.abs(series.A[:, 0, 0] - phases)) < 1e-8
    assert np.max(np.abs(series.B[:, 0, 0] - phases)) < 1e-8
    assert np.max(np.abs(series.M[:, 0, 0] - 1.0)) < 1e-8
    # Branch-tracked angle of det B is t itself; the zero-point phase.
    assert series.detB_angle[-1] == pytest.approx(2 * np.pi, abs=1e-8)


def test_evolve_free_riccati_solution():
    traj = integrate_flow(FREE, PhasePoint(0.0, 0.0), 1.0, 1e-3)
    series = evolve_AB(FREE, traj)
    t = traj.times
    assert np.max(np.abs(series.M[:, 0, 0] - 1.0 / (1.0 + 1j * t))) < 1e-8
    assert series.M[-1, 0, 0] == pytest.approx((1 - 1j) / 2, abs=1e-8)


def test_evolve_inverted_oscillator():
    traj = integrate_flow(INVERTED, PhasePoint(0.0, 0.0), 1.5, 1e-3)
    series = evolve_AB(INVERTED, traj)
    th = np.tanh(traj.times)
    closed = (1 - 1j * th) / (1 + 1j * th)
    assert np.max(np.abs(series.M[:, 0, 0] - closed)) < 1e-7
    assert np.all(series.M[:, 0, 0].real > 0)
    fine = evolve_AB(INVERTED, integrate_flow(INVERTED, PhasePoint(0.0, 0.0),
                                              1.5, 1e-4))
    assert series.M[-1, 0, 0] == pytest.approx(fine.M[-1, 0, 0], abs=1e-7)


def test_riccati_residual_from_series():
    # dM/dt = i V''(xi) - i M^2 / m, checked by central differences.
    traj = integrate_flow(CUBIC, PhasePoint(1.0, 0.0), 2.0, 1e-3)
    series = evolve_AB(CUBIC, traj)
    m_vals = series.M[:, 0, 0]
    dm = (m_vals[2:] - m_vals[:-2]) / (2 * traj.dt)
    vxx = CUBIC.potential.derivative(traj.xi[1:-1, 0], 2)
    resid = dm - (1j * vxx - 1j * m_vals[1:-1] ** 2)
    assert np.max(np.abs(resid)) < 1e-6


DOUBLE_WELL = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0.5, 0.0, -1.0, 0.0, 0.5]))
QUARTIC = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0, 0, 0.25]))


def final_amplitude_factor(spec, alpha0, T, dt):
    traj = integrate_flow(spec, alpha0, T, dt)
    flow = approximate_flow(spec, traj, packet(alpha0, 1.0))
    return packet_at(flow, len(traj) - 1).amplitude_factor


def test_a_narrow_packet_turns_det_b_past_half_pi_without_a_caustic():
    # The double-well start (0.1, 0): near t = 2.86 the packet narrows
    # (Re M about 474) and det B turns past pi / 2 in one 0.01 step,
    # which the bare nearest angle read as a caustic.  Its widths are
    # normalizable, so det B never vanishes (min |B| 0.046), and the
    # tracked branch gives W's prefactor of a 1e-3 run.
    alpha0 = PhasePoint(0.1, 0.0)
    traj = integrate_flow(DOUBLE_WELL, alpha0, 3.0, 0.01)
    series = evolve_AB(DOUBLE_WELL, traj)
    assert np.min(np.abs(series.B[:, 0, 0])) > 0.04
    wrapped = np.angle(np.exp(1j * np.diff(series.detB_angle)))
    assert np.max(np.abs(wrapped)) > 0.5 * np.pi
    assert np.all(np.diff(series.detB_angle) > 0.0)
    coarse = final_amplitude_factor(DOUBLE_WELL, alpha0, 3.0, 0.01)
    fine = final_amplitude_factor(DOUBLE_WELL, alpha0, 3.0, 1e-3)
    assert abs(coarse - fine) < 1e-3 * abs(fine)


@settings(max_examples=25, deadline=None)
@given(potential=st.sampled_from(["double-well", "quartic"]),
       q=st.floats(-1.5, 1.5), p=st.floats(-0.5, 0.5),
       dt=st.sampled_from([0.02, 0.015, 0.01, 0.005]))
def test_normalizable_widths_never_raise_a_caustic(potential, q, p, dt):
    # Unit-width starts on the double well and the quartic at dt up to
    # 0.02: no error, and W's prefactor at T = 3 has the sign of a
    # dt / 10 run (a branch slip of 2 pi in det B flips it).
    spec = DOUBLE_WELL if potential == "double-well" else QUARTIC
    alpha0 = PhasePoint(q, p)
    coarse = final_amplitude_factor(spec, alpha0, 3.0, dt)
    fine = final_amplitude_factor(spec, alpha0, 3.0, dt / 10)
    assert abs(coarse - fine) < abs(coarse + fine)


def test_phase_X_vanishes_for_centered_quadratics():
    still = integrate_flow(HARMONIC, PhasePoint(0.0, 0.0), 1.0, 1e-3)
    assert np.max(np.abs(phase_X(HARMONIC, still))) < 1e-12
    orbit = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 2 * np.pi, 1e-3)
    assert np.max(np.abs(phase_X(HARMONIC, orbit))) < 1e-10
    drift = integrate_flow(FREE, PhasePoint(0.0, 2.0), 3.0, 1e-3)
    assert np.max(np.abs(phase_X(FREE, drift))) < 1e-12


def test_phase_X_linear_potential():
    # Integrand V - xi V'/2 = g xi / 2; alpha0 = (1, 1/2) gives
    # X(2) = (g/2) * (2 + 1 - g 8/6) with g = 0.3: 0.39.
    traj = integrate_flow(LINEAR, PhasePoint(1.0, 0.5), 2.0, 1e-3)
    x = phase_X(LINEAR, traj)
    assert x[-1] == pytest.approx(0.39, abs=1e-9)


def final_packet(spec, traj, base):
    """W(t,0) applied to base at the last trajectory sample."""
    return packet_at(approximate_flow(spec, traj, base), len(traj) - 1)


def test_apply_W_harmonic_quarter_period():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), np.pi / 2, 1e-3)
    pkt = final_packet(HARMONIC, traj, packet(PhasePoint(1.0, 0.0), 1.0))
    assert pkt.alpha.xi[0] == pytest.approx(0.0, abs=1e-6)
    assert pkt.alpha.pi[0] == pytest.approx(-1.0, abs=1e-6)
    assert pkt.M[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_apply_W_requires_matching_start_and_sample_time():
    traj = integrate_flow(HARMONIC, PhasePoint(1.0, 0.0), 1.0, 1e-3)
    with pytest.raises(ValueError, match="centered at the trajectory start"):
        approximate_flow(HARMONIC, traj, vacuum())


@pytest.mark.parametrize("spec,alpha0,t_final", [
    (HARMONIC, PhasePoint(1.0, 0.0), np.pi / 2),
    (FREE, PhasePoint(0.0, 1.0), 1.0),
    (LINEAR, PhasePoint(1.0, 0.5), 2.0),
])
def test_quadratic_exactness_with_global_phase(spec, alpha0, t_final):
    grid = GridSpec(n=1, N=1024, L=20.0)
    traj = integrate_flow(spec, alpha0, t_final, 1e-3)
    base = packet(alpha0, 1.0)
    psi0 = sample_on_grid(base, grid)
    exact = propagate(spec, GridStack.of(psi0), t_final, 1e-3).final[0]
    approx = sample_on_grid(final_packet(spec, traj, base), grid)
    assert approx.distance(exact) < 1e-6


def test_cubic_centering_by_quadrature():
    traj = integrate_flow(CUBIC, PhasePoint(1.0, 0.0), 1.0, 1e-3)
    pkt = final_packet(CUBIC, traj, packet(PhasePoint(1.0, 0.0), 1.0))
    psi = sample_on_grid(pkt, DEFAULT_GRID)
    target = np.concatenate([traj.xi[-1], traj.pi[-1]])
    assert expectation_a(normalized(psi)) == pytest.approx(target, abs=1e-9)
    assert pkt.alpha.vector == pytest.approx(target)


def test_z_evolution_stays_centered():
    # Z(t,0)Gamma = Gamma^{M(t)} keeps expectations at zero.
    traj = integrate_flow(CUBIC, PhasePoint(1.0, 0.0), 1.0, 1e-3)
    series = evolve_AB(CUBIC, traj)
    centered = GaussianPacket(alpha=PhasePoint(0.0, 0.0), M=series.M[-1])
    psi = sample_on_grid(centered, DEFAULT_GRID)
    assert expectation_a(normalized(psi)) == pytest.approx([0.0, 0.0], abs=1e-9)


def test_norm_conserved_along_cubic_flow():
    traj = integrate_flow(CUBIC, PhasePoint(1.0, 0.0), 2.0, 1e-3)
    flow = approximate_flow(CUBIC, traj, packet(PhasePoint(1.0, 0.0), 2.0))
    for k in (0, len(traj) // 2, len(traj) - 1):
        norm = closed_norm(flow.base.norm_prefactor, flow.series.M[k],
                           flow.series.B[k])
        assert norm == pytest.approx(1.0, abs=1e-8)
    psi = sample_on_grid(packet_at(flow, len(traj) - 1), DEFAULT_GRID)
    assert psi.norm == pytest.approx(1.0, abs=1e-8)


def test_two_dimensional_isotropic_harmonic():
    pot = PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.0, 0.0]])
    spec2 = HamiltonianSpec(mass=1.0, potential=pot)
    traj = integrate_flow(spec2, PhasePoint([1.0, 0.0], [0.0, 0.5]), 1.0, 1e-3)
    series = evolve_AB(spec2, traj)
    phases = np.exp(1j * 1.0)
    assert np.max(np.abs(series.A[-1] - phases * np.eye(2))) < 1e-8
    assert np.max(np.abs(series.B[-1] - phases * np.eye(2))) < 1e-8
    assert np.max(np.abs(series.M[-1] - np.eye(2))) < 1e-8
    assert series.detB_angle[-1] == pytest.approx(2.0, abs=1e-8)


CUBIC_2D = HamiltonianSpec(
    mass=1.3, potential=PotentialModel.polynomial2d(
        [[0.0, 0.3, 0.5, 0.1], [0.2, -0.1, 0.05, 0.0],
         [0.5, 0.01, 0.02, 0.0], [0.02, 0.01, 0.0, 0.0]]))


def test_two_dimensional_flow_is_bitwise_the_per_point_loop():
    # The width system and the phase integrand, written out with one
    # derivative call per point and per RK stage.
    alpha0 = PhasePoint([0.7, -0.2], [0.3, 0.5])
    traj = integrate_flow(CUBIC_2D, alpha0, 1.0, 0.01)
    A = np.array([[1.5, 0.2], [0.2, 0.7]], dtype=complex)
    B = np.eye(2, dtype=complex)
    series = evolve_AB(CUBIC_2D, traj, A)
    dt, n = traj.dt, 2
    mids = _hermite(traj.states[:-1], traj.states[1:], traj.derivatives[:-1],
                    traj.derivatives[1:], dt, 0.5)

    def rhs(state, A, B):
        # The Hessian of h: [[V'', 0], [0, 1 / m]].
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = CUBIC_2D.potential.hessian(state[:n])
        H[n:, n:] = np.eye(n) / CUBIC_2D.mass
        hxx, hxp, hpp = H[:n, :n], H[:n, n:], H[n:, n:]
        return 1j * B @ hxx - A @ hxp, B @ hxp.T + 1j * A @ hpp

    for k in range(len(traj.times) - 1):
        s0, s_mid, s1 = traj.states[k], mids[k], traj.states[k + 1]
        dA1, dB1 = rhs(s0, A, B)
        dA2, dB2 = rhs(s_mid, A + 0.5 * dt * dA1, B + 0.5 * dt * dB1)
        dA3, dB3 = rhs(s_mid, A + 0.5 * dt * dA2, B + 0.5 * dt * dB2)
        dA4, dB4 = rhs(s1, A + dt * dA3, B + dt * dB3)
        A = A + (dt / 6.0) * (dA1 + 2 * dA2 + 2 * dA3 + dA4)
        B = B + (dt / 6.0) * (dB1 + 2 * dB2 + 2 * dB3 + dB4)
        assert np.array_equal(series.A[k + 1], A)
        assert np.array_equal(series.B[k + 1], B)
    points = [traj.point(k) for k in range(len(traj.times))]
    h = [float(energies(CUBIC_2D, a.xi, a.pi)) for a in points]
    # The gradient of h is (grad V, pi / m).
    integrand = np.array([
        h_k - 0.5 * float(np.concatenate([CUBIC_2D.potential.gradient(a.xi),
                                          a.pi / CUBIC_2D.mass]) @ a.vector)
        for h_k, a in zip(h, points)])
    assert np.array_equal(
        phase_X(CUBIC_2D, traj),
        cumulative_simpson(integrand, dx=dt, initial=0.0))
    assert np.array_equal(traj.energies, h)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_two_dimensional_sampling_is_bitwise_the_einsum_form(seed):
    # sample_on_grid sums u.M.u term by term; einsum is the reference.
    rng = np.random.default_rng(seed)
    grid = GridSpec(n=2, N=64, L=8.0)
    R, S = rng.normal(size=(2, 2, 2))
    M = R @ R.T + 0.2 * np.eye(2) + 0.5j * (S + S.T)
    pkt = packet(PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)), M)
    xi, pi_m = pkt.alpha.xi, pkt.alpha.pi
    u = grid.x_mesh - xi
    quad = np.exp(-0.5 * np.einsum("...i,ij,...j->...", u, pkt.M, u))
    plane = np.exp(1j * (u @ pi_m + 0.5 * float(pi_m @ xi)))
    assert np.array_equal(sample_on_grid(pkt, grid).amp,
                          pkt.amplitude_factor * quad * plane)


COUPLED_2D = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
    [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.01, 0.0], [0.02, 0.0, 0.0]]))
SAMPLER_CASES = {1: (CUBIC, GridSpec(n=1, N=512, L=12.0)),
                 2: (COUPLED_2D, GridSpec(n=2, N=32, L=8.0))}


def random_width(rng, n):
    """A complex symmetric width with positive definite real part."""
    R, S = rng.normal(size=(2, n, n))
    return R @ R.T + 0.3 * np.eye(n) + 0.5j * (S + S.T)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=10, deadline=None)
@given(rows=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
def test_block_sampler_is_bitwise_the_per_packet_sampling(n, rows, seed):
    # _sample_flows evaluates a block straight from the series; each row
    # must be the packet sampled on its own, in 1D also the explicit
    # one-packet formula.
    rng = np.random.default_rng(seed)
    spec, grid = SAMPLER_CASES[n]
    alpha0 = PhasePoint(*rng.uniform(-1.5, 1.5, (2, n)))
    traj = integrate_flow(spec, alpha0, 1.0, 0.02)
    flow = approximate_flow(spec, traj, packet(alpha0, random_width(rng, n)))
    steps = rng.integers(0, len(traj), rows)
    block = np.empty((1, rows) + (grid.N,) * n, dtype=complex)
    _sample_flows([flow], steps, grid, block)
    block = block[0]
    assert block.shape == (rows,) + (grid.N,) * n
    for row, k in enumerate(steps):
        pkt = packet_at(flow, k)
        assert np.array_equal(block[row], sample_on_grid(pkt, grid).amp)
        if n == 1:
            xi, pi_m = pkt.alpha.xi[0], pkt.alpha.pi[0]
            u = grid.x - xi
            explicit = (pkt.amplitude_factor
                        * np.exp(-0.5 * pkt.M[0, 0] * u * u)
                        * np.exp(1j * (pi_m * u + 0.5 * pi_m * xi)))
            assert np.array_equal(block[row], explicit)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_a_flows_start_state_is_its_packet(n, seed):
    # run_reduction's start states and W(0) are the packet sampled on its
    # own and the flow's step 0: they must be the same bits.
    rng = np.random.default_rng(seed)
    spec, grid = SAMPLER_CASES[n]
    alpha0 = PhasePoint(*rng.uniform(-1.5, 1.5, (2, n)))
    base = packet(alpha0, random_width(rng, n))
    flow = approximate_flow(spec, integrate_flow(spec, alpha0, 0.1, 0.02),
                            base)
    block = np.empty((1, 1) + (grid.N,) * n, dtype=complex)
    _sample_flows([flow], [0], grid, block)
    assert np.array_equal(block[0, 0], sample_on_grid(base, grid).amp)


@pytest.mark.parametrize("n", [1, 2])
def test_block_sampler_fills_and_returns_a_given_buffer(n):
    # The buffer is the leading rows of a larger block holding NaN: every
    # entry is written, bitwise the fresh block's, and none past it.
    spec, grid = SAMPLER_CASES[n]
    alpha0 = PhasePoint(np.full(n, 0.5), np.full(n, -0.25))
    traj = integrate_flow(spec, alpha0, 0.5, 0.02)
    flow = approximate_flow(spec, traj, packet(alpha0, 1.0))
    steps = [0, 7, 25, 13]
    scratch = np.full((6,) + (grid.N,) * n, np.nan, dtype=complex)
    out = scratch[:4][None]
    _sample_flows([flow], steps, grid, out)
    fresh = np.empty_like(out)
    _sample_flows([flow], steps, grid, fresh)
    assert np.array_equal(scratch[:4], fresh[0])
    assert np.all(np.isnan(scratch[4:]))


def term_by_term_rows(grid, xi, pi_m, M, factors):
    """The 2D packet rows as _sample_rows wrote them before it ran on row
    buffers: fresh arrays, and u.M.u term by term on the stacked mesh."""
    out = np.empty((len(xi), grid.N, grid.N), dtype=complex)
    for row in range(len(xi)):
        u = grid.x_mesh - xi[row]
        form = 0
        for i in range(2):
            for j in range(2):
                form = form + u[..., i] * M[row, i, j] * u[..., j]
        phase = u @ pi_m[row] + 0.5 * float(pi_m[row] @ xi[row])
        out[row] = (factors[row] * np.exp(-0.5 * form)
                    * np.exp(1j * phase))
    return out


@pytest.mark.parametrize("grid", [GridSpec(n=2, N=64, L=8.0),
                                  GridSpec(n=2, N=128, L=10.0)],
                         ids=["N64", "N128"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_2d_rows_on_buffers_are_bitwise_the_term_by_term_form(grid, seed):
    # M asymmetric at 1e-13 tells the two cross terms apart, and a centre
    # on a grid node puts exact zeros in u.
    rng = np.random.default_rng(seed)
    rows = 3
    M = np.stack([random_width(rng, 2) for _ in range(rows)])
    M[:, 0, 1] += 1e-13 * (1.0 + 1.0j)
    xi = rng.uniform(-2.0, 2.0, (rows, 2))
    xi[0] = grid.x[grid.N // 2 + 3], grid.x[grid.N // 2 - 5]
    pi_m = rng.uniform(-2.0, 2.0, (rows, 2))
    factors = list(rng.normal(size=rows) + 1j * rng.normal(size=rows))
    out = np.empty((rows, grid.N, grid.N), dtype=complex)
    _sample_rows(grid, xi, pi_m, M, factors, out)
    assert np.array_equal(out, term_by_term_rows(grid, xi, pi_m, M, factors))


def corrupt(series, k, **entries):
    """A copy of the series with its entries at step k replaced; entries
    maps a field to a function of its value there."""
    changed = {}
    for name, change in entries.items():
        changed[name] = getattr(series, name).copy()
        changed[name][k] = change(changed[name][k])
    return dataclasses.replace(series, **changed)


@pytest.mark.parametrize("entries, message", [
    ({"M": lambda m: m + np.array([[0.0, 1e-6], [0.0, 0.0]])},
     "width matrix must be symmetric"),
    ({"M": lambda m: -m, "A": lambda a: -a},
     "Re M must be positive definite"),
    ({"A": lambda a: a + 1e-6}, "factors must satisfy M = B^(-1) A"),
    ({"M": lambda m: m * np.nan}, "width matrix must be finite"),
    ({"A": lambda a: a + np.inf}, "width matrix must be finite"),
    ({"B": lambda b: b * np.nan, "M": lambda m: m + 1.0},
     "width matrix must be finite"),
], ids=["asymmetric", "re-m-not-positive", "factors", "m-nan", "a-infinite",
        "b-nan-before-factors"])
def test_a_corrupted_flow_raises_what_its_packet_raises(entries, message):
    # The packet checks run once per flow, stacked, with the message the
    # checks of the bad step alone give.
    alpha0 = PhasePoint([1.0, 0.0], [0.0, 0.5])
    traj = integrate_flow(COUPLED_2D, alpha0, 0.3, 0.02)
    flow = approximate_flow(COUPLED_2D, traj, packet(alpha0, 1.0))
    bad = corrupt(flow.series, 7, **entries)
    with pytest.raises(ValueError) as single:
        _check_widths(bad.M[7:8], bad.A[7:8], bad.B[7:8])
    assert str(single.value) == message
    with pytest.raises(ValueError) as stacked:
        dataclasses.replace(flow, series=bad)
    assert str(stacked.value) == message


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("M", [np.nan, np.inf, [[1.0, 0.0], [0.0, np.nan]]],
                         ids=["nan", "infinity", "matrix-entry-nan"])
def test_a_non_finite_width_is_refused(M):
    # Every comparison with NaN is false, so a NaN width passed the other
    # checks and ran to a NaN error.
    n = np.ndim(M) or 1
    with pytest.raises(ValueError, match="^width matrix must be finite$"):
        packet(PhasePoint(np.ones(n), np.zeros(n)), M)


def test_a_flow_reports_its_first_failing_step():
    # Step 4 fails the factor check and step 9 the symmetry check: the
    # flow raises what a packet at step 4, the first bad one, raises.
    alpha0 = PhasePoint([1.0, 0.0], [0.0, 0.5])
    traj = integrate_flow(COUPLED_2D, alpha0, 0.3, 0.02)
    flow = approximate_flow(COUPLED_2D, traj, packet(alpha0, 1.0))
    bad = corrupt(corrupt(flow.series, 4, A=lambda a: a + 1e-6), 9,
                  M=lambda m: m + np.array([[0.0, 1e-6], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^factors must satisfy"):
        dataclasses.replace(flow, series=bad)
    xi = traj.xi.copy()
    xi[3, 1] = np.nan
    with pytest.raises(ValueError, match="phase point entries must be finite"):
        dataclasses.replace(flow, traj=dataclasses.replace(traj, xi=xi))
