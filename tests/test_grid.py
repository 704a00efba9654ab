import numpy as np
import pytest
from conftest import spectral_moments

from qreduce import HamiltonianSpec, PhasePoint, PotentialModel, WraparoundError
from qreduce.packets import packet, sample_on_grid
from qreduce.grid import (
    DEFAULT_GRID,
    GridSpec,
    GridWavefunction,
    construct_localizer,
    expectation_a,
    localization_check,
    propagate,
    propagation_self_check,
    weyl_displace,
)

HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
FREE = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0.0]))


def vacuum(grid=DEFAULT_GRID):
    if grid.n == 1:
        amp = np.pi ** -0.25 * np.exp(-0.5 * grid.x ** 2)
    else:
        r2 = np.sum(grid.x_mesh ** 2, axis=-1)
        amp = np.pi ** -0.5 * np.exp(-0.5 * r2)
    return GridWavefunction(grid, amp)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=3, N=64, L=5.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=100, L=5.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, N=64, L=-1.0)


def test_vacuum_norm_and_parseval():
    psi = vacuum()
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    # Parseval: momentum-space mass matches position-space mass.
    ft = np.fft.fft(psi.amp)
    p_mass = np.sum(np.abs(ft) ** 2) * psi.grid.dx / psi.grid.N
    assert p_mass == pytest.approx(psi.norm ** 2, abs=1e-12)


def test_harmonic_period_fidelity():
    grid = GridSpec(n=1, N=1024, L=10.0)
    psi0 = vacuum(grid)
    result = propagate(HARMONIC, psi0, 2 * np.pi, 1e-3)
    assert abs(result.final.inner(psi0)) > 1 - 1e-6
    assert result.norm_drift < 1e-10


def test_harmonic_eigenstate_phase():
    # h_2 evolves by the pure phase e^{-i(2+1/2)t}.
    grid = GridSpec(n=1, N=1024, L=10.0)
    x = grid.x
    amp = (2 * x ** 2 - 1) * np.exp(-0.5 * x ** 2) / (np.sqrt(2) * np.pi ** 0.25)
    psi0 = GridWavefunction(grid, amp)
    assert psi0.norm == pytest.approx(1.0, abs=1e-10)
    t = np.pi / 2
    final = propagate(HARMONIC, psi0, t, 1e-3).final
    overlap = psi0.inner(final)
    assert abs(overlap) > 1 - 1e-6
    expected = np.exp(-1j * 2.5 * t)
    assert overlap == pytest.approx(expected, abs=1e-5)


def test_free_gaussian_spreading_law():
    psi0 = vacuum()
    result = propagate(FREE, psi0, 2.0, 1e-3)
    dens = result.final.density
    x = DEFAULT_GRID.x
    var = np.sum(x ** 2 * dens) * DEFAULT_GRID.dx
    # sigma^2(t) = sigma^2(0) (1 + t^2 / (4 sigma^4 m^2)) with sigma^2(0) = 1/2.
    assert var == pytest.approx(0.5 * (1 + 4.0), abs=1e-5)


def test_truncated_state_spreads_immediately():
    grid = DEFAULT_GRID
    amp = np.where(np.abs(grid.x) <= 3.0, np.pi ** -0.25 * np.exp(-0.5 * grid.x ** 2), 0.0)
    psi0 = GridWavefunction(grid, amp).normalized()
    outside0 = np.sum(psi0.density[np.abs(grid.x) > 3.0]) * grid.dx
    assert outside0 == 0.0
    final = propagate(FREE, psi0, 1e-3, 1e-3).final
    outside = np.sum(final.density[np.abs(grid.x) > 3.0]) * grid.dx
    assert outside > 1e-16


def test_expectation_vacuum_and_displaced():
    psi = vacuum()
    assert expectation_a(psi) == pytest.approx([0.0, 0.0], abs=1e-12)
    shifted = weyl_displace(psi, PhasePoint(2.0, 0.0))
    assert expectation_a(shifted) == pytest.approx([2.0, 0.0], abs=1e-10)
    both = weyl_displace(psi, PhasePoint(1.0, 3.0))
    assert expectation_a(both) == pytest.approx([1.0, 3.0], abs=1e-10)


def test_expectation_requires_unit_norm():
    psi = vacuum()
    with pytest.raises(ValueError):
        expectation_a(GridWavefunction(psi.grid, 2.0 * psi.amp))


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(n=2, N=64, L=8.0)],
                         ids=["1d", "2d"])
def test_stacked_expectations_equal_the_per_state_formula(grid):
    # Rows of several norms: each is normalised on its own first.
    rng = np.random.default_rng(5)
    rows = []
    for scale in (1.0, 2.0, 0.5, 1.0 + 1e-9, 1.0):
        alpha = rng.uniform(-2.0, 2.0, 2 * grid.n)
        pkt = packet(alpha, rng.uniform(0.5, 2.0) * np.eye(grid.n))
        rows.append(scale * sample_on_grid(pkt, grid).normalized().amp)
    got = expectation_a(np.stack(rows), grid)
    assert got.shape == (5, 2 * grid.n)
    for amp, moments in zip(rows, got):
        want = spectral_moments(GridWavefunction(grid, amp).normalized())
        assert np.max(np.abs(moments - want)) <= 1e-13 * np.max(np.abs(want))
    single = expectation_a(GridWavefunction(grid, rows[-1]).normalized())
    assert np.max(np.abs(single - got[-1])) <= 1e-13


def test_weyl_identity_and_unitarity():
    psi = vacuum()
    same = weyl_displace(psi, PhasePoint(0.0, 0.0))
    assert same.distance(psi) < 1e-12
    moved = weyl_displace(psi, PhasePoint(1.7, -2.3))
    assert moved.norm == pytest.approx(1.0, abs=1e-12)


def test_weyl_composition_law():
    rng = np.random.default_rng(3)
    psi = vacuum()
    for _ in range(10):
        a = rng.uniform(-2, 2, size=2)
        b = rng.uniform(-2, 2, size=2)
        lhs = weyl_displace(weyl_displace(psi, b), a)
        omega = a[0] * b[1] - a[1] * b[0]
        rhs = weyl_displace(psi, a + b)
        rhs = GridWavefunction(psi.grid, np.exp(-0.5j * omega) * rhs.amp)
        assert lhs.distance(rhs) < 1e-10


def test_weyl_density_is_shifted_density():
    psi = vacuum()
    moved = weyl_displace(psi, PhasePoint(2.0, 0.0))
    x = psi.grid.x
    expected = np.pi ** -0.5 * np.exp(-((x - 2.0) ** 2))
    assert np.max(np.abs(moved.density - expected)) < 1e-10


def test_propagation_self_check_small():
    err = propagation_self_check(HARMONIC, vacuum(), 0.5, 1e-2)
    assert err < 1e-5


def test_wraparound_detected():
    grid = GridSpec(n=1, N=256, L=8.0)
    psi = weyl_displace(vacuum(grid), PhasePoint(0.0, 6.0))
    with pytest.raises(WraparoundError):
        propagate(FREE, psi, 3.0, 1e-3)


def test_grid_convergence_of_expectations():
    coarse = weyl_displace(vacuum(GridSpec(n=1, N=1024, L=20.0)), PhasePoint(1.0, 0.5))
    fine = weyl_displace(vacuum(GridSpec(n=1, N=2048, L=20.0)), PhasePoint(1.0, 0.5))
    assert expectation_a(coarse) == pytest.approx(expectation_a(fine), abs=1e-8)


def test_localization_vacuum_moments():
    res = localization_check([vacuum()], lambda x: x ** 2, lambda k: k ** 2)
    assert res[0]["F_expect"] == pytest.approx(0.5, abs=1e-10)
    assert res[0]["G_expect"] == pytest.approx(0.5, abs=1e-10)
    assert res[0]["passed"]


def test_localization_displaced_fails():
    moved = weyl_displace(vacuum(), PhasePoint(3.0, 0.0))
    res = localization_check([moved], lambda x: x ** 2, lambda k: k ** 2)
    assert res[0]["F_expect"] > 1
    assert not res[0]["passed"]


def test_localization_indicator_case():
    grid = DEFAULT_GRID
    inf_outside = np.where(np.abs(grid.x) <= 5.0, 0.0, np.inf)
    truncated = GridWavefunction(
        grid, np.where(np.abs(grid.x) <= 5.0, vacuum().amp, 0.0)).normalized()
    res = localization_check([truncated, vacuum()], inf_outside, lambda k: k ** 2)
    assert res[0]["passed"]
    assert res[1]["F_expect"] == np.inf
    assert not res[1]["passed"]


def test_localization_rejects_negative_or_decreasing():
    with pytest.raises(ValueError):
        localization_check([vacuum()], lambda x: -x ** 2, lambda k: k ** 2)
    with pytest.raises(ValueError):
        localization_check([vacuum()], lambda x: 1.0 / (1.0 + x ** 2), lambda k: k ** 2)


def test_construct_localizer_vacuum():
    psi = vacuum()
    F = construct_localizer([psi])
    assert F.min() == pytest.approx(0.5)
    expect = np.sum(np.where(psi.density == 0, 0.0, F * psi.density)) * psi.grid.dx
    assert expect <= 1.0 + 1e-12


def test_construct_localizer_pair():
    psi = vacuum()
    moved = weyl_displace(psi, PhasePoint(4.0, 1.0))
    F = construct_localizer([psi, moved])
    for member in (psi, moved):
        expect = np.sum(np.where(member.density == 0, 0.0, F * member.density)) \
            * member.grid.dx
        assert expect <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        construct_localizer([])


def test_two_dimensional_basics():
    grid = GridSpec(n=2, N=128, L=10.0)
    psi = vacuum(grid)
    assert psi.norm == pytest.approx(1.0, abs=1e-10)
    alpha = PhasePoint([1.0, -0.5], [0.5, 2.0])
    moved = weyl_displace(psi, alpha)
    assert expectation_a(moved) == pytest.approx([1.0, -0.5, 0.5, 2.0], abs=1e-9)
    spec2 = HamiltonianSpec(
        mass=1.0,
        potential=PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                               [0.5, 0.0, 0.0]]))
    result = propagate(spec2, psi, 2 * np.pi, 2e-3)
    assert abs(result.final.inner(psi)) > 1 - 1e-5


CUBIC_2D = HamiltonianSpec(
    mass=1.0,
    potential=PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                           [0.5, 0.1, 0.0]]))


@pytest.mark.parametrize("spec, grid, steps, stride, blocks", [
    (HARMONIC, DEFAULT_GRID, 301, 2, [64, 64, 22]),
    (CUBIC_2D, GridSpec(n=2, N=128, L=10.0), 15, 2, [4, 3]),
], ids=["1d", "2d"])
def test_observer_sees_strided_steps_in_blocks(spec, grid, steps, stride,
                                               blocks):
    # Blocks fill to the byte budget, the last one is partial, and each
    # row is bitwise the state an every-step observer sees at that step.
    psi0 = weyl_displace(vacuum(grid), np.r_[np.ones(grid.n), np.zeros(grid.n)])
    T = steps * 1e-3

    def observed(observe_stride):
        seen = []
        final = propagate(
            spec, psi0, T, 1e-3, observe_stride=observe_stride,
            observer=lambda t, amps: seen.append((t.copy(), amps.copy()))).final
        return seen, final

    seen, _ = observed(stride)
    every, final = observed(1)
    assert [len(t) for t, _ in seen] == blocks
    step_ids = np.arange(stride, steps + 1, stride)
    times = np.concatenate([t for t, _ in seen])
    amps = np.concatenate([a for _, a in seen])
    reference = np.concatenate([a for _, a in every])
    assert np.array_equal(times, step_ids * (T / steps))
    assert np.array_equal(amps, reference[step_ids - 1])
    assert np.array_equal(reference[-1], final.amp)


def test_propagate_matches_a_numpy_strang_loop():
    # The 1D step runs on scipy.fft; a numpy.fft loop written out here
    # agrees to rounding (bitwise on matching builds, not assumed).
    spec = HamiltonianSpec(mass=1.0,
                           potential=PotentialModel.polynomial([0, 0, 0.5, 0.05]))
    psi0 = weyl_displace(vacuum(), np.array([1.0, 0.5]))
    steps, dt = 500, 2e-3
    half_v = np.exp(-0.5j * dt * spec.potential.value(DEFAULT_GRID.x))
    kinetic = np.exp(-1j * dt * DEFAULT_GRID.k ** 2 / 2.0)
    amp = psi0.amp
    for _ in range(steps):
        amp = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * amp))
    final = propagate(spec, psi0, steps * dt, dt).final
    assert np.max(np.abs(final.amp - amp)) < 1e-13
