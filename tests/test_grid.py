import tracemalloc

import numpy as np
import pytest
import scipy.fft
from conftest import inner, normalized, spectral_moments

from qreduce import HamiltonianSpec, PhasePoint, PotentialModel, WraparoundError
from qreduce import grid as grid_module
from qreduce.packets import packet, sample_on_grid
from qreduce.grid import (
    DEFAULT_GRID,
    NORM_TOL,
    GridSpec,
    GridStack,
    GridWavefunction,
    _edge_mass,
    _observer_block,
    _row_norms,
    construct_localizer,
    expectation_a,
    localization_check,
    potential_on_grid,
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
    result = propagate(HARMONIC, GridStack.of(psi0), 2 * np.pi, 1e-3)
    assert abs(inner(result.final[0], psi0)) > 1 - 1e-6
    assert result.norm_drift[0] < 1e-10


def test_harmonic_eigenstate_phase():
    # h_2 evolves by the pure phase e^{-i(2+1/2)t}.
    grid = GridSpec(n=1, N=1024, L=10.0)
    x = grid.x
    amp = (2 * x ** 2 - 1) * np.exp(-0.5 * x ** 2) / (np.sqrt(2) * np.pi ** 0.25)
    psi0 = GridWavefunction(grid, amp)
    assert psi0.norm == pytest.approx(1.0, abs=1e-10)
    t = np.pi / 2
    final = propagate(HARMONIC, GridStack.of(psi0), t, 1e-3).final[0]
    overlap = inner(psi0, final)
    assert abs(overlap) > 1 - 1e-6
    expected = np.exp(-1j * 2.5 * t)
    assert overlap == pytest.approx(expected, abs=1e-5)


def test_free_gaussian_spreading_law():
    psi0 = vacuum()
    result = propagate(FREE, GridStack.of(psi0), 2.0, 1e-3)
    dens = result.final[0].density
    x = DEFAULT_GRID.x
    var = np.sum(x ** 2 * dens) * DEFAULT_GRID.dx
    # sigma^2(t) = sigma^2(0) (1 + t^2 / (4 sigma^4 m^2)) with sigma^2(0) = 1/2.
    assert var == pytest.approx(0.5 * (1 + 4.0), abs=1e-5)


def test_truncated_state_spreads_immediately():
    grid = DEFAULT_GRID
    amp = np.where(np.abs(grid.x) <= 3.0, np.pi ** -0.25 * np.exp(-0.5 * grid.x ** 2), 0.0)
    psi0 = normalized(GridWavefunction(grid, amp))
    outside0 = np.sum(psi0.density[np.abs(grid.x) > 3.0]) * grid.dx
    assert outside0 == 0.0
    final = propagate(FREE, GridStack.of(psi0), 1e-3, 1e-3).final[0]
    outside = np.sum(final.density[np.abs(grid.x) > 3.0]) * grid.dx
    assert outside > 1e-16


def test_expectation_vacuum_and_displaced():
    psi = vacuum()
    assert expectation_a(psi) == pytest.approx([0.0, 0.0], abs=1e-12)
    shifted = weyl_displace(psi, PhasePoint(2.0, 0.0).vector)
    assert expectation_a(shifted) == pytest.approx([2.0, 0.0], abs=1e-10)
    both = weyl_displace(psi, PhasePoint(1.0, 3.0).vector)
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
        rows.append(scale * normalized(sample_on_grid(pkt, grid)).amp)
    got = expectation_a(np.stack(rows), grid)
    assert got.shape == (5, 2 * grid.n)
    for amp, moments in zip(rows, got):
        want = spectral_moments(normalized(GridWavefunction(grid, amp)))
        assert np.max(np.abs(moments - want)) <= 1e-13 * np.max(np.abs(want))
    single = expectation_a(normalized(GridWavefunction(grid, rows[-1])))
    assert np.max(np.abs(single - got[-1])) <= 1e-13


def test_weyl_identity_and_unitarity():
    psi = vacuum()
    same = weyl_displace(psi, PhasePoint(0.0, 0.0).vector)
    assert same.distance(psi) < 1e-12
    moved = weyl_displace(psi, PhasePoint(1.7, -2.3).vector)
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
    moved = weyl_displace(psi, PhasePoint(2.0, 0.0).vector)
    x = psi.grid.x
    expected = np.pi ** -0.5 * np.exp(-((x - 2.0) ** 2))
    assert np.max(np.abs(moved.density - expected)) < 1e-10


def test_propagation_self_check_small():
    err = propagation_self_check(HARMONIC, vacuum(), 0.5, 1e-2)
    assert err < 1e-5


def test_wraparound_detected():
    grid = GridSpec(n=1, N=256, L=8.0)
    psi = weyl_displace(vacuum(grid), PhasePoint(0.0, 6.0).vector)
    with pytest.raises(WraparoundError):
        propagate(FREE, GridStack.of(psi), 3.0, 1e-3)


def test_grid_convergence_of_expectations():
    alpha = PhasePoint(1.0, 0.5).vector
    coarse = weyl_displace(vacuum(GridSpec(n=1, N=1024, L=20.0)), alpha)
    fine = weyl_displace(vacuum(GridSpec(n=1, N=2048, L=20.0)), alpha)
    assert expectation_a(coarse) == pytest.approx(expectation_a(fine), abs=1e-8)


def test_localization_vacuum_moments():
    res = localization_check([vacuum()], lambda x: x ** 2, lambda k: k ** 2)
    assert res[0]["F_expect"] == pytest.approx(0.5, abs=1e-10)
    assert res[0]["G_expect"] == pytest.approx(0.5, abs=1e-10)
    assert res[0]["passed"]


def test_localization_displaced_fails():
    moved = weyl_displace(vacuum(), PhasePoint(3.0, 0.0).vector)
    res = localization_check([moved], lambda x: x ** 2, lambda k: k ** 2)
    assert res[0]["F_expect"] > 1
    assert not res[0]["passed"]


def test_localization_indicator_case():
    grid = DEFAULT_GRID
    inf_outside = np.where(np.abs(grid.x) <= 5.0, 0.0, np.inf)
    truncated = normalized(GridWavefunction(
        grid, np.where(np.abs(grid.x) <= 5.0, vacuum().amp, 0.0)))
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
    moved = weyl_displace(psi, PhasePoint(4.0, 1.0).vector)
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
    moved = weyl_displace(psi, alpha.vector)
    assert expectation_a(moved) == pytest.approx([1.0, -0.5, 0.5, 2.0], abs=1e-9)
    spec2 = HamiltonianSpec(
        mass=1.0,
        potential=PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                               [0.5, 0.0, 0.0]]))
    result = propagate(spec2, GridStack.of(psi), 2 * np.pi, 2e-3)
    assert abs(inner(result.final[0], psi)) > 1 - 1e-5


CUBIC_2D = HamiltonianSpec(
    mass=1.0,
    potential=PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                           [0.5, 0.1, 0.0]]))


@pytest.mark.parametrize("spec, grid, steps, stride, blocks", [
    (HARMONIC, DEFAULT_GRID, 301, 2, [32, 32, 32, 32, 22]),
    (CUBIC_2D, GridSpec(n=2, N=128, L=10.0), 15, 2, [4, 3]),
], ids=["1d", "2d"])
def test_observer_sees_strided_steps_in_blocks(spec, grid, steps, stride,
                                               blocks):
    # Blocks fill to the state cap in 1D and to the byte budget in 2D,
    # the last one is partial, and each row is bitwise the state an
    # every-step observer sees at that step.
    psi0 = weyl_displace(vacuum(grid), np.r_[np.ones(grid.n), np.zeros(grid.n)])
    T = steps * 1e-3

    def observed(observe_stride):
        seen = []
        final = propagate(
            spec, GridStack.of(psi0), T, 1e-3, observe_stride=observe_stride,
            observer=lambda t, amps: seen.append((t.copy(), amps[0].copy())))
        return seen, final.final[0]

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
    # The in-place 1D step does the written-out expression's arithmetic,
    # each product table-first, so it keeps its bits.
    spec = HamiltonianSpec(mass=1.0,
                           potential=PotentialModel.polynomial([0, 0, 0.5, 0.05]))
    psi0 = weyl_displace(vacuum(), np.array([1.0, 0.5]))
    steps, dt = 500, 2e-3
    half_v = np.exp(-0.5j * dt * spec.potential.value(DEFAULT_GRID.x))
    kinetic = np.exp(-1j * dt * DEFAULT_GRID.k ** 2 / 2.0)
    amp = psi0.amp
    for _ in range(steps):
        amp = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * amp))
    final = propagate(spec, GridStack.of(psi0), steps * dt, dt).final
    assert np.array_equal(final.amps[0], amp)


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(n=1, N=4096, L=40.0),
                                  GridSpec(n=1, N=16384, L=160.0)],
                         ids=["N1024", "N4096", "N16384"])
def test_propagate_matches_a_scipy_strang_loop(grid):
    # The step as it ran on scipy.fft: numpy's FFTs are the same
    # pocketfft, and from 16,384 points (256 KiB) the in-place products
    # run result-first, as numpy ran the expression's, so every 1D report
    # keeps its bits.
    spec = HamiltonianSpec(mass=1.5,
                           potential=PotentialModel.polynomial([0, 0.1, 0.5, 0.05]))
    psi0 = weyl_displace(vacuum(grid), np.array([1.0, 0.5]))
    steps, dt = 200, 5e-3
    half_v = np.exp(-0.5j * dt * spec.potential.value(grid.x))
    kinetic = np.exp(-1j * dt * grid.k ** 2 / (2.0 * spec.mass))
    amp = psi0.amp
    for _ in range(steps):
        amp = half_v * scipy.fft.ifft(kinetic * scipy.fft.fft(half_v * amp))
    final = propagate(spec, GridStack.of(psi0), steps * dt, dt).final
    assert np.array_equal(final.amps[0], amp)


COUPLED_2D = HamiltonianSpec(mass=1.5, potential=PotentialModel.polynomial2d(
    [[0.0, 0.1, 0.5], [0.0, 0.0, 0.0], [0.5, 0.01, 0.0], [0.02, 0.0, 0.0]]))


@pytest.mark.parametrize("grid", [GridSpec(n=2, N=64, L=8.0),
                                  GridSpec(n=2, N=128, L=10.0)],
                         ids=["N64", "N128"])
def test_2d_step_in_place_is_bitwise_the_written_out_expression(grid):
    # The 2D step as it ran before it went in place.  numpy ran the
    # expression's two products factor-first at N = 64 and, by temporary
    # elision, result-first at N = 128 (256 KiB); complex products round
    # differently in the two orders.
    psi0 = sample_on_grid(packet([1.0, -0.5, 0.3, 0.5],
                                 [[1.0, 0.2], [0.2, 0.8]]), grid)
    steps, dt = 25, 0.01
    half_v = np.exp(-0.5j * dt * COUPLED_2D.potential.value(grid.x_mesh))
    kinetic = np.exp(-1j * dt * grid.k_squared / (2.0 * COUPLED_2D.mass))
    amp = psi0.amp
    for _ in range(steps):
        amp = half_v * np.fft.ifft2(kinetic * np.fft.fft2(half_v * amp))
    final = propagate(COUPLED_2D, GridStack.of(psi0), steps * dt, dt).final
    assert np.array_equal(final.amps[0], amp)


@pytest.mark.parametrize("grid", [GridSpec(n=2, N=64, L=8.0),
                                  GridSpec(n=2, N=128, L=10.0)],
                         ids=["N64", "N128"])
def test_stacked_2d_expectations_match_the_scipy_parseval_form(grid):
    # The 2D momenta as they ran on scipy.fft.fft2: two numpy passes in
    # its axis order keep their bits.
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(4):
        pkt = packet(rng.uniform(-2.0, 2.0, 4),
                     rng.uniform(0.5, 2.0) * np.eye(2))
        rows.append(normalized(sample_on_grid(pkt, grid)).amp)
    amps = np.stack(rows)
    assert all(GridWavefunction(grid, amp).is_unit for amp in amps)
    cell = grid.cell
    dens = np.abs(amps) ** 2
    power = np.abs(scipy.fft.fft2(amps)) ** 2 * (cell / grid.N ** 2)
    want = np.stack([np.sum(dens, axis=-1) @ grid.x * cell,
                     np.sum(dens, axis=-2) @ grid.x * cell,
                     np.sum(power, axis=-1) @ grid.k,
                     np.sum(power, axis=-2) @ grid.k], axis=-1)
    assert np.array_equal(expectation_a(amps, grid), want)


@pytest.mark.parametrize("grid, rows", [
    (DEFAULT_GRID, 1), (DEFAULT_GRID, 64),
    (GridSpec(n=2, N=64, L=8.0), 4), (GridSpec(n=2, N=128, L=10.0), 4),
], ids=["1d-1row", "1d-64rows", "2d-N64", "2d-N128"])
def test_expectations_in_a_work_block_are_bitwise_the_fresh_form(grid, rows):
    # work is the leading rows of a larger scratch block that holds NaN:
    # the spectra go there, its contents are not read and the rows past
    # it are not written.  In 1D the momenta are also bitwise the
    # written-out expression's at 1 row (16 KiB) and at 64 rows (1 MiB),
    # either side of ELIDE_BYTES, past which numpy ran the expression's
    # product in the other operand order.
    rng = np.random.default_rng(11)
    amps = np.stack([
        normalized(sample_on_grid(
            packet(rng.uniform(-2.0, 2.0, 2 * grid.n),
                   rng.uniform(0.5, 2.0) * np.eye(grid.n)), grid)).amp
        for _ in range(rows)])
    fresh = expectation_a(amps, grid)
    scratch = np.full((rows + 3,) + amps.shape[1:], np.nan, dtype=complex)
    assert np.array_equal(expectation_a(amps, grid, work=scratch[:rows]),
                          fresh)
    assert not np.any(np.isnan(scratch[:rows]))
    assert np.all(np.isnan(scratch[rows:]))
    if grid.n == 1:
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amps))
        p = np.sum(np.conj(amps) * -1j * dpsi, axis=-1).real * grid.cell
        assert np.array_equal(fresh[:, 1], p)


CUBIC_1D = HamiltonianSpec(mass=1.0,
                           potential=PotentialModel.polynomial([0, 0.1, 0.5, 0.05]))


def random_states(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [sample_on_grid(packet(rng.uniform(-1.0, 1.0, 2 * grid.n),
                                  rng.uniform(0.7, 1.5) * np.eye(grid.n)), grid)
            for _ in range(count)]


STACK_CASES = [(CUBIC_1D, DEFAULT_GRID, size, 120, 5e-3) for size in (1, 2, 9, 17)] + [
    (COUPLED_2D, GridSpec(n=2, N=N, L=8.0 if N == 64 else 10.0), size, 7, 0.01)
    for N in (64, 128) for size in (1, 2, 3, 4)]


@pytest.mark.parametrize("spec, grid, size, steps, dt", STACK_CASES, ids=[
    f"{grid.n}d-N{grid.N}-S{size}" for _, grid, size, _, _ in STACK_CASES])
def test_stacked_rows_are_bitwise_the_runs_alone(spec, grid, size, steps, dt):
    # Each row of a stack, observed every third step, ends and is seen
    # exactly as the same state run alone, with its own telemetry.  At 17
    # rows of 16 KiB the stack holds ELIDE_BYTES though no state does, so
    # the table products must take their operand order from one state.
    states = random_states(grid, size, seed=size)

    def observed(*psi0):
        seen = []
        run = propagate(spec, GridStack.of(*psi0), steps * dt, dt,
                        observe_stride=3,
                        observer=lambda t, amps: seen.append((t.copy(),
                                                              amps.copy())))
        return run, seen

    run, seen = observed(*states)
    assert all(amps.shape[0] == size for _, amps in seen)
    for row, psi in enumerate(states):
        alone, alone_seen = observed(psi)
        assert np.array_equal(run.final.amps[row], alone.final.amps[0])
        assert run.boundary_mass_max[row] == alone.boundary_mass_max[0]
        assert run.norm_drift[row] == alone.norm_drift[0]
        assert np.array_equal(np.concatenate([t for t, _ in seen]),
                              np.concatenate([t for t, _ in alone_seen]))
        assert np.array_equal(np.concatenate([a[row] for _, a in seen]),
                              np.concatenate([a[0] for _, a in alone_seen]))


def per_state_boundary_mass(psi):
    """GridWavefunction.boundary_mass as it was: the density summed over
    a mask of the outer max(2, N // 128) points of every axis."""
    band = max(2, psi.grid.N // 128)
    dens = np.abs(psi.amp) ** 2
    mask = np.zeros_like(dens, dtype=bool)
    for axis in range(psi.grid.n):
        sl = [slice(None)] * psi.grid.n
        sl[axis] = slice(0, band)
        mask[tuple(sl)] = True
        sl[axis] = slice(psi.grid.N - band, psi.grid.N)
        mask[tuple(sl)] = True
    return float(np.sum(dens[mask]) * psi.grid.cell)


def per_state_norm(psi):
    """GridWavefunction.norm as it was, one sum over the whole state."""
    return float(np.sqrt(np.sum(np.abs(psi.amp) ** 2) * psi.grid.cell))


HEALTH_CASES = [(GridSpec(n=n, N=N, L=10.0), size)
                for n, N in ((1, 1024), (1, 16384), (2, 64), (2, 128))
                for size in (1, 2, 9)]


@pytest.mark.parametrize("grid, size", HEALTH_CASES, ids=[
    f"{grid.n}d-N{grid.N}-S{size}" for grid, size in HEALTH_CASES])
def test_stacked_health_checks_are_the_per_state_formulas(grid, size):
    # propagate's checks read a whole stack: each row's edge mass and
    # norm is bitwise the per-state formula.  One axis=-1 sum over the
    # gathered bands is not at 1D N = 1024 (S = 9), 1D N = 16384 and 2D
    # (S >= 2), so the edge mass sums each row alone.
    rng = np.random.default_rng(grid.N + size)
    shape = (size,) + (grid.N,) * grid.n
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = GridStack(grid, amps)
    states = [stack[row] for row in range(size)]
    assert _edge_mass(amps, grid).tolist() == [
        per_state_boundary_mass(psi) for psi in states]
    expected = [per_state_norm(psi) for psi in states]
    assert _row_norms(amps, grid).tolist() == expected
    assert [psi.norm for psi in states] == expected
    assert states[0].distance(states[-1]) == per_state_norm(
        GridWavefunction(grid, states[0].amp - states[-1].amp))


def numpy_fft_steps(spec, grid, amps, steps, dt):
    """propagate's step on a stack with np.fft.fft and ifft in place
    (out=), one axis at a time in np.fft.fft2's order, last axis first."""
    half_v = np.exp(-0.5j * dt * potential_on_grid(spec, grid))
    kinetic = np.exp(-1j * dt * grid.k_squared / (2.0 * spec.mass))
    result_first = amps[0].nbytes >= 1 << 18
    amps = amps.copy()
    work = np.empty_like(amps)
    axes = (-1, -2)[:grid.n]
    for _ in range(steps):
        np.multiply(half_v, amps, out=work)
        for axis in axes:
            np.fft.fft(work, axis=axis, out=work)
        if result_first:
            np.multiply(work, kinetic, out=work)
        else:
            np.multiply(kinetic, work, out=work)
        for axis in axes:
            np.fft.ifft(work, axis=axis, out=work)
        if result_first:
            np.multiply(work, half_v, out=amps)
        else:
            np.multiply(half_v, work, out=amps)
    return amps


FFT_CASES = [(CUBIC_1D, GridSpec(n=1, N=N, L=10.0), size)
             for N in (4, 1024, 16384) for size in (1, 2, 9)] + [
    (COUPLED_2D, GridSpec(n=2, N=N, L=8.0), size)
    for N in (64, 128) for size in (1, 2, 9)]


@pytest.mark.parametrize("spec, grid, size", FFT_CASES, ids=[
    f"{grid.n}d-N{grid.N}-S{size}" for _, grid, size in FFT_CASES])
def test_the_step_transforms_are_bitwise_numpy_fft_in_place(spec, grid, size,
                                                            monkeypatch):
    # propagate calls the pocketfft gufuncs that np.fft.fft and ifft wrap:
    # on random amplitudes, which touch every bit of the transforms and
    # need the boundary check off, each step is bitwise the step on
    # np.fft in place, whose inverse scales by 1/N and whose 2D pair runs
    # the last axis first.
    monkeypatch.setattr(grid_module, "BOUNDARY_TOL", np.inf)
    rng = np.random.default_rng(grid.N + size)
    shape = (size,) + (grid.N,) * grid.n
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    steps, dt = 3, 0.01
    final = propagate(spec, GridStack(grid, amps), steps * dt, dt).final
    assert np.array_equal(final.amps, numpy_fft_steps(spec, grid, amps,
                                                      steps, dt))


def test_a_wrapping_row_ends_a_stacked_run():
    grid = GridSpec(n=1, N=256, L=10.0)
    still = sample_on_grid(packet([0.0, 0.0], 1.0), grid)
    moving = sample_on_grid(packet([3.0, 12.0], 1.0), grid)
    assert propagate(FREE, GridStack.of(still), 1.0,
                     1e-2).boundary_mass_max[0] <= 1e-10
    with pytest.raises(WraparoundError, match="boundary mass"):
        propagate(FREE, GridStack.of(still, moving), 1.0, 1e-2)
    edge = weyl_displace(vacuum(grid), np.array([9.5, 0.0]))
    with pytest.raises(WraparoundError, match="initial state"):
        propagate(FREE, GridStack.of(still, edge), 1.0, 1e-2)


def test_grid_stack_checks_its_shape():
    with pytest.raises(ValueError):
        GridStack(DEFAULT_GRID, np.zeros(DEFAULT_GRID.N))
    with pytest.raises(ValueError):
        GridStack(DEFAULT_GRID, np.zeros((2, 64)))
    stack = GridStack(DEFAULT_GRID, np.zeros((3, 1024)))
    assert stack.amps.dtype == complex and len(stack) == 3
    psi = vacuum()
    pair = GridStack.of(psi, weyl_displace(psi, np.array([1.0, 0.0])))
    assert pair.amps.shape == (2, 1024)
    assert np.array_equal(pair[0].amp, psi.amp) and pair[0].grid == DEFAULT_GRID


def test_a_start_holds_the_grid_in_position_and_momentum():
    # |xi| <= 0.75 L and |pi| <= 0.75 pi / dx on every axis, for one
    # 2n-vector or every row of a stack of them.
    grid = GridSpec(n=2, N=64, L=10.0)
    edge, nyquist = 7.5, 0.75 * np.pi / grid.dx
    assert grid.holds_center([edge, -edge, nyquist, -nyquist])
    assert not grid.holds_center([0.0, 0.0, 0.0, np.nextafter(nyquist, 99)])
    assert not grid.holds_center([0.0, -7.6, 0.0, 0.0])
    assert grid.holds_center([[0.0, 0.0, 7.0, 0.0], [1.0, 2.0, 0.0, 7.0]])
    assert not grid.holds_center([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 8.0]])
    # Each half takes its own limit: 15 in position and 60.3 in momentum
    # on the default grid.
    assert DEFAULT_GRID.holds_center([0.0, 15.1])
    assert not DEFAULT_GRID.holds_center([15.1, 0.0])


def test_a_stack_splits_one_runs_observer_block():
    # A single run's block (at most 32 states of 16 KiB in 1D, 4 of 256
    # KiB in 2D, no more than the run observes) split across the stack,
    # one state per row at least.
    assert _observer_block(DEFAULT_GRID, 500, 1).shape == (32, 1024)
    assert _observer_block(DEFAULT_GRID, 25, 1).shape == (25, 1024)
    assert _observer_block(DEFAULT_GRID, 25, 9).shape == (18, 1024)
    assert _observer_block(DEFAULT_GRID, 500, 64).shape == (64, 1024)
    assert _observer_block(DEFAULT_GRID, 500, 100).shape == (100, 1024)
    grid = GridSpec(n=2, N=128, L=10.0)
    assert _observer_block(grid, 50, 1).shape == (4, 128, 128)
    assert _observer_block(grid, 50, 2).shape == (4, 128, 128)
    assert _observer_block(grid, 2, 4).shape == (4, 128, 128)


@pytest.mark.parametrize("grid", [GridSpec(n=2, N=64, L=8.0), DEFAULT_GRID],
                         ids=["2d", "1d"])
def test_moments_of_a_batch_take_each_block_alone(grid):
    # A (S, B) batch of states: each state's block of B rows has the
    # moments it has alone.  In 2D that needs the marginals' BLAS
    # matrix-vector products taken block by block, whose row bits depend
    # on the rows in one call.
    rng = np.random.default_rng(5)
    amps = np.stack([
        normalized(sample_on_grid(
            packet(rng.uniform(-2.0, 2.0, 2 * grid.n),
                   rng.uniform(0.5, 2.0) * np.eye(grid.n)), grid)).amp
        for _ in range(12)]).reshape((3, 4) + (grid.N,) * grid.n)
    batch = expectation_a(amps, grid)
    assert batch.shape == (3, 4, 2 * grid.n)
    for row in range(3):
        assert np.array_equal(batch[row], expectation_a(amps[row], grid))


def _block_moments(amps, grid):
    """The moments of a stack (B,) + (N,) * n written out as whole-block
    expressions: |psi|^2 of the whole stack, the rows off norm divided by
    their norms, then the 1D sums or the 2D axis marginals."""
    axes, cell = tuple(range(-grid.n, 0)), grid.cell
    dens = np.abs(amps) ** 2
    norms = np.sqrt(np.sum(dens, axis=axes) * cell)
    off = np.abs(norms - 1.0) > NORM_TOL
    if np.any(off):
        amps = amps / np.where(off, norms, 1.0)[(...,) + (None,) * grid.n]
        dens = np.abs(amps) ** 2
    if grid.n == 1:
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amps))
        p = np.sum(np.conj(amps) * -1j * dpsi, axis=-1).real
        return np.stack([np.sum(grid.x * dens, axis=-1) * cell, p * cell],
                        axis=-1)
    spectrum = np.fft.fft(np.fft.fft(amps, axis=-2), axis=-1)
    power = np.abs(spectrum) ** 2 * (cell / grid.N ** 2)
    return np.stack([np.sum(dens, axis=-1) @ grid.x * cell,
                     np.sum(dens, axis=-2) @ grid.x * cell,
                     np.sum(power, axis=-1) @ grid.k,
                     np.sum(power, axis=-2) @ grid.k], axis=-1)


@pytest.mark.parametrize("grid, rows, scaled", [
    (DEFAULT_GRID, 1, None), (DEFAULT_GRID, 17, None),
    (DEFAULT_GRID, 32, None), (DEFAULT_GRID, 17, 5),
    (GridSpec(n=2, N=128, L=10.0), 1, None),
    (GridSpec(n=2, N=128, L=10.0), 4, None),
    (GridSpec(n=2, N=128, L=10.0), 4, 2),
], ids=["1d-1row", "1d-17rows", "1d-32rows", "1d-off-norm", "2d-1row",
        "2d-4rows", "2d-off-norm"])
def test_chunked_moments_are_bitwise_the_block_formula(grid, rows, scaled):
    # The moments take |psi|^2 a chunk of rows at a time (2 rows of 128^2,
    # 16 of 1024 points), the norm check's sums in the same pass; a row
    # off norm (the row ``scaled``) is divided by its norm and measured
    # again.  Every row keeps the whole-block expressions' bits.
    rng = np.random.default_rng(rows)
    amps = np.stack([
        normalized(sample_on_grid(
            packet(rng.uniform(-2.0, 2.0, 2 * grid.n),
                   rng.uniform(0.5, 2.0) * np.eye(grid.n)), grid)).amp
        for _ in range(rows)])
    if scaled is not None:
        amps[scaled] *= 1.0 + 1e-9
    want = _block_moments(amps, grid)
    assert np.array_equal(expectation_a(amps, grid), want)
    work = np.empty_like(amps)
    assert np.array_equal(expectation_a(amps, grid, work=work), want)


def test_2d_moments_allocate_less_than_half_a_block():
    # With the spectra in a work block, the moments of a 4-state 2D block
    # at N = 128 (1 MiB) hold |psi|^2 and the power spectrum a chunk at a
    # time: tracemalloc's peak rises by less than half a block (a block's
    # |psi|^2).  A first call fills the grid's caches.
    grid = GridSpec(n=2, N=128, L=10.0)
    rng = np.random.default_rng(3)
    amps = np.stack([
        normalized(sample_on_grid(packet(rng.uniform(-2.0, 2.0, 4),
                                         np.eye(2)), grid)).amp
        for _ in range(4)])
    assert amps.nbytes == 1 << 20
    work = np.empty_like(amps)
    want = expectation_a(amps, grid, work=work)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = expectation_a(amps, grid, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak - before < amps.nbytes // 2
