import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qreduce import spectral
from qreduce.comparator import ComparatorSpec
from qreduce.grid import GridSpec
from qreduce.hamiltonian import HamiltonianSpec, PhasePoint, PotentialModel
from qreduce.packets import packet, sample_on_grid
from qreduce.spectral import (GridHamiltonian, classify_quantum,
                              ergodic_average, finite_evolution,
                              recurrence_time)

FREE = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0.0]))
HARMONIC = HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))
FREE_GRID = GridSpec(1, 16384, 2000.0)
THREE_LEVEL = np.diag([0.0, 1.0, np.sqrt(2.0)])


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_finite_evolution_groups_degenerate_levels():
    evo = finite_evolution(np.diag([0.0, 1.0, 1.0 + 1e-13, 2.0]))
    assert [len(g) for g in evo.groups] == [1, 2, 1]
    # The eigenbasis is unitary: sum_n P_n = 1.
    v = evo.vectors
    assert np.linalg.norm(v @ v.conj().T - np.eye(4), 2) < 1e-10
    assert np.allclose(evo.group_values, [0.0, 1.0, 2.0], atol=1e-12)


def test_finite_evolution_rejects_non_hermitian():
    with pytest.raises(ValueError):
        finite_evolution(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_evolve_is_unitary_and_periodic():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    moved = evo.evolve(psi, 0.7)
    assert abs(np.linalg.norm(moved) - 1.0) < 1e-12
    back = evo.evolve(psi, 2.0 * np.pi)
    assert np.linalg.norm(back - psi) < 1e-12


def test_ergodic_eigenvector_is_exact():
    evo = finite_evolution(np.diag([0.0, 1.0, 2.0]))
    psi = np.array([0.0, 1.0, 0.0], dtype=complex)
    out = ergodic_average(evo, psi, np.outer(psi, psi.conj()), horizons=10.0)
    assert out["predicted"] == pytest.approx(1.0, abs=1e-12)
    assert out["measured"][10.0] == pytest.approx(1.0, abs=1e-9)


def test_ergodic_two_level_cross_terms_average_out():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    out = ergodic_average(evo, psi, np.diag([1.0, 0.0]), horizons=50.0)
    assert out["predicted"] == pytest.approx(0.5, abs=1e-12)
    assert out["measured"][50.0] == pytest.approx(0.5, abs=1e-9)


def test_ergodic_quadrature_matches_sinc_oracle():
    # f(t) = cos t for the flip operator, so the symmetric average over
    # [-T, T] is sin(T)/T.
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ergodic_average(evo, psi, flip, horizons=[10.0, 25.0])
    assert out["predicted"] == pytest.approx(0.0, abs=1e-12)
    assert out["measured"][10.0] == pytest.approx(np.sin(10.0) / 10.0, abs=1e-6)
    assert out["measured"][25.0] == pytest.approx(np.sin(25.0) / 25.0, abs=1e-6)


def test_ergodic_random_matrices_converge():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        evo = finite_evolution(random_hermitian(rng, 8))
        psi = random_unit(rng, 8)
        F = random_hermitian(rng, 8)
        out = ergodic_average(evo, psi, F, horizons=1e4)
        assert abs(out["measured"][1e4] - out["predicted"]) < 1e-3


def test_ergodic_convergence_slope():
    rng = np.random.default_rng(7)
    evo = finite_evolution(random_hermitian(rng, 8))
    psi = random_unit(rng, 8)
    F = random_hermitian(rng, 8)
    base = np.geomspace(1e2, 1e4, 7)
    phases = np.concatenate([base, 1.07 * base, 1.15 * base])
    out = ergodic_average(evo, psi, F, horizons=phases)
    # Envelope over nearby phases smooths the sinc zero crossings.
    devs = np.array([max(abs(out["measured"][t] - out["predicted"]),
                         abs(out["measured"][1.07 * t] - out["predicted"]),
                         abs(out["measured"][1.15 * t] - out["predicted"]))
                     for t in base])
    slope = np.polyfit(np.log(base), np.log(devs), 1)[0]
    assert -1.2 < slope < -0.8


def test_ergodic_rejects_bad_inputs():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        ergodic_average(evo, np.array([1.0, 1.0]), np.eye(2), horizons=1.0)
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="F must be Hermitian"):
        ergodic_average(evo, psi, np.array([[0.0, 1.0], [0.0, 0.0]]),
                        horizons=1.0)
    with pytest.raises(ValueError):
        ergodic_average(evo, psi, np.eye(2), horizons=-2.0)


def test_ergodic_average_is_the_mean_stay():
    # Both take the mean tau / (2 T) of one finite stay curve.
    rng = np.random.default_rng(12)
    for _ in range(5):
        evo = finite_evolution(random_hermitian(rng, 8))
        psi, F = random_unit(rng, 8), random_hermitian(rng, 8)
        for T in (0.7, 13.0, 120.0):
            measured = ergodic_average(evo, psi, F, T)["measured"][T]
            assert measured == classify_quantum(evo, psi, F, T)["mu"][-1]


@pytest.mark.parametrize("dt", [-0.1, 0.0, np.nan, np.inf])
def test_grid_hamiltonian_refuses_a_bad_dt(dt):
    # dt -0.1 used to run a two-step stay curve, and dt 0 to raise
    # ZeroDivisionError inside classify_quantum.
    with pytest.raises(ValueError, match="dt"):
        GridHamiltonian(HARMONIC, GridSpec(1, 256, 12.0), dt=dt)


def test_average_stay_on_eigenvectors():
    evo = finite_evolution(THREE_LEVEL)
    own = np.array([1.0, 0.0, 0.0], dtype=complex)
    other = np.array([0.0, 1.0, 0.0], dtype=complex)
    proj = np.diag([1.0, 0.0, 0.0])
    stay = classify_quantum(evo, own, proj, horizons=50.0)
    assert stay["mu"][-1] == pytest.approx(1.0, abs=1e-9)
    predicted = ergodic_average(evo, own, proj, horizons=50.0)["predicted"]
    assert predicted == pytest.approx(1.0, abs=1e-12)
    off = classify_quantum(evo, other, proj, horizons=50.0)
    assert off["mu"][-1] == pytest.approx(0.0, abs=1e-12)
    predicted = ergodic_average(evo, other, proj, horizons=50.0)["predicted"]
    assert predicted == pytest.approx(0.0, abs=1e-12)


def test_transit_time_linear_growth_flags_divergent():
    # An eigenvector inside Omega stays there: tau grows as 2T and the
    # trailing half of the horizon adds T, far above TAIL_INCREMENT_TOL.
    evo = finite_evolution(THREE_LEVEL)
    own = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = classify_quantum(evo, own, np.diag([1.0, 0.0, 0.0]), horizons=100.0)
    assert out["tau"][-1] == pytest.approx(200.0, rel=1e-9)
    assert out["trailing_increment"] == pytest.approx(100.0, rel=1e-9)
    orthogonal = np.array([0.0, 0.0, 1.0], dtype=complex)
    silent = classify_quantum(evo, orthogonal, np.diag([1.0, 0.0, 0.0]),
                              horizons=100.0)
    assert silent["tau"][-1] == 0.0
    assert silent["trailing_increment"] == 0.0


def test_stay_equals_transit_over_horizon():
    evo = finite_evolution(np.diag([0.0, 0.3]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    omega = np.outer(psi, psi.conj())
    T = 37.0
    out = classify_quantum(evo, psi, omega, horizons=T)
    assert out["mu"][-1] == pytest.approx(out["tau"][-1] / (2.0 * T), abs=0.0)


def test_recurrence_two_level_finds_the_period():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    found = recurrence_time(evo, psi, eps=1e-3, T_min=1.0)
    step = (2.0 * np.pi) / 64.0
    assert abs(found - 2.0 * np.pi) <= step
    assert np.linalg.norm(evo.evolve(psi, found) - psi) < 1e-3


def test_recurrence_three_level_incommensurate():
    evo = finite_evolution(THREE_LEVEL)
    psi = np.ones(3) / np.sqrt(3.0)
    found = recurrence_time(evo, psi, eps=0.1, T_min=1.0, T_max=1e5)
    assert found is not None and 1.0 <= found < 1e5
    assert np.linalg.norm(evo.evolve(psi, found) - psi) < 0.1


def test_recurrence_trivial_and_not_found_cases():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert recurrence_time(evo, psi, eps=2.0, T_min=3.0) == 3.0
    assert recurrence_time(evo, psi, eps=1e-3, T_min=1.0, T_max=2.0) is None
    with pytest.raises(ValueError):
        recurrence_time(GridHamiltonian(FREE, FREE_GRID), psi, eps=0.1)


def test_classify_oscillator_ground_state_pp_like():
    grid = GridSpec(1, 1024, 20.0)
    psi = sample_on_grid(packet(PhasePoint(0.0, 0.0), 1.0), grid)
    handle = GridHamiltonian(HARMONIC, grid, dt=0.25)
    out = classify_quantum(handle, psi, ComparatorSpec(s=1.0), horizons=40.0)
    assert out["label"] == "pp-like"
    assert out["mu"][-1] == pytest.approx(1.0, abs=1e-3)


def test_free_packet_stay_decreases_and_transit_converges():
    psi = sample_on_grid(packet(PhasePoint(0.0, 4.0), 1.0), FREE_GRID)
    handle = GridHamiltonian(FREE, FREE_GRID, dt=0.25)
    comp = ComparatorSpec(s=0.5, N=64)
    out = classify_quantum(handle, psi, comp, horizons=[10.0, 40.0, 160.0])
    mus = out["mu"]
    assert mus[2] == pytest.approx(out["tau"][2] / 320.0, abs=0.0)
    assert mus[0] > mus[1] > mus[2]
    assert out["trailing_increment"] < spectral.TAIL_INCREMENT_TOL
    assert out["trailing_increment"] < 1e-4


def test_classify_free_packet_ac_like():
    psi = sample_on_grid(packet(PhasePoint(0.0, 4.0), 1.0), FREE_GRID)
    handle = GridHamiltonian(FREE, FREE_GRID, dt=0.25)
    out = classify_quantum(handle, psi, ComparatorSpec(s=0.5, N=64),
                           horizons=[10.0, 40.0, 160.0])
    assert out["label"] == "ac-like"
    assert out["trailing_increment"] < 1e-4


def test_classify_doublet_label_depends_on_horizon():
    # Tunneling doublet model: mu(T) = (1 + sin(dT)/(dT)) / 2 around the
    # one-well state, still draining at T=10 but settled by T=1e4.
    delta = 0.3
    evo = finite_evolution(np.diag([0.0, delta]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    omega = np.outer(psi, psi.conj())
    short = classify_quantum(evo, psi, omega, horizons=10.0)
    assert short["label"] == "exceptional-candidate"
    oracle = 0.5 * (1.0 + np.sin(delta * 10.0) / (delta * 10.0))
    assert short["mu"][-1] == pytest.approx(oracle, abs=1e-6)
    long = classify_quantum(evo, psi, omega, horizons=1e4)
    assert long["label"] == "pp-like"
    assert long["mu"][-1] == pytest.approx(0.5, abs=1e-3)
    assert long["thresholds"]["pp_floor"] == 1e-2


def test_classify_reports_the_module_thresholds(monkeypatch):
    # The thresholds are module constants: the decision and the reported
    # "thresholds" both follow them.  A pp_floor above any stay turns the
    # settled doublet from pp-like into exceptional-candidate.
    evo = finite_evolution(np.diag([0.0, 0.3]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    omega = np.outer(psi, psi.conj())
    out = classify_quantum(evo, psi, omega, horizons=1e4)
    assert out["thresholds"] == {"increment_tol": spectral.TAIL_INCREMENT_TOL,
                                 "pp_floor": spectral.PP_FLOOR,
                                 "drift_tol": spectral.PP_DRIFT_TOL}
    assert out["label"] == "pp-like"
    monkeypatch.setattr(spectral, "PP_FLOOR", 0.9)
    monkeypatch.setattr(spectral, "PP_DRIFT_TOL", 0.01)
    monkeypatch.setattr(spectral, "TAIL_INCREMENT_TOL", 1e-6)
    out = classify_quantum(evo, psi, omega, horizons=1e4)
    assert out["thresholds"] == {"increment_tol": 1e-6, "pp_floor": 0.9,
                                 "drift_tol": 0.01}
    assert out["label"] == "exceptional-candidate"


def test_classification_time_reversal_agrees():
    # Unitary groups capture nothing: the labels must match under t -> -t.
    delta = 0.3
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    omega = np.outer(psi, psi.conj())
    for horizon in (10.0, 1e4):
        fwd = classify_quantum(finite_evolution(np.diag([0.0, delta])),
                               psi, omega, horizons=horizon)
        bwd = classify_quantum(finite_evolution(np.diag([0.0, -delta])),
                               psi, omega, horizons=horizon)
        assert fwd["label"] == bwd["label"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_bound_states_form_a_linear_manifold(raw):
    # Any superposition of eigenvectors of a finite evolution stays
    # bound: the pp-like label is closed under linear combination.
    w = np.array(raw[:3]) + 1j * np.array(raw[3:])
    assume(np.linalg.norm(w) > 1e-3)
    psi = w / np.linalg.norm(w)
    evo = finite_evolution(THREE_LEVEL)
    omega = np.outer(psi, psi.conj())
    out = classify_quantum(evo, psi, omega, horizons=2000.0)
    assert out["label"] == "pp-like"
