import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qreduce.errors import ConfigError
from qreduce.grid import GridSpec
from qreduce.hamiltonian import (HamiltonianSpec, PhasePoint, PotentialModel,
                                 energies)
from qreduce.reduction import ReductionProblem, run_reduction
from qreduce.scaling import hepp_experiment, scale_hamiltonian, scale_value

DIMENSIONAL_KINDS = ("position", "momentum", "time", "mass", "energy")
CUBIC = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5, 1.0 / 6.0]))
QUADRATIC = HamiltonianSpec(
    mass=1.0, potential=PotentialModel.polynomial([0, 0, 0.5]))


def test_scale_value_table_rows():
    assert scale_value("position", 1.0, 0.25) == pytest.approx(0.5)
    assert scale_value("momentum", 2.0, 0.25) == pytest.approx(1.0)
    assert scale_value("time", 3.0, 0.1) == 3.0
    assert scale_value("mass", 1.7, 9.0) == 1.7
    assert scale_value("energy", 2.0, 0.25) == pytest.approx(0.5)
    # The reference value of Planck's constant is pinned to 1, so the
    # scaled value is the scale parameter itself.
    for value in (1.0, 42.0, -3.0):
        assert scale_value("planck", value, 0.25) == 0.25


def test_scale_value_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        scale_value("charge", 1.0, 2.0)
    with pytest.raises(ConfigError):
        scale_value("position", 1.0, 0.0)


@given(st.sampled_from(DIMENSIONAL_KINDS),
       st.floats(-1e6, 1e6, allow_nan=False),
       st.floats(1e-3, 1e3))
def test_scale_value_round_trip(kind, value, lam):
    back = scale_value(kind, scale_value(kind, value, lam), 1.0 / lam)
    assert abs(back - value) <= 1e-14 * max(1.0, abs(value))


def test_scale_hamiltonian_coefficient_algebra():
    pair = scale_hamiltonian(CUBIC, 4.0)
    # Quadratic coefficients are invariant; the cubic one picks up
    # lambda^(-1/2) in the scaled units and lambda^(1/2) in the family.
    assert np.allclose(pair.in_scaled_units.potential.coeffs,
                       [0, 0, 0.5, (1.0 / 6.0) / 2.0])
    assert np.allclose(pair.family_member.potential.coeffs,
                       [0, 0, 0.5, (1.0 / 6.0) * 2.0])
    assert pair.in_scaled_units.mass == CUBIC.mass
    identity = scale_hamiltonian(CUBIC, 1.0)
    assert np.allclose(identity.in_scaled_units.potential.coeffs,
                       CUBIC.potential.coeffs)
    assert np.allclose(identity.family_member.potential.coeffs,
                       CUBIC.potential.coeffs)


def test_scale_hamiltonian_family_inverts_the_scaling():
    lam = 0.3
    family = scale_hamiltonian(CUBIC, lam).family_member
    back = scale_hamiltonian(family, lam).in_scaled_units
    assert np.allclose(back.potential.coeffs, CUBIC.potential.coeffs,
                       rtol=1e-14)


def test_scale_hamiltonian_2d_total_degree():
    pot = PotentialModel.polynomial2d([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                       [0.5, 0.0, 0.25]])
    pair = scale_hamiltonian(
        HamiltonianSpec(mass=2.0, potential=pot), 4.0)
    C = pair.in_scaled_units.potential.coeffs
    assert C[0, 2] == pytest.approx(0.5)
    assert C[2, 0] == pytest.approx(0.5)
    assert C[2, 2] == pytest.approx(0.25 / 4.0)
    assert pair.in_scaled_units.mass == 2.0


def test_hepp_experiment_refuses_a_start_past_the_nyquist_margin():
    # pi / dx is about 80.4 on the default grid; 0.75 of it is the limit.
    with pytest.raises(ConfigError, match="Nyquist"):
        hepp_experiment(CUBIC, PhasePoint(1.0, 61.0), 0.1, [1.0, 0.5],
                        dt=0.01)


def test_scale_hamiltonian_rejects_non_positive_lambda():
    with pytest.raises(ConfigError):
        scale_hamiltonian(CUBIC, -1.0)


def test_magnitude_invariance_of_scaled_energy():
    # The scaled energy function reproduces lambda times the original
    # magnitude at the scaled arguments.
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam = float(rng.uniform(0.1, 10.0))
        alpha = PhasePoint(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        scaled_spec = scale_hamiltonian(CUBIC, lam).in_scaled_units
        scaled_alpha = PhasePoint.from_vector(np.sqrt(lam) * alpha.vector)
        assert np.isclose(
            energies(scaled_spec, scaled_alpha.xi, scaled_alpha.pi),
            lam * energies(CUBIC, alpha.xi, alpha.pi),
            rtol=1e-12, atol=1e-12)


def test_hepp_family_shrinks_the_error():
    out = hepp_experiment(CUBIC, PhasePoint(1.0, 0.5), T=0.5,
                          lambdas=[1.0, 0.25])
    assert [r["failed"] for r in out["rows"]] == [None, None]
    assert out["monotone_error"]
    assert out["monotone_bound"]
    assert out["rows"][0]["error"] > out["rows"][1]["error"]


@pytest.mark.parametrize("spec, alpha0, grid, T, dt", [
    # 401 steps at stride 2: the final snapshot is off the stride.
    (CUBIC, PhasePoint(1.0, 0.5), GridSpec(1, 1024, 20.0), 0.401, 1e-3),
    (HamiltonianSpec(mass=1.0, potential=PotentialModel.polynomial2d(
        [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.1, 0.0]])),
     PhasePoint([1.0, 0.0], [0.0, 0.5]), GridSpec(2, 256, 17.0), 0.3, 0.01),
], ids=["1d", "2d"])
def test_scale_rows_are_bitwise_the_full_pipeline(spec, alpha0, grid, T, dt):
    # A row skips the comparator half of run_reduction, whose error and
    # worst Duhamel bound over the snapshots it reports unchanged.
    lambdas = [1.0, 0.25]
    out = hepp_experiment(spec, alpha0, T=T, lambdas=lambdas, grid=grid,
                          dt=dt)
    for lam, row in zip(lambdas, out["rows"]):
        report = run_reduction(ReductionProblem(
            spec=scale_hamiltonian(spec, lam).family_member, alpha0=alpha0,
            T=T, epsilon=1e6, grid=grid, dt=dt))
        assert len(report.times) == (202 if spec.dimension == 1 else 31)
        assert row["failed"] is None
        assert row["error"] == report.error.overall
        assert row["bound"] == float(np.max(report.bounds.delta1_duhamel))


def test_hepp_quadratic_is_exact_under_any_reading():
    out = hepp_experiment(QUADRATIC, PhasePoint(1.0, 0.5), T=0.5,
                          lambdas=[1.0, 0.5])
    for row in out["rows"]:
        assert row["failed"] is None
        assert row["error"] < 1e-8


def test_hepp_reports_per_lambda_grid_failure():
    # About the smallest grid the default comparator fits; the lambda = 1
    # run still reaches its edge.
    narrow = GridSpec(1, 512, 17.0)
    out = hepp_experiment(CUBIC, PhasePoint(4.0, 2.0), T=2.0,
                          lambdas=[1.0, 0.25], grid=narrow)
    assert any(r["failed"] for r in out["rows"])
    assert not out["monotone_error"]


def test_hepp_validates_the_lambda_list():
    with pytest.raises(ConfigError):
        hepp_experiment(CUBIC, PhasePoint(1.0, 0.5), 0.5, [0.25, 1.0])
    with pytest.raises(ConfigError):
        hepp_experiment(CUBIC, PhasePoint(1.0, 0.5), 0.5, [1.0, -0.5])
