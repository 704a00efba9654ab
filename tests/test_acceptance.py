"""End-to-end acceptance checks, one test per release criterion."""

import time

import numpy as np
import pytest
from conftest import corpus_spec

from qreduce.classical import integrate_flow
from qreduce.comparator import (ComparatorSpec, coherent_matrix_elements,
                                comparator_scalars)
from qreduce.grid import (GridSpec, GridStack, GridWavefunction,
                          construct_localizer, expectation_a,
                          localization_check, propagate, weyl_displace)
from qreduce.hamiltonian import PhasePoint
from qreduce.packets import evolve_AB, packet, sample_on_grid, vacuum
from qreduce.reduction import (ReductionProblem, ehrenfest_residuals,
                               ehrenfest_run, squeeze_sweep)
from qreduce.scaling import hepp_experiment, scale_value
from qreduce.spectral import (classify_quantum, ergodic_average,
                              finite_evolution, recurrence_time)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_criterion_01_quadratic_exactness(harmonic_cycle):
    # Quadratic potentials make the packet approximation exact: both the
    # expectation error and the state-evolution gap sit at grid noise.
    report, elapsed = harmonic_cycle
    assert report.error.overall <= 1e-6
    assert np.max(report.bounds.delta1_measured) <= 1e-6
    assert report.verdict == "reduced"
    assert elapsed < 30.0


def test_criterion_02_duhamel_domination(cubic_fixed_point):
    report = cubic_fixed_point
    measured = report.bounds.delta1_measured
    duhamel = report.bounds.delta1_duhamel
    assert np.all(measured <= duhamel)
    # At the fixed point the remainder integrand is constant, so the
    # bound is the straight line 0.022822 t.
    line = 0.022822 * report.times
    assert np.max(np.abs(duhamel - line)) <= 1e-4


def test_criterion_03_assembled_bound_domination(cubic_fixed_point):
    report = cubic_fixed_point
    error = report.error.max_norm
    assert np.all(report.bounds.general >= error)
    assert np.all(report.bounds.specialized >= error)
    assert report.problem.E is None and report.bounds.E_used > 0
    assert report.bounds.hypotheses_hold
    assert report.bounds.prefactor_closed == 1.0


def test_criterion_04_comparator_audit():
    start = time.perf_counter()
    audit = comparator_scalars(ComparatorSpec(s=float(np.log(2.0))))
    assert abs(audit["norm"] - 0.5) <= 1e-10
    assert abs(audit["trace"] - 1.0) <= 1e-10
    spec = ComparatorSpec(s=float(np.log(2.0)))
    for xi, pi in [(0.0, 0.0), (1.0, 0.0), (0.0, -2.0), (2.0, 1.0),
                   (3.0, 0.0), (-1.5, 2.0)]:
        assert np.hypot(xi, pi) <= 3.0
        elems = coherent_matrix_elements(spec, PhasePoint(xi, pi))
        assert abs(elems["diag_measured"] - elems["diag"]) <= 1e-8
    sharp = comparator_scalars(ComparatorSpec(s=1.0))
    assert sharp["aOmega_sq_measured"] <= (1.0 - np.exp(-1.0)) ** 2
    assert time.perf_counter() - start < 5.0


def test_criterion_05_width_evolution_oracles():
    free = integrate_flow(corpus_spec("free"), PhasePoint(0.0, 0.0), 1.0, 1e-3)
    series = evolve_AB(corpus_spec("free"), free)
    assert abs(series.M[-1][0, 0] - 1.0 / (1.0 + 1.0j)) <= 1e-8
    period = integrate_flow(corpus_spec("harmonic"), PhasePoint(1.0, 0.0),
                            2.0 * np.pi, 1e-3)
    cycle = evolve_AB(corpus_spec("harmonic"), period)
    assert np.max(np.abs(cycle.M - 1.0)) <= 1e-10
    # Positivity of Re M is enforced internally at every step; confirm
    # it on the stored samples of both runs.
    for run in (series, cycle):
        assert np.all(run.M.real > 0)


def test_criterion_06_weyl_algebra():
    rng = np.random.default_rng(5)
    psi = sample_on_grid(vacuum(), GridSpec(1, 1024, 20.0))
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0, size=2)
        b = rng.uniform(-2.0, 2.0, size=2)
        c = rng.uniform(-1.0, 1.0, size=2)
        state = weyl_displace(psi, c)
        lhs = weyl_displace(weyl_displace(state, b), a)
        cocycle = np.exp(-0.5j * (a[0] * b[1] - a[1] * b[0]))
        rhs = weyl_displace(state, a + b)
        rhs = GridWavefunction(psi.grid, cocycle * rhs.amp)
        assert lhs.distance(rhs) <= 1e-9
    moved = weyl_displace(psi, np.array([1.25, -0.75]))
    assert np.max(np.abs(expectation_a(moved)
                         - (expectation_a(psi) + [1.25, -0.75]))) <= 1e-10


def test_criterion_07_ergodic_formula():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        evo = finite_evolution(random_hermitian(rng, 8))
        psi = random_unit(rng, 8)
        F = random_hermitian(rng, 8)
        out = ergodic_average(evo, psi, F, horizons=1e4)
        assert abs(out["measured"][1e4] - out["predicted"]) < 1e-3
    rng = np.random.default_rng(7)
    evo = finite_evolution(random_hermitian(rng, 8))
    psi = random_unit(rng, 8)
    F = random_hermitian(rng, 8)
    base = np.geomspace(1e2, 1e4, 7)
    phases = np.concatenate([base, 1.07 * base, 1.15 * base])
    out = ergodic_average(evo, psi, F, horizons=phases)
    devs = np.array([max(abs(out["measured"][t] - out["predicted"]),
                         abs(out["measured"][1.07 * t] - out["predicted"]),
                         abs(out["measured"][1.15 * t] - out["predicted"]))
                     for t in base])
    slope = np.polyfit(np.log(base), np.log(devs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_criterion_08_recurrence_times():
    evo = finite_evolution(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    found = recurrence_time(evo, psi, eps=1e-3, T_min=1.0)
    step = (2.0 * np.pi) / 64.0
    assert abs(found - 2.0 * np.pi) <= step
    three = finite_evolution(np.diag([0.0, 1.0, np.sqrt(2.0)]))
    uniform = np.ones(3) / np.sqrt(3.0)
    hit = recurrence_time(three, uniform, eps=0.1, T_min=1.0, T_max=1e5)
    assert hit is not None and hit < 1e5
    assert np.linalg.norm(three.evolve(uniform, hit) - uniform) < 0.1


def test_criterion_09_scaling_family_monotone():
    out = hepp_experiment(corpus_spec("cubic-perturbed"),
                          PhasePoint(1.0, 0.5), T=1.0,
                          lambdas=[1.0, 0.25, 0.0625])
    assert all(r["failed"] is None for r in out["rows"])
    errors = [r["error"] for r in out["rows"]]
    assert errors[0] > errors[1] > errors[2]
    rng = np.random.default_rng(3)
    for kind in ("position", "momentum", "time", "mass", "energy"):
        for _ in range(20):
            value = float(rng.uniform(-1e3, 1e3))
            lam = float(rng.uniform(1e-2, 1e2))
            back = scale_value(kind, scale_value(kind, value, lam), 1.0 / lam)
            assert abs(back - value) <= 1e-14 * max(1.0, abs(value))


def test_criterion_10_squeeze_tradeoff():
    problem = ReductionProblem(spec=corpus_spec("cubic-perturbed"),
                               alpha0=PhasePoint(0.0, 0.0),
                               T=0.3, epsilon=1.0)
    sweep = squeeze_sweep(problem, [0.25, 0.5, 1.0, 2.0, 4.0])
    duh = [row["duhamel_term"] for row in sweep["rows"]]
    assert all(b < a for a, b in zip(duh, duh[1:]))
    assert sweep["argmin"] not in (0.25, 4.0)


def test_criterion_11_ehrenfest_identity_and_gap():
    grid = GridSpec(1, 1024, 20.0)
    psi = sample_on_grid(packet(PhasePoint(1.0, 0.0), 1.0), grid)
    for name in ("harmonic", "free", "cubic-perturbed", "quartic",
                 "double-well"):
        # Densest sampling: the identity residual is limited by the
        # central-difference step of the <p> derivative.
        data = ehrenfest_run(corpus_spec(name), psi, T=0.5, sample_stride=1)
        res = ehrenfest_residuals(data)
        assert np.max(res["identity"]) <= 5e-5, name
        if name == "quartic":
            # Gaussian moments at center 1, variance 1/2: <q^3> - <q>^3
            # = 3/2 exactly at t = 0.
            assert abs(res["gap"][0] - 1.5) <= 1e-3


def test_criterion_12_localization():
    grid = GridSpec(1, 1024, 20.0)
    members = [sample_on_grid(packet(PhasePoint(0.0, 0.0), 1.0), grid),
               sample_on_grid(packet(PhasePoint(2.0, 0.0), 1.0), grid)]
    F = construct_localizer(members)
    for entry in localization_check(members, F, np.zeros(grid.N)):
        assert entry["F_expect"] <= 1.0 + 1e-12
    support = np.abs(grid.x) <= 3.0
    amp = np.where(support, members[0].amp, 0.0)
    amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2) * grid.cell)
    truncated = GridWavefunction(grid, amp)
    stepped = propagate(corpus_spec("free"), GridStack.of(truncated), 1e-3,
                        1e-3).final[0]
    outside = float(np.sum(stepped.density[~support]) * grid.cell)
    assert outside > 0.0
