import numpy as np
import pytest
from conftest import inner, normalized, number_weights, synthesis
from hypothesis import given, settings
from hypothesis import strategies as st

from qreduce.comparator import (EDGE_FRACTION, EDGE_WINDOW, EXP_GUARD,
                                NOISE_FLOOR, ComparatorSpec, _constants,
                                apply_comparator, coherent_coefficients,
                                coherent_label, coherent_matrix_elements,
                                comparator_scalars, hermite_coefficients,
                                hermite_functions, within_magnitude)
from qreduce.errors import BasisResidualError, OverflowGuardError
from qreduce.grid import GridSpec, GridWavefunction, weyl_displace
from qreduce.hamiltonian import PhasePoint
from qreduce.packets import packet, sample_on_grid

GRID = GridSpec(n=1, N=1024, L=20.0)
S_VALUES = [0.25, np.log(2.0), 1.0, 2.0]


def hermite_state(n, grid=GRID):
    return GridWavefunction(grid, hermite_functions(grid.x, n)[n])


def coherent_state(xi, pi, grid=GRID):
    return weyl_displace(hermite_state(0, grid), np.array([xi, pi]))


def project(spec, psi):
    """The projection of one grid state, as a stack of one."""
    return hermite_coefficients(spec, psi.amp[None], psi.grid)


def smoothed(spec, psi):
    """The comparator at unit top eigenvalue applied to one grid state:
    apply_comparator's number-basis image, synthesized on the grid."""
    image = apply_comparator(spec, project(spec, psi))
    return GridWavefunction(psi.grid, synthesis(image[0], psi.grid))


def membership(spec, E, psi):
    """within_magnitude on the one row of psi's projection."""
    coeffs, residual = project(spec, psi)
    return within_magnitude(spec, E, (coeffs[0], residual[0]))


def test_spec_validation():
    with pytest.raises(ValueError):
        ComparatorSpec(s=0.0)
    with pytest.raises(ValueError):
        ComparatorSpec(s=-1.0)
    with pytest.raises(ValueError):
        ComparatorSpec(s=1.0, N=8)


def test_log2_closed_numbers():
    spec = ComparatorSpec(s=np.log(2.0))
    assert abs(spec.sigma - 0.5) < 1e-15
    # Eigenvalues halve with each excitation.
    assert abs(spec.eigenvalues[0] - 0.5) < 1e-15
    assert abs(spec.eigenvalues[3] - 0.0625) < 1e-15


@pytest.mark.parametrize("s", S_VALUES)
def test_truncation_tail_negligible(s):
    # The operator-norm bound sigma_s e^{-s(N+1)} on the part of the
    # comparator that the default basis cutoff discards.
    spec = ComparatorSpec(s=s)
    assert spec.eigenvalues[-1] * np.exp(-s) <= 1e-12


@pytest.mark.parametrize("s", S_VALUES)
def test_scalars_norm_and_trace(s):
    spec = ComparatorSpec(s=s)
    out = comparator_scalars(spec)
    assert abs(out["norm"] - spec.sigma) < 1e-15
    assert abs(out["trace"] - 1.0) < 1e-13
    out2 = comparator_scalars(spec, dimension=2)
    assert abs(out2["norm"] - spec.sigma ** 2) < 1e-15
    assert abs(out2["trace"] - 1.0) < 1e-13


@pytest.mark.parametrize("s", S_VALUES)
def test_position_norm_within_closed_bound(s):
    out = comparator_scalars(ComparatorSpec(s=s))
    assert out["aOmega_sq_measured"] <= out["aOmega_bound"] + 1e-10
    assert out["aOmega_sq_measured"] > 0.0


def position_comparator(spec):
    """q composed with the comparator, as a truncated number-basis matrix."""
    n = np.arange(spec.N)
    q = np.zeros((spec.N + 1, spec.N + 1))
    q[n, n + 1] = q[n + 1, n] = np.sqrt((n + 1) / 2.0)
    return q * spec.eigenvalues


def test_position_norm_is_the_exact_top_singular_value():
    # At s = 0.1 the norm of q composed with the comparator converges
    # slowly under power iteration (200 steps read 9.1e-9 low); the
    # reported value is the top eigenvalue of the Gram matrix, here by
    # an SVD of the truncated matrix.
    spec = ComparatorSpec(s=0.1, N=128)
    top = np.linalg.norm(position_comparator(spec), 2) ** 2
    measured = comparator_scalars(spec)["aOmega_sq_measured"]
    assert measured == pytest.approx(top, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", [16, 128])
@pytest.mark.parametrize("s", [0.1, 1.0, 3.0])
def test_position_norm_from_parity_blocks_is_the_full_gram_one(s, N):
    # The norm is taken from the even and odd blocks of the Gram matrix;
    # the eigenvalues of the whole matrix are those of the two blocks.
    spec = ComparatorSpec(s=s, N=N)
    qd = position_comparator(spec)
    full = np.linalg.eigvalsh(qd.T @ qd)[-1]
    measured = comparator_scalars(spec)["aOmega_sq_measured"]
    assert measured == pytest.approx(full, rel=1e-14, abs=0)


def test_bound_value_at_s_one():
    out = comparator_scalars(ComparatorSpec(s=1.0))
    assert abs(out["aOmega_bound"] - (1.0 - np.exp(-1.0)) ** 2) < 1e-15


@pytest.mark.parametrize("n", [0, 3, 10])
def test_eigenfunctions_scale_exactly(n):
    # Eigenvalues sigma_s e^{-s n} with sigma_s divided out.
    spec = ComparatorSpec(s=np.log(2.0))
    psi = hermite_state(n)
    out = smoothed(spec, psi)
    expected = GridWavefunction(GRID, np.exp(-spec.s * n) * psi.amp)
    assert out.distance(expected) < 1e-9


def test_normalized_comparator_fixes_ground_state():
    spec = ComparatorSpec(s=1.0)
    psi = hermite_state(0)
    out = smoothed(spec, psi)
    assert out.distance(psi) < 1e-10


def test_quadratic_form_strictly_between_zero_and_one():
    spec = ComparatorSpec(s=0.5)
    basis = hermite_functions(GRID.x, spec.N)
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = rng.normal(size=spec.N + 1) + 1j * rng.normal(size=spec.N + 1)
        c /= np.linalg.norm(c)
        psi = GridWavefunction(GRID, c @ basis)
        val = inner(psi, smoothed(spec, psi)).real
        assert 0.0 < val < 1.0


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("alpha", [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0),
                                   (2.0, 2.0), (3.0, -3.0)])
def test_coherent_diagonal_matches_closed_form(s, alpha):
    spec = ComparatorSpec(s=s)
    out = coherent_matrix_elements(spec, PhasePoint(*alpha))
    assert abs(out["diag_measured"] - out["diag"]) < 1e-8
    assert out["one_minus_measured"] <= out["one_minus_bound"] + 1e-8


def test_coherent_examples_at_log2():
    spec = ComparatorSpec(s=np.log(2.0))
    at_origin = coherent_matrix_elements(spec, PhasePoint(0.0, 0.0))
    assert abs(at_origin["diag"] - 0.5) < 1e-15
    assert abs(at_origin["inv_norm_sq"] - 4.0) < 1e-12
    # |alpha|^2 = 2 at displacement (2, 0); lambda_{2s} = 3.
    displaced = coherent_matrix_elements(spec, PhasePoint(2.0, 0.0))
    assert abs(coherent_label(PhasePoint(2.0, 0.0))) ** 2 == pytest.approx(2.0)
    assert abs(displaced["diag"] - 0.5 * np.exp(-1.0)) < 1e-15
    assert abs(displaced["diag"] - 0.18394) < 1e-5
    assert abs(displaced["inv_norm_sq"] - 4.0 * np.exp(6.0)) < 1e-9
    assert displaced["inv_norm_sq_measured"] == pytest.approx(
        displaced["inv_norm_sq"], rel=1e-8)


def test_one_minus_bound_needs_the_square_root():
    # The norm of (1 - comparator) applied to an off-center coherent state
    # genuinely exceeds 1 - sigma e^{-sigma |z|^2}; only the square root
    # of that expression is a valid bound.
    out = coherent_matrix_elements(ComparatorSpec(s=1.0), PhasePoint(1.0, 0.0))
    sigma = ComparatorSpec(s=1.0).sigma
    unrooted = 1.0 - sigma * np.exp(-sigma * 0.5)
    assert out["one_minus_measured"] > unrooted
    assert out["one_minus_measured"] <= np.sqrt(unrooted) + 1e-12


def test_inverse_norm_overflow_guard():
    spec = ComparatorSpec(s=2.0)
    with pytest.raises(OverflowGuardError):
        coherent_matrix_elements(spec, PhasePoint(30.0, 0.0))


def test_grid_diagonal_matches_closed_form():
    # The diagonal sigma e^{-sigma |z|^2} with sigma divided out.
    spec = ComparatorSpec(s=1.0)
    psi = coherent_state(1.2, -0.7)
    val = inner(psi, smoothed(spec, psi)).real
    z_sq = abs(coherent_label(PhasePoint(1.2, -0.7))) ** 2
    assert abs(val - np.exp(-spec.sigma * z_sq)) < 1e-8


def test_projection_residual_raises():
    spec = ComparatorSpec(s=1.0, N=16)
    psi = coherent_state(6.0, 0.0)
    with pytest.raises(BasisResidualError):
        smoothed(spec, psi)
    with pytest.raises(BasisResidualError):
        membership(spec, 1e12, psi)


def test_within_magnitude_ground_state():
    spec = ComparatorSpec(s=1.0)
    out = membership(spec, 1.0, hermite_state(0))
    assert out["member"] and not out["divergent"]
    assert abs(out["inv_norm"] - 1.0) < 1e-8


def test_within_magnitude_coherent():
    spec = ComparatorSpec(s=np.log(2.0))
    psi = coherent_state(2.0, 0.0)
    # Normalized inverse norm is e^{lambda_{2s} |z|^2 / 2} = e^3.
    out = membership(spec, 25.0, psi)
    assert not out["divergent"]
    assert out["inv_norm"] == pytest.approx(np.exp(3.0), rel=1e-6)
    assert out["member"]
    assert not membership(spec, 10.0, psi)["member"]


def test_within_magnitude_squeezed_divergence():
    spec = ComparatorSpec(s=1.0)
    origin = PhasePoint(0.0, 0.0)
    narrow = sample_on_grid(packet(origin, 10.0), GRID)
    mild = sample_on_grid(packet(origin, 1.1), GRID)
    vac = membership(spec, 1e6, hermite_state(0))
    squeezed = membership(spec, 1e6, narrow)
    assert squeezed["divergent"] and not squeezed["member"]
    assert squeezed["inv_norm"] > vac["inv_norm"]
    assert not membership(spec, 1e6, mild)["divergent"]


def membership_by_errstate(spec, E, projection):
    """within_magnitude as it was written before its two edge sums shared
    one exp: log 0 under np.errstate, and an exp per sum."""
    coeffs, residual = projection
    c_sq = np.abs(coeffs) ** 2
    c_sq[c_sq <= NOISE_FLOOR * np.sum(c_sq)] = 0.0
    const = _constants(spec, c_sq.ndim)
    with np.errstate(divide="ignore"):
        log_terms = np.log(c_sq) + const.growth
    seq = log_terms.ravel()[const.order]
    seq = seq[seq > -EXP_GUARD]
    divergent = False
    if seq.size >= 2 * EDGE_WINDOW:
        top = seq.max()
        edge = np.exp(seq[-EDGE_WINDOW:] - top).sum()
        divergent = bool(edge > EDGE_FRACTION * np.exp(seq - top).sum())
    if float(np.max(log_terms)) > EXP_GUARD:
        inv_norm, divergent = np.inf, True
    else:
        inv_norm = float(np.sqrt(np.sum(np.exp(
            log_terms[np.isfinite(log_terms)]))))
    return {"member": bool(not divergent and inv_norm <= E),
            "inv_norm": inv_norm, "divergent": divergent, "residual": residual}


@pytest.mark.parametrize("n", [1, 2])
def test_within_magnitude_is_the_errstate_form(n):
    # Packets on a lattice of centres and widths, some with noise that the
    # edge rule flags, a state of zeros and one past the exponent guard.
    grid, spec = ((GRID, ComparatorSpec(s=1.0)) if n == 1 else
                  (GridSpec(n=2, N=128, L=10.0), ComparatorSpec(s=1.0, N=32)))
    rng = np.random.default_rng(11)
    centres = rng.uniform(-2.5, 2.5, (12, 2 * n))
    amps = np.stack([sample_on_grid(packet(c, w * np.eye(n)), grid).amp
                     for c in centres for w in (0.5, 1.0, 3.0)])
    amps[::4] += 1e-7 * rng.normal(size=amps[::4].shape)
    coeffs = list(hermite_coefficients(spec, amps, grid)[0])
    coeffs += [np.zeros_like(coeffs[0]), np.ones_like(coeffs[0])]
    outcomes = set()
    for s, c in [(spec.s, c) for c in coeffs] + [(6.0, coeffs[-1])]:
        comp = ComparatorSpec(s=s, N=spec.N)
        for E in (2.0, 50.0):
            got = within_magnitude(comp, E, (c, 0.0))
            assert got == membership_by_errstate(comp, E, (c, 0.0))
            assert list(map(type, got.values())) == [bool, float, bool, float]
            outcomes.add((got["member"], got["divergent"],
                          got["inv_norm"] == np.inf))
    assert outcomes >= {(True, False, False), (False, True, False),
                        (False, True, True)}


@pytest.mark.parametrize("s", [np.log(2.0), 1.0])
@pytest.mark.parametrize("k", [0, 1])
def test_coherent_resolution_spot_check(s, k):
    # Quadrature of (lambda_s / pi) e^{-lambda_s |z|^2} |<h_k, Gamma(z)>|^2
    # over the disc |z| <= 6 of complex labels, against the diagonal
    # sigma_s e^{-s k} of the comparator.
    spec = ComparatorSpec(s=s)
    lam = np.exp(s) - 1.0
    u = np.linspace(-6.0, 6.0, 400)
    re, im = np.meshgrid(u, u, indexing="ij")
    r_sq = re ** 2 + im ** 2
    overlap_sq = np.exp(-r_sq) * r_sq ** k / np.prod(np.arange(1, k + 1))
    integrand = (lam / np.pi) * np.exp(-lam * r_sq) * overlap_sq
    value = np.sum(integrand[r_sq <= 36.0]) * (u[1] - u[0]) ** 2
    assert abs(value - spec.eigenvalues[k]) < 1e-4


def test_hermite_orthonormality_by_quadrature():
    h = hermite_functions(GRID.x, 40)
    assert h.dtype == np.float64
    gram = h @ h.T * GRID.dx
    assert np.max(np.abs(gram - np.eye(41))) < 1e-10


def test_basis_rejects_coarse_grid():
    spec = ComparatorSpec(s=1.0)
    psi = hermite_state(0, GridSpec(n=1, N=64, L=6.0))
    with pytest.raises(ValueError):
        project(spec, psi)


def test_two_dimensional_tensor_comparator():
    # The tensor product weighs h_j h_k by e^{-s (j + k)}, sigma^2
    # divided out: the vacuum is fixed and h_1 h_2 scales by e^{-3s}.
    grid2 = GridSpec(n=2, N=128, L=10.0)
    spec = ComparatorSpec(s=np.log(2.0), N=32)
    h = hermite_functions(grid2.x, 2)
    vac = GridWavefunction(grid2, np.outer(h[0], h[0]))
    assert smoothed(spec, vac).distance(vac) < 1e-9
    excited = GridWavefunction(grid2, np.outer(h[1], h[2]))
    expected = GridWavefunction(grid2, np.exp(-3.0 * spec.s) * excited.amp)
    assert smoothed(spec, excited).distance(expected) < 1e-9
    member = membership(spec, 1.0 + 1e-9, vac)
    assert member["member"]
    assert abs(member["inv_norm"] - 1.0) < 1e-8


def test_coefficients_of_displaced_vacuum_match_formula():
    spec = ComparatorSpec(s=1.0)
    psi = coherent_state(1.0, 1.0)
    coeffs, residual = project(spec, psi)
    assert coeffs.shape == (1, spec.N + 1) and residual.shape == (1,)
    assert residual[0] < 1e-10
    predicted = np.abs(coherent_coefficients(PhasePoint(1.0, 1.0), spec.N))
    assert np.max(np.abs(np.abs(coeffs[0]) - predicted)) < 1e-10


def explicit_projection(spec, psi):
    # The projection spelled out with the real basis, which numpy casts
    # to complex inside each product.
    grid = psi.grid
    h = hermite_functions(grid.x, spec.N)
    if grid.n == 1:
        return h @ psi.amp * grid.dx
    return h @ psi.amp @ h.T * grid.cell


@pytest.mark.parametrize("grid, spec", [
    (GRID, ComparatorSpec(s=1.0)),
    (GridSpec(n=2, N=128, L=10.0), ComparatorSpec(s=1.0, N=32)),
], ids=["1d", "2d"])
def test_projection_and_synthesis_are_bitwise_the_explicit_products(grid, spec):
    x = np.meshgrid(*([grid.x] * grid.n), indexing="ij")
    amp = (np.exp(-0.6 * sum(xi ** 2 for xi in x) + 0.4j * x[0] + 0.2 * x[-1])
           * (1.0 + 0.2j * x[0] ** 3 + 0.1 * x[-1] ** 2))
    psi = normalized(GridWavefunction(grid, amp))
    coeffs = explicit_projection(spec, psi)
    norm_sq = psi.norm ** 2
    residual = max(0.0, norm_sq - float(np.sum(np.abs(coeffs) ** 2))) / norm_sq
    for _ in range(2):  # the first call builds the basis, the second reuses it
        assert np.array_equal(project(spec, psi)[0][0], coeffs)
        assert project(spec, psi)[1][0] == residual
    # The comparator's image stays in the number basis: coeffs * e^{-s n}.
    image = apply_comparator(spec, project(spec, psi))
    assert np.array_equal(image[0], coeffs * number_weights(spec, grid.n))


@pytest.mark.parametrize("grid, spec", [
    (GRID, ComparatorSpec(s=1.0)),
    (GridSpec(n=2, N=64, L=10.0), ComparatorSpec(s=1.0, N=32)),
], ids=["1d", "2d"])
@settings(max_examples=12, deadline=None)
@given(rows=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
def test_stacked_projection_equals_the_per_state_one(grid, spec, rows, seed):
    # Row-exact: each row of a stacked projection, and the synthesis and
    # membership probe made from it, is bitwise the result for a stack of
    # that row alone, whatever the stack height.
    rng = np.random.default_rng(seed)
    amps = np.stack([sample_on_grid(packet(
        PhasePoint(*rng.uniform(-1.5, 1.5, (2, grid.n))),
        rng.uniform(0.6, 1.7)), grid).amp for _ in range(rows)])
    coeffs, residual = hermite_coefficients(spec, amps, grid)
    assert coeffs.shape == (rows,) + (spec.N + 1,) * grid.n
    assert residual.shape == (rows,)
    for row in range(rows):
        single = hermite_coefficients(spec, amps[row:row + 1], grid)
        assert np.array_equal(coeffs[row], single[0][0])
        assert residual[row] == single[1][0]
        assert np.array_equal(
            apply_comparator(spec, (coeffs[row:row + 1],
                                    residual[row:row + 1])),
            apply_comparator(spec, single))
        assert (within_magnitude(spec, 1e12, (coeffs[row], residual[row]))
                == within_magnitude(spec, 1e12, (single[0][0], single[1][0])))


def test_scalars_are_kept_per_dimension_and_returned_fresh():
    spec = ComparatorSpec(s=1.0)
    first = comparator_scalars(spec)
    first["aOmega_sq_measured"] = -1.0
    first["norm"] = 0.0
    again = comparator_scalars(spec)
    assert again == comparator_scalars(ComparatorSpec(s=1.0))
    assert again["aOmega_sq_measured"] > 0.0
    assert comparator_scalars(spec, dimension=2)["norm"] == spec.sigma ** 2


@pytest.mark.parametrize("grid, spec", [
    (GRID, ComparatorSpec(s=1.0)),
    (GridSpec(n=2, N=64, L=10.0), ComparatorSpec(s=1.0, N=32)),
], ids=["1d", "2d"])
@settings(max_examples=8, deadline=None)
@given(rows=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
def test_stacked_synthesis_equals_the_per_state_one(grid, spec, rows, seed):
    # apply_comparator on a stack is bitwise, on every row, the call on
    # the projection of a stack of that row alone.
    rng = np.random.default_rng(seed)
    amps = np.stack([sample_on_grid(packet(
        PhasePoint(*rng.uniform(-1.5, 1.5, (2, grid.n))),
        rng.uniform(0.6, 1.7)), grid).amp for _ in range(rows)])
    stacked = apply_comparator(spec, hermite_coefficients(spec, amps, grid))
    assert stacked.shape == (rows,) + (spec.N + 1,) * grid.n
    for row in range(rows):
        single = apply_comparator(
            spec, hermite_coefficients(spec, amps[row:row + 1], grid))
        assert np.array_equal(stacked[row:row + 1], single)


def test_stacked_synthesis_raises_for_its_first_row_outside_the_basis():
    # A far packet leaves a 17-function basis; in the middle of a stack
    # it raises the error of that row, and the rows before it synthesize
    # as they do alone.
    spec = ComparatorSpec(s=1.0, N=16)
    centres = [(0.2, 0.0), (0.0, -0.3), (4.0, 0.0), (0.1, 0.1), (0.0, 5.0)]
    amps = np.stack([sample_on_grid(packet(PhasePoint(*c), 1.0), GRID).amp
                     for c in centres])
    coeffs, residual = hermite_coefficients(spec, amps, GRID)
    assert list(residual > 1e-8) == [False, False, True, False, True]
    with pytest.raises(BasisResidualError) as single:
        apply_comparator(spec, hermite_coefficients(spec, amps[2:3], GRID))
    with pytest.raises(BasisResidualError) as stacked:
        apply_comparator(spec, (coeffs, residual))
    assert str(stacked.value) == str(single.value)
    head = apply_comparator(spec, (coeffs[:2], residual[:2]))
    for row in range(2):
        assert np.array_equal(head[row:row + 1], apply_comparator(
            spec, hermite_coefficients(spec, amps[row:row + 1], GRID)))
