"""Gaussian coherent packets and their metaplectic time evolution.

A packet is U(alpha) Gamma^M: a unit-norm Gaussian of complex symmetric
width matrix M, Re M positive definite, displaced to the phase-space
point alpha.  It is the one start state of a flow: width factors A = M
and B = I, phase 0, det B on branch 0.  The width evolves through the
linear (A, B) system driven by the Hamiltonian Hessian along a
classical trajectory, and M = B^{-1}A solves the corresponding Riccati
equation; from a normalizable start det B never vanishes.  The module
also accumulates the scalar phase X(t) and assembles the approximating
propagator W(t,0) = X U(alpha(t)) Z(t,0) U(alpha(0))*, which is exact
for Hamiltonians of degree at most two.

Phase conventions: the square root of det B is taken with branch
continuity, which carries the zero-point phase: each step's turn of
arg det B is the nearest angle, or where it may pass pi / 2, the turn
along the interpolated B (_assemble_series).
X multiplies the amplitude by exp(-i X_phase) with
X_phase(t) = int_0^t [h(alpha) - <h'(alpha), alpha>/2] ds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ClassicalTrajectory, _hermite
from .errors import NumericalError
from .grid import GridSpec, GridWavefunction, _chunk_rows, _chunks
from .hamiltonian import HamiltonianSpec, PhasePoint, energies
from .quadrature import cumulative_simpson

SYMMETRY_TOL = 1e-10
FACTOR_TOL = 1e-10
# Substeps of the interpolated det B path that _path_turns tries first
# and at most, and the largest turn it lets one substep take.
TURN_SUBSTEPS = 16
TURN_SUBSTEPS_MAX = 4096
TURN_RESOLVED = 0.25 * np.pi


def _as_matrix(value, n: int) -> np.ndarray:
    """An n x n complex matrix; a scalar w stands for w times the identity."""
    out = np.asarray(value, dtype=complex)
    if out.ndim == 0:
        return out * np.eye(n, dtype=complex)
    out = np.atleast_2d(out)
    if out.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix")
    return out


def _check_widths(M, A, B) -> None:
    """A packet's width checks over stacks of (M, A, B), shape (R, n, n).

    Raises, for the first failing row, a ValueError that names the first
    check that row fails: M, A and B finite, M symmetric, Re M positive
    definite, B M = A.
    """
    finite = np.all(np.isfinite(np.concatenate([M, A, B], axis=-1)),
                    axis=(-2, -1))
    asym = np.max(np.abs(M - np.swapaxes(M, -1, -2)), axis=(-2, -1))
    not_positive = np.any(np.linalg.eigvalsh(M.real) <= 0, axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
    residual = np.max(np.abs(B @ M - A), axis=(-2, -1))
    failed = np.array([~finite, asym > SYMMETRY_TOL, not_positive,
                       residual > FACTOR_TOL * scale])
    rows = np.flatnonzero(np.any(failed, axis=0))
    if rows.size:
        check = int(np.argmax(failed[:, rows[0]]))
        raise ValueError(("width matrix must be finite",
                          "width matrix must be symmetric",
                          "Re M must be positive definite",
                          "factors must satisfy M = B^(-1) A")[check])


def _amplitude_factor(n: int, norm_prefactor: float, det_b, angle: float,
                      phase: float) -> complex:
    """pi^{-n/4} norm_prefactor |det B|^{-1/2} e^{-i (angle / 2 + phase)},
    with angle the branch-tracked arg det B."""
    # abs() of the complex scalar: np.abs of an array of determinants
    # can differ from it in the last bit.
    norm = float(np.pi ** (-n / 4.0) / np.sqrt(abs(det_b)))
    return norm_prefactor * norm * np.exp(-1j * (0.5 * angle + phase))


@dataclass(eq=False)
class GaussianPacket:
    """The unit-norm packet U(alpha) Gamma^M: width factors A = M and
    B = I (det B = 1 on branch 0), phase 0, and the amplitude prefactor
    pi^{-n/4} norm_prefactor with norm_prefactor = det(Re M)^{1/4}."""

    alpha: PhasePoint
    M: np.ndarray

    def __post_init__(self):
        n = self.alpha.n
        self.M = _as_matrix(self.M, n)
        _check_widths(self.M[None], self.M[None],
                      np.eye(n, dtype=complex)[None])

    @property
    def norm_prefactor(self) -> float:
        return float(np.linalg.det(self.M.real)) ** 0.25

    @property
    def amplitude_factor(self) -> complex:
        return _amplitude_factor(self.alpha.n, self.norm_prefactor, 1.0, 0.0,
                                 0.0)


def vacuum() -> GaussianPacket:
    """The 1D unit-width packet Gamma(x) = pi^{-1/4} exp(-x^2/2) at the
    origin, packet((0, 0), 1)."""
    return packet(PhasePoint(0.0, 0.0), 1.0)


def packet(alpha, M) -> GaussianPacket:
    """The packet U(alpha) Gamma^M, alpha a PhasePoint or its vector."""
    if not isinstance(alpha, PhasePoint):
        alpha = PhasePoint.from_vector(alpha)
    return GaussianPacket(alpha, M)


def sample_on_grid(pkt: GaussianPacket, grid: GridSpec) -> GridWavefunction:
    """Evaluate the packet's closed form on a grid.

    The displacement follows (U(alpha)psi)(x) = e^{i pi.xi/2}
    e^{i pi.(x-xi)} psi(x-xi), matching the grid Weyl operator, so
    sampled packets and grid displacements compose consistently.  This
    is the stack of one of the formula _sample_flows evaluates for a
    block of trajectory steps, so both give the same bits.
    """
    if grid.n != pkt.alpha.n:
        raise ValueError("grid and packet dimensions differ")
    out = np.empty((1,) + (grid.N,) * grid.n, dtype=complex)
    _sample_rows(grid, pkt.alpha.xi[None], pkt.alpha.pi[None], pkt.M[None],
                 [pkt.amplitude_factor], out)
    return GridWavefunction(grid, out[0])


def _sample_rows(grid: GridSpec, xi, pi_m, M, factors, out) -> None:
    """Write the packet of each row (centre xi, pi_m of shape (R, n),
    width M of shape (R, n, n) and complex amplitude factor) into out,
    shape (R,) + (grid.N,) * n.

    Each element takes the arithmetic of a single packet.  In 1D the
    quadratic form and the phase are taken for all rows at once, in out
    and u; the exponentials go row by row, since block-sized complex
    temporaries raised the peak memory of a run.  2D goes one row at a
    time, in out[row] and row buffers that the call owns: u.M.u on
    broadcast axes, and the phase as the BLAS product u @ pi_m, whose
    bits a stacked form would not keep.  That product reads the mesh of
    u, which is built from the two axis differences by broadcast copies:
    they are the differences x_mesh - xi would take, so the same bits.
    The cross term t10 and the phase go a chunk of grid rows at a time
    (_chunk_rows, within grid.CHUNK_BYTES of complex term buffer), the
    mesh in the bytes of that buffer: each is elementwise, or a product
    per grid point, so chunks keep the bits.
    """
    if grid.n == 1:
        u = grid.x - xi
        np.multiply(-0.5 * M[:, 0], u, out=out)
        out *= u
        # u is not read again, so it turns into the phase pi u + pi xi / 2.
        u *= pi_m
        u += 0.5 * pi_m * xi
        for row in range(len(out)):
            out[row] = factors[row] * np.exp(out[row]) * np.exp(1j * u[row])
        return
    step = _chunk_rows(grid.N * out.itemsize, grid.N)
    chunks = _chunks(grid.N, step)
    term = np.empty((step, grid.N), dtype=complex)
    phase = np.empty(term.shape)
    for row, form in enumerate(out):
        # u_0 along axis 0 and u_1 along axis 1.
        u = ((grid.x - xi[row, 0])[:, None], (grid.x - xi[row, 1])[None, :])
        m = M[row]
        # u.M.u = ((0 + t00 + t01) + t10) + t11, t_ij = u_i M_ij u_j, the
        # order einsum("...i,ij,...j->...") sums it: the same bits at a
        # third of its cost.  t01 and t10 span the row, t00 and t11 an axis.
        np.multiply(u[0] * m[0, 1], u[1], out=form)
        np.add(0 + u[0] * m[0, 0] * u[0], form, out=form)
        t10 = u[1] * m[1, 0]
        for rows in chunks:
            cross = term[:rows.stop - rows.start]
            np.multiply(t10, u[0][rows], out=cross)
            form[rows] += cross
        form += u[1] * m[1, 1] * u[1]
        np.multiply(-0.5, form, out=form)
        np.exp(form, out=form)
        np.multiply(factors[row], form, out=form)
        shift = 0.5 * float(pi_m[row] @ xi[row])
        for rows in chunks:
            chunk = term[:rows.stop - rows.start]
            # The mesh of u over these grid rows lies in the bytes of
            # the term that it turns into.
            u_mesh = chunk.view(float).reshape(chunk.shape + (2,))
            np.copyto(u_mesh[..., 0], u[0][rows])
            np.copyto(u_mesh[..., 1], u[1])
            angle = phase[:len(chunk)]
            np.matmul(u_mesh, pi_m[row], out=angle)
            angle += shift
            np.multiply(1j, angle, out=chunk)
            np.exp(chunk, out=chunk)
            form[rows] *= chunk


@dataclass(eq=False)
class MetaplecticSeries:
    """(A, B, M) along a classical trajectory, with branch-tracked det B:
    one entry per trajectory sample, at the trajectory's times."""

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    detB_angle: np.ndarray


def evolve_AB(spec: HamiltonianSpec, traj: ClassicalTrajectory,
              M0=1.0) -> MetaplecticSeries:
    """Integrate the linear width system along a trajectory from the
    factors of the packet of width M0: A = M0 and B = I.

    The equations are A' = i B hxx - A hxp and B' = B hxp^T + i A hpp
    with the Hessian blocks of h evaluated at alpha(t); a fourth-order
    one-step scheme is used at the trajectory's own step, with midpoint
    states from the cubic Hermite interpolant.  M = B^{-1} A is recovered
    at every sample.  M0 is a number (times the identity) or an n x n
    matrix, symmetric with Re M0 positive definite, as a packet's width.

    Raises
    ------
    NumericalError
        If M loses symmetry or Re M positivity (at t = 0 for an M0 that
        is no packet's width), or det B turns too fast to track.
    """
    n = traj.n
    A = _as_matrix(M0, n)
    mids = _hermite(traj.states[:-1], traj.states[1:], traj.derivatives[:-1],
                    traj.derivatives[1:], traj.dt, 0.5)
    if n == 1:
        A_series, B_series = _evolve_scalar(spec, traj, mids, complex(A[0, 0]),
                                            1.0 + 0.0j)
    else:
        A_series, B_series = _evolve_matrix(spec, traj, mids, A,
                                            np.eye(n, dtype=complex))
    return _assemble_series(traj, A_series, B_series, spec.mass)


def _evolve_scalar(spec, traj, mids, a, b):
    # 1D fast path: only V''(xi) drives the system.
    pot = spec.potential
    vxx0 = np.asarray(pot.derivative(traj.xi[:, 0], 2), dtype=float)
    vxx_mid = np.asarray(pot.derivative(mids[:, 0], 2), dtype=float)
    inv_m = 1j / spec.mass
    dt = traj.dt
    steps = len(traj.times) - 1
    A_series = np.empty((steps + 1, 1, 1), dtype=complex)
    B_series = np.empty_like(A_series)
    A_series[0, 0, 0], B_series[0, 0, 0] = a, b
    for k in range(steps):
        h0 = 1j * vxx0[k]
        hm = 1j * vxx_mid[k]
        h1 = 1j * vxx0[k + 1]
        da1 = b * h0
        db1 = a * inv_m
        da2 = (b + 0.5 * dt * db1) * hm
        db2 = (a + 0.5 * dt * da1) * inv_m
        da3 = (b + 0.5 * dt * db2) * hm
        db3 = (a + 0.5 * dt * da2) * inv_m
        da4 = (b + dt * db3) * h1
        db4 = (a + dt * da3) * inv_m
        a = a + (dt / 6.0) * (da1 + 2 * da2 + 2 * da3 + da4)
        b = b + (dt / 6.0) * (db1 + 2 * db2 + 2 * db3 + db4)
        A_series[k + 1, 0, 0], B_series[k + 1, 0, 0] = a, b
    return A_series, B_series


def _evolve_matrix(spec, traj, mids, A, B):
    # The Hessian blocks of h are [[V''(xi), 0], [0, I/m]]; V'' is taken
    # once per sample and once per midpoint, in two stacked calls.
    dt = traj.dt
    steps = len(traj.times) - 1
    n = A.shape[0]
    A_series = np.empty((steps + 1, n, n), dtype=complex)
    B_series = np.empty_like(A_series)
    A_series[0], B_series[0] = A, B
    hxx_at = spec.potential.hessian(traj.xi)
    hxx_mid = spec.potential.hessian(mids[:, :n])
    hxp = np.zeros((n, n))
    hpp = np.eye(n) / spec.mass

    def rhs(hxx, A, B):
        return 1j * B @ hxx - A @ hxp, B @ hxp.T + 1j * A @ hpp

    for k in range(steps):
        h0, h_mid, h1 = hxx_at[k], hxx_mid[k], hxx_at[k + 1]
        dA1, dB1 = rhs(h0, A, B)
        dA2, dB2 = rhs(h_mid, A + 0.5 * dt * dA1, B + 0.5 * dt * dB1)
        dA3, dB3 = rhs(h_mid, A + 0.5 * dt * dA2, B + 0.5 * dt * dB2)
        dA4, dB4 = rhs(h1, A + dt * dA3, B + dt * dB3)
        A = A + (dt / 6.0) * (dA1 + 2 * dA2 + 2 * dA3 + dA4)
        B = B + (dt / 6.0) * (dB1 + 2 * dB2 + 2 * dB3 + dB4)
        A_series[k + 1], B_series[k + 1] = A, B
    return A_series, B_series


def _assemble_series(traj, A_series, B_series, mass) -> MetaplecticSeries:
    """Recover M, track the det B branch and enforce width invariants.

    Each step's turn of arg det B is read modulo 2 pi, then placed on its
    branch.  With hxp = 0 and hpp = I / m, d/dt log det B = (i / m) tr M,
    so arg det B turns at the rate Re tr M / m.  Re M stays positive
    definite from a packet's width, so det B never vanishes, and a narrow
    packet may turn it past pi / 2 in one step.  A step whose read turn,
    or whose trapezoid of that rate, passes pi / 2 takes as its winding
    the multiple of 2 pi nearest the turn of det B along the cubic
    Hermite interpolant of B (B' = i A / m at both ends, _path_turns).
    The trapezoid alone misjudges such a step: Re M peaks over a span
    shorter than the step, so a node on the peak overstates the turn
    and a peak between nodes hides it.  Every other step's winding is
    exactly 0.
    """
    times = traj.times
    raw = np.angle(np.linalg.det(B_series))
    jumps = np.diff(raw)
    jumps -= 2.0 * np.pi * np.round(jumps / (2.0 * np.pi))
    M_series = np.linalg.solve(B_series, A_series)
    asym = np.max(np.abs(M_series - np.swapaxes(M_series, 1, 2)), axis=(1, 2))
    bad = np.nonzero(asym > 1e-8)[0]
    if bad.size:
        raise NumericalError(
            f"width matrix lost symmetry at t = {times[bad[0]]:.6g}")
    M_series = 0.5 * (M_series + np.swapaxes(M_series, 1, 2))
    re_eigs = np.linalg.eigvalsh(M_series.real)
    bad = np.nonzero(np.any(re_eigs <= 0, axis=1))[0]
    if bad.size:
        raise NumericalError(
            f"Re M lost positivity at t = {times[bad[0]]:.6g}")
    rate = np.trace(M_series.real, axis1=1, axis2=2) / mass
    turn = 0.5 * np.diff(times) * (rate[1:] + rate[:-1])
    fast = np.nonzero((np.abs(jumps) > 0.5 * np.pi)
                      | (turn > 0.5 * np.pi))[0]
    if fast.size:
        path = _path_turns(times, A_series, B_series, mass, fast)
        jumps[fast] += 2.0 * np.pi * np.round(
            (path - jumps[fast]) / (2.0 * np.pi))
    angles = raw[0] + np.concatenate([[0.0], np.cumsum(jumps)])
    return MetaplecticSeries(A=A_series, B=B_series, M=M_series,
                             detB_angle=angles)


def _path_turns(times, A_series, B_series, mass, steps) -> np.ndarray:
    """The turn of arg det B over each of ``steps`` along the cubic
    Hermite interpolant of B, whose derivative B' = i A / m is known at
    both ends of a step.  The interpolant is sampled at TURN_SUBSTEPS
    substeps, four times as many for a step until no substep turns
    past TURN_RESOLVED, and the wrapped substep turns are summed.

    Raises NumericalError when a step stays unresolved at
    TURN_SUBSTEPS_MAX substeps: the time step is too coarse to track
    det B.
    """
    turns = np.empty(len(steps))
    todo = np.arange(len(steps))
    count = TURN_SUBSTEPS
    while todo.size:
        k = steps[todo]
        h = (times[k + 1] - times[k])[:, None, None]
        s = np.linspace(0.0, 1.0, count + 1)[:, None, None, None]
        path = _hermite(B_series[k], B_series[k + 1], 1j * A_series[k] / mass,
                        1j * A_series[k + 1] / mass, h, s)
        parts = np.diff(np.angle(np.linalg.det(path)), axis=0)
        parts -= 2.0 * np.pi * np.round(parts / (2.0 * np.pi))
        done = np.max(np.abs(parts), axis=0) <= TURN_RESOLVED
        turns[todo[done]] = np.sum(parts[:, done], axis=0)
        todo = todo[~done]
        count *= 4
        if todo.size and count > TURN_SUBSTEPS_MAX:
            raise NumericalError(
                f"det B turned too fast to track at t = "
                f"{times[steps[todo[0]] + 1]:.6g}; reduce dt")
    return turns


def phase_X(spec: HamiltonianSpec, traj: ClassicalTrajectory) -> np.ndarray:
    """Accumulated scalar phase X_phase(t_k) along the trajectory samples.

    X_phase(t) = int_0^t [h(alpha(s)) - <h^(1)(alpha(s)), alpha(s)>/2] ds,
    and the propagator factor is X = exp(-i X_phase).  For h homogeneous
    of degree two the integrand cancels identically, which is what makes
    the packet propagator exact there.  The gradient h^(1) = (V', pi/m)
    is read off traj.derivatives = (pi/m, -V'), which evolve_AB has
    already filled; sign flips are exact, so no bit changes.
    """
    n, velocity = traj.n, traj.derivatives
    if n == 1:
        xi = traj.xi[:, 0]
        integrand = spec.potential.value(xi) + 0.5 * velocity[:, 1] * xi
    else:
        grad = np.hstack([-velocity[:, n:], velocity[:, :n]])
        # A stack of row products: bitwise each row's grad @ state.
        dots = np.matmul(grad[:, None, :], traj.states[:, :, None])[:, 0, 0]
        integrand = energies(spec, traj.xi, traj.pi) - 0.5 * dots
    return cumulative_simpson(integrand, traj.dt)


@dataclass(eq=False)
class PacketFlow:
    """W(t,0) applied to a start packet, sampled along a trajectory: at
    step k the packet exp(-i X[k]) U(alpha(t_k)) Gamma^{M(t_k)}, with the
    series' factors and det B branch there and base's norm_prefactor.

    The checks a GaussianPacket makes of itself run once, at
    construction, over the whole flow: finite trajectory points, then
    the width checks on every step of the series, stacked.
    _sample_flows then checks nothing per step.
    """

    traj: ClassicalTrajectory
    base: GaussianPacket
    series: MetaplecticSeries
    X: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.traj.xi))
                and np.all(np.isfinite(self.traj.pi))):
            raise ValueError("phase point entries must be finite")
        _check_widths(self.series.M, self.series.A, self.series.B)


def _sample_flows(flows, steps, grid: GridSpec, out) -> None:
    """Write the packets of each flow at trajectory steps ``steps`` into
    its row of out, a contiguous complex array of shape
    (len(flows), len(steps)) + (grid.N,) * n, straight from the series,
    the phase and the trajectory with no packet built.  The rows of all
    flows go through one _sample_rows call, whose elements each take the
    arithmetic of a single packet, so step 0 is bitwise
    sample_on_grid(flows[f].base, grid).amp."""
    if any(grid.n != flow.traj.n for flow in flows):
        raise ValueError("grid and packet dimensions differ")
    steps = np.asarray(steps, dtype=int)
    factors, xi, pi_m, M = [], [], [], []
    for flow in flows:
        series, prefactor = flow.series, flow.base.norm_prefactor
        factors += [
            _amplitude_factor(grid.n, prefactor, det, float(angle), float(x))
            for det, angle, x in zip(np.linalg.det(series.B[steps]),
                                     series.detB_angle[steps], flow.X[steps])]
        xi.append(flow.traj.xi[steps])
        pi_m.append(flow.traj.pi[steps])
        M.append(series.M[steps])
    _sample_rows(grid, np.concatenate(xi), np.concatenate(pi_m),
                 np.concatenate(M), factors,
                 out.reshape((-1,) + out.shape[2:]))


def approximate_flow(spec: HamiltonianSpec, traj: ClassicalTrajectory,
                     psi0_packet: GaussianPacket) -> PacketFlow:
    """Evolve a packet with the approximating propagator along a trajectory.

    The input must be the packet U(alpha(0)) Gamma^{M0} centered on the
    trajectory's start; then W(t,0) applied to it is
    exp(-i X_phase(t)) U(alpha(t)) Gamma^{M(t)} with no leftover Weyl
    cocycle, which is what _sample_flows evaluates.
    """
    start = traj.point(0)
    if np.max(np.abs(psi0_packet.alpha.vector - start.vector)) > 1e-9:
        raise ValueError("packet must be centered at the trajectory start")
    series = evolve_AB(spec, traj, psi0_packet.M)
    return PacketFlow(traj=traj, base=psi0_packet, series=series,
                      X=phase_X(spec, traj))

