"""Grid quantum mechanics on a periodic uniform lattice.

Wavefunctions live on [-L, L)^n with hbar = 1.  Evolution is Strang
split-operator with FFT kinetics, so it is unitary to rounding; position
shifts are spectral, exact for band-limited amplitudes.
A boundary-mass monitor guards the periodic wrap: experiments are valid
only while essentially no mass touches the edge bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import WraparoundError
from .hamiltonian import HamiltonianSpec, time_steps

BOUNDARY_TOL = 1e-10
NORM_TOL = 1e-12
# Memory bound of the block that propagate hands to its observer.
OBSERVE_BLOCK_BYTES = 1 << 20
CHECK_STRIDE = 100  # steps between propagate's boundary and norm checks


@dataclass(frozen=True)
class GridSpec:
    """A periodic uniform grid: N points per axis on [-L, L)^n."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if self.N < 4 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two, at least 4")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        """Per-axis sample positions -L + j dx."""
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def k(self) -> np.ndarray:
        """Per-axis conjugate momenta (FFT order, Nyquist-limited)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, self.dx)

    @cached_property
    def x_mesh(self) -> np.ndarray:
        """Position meshes stacked on the last axis, shape (N,)*n + (n,)."""
        grids = np.meshgrid(*([self.x] * self.n), indexing="ij")
        return np.stack(grids, axis=-1)

    @cached_property
    def k_mesh(self) -> np.ndarray:
        grids = np.meshgrid(*([self.k] * self.n), indexing="ij")
        return np.stack(grids, axis=-1)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return np.sum(self.k_mesh ** 2, axis=-1)

    @property
    def cell(self) -> float:
        """Volume element dx^n."""
        return self.dx ** self.n

    def holds_center(self, xi) -> bool:
        """Whether a packet centred at xi starts clear of the grid edge:
        |xi| <= 0.75 L on every axis."""
        return bool(np.max(np.abs(xi)) <= 0.75 * self.L)


DEFAULT_GRID = GridSpec(n=1, N=1024, L=20.0)


@dataclass(eq=False)
class GridWavefunction:
    """A complex amplitude sampled on a grid.  Treat instances as immutable."""

    grid: GridSpec
    amp: np.ndarray

    def __post_init__(self):
        expected = (self.grid.N,) * self.grid.n
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.shape != expected:
            raise ValueError(f"amplitude shape {self.amp.shape} != {expected}")

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2) * self.grid.cell))

    @property
    def is_unit(self) -> bool:
        return abs(self.norm - 1.0) <= NORM_TOL

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def normalized(self) -> "GridWavefunction":
        return GridWavefunction(self.grid, self.amp / self.norm)

    def inner(self, other: "GridWavefunction") -> complex:
        """L2 inner product <self, other>, conjugate-linear in self."""
        return complex(np.sum(np.conj(self.amp) * other.amp) * self.grid.cell)

    def distance(self, other: "GridWavefunction") -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp - other.amp) ** 2)
                             * self.grid.cell))

    def boundary_mass(self) -> float:
        """Mass in the outer max(2, N // 128) points of every axis."""
        band = max(2, self.grid.N // 128)
        dens = self.density
        mask = np.zeros_like(dens, dtype=bool)
        for axis in range(self.grid.n):
            sl = [slice(None)] * self.grid.n
            sl[axis] = slice(0, band)
            mask[tuple(sl)] = True
            sl[axis] = slice(self.grid.N - band, self.grid.N)
            mask[tuple(sl)] = True
        return float(np.sum(dens[mask]) * self.grid.cell)


@dataclass(eq=False)
class GridEvolution:
    """The final state of a split-operator run plus health telemetry."""

    final: GridWavefunction
    boundary_mass_max: float
    norm_drift: float


def potential_on_grid(spec: HamiltonianSpec, grid: GridSpec) -> np.ndarray:
    if spec.dimension != grid.n:
        raise ValueError("Hamiltonian and grid dimensions differ")
    return spec.potential.value(grid.x if grid.n == 1 else grid.x_mesh)


def propagate(spec: HamiltonianSpec, psi0: GridWavefunction, t_final: float,
              dt: float, observer=None,
              observe_stride: int = 1) -> GridEvolution:
    """Evolve psi0 under exp(-i h t) by Strang splitting.

    Each step applies exp(-iV dt/2) exp(-i p^2 dt/2m) exp(-iV dt/2); the
    scheme is norm-preserving and second order in dt.  The FFTs are
    scipy's in 1D (bitwise numpy's on supported builds, at lower call
    cost) and numpy's in 2D.  Only the final state is kept; the steps
    before it reach the caller through ``observer``.

    ``observer`` sees the run in blocks, so running measurements need no
    snapshot storage and can batch their work.  The amplitude after every
    step that is a multiple of ``observe_stride`` (step 0 excluded) is
    copied into a block buffer of at most OBSERVE_BLOCK_BYTES (64 rows in
    1D at N = 1024, 4 in 2D at N = 128, never fewer than one); when it is
    full, and once more for a final partial block, propagate calls
    observer(times, amps) with times of shape (rows,), times[i] = step * dt,
    and amps of shape (rows,) + (N,) * n, rows in step order.  Both are
    views of buffers reused for the next block: copy what must outlive
    the call.

    Raises
    ------
    WraparoundError
        When boundary-band mass exceeds BOUNDARY_TOL (checked upfront,
        every CHECK_STRIDE steps and at the end): grid too small.
    """
    steps, dt = time_steps(t_final, dt)
    if observe_stride < 1:
        raise ValueError("observe_stride must be at least 1")
    grid = psi0.grid
    v = potential_on_grid(spec, grid)
    half_v = np.exp(-0.5j * dt * v)
    kinetic = np.exp(-1j * dt * grid.k_squared / (2.0 * spec.mass))
    fft, ifft = ((scipy.fft.fft, scipy.fft.ifft) if grid.n == 1
                 else (np.fft.fft2, np.fft.ifft2))
    boundary_max = psi0.boundary_mass()
    if boundary_max > BOUNDARY_TOL:
        raise WraparoundError("initial state already touches the grid edge")
    amp = psi0.amp.copy()
    norm0 = psi0.norm
    norm_drift = 0.0
    if observer is not None:
        rows = max(1, OBSERVE_BLOCK_BYTES // amp.nbytes)
        block_times = np.empty(rows)
        block = np.empty((rows,) + amp.shape, dtype=complex)
        filled = 0
    for step in range(1, steps + 1):
        amp = half_v * ifft(kinetic * fft(half_v * amp))
        t = step * dt
        if observer is not None and step % observe_stride == 0:
            block_times[filled] = t
            block[filled] = amp
            filled += 1
            if filled == rows:
                observer(block_times, block)
                filled = 0
        if step % CHECK_STRIDE == 0 or step == steps:
            psi = GridWavefunction(grid, amp)
            boundary_max = max(boundary_max, psi.boundary_mass())
            norm_drift = max(norm_drift, abs(psi.norm - norm0))
            if boundary_max > BOUNDARY_TOL:
                raise WraparoundError(
                    f"boundary mass {boundary_max:.3g} at t = {t:.6g}; "
                    "enlarge the grid")
    if observer is not None and filled:
        observer(block_times[:filled], block[:filled])
    return GridEvolution(final=GridWavefunction(grid, amp),
                         boundary_mass_max=boundary_max, norm_drift=norm_drift)


def propagation_self_check(spec: HamiltonianSpec, psi0: GridWavefunction,
                           t_final: float, dt: float) -> float:
    """Distance between a dt and a dt/2 run; estimates the splitting error."""
    coarse = propagate(spec, psi0, t_final, dt).final
    fine = propagate(spec, psi0, t_final, dt / 2).final
    return coarse.distance(fine)


def expectation_a(psi, grid: GridSpec = None) -> np.ndarray:
    """Expectations (<q_1..q_n>, <p_1..p_n>) as a real 2n-vector.

    psi is a unit-norm GridWavefunction, or with ``grid`` a stack of B
    amplitudes of shape (B,) + (grid.N,) * n, for which the result is a
    (B, 2n) array.  A row whose norm is off 1 by more than NORM_TOL is
    normalised first, as GridWavefunction.normalized() does.  Momenta
    are spectral: in 1D <p> = Re <psi, -i d psi> with the derivative a
    Fourier multiplier (an FFT pair per state); in 2D by Parseval from
    one scipy FFT per state, <p_j> = sum_k k_j |psi_hat(k)|^2 dx^2 / N^2.
    """
    if grid is None:
        if not psi.is_unit:
            raise ValueError("expectation_a needs a unit-norm state")
        return _moments(psi.amp[None], psi.grid)[0]
    return _moments(np.asarray(psi, dtype=complex), grid)


def _moments(amps, grid):
    axes = tuple(range(-grid.n, 0))
    cell = grid.cell
    dens = np.abs(amps) ** 2
    norms = np.sqrt(np.sum(dens, axis=axes) * cell)
    off = np.abs(norms - 1.0) > NORM_TOL
    if np.any(off):
        amps = amps / np.where(off, norms, 1.0).reshape((-1,) + (1,) * grid.n)
        dens = np.abs(amps) ** 2
    if grid.n == 1:
        # Not Parseval in 1D: this form gives the same bits as the
        # per-state formula did, and under a harmonic V, where the
        # measured error is itself rounding (~1e-13), other rounding
        # would change that error by its own size.
        q = [np.sum(grid.x * dens, axis=-1) * cell]
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(amps))
        p = [np.sum(np.conj(amps) * -1j * dpsi, axis=-1).real * cell]
    else:
        # Axis marginals (sum over the other axis), one product per axis.
        power = np.abs(scipy.fft.fft2(amps)) ** 2 * (cell / grid.N ** 2)
        q = [np.sum(dens, axis=-1) @ grid.x * cell,
             np.sum(dens, axis=-2) @ grid.x * cell]
        p = [np.sum(power, axis=-1) @ grid.k, np.sum(power, axis=-2) @ grid.k]
    return np.stack(q + p, axis=-1)


def _row_norms(amps, grid: GridSpec) -> np.ndarray:
    """L2 norm of each state in a stack (B,) + (grid.N,) * n.

    Each row is one contiguous sum, so it is bitwise the norm of that
    row alone (GridWavefunction.norm).
    """
    flat = np.abs(amps.reshape(len(amps), grid.N ** grid.n)) ** 2
    return np.sqrt(np.sum(flat, axis=-1) * grid.cell)


def fourier_shift(psi: GridWavefunction, shift) -> GridWavefunction:
    """psi(x - shift) by Fourier phase ramp (exact for band-limited psi)."""
    grid = psi.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if grid.n == 1:
        amp = np.fft.ifft(np.fft.fft(psi.amp) * np.exp(-1j * grid.k * shift[0]))
    else:
        phase = np.exp(-1j * (grid.k_mesh[..., 0] * shift[0]
                              + grid.k_mesh[..., 1] * shift[1]))
        amp = np.fft.ifft2(np.fft.fft2(psi.amp) * phase)
    return GridWavefunction(grid, amp)


def _split_alpha(alpha, n):
    if hasattr(alpha, "xi"):
        return alpha.xi, alpha.pi
    vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    if vec.size != 2 * n:
        raise ValueError("alpha must supply 2n components")
    return vec[:n], vec[n:]


def weyl_displace(psi: GridWavefunction, alpha) -> GridWavefunction:
    """Phase-space displacement of psi by alpha = (xi, pi).

    (U(alpha)psi)(x) = e^{i pi.xi/2} e^{i pi.(x - xi)} psi(x - xi); the
    position shift is spectral, so arbitrary real xi is allowed.
    """
    xi, pi = _split_alpha(alpha, psi.grid.n)
    shifted = fourier_shift(psi, xi)
    grid = psi.grid
    if grid.n == 1:
        x = grid.x
        dot = pi[0] * (x - xi[0])
    else:
        dot = (grid.x_mesh[..., 0] - xi[0]) * pi[0] \
            + (grid.x_mesh[..., 1] - xi[1]) * pi[1]
    phase = np.exp(1j * (dot + 0.5 * float(np.dot(pi, xi))))
    return GridWavefunction(grid, phase * shifted.amp)


def _grid_values(f, grid, coords):
    if callable(f):
        vals = np.asarray(f(coords), dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
    if vals.shape != (grid.N,) * grid.n:
        raise ValueError("grid function has wrong shape")
    return vals


def _check_radial_growth(name, vals, radius):
    order = np.argsort(radius.ravel(), kind="stable")
    seq = vals.ravel()[order]
    finite = seq[np.isfinite(seq)]
    slack = 1e-9 * max(1.0, float(finite.max()) if finite.size else 1.0)
    with np.errstate(invalid="ignore"):
        diffs = np.diff(seq)
    # inf - inf produces nan on flat infinite tails; that is not a decrease.
    if np.any(diffs[~np.isnan(diffs)] < -slack):
        raise ValueError(f"{name} must be radially nondecreasing")


def _masked_expectation(vals, weights):
    # 0 * inf -> 0 where the density vanishes exactly.
    mask = weights > 0.0
    return float(np.sum(vals[mask] * weights[mask]))


def localization_check(psi_set, F, G):
    """Rellich-style compactness data for a family of states.

    For each psi returns a dict with norm^2, <F(Q)>, <G(P)> and a pass
    flag requiring all three at most 1.  F is a nonnegative, radially
    nondecreasing function of position given as an array on the grid or a
    callable of x; G likewise in momentum (FFT coordinate order).
    Infinite values are allowed and contribute 0 where the density
    vanishes identically.
    """
    psi_set = list(psi_set)
    if not psi_set:
        raise ValueError("need at least one state")
    grid = psi_set[0].grid
    x_coords = grid.x if grid.n == 1 else grid.x_mesh
    k_coords = grid.k if grid.n == 1 else grid.k_mesh
    f_vals = _grid_values(F, grid, x_coords)
    g_vals = _grid_values(G, grid, k_coords)
    if np.any(f_vals < 0) or np.any(g_vals < 0):
        raise ValueError("F and G must be nonnegative")
    _check_radial_growth("F", f_vals, np.sqrt(np.sum(grid.x_mesh ** 2, -1)))
    _check_radial_growth("G", g_vals, np.sqrt(np.sum(grid.k_mesh ** 2, -1)))
    results = []
    for psi in psi_set:
        if psi.grid != grid:
            raise ValueError("all states must share one grid")
        norm_sq = psi.norm ** 2
        f_exp = _masked_expectation(f_vals, psi.density) * grid.cell
        w = np.abs(np.fft.fftn(psi.amp)) ** 2
        total = float(np.sum(w))
        g_exp = _masked_expectation(g_vals, w) / total * norm_sq if total else 0.0
        passed = bool(norm_sq <= 1 + 1e-12 and f_exp <= 1 + 1e-12
                      and g_exp <= 1 + 1e-12)
        results.append({"norm_sq": norm_sq, "F_expect": float(f_exp),
                        "G_expect": float(g_exp), "passed": passed})
    return results


def construct_localizer(psi_set) -> np.ndarray:
    """A step function F of position with <psi, F(Q) psi> <= 1 for every member.

    Radii r_1 < r_2 < ... are chosen so every member's tail mass outside
    r_n is at most 4^{-n}; F takes the value 2^{m-2} on the m-th shell,
    which caps each expectation at 1/2 + sum_n 2^{n-1} 4^{-n} = 1.
    """
    psi_set = list(psi_set)
    if not psi_set:
        raise ValueError("need at least one state")
    grid = psi_set[0].grid
    for psi in psi_set:
        if abs(psi.norm - 1.0) > 1e-10:
            raise ValueError("localizer members must be unit vectors")
    radius = np.sqrt(np.sum(grid.x_mesh ** 2, axis=-1))
    order = np.argsort(radius.ravel(), kind="stable")
    # worst[i] = largest tail mass strictly outside the i-th sorted shell.
    tails = []
    for psi in psi_set:
        mass = psi.density.ravel()[order] * grid.cell
        tails.append(np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]]))
    worst = np.maximum.reduce(tails)
    f_flat = np.empty(radius.size)
    level = 1
    start = 0
    while start < radius.size:
        if worst[start] == 0.0:
            # No mass left outside: growing F further changes nothing.
            f_flat[order[start:]] = 2.0 ** (level - 2)
            break
        good = np.nonzero(worst[start:] <= 4.0 ** (-level))[0]
        stop = start + int(good[0]) + 1 if good.size else radius.size
        f_flat[order[start:stop]] = 2.0 ** (level - 2)
        start = stop
        level += 1
    return f_flat.reshape(radius.shape)
