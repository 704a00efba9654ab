"""Grid quantum mechanics on a periodic uniform lattice.

Wavefunctions live on [-L, L)^n with hbar = 1.  Evolution is Strang
split-operator with FFT kinetics, so it is unitary to rounding; position
shifts are spectral, exact for band-limited amplitudes.  Every
transform is numpy's pocketfft: the step's through the gufuncs that
numpy.fft wraps, which spares its Python wrapper on every step.
A boundary-mass monitor guards the periodic wrap: experiments are valid
only while essentially no mass touches the edge bands.  Each stacked
measurement has one routine: _row_norms, _edge_mass, _moment_sums
(1D moments), _marginal_sums (2D marginals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import WraparoundError
from .hamiltonian import HamiltonianSpec, time_steps

BOUNDARY_TOL = 1e-10
NORM_TOL = 1e-12
# Bounds of the block that propagate hands to its observer: its bytes,
# and its states, the bound that holds in 1D below N = 2048.  The state
# bound keeps a 1D run's block-sized buffers (observer block, scratch
# block, bound-stage temporaries) at 512 KiB each at N = 1024.
OBSERVE_BLOCK_BYTES = 1 << 20
OBSERVE_BLOCK_STATES = 32
CHECK_STRIDE = 100  # steps between propagate's boundary and norm checks
# numpy's threshold for running a product in place on a temporary operand.
ELIDE_BYTES = 1 << 18
# Bound of the row temporaries of a stacked measurement (_row_norms,
# _moment_sums, _marginal_sums): rows go a chunk at a time, each chunk's
# temporary within this many bytes, one row at least.
CHUNK_BYTES = 1 << 18


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
        """|k|^2 on the mesh, k_0^2 + k_1^2 in 2D by broadcast: the sum
        over k_mesh ** 2's last axis, with no mesh built."""
        square = self.k ** 2
        return square if self.n == 1 else square[:, None] + square[None, :]

    @property
    def cell(self) -> float:
        """Volume element dx^n."""
        return self.dx ** self.n

    @cached_property
    def edge(self) -> np.ndarray:
        """Mask of the outer max(2, N // 128) points of every axis, shape
        (N,) * n: the bands whose mass propagate watches."""
        width = max(2, self.N // 128)
        band = np.zeros(self.N, dtype=bool)
        band[:width] = band[-width:] = True
        return band if self.n == 1 else np.logical_or.outer(band, band)

    def holds_center(self, alpha) -> bool:
        """Whether a packet centred at the 2n-vector alpha = (xi, pi), or
        at every row of a (K, 2n) stack of them, starts inside the grid
        in phase space: |xi| <= 0.75 L and |pi| <= 0.75 pi / dx on every
        axis.  Past pi / dx (Nyquist) the grid aliases a momentum to
        another; the margin leaves room for the packet's spread."""
        alpha = np.asarray(alpha, dtype=float)
        return bool(np.max(np.abs(alpha[..., :self.n])) <= 0.75 * self.L
                    and np.max(np.abs(alpha[..., self.n:]))
                    <= 0.75 * np.pi / self.dx)


DEFAULT_GRID = GridSpec(n=1, N=1024, L=20.0)
# The refusal text for a start that fails GridSpec.holds_center.
OFF_GRID = ("starts too close to the grid edge or past 0.75 of its "
            "Nyquist momentum")


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
        return float(_row_norms(self.amp[None], self.grid)[0])

    @property
    def is_unit(self) -> bool:
        return abs(self.norm - 1.0) <= NORM_TOL

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def distance(self, other: "GridWavefunction") -> float:
        return float(_row_norms((self.amp - other.amp)[None], self.grid)[0])


@dataclass(eq=False)
class GridStack:
    """S amplitudes on one grid, shape (S,) + (N,) * n, that propagate
    runs as one stack; stack[i] is row i as a GridWavefunction.  Treat
    instances as immutable."""

    grid: GridSpec
    amps: np.ndarray

    def __post_init__(self):
        expected = (self.grid.N,) * self.grid.n
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != self.grid.n + 1 or self.amps.shape[1:] != expected:
            raise ValueError(f"stack shape {self.amps.shape} != (S,) + {expected}")

    @classmethod
    def of(cls, *states: GridWavefunction) -> "GridStack":
        """The stack of states on one grid, in the order given."""
        return cls(states[0].grid, np.stack([psi.amp for psi in states]))

    def __len__(self) -> int:
        return len(self.amps)

    def __getitem__(self, row: int) -> GridWavefunction:
        return GridWavefunction(self.grid, self.amps[row])


@dataclass(eq=False)
class GridEvolution:
    """The final stack of a split-operator run plus health telemetry:
    boundary_mass_max and norm_drift hold one value per row."""

    final: GridStack
    boundary_mass_max: np.ndarray
    norm_drift: np.ndarray


def potential_on_grid(spec: HamiltonianSpec, grid: GridSpec) -> np.ndarray:
    if spec.dimension != grid.n:
        raise ValueError("Hamiltonian and grid dimensions differ")
    return spec.potential.value(grid.x if grid.n == 1 else grid.x_mesh)


def propagate(spec: HamiltonianSpec, psi0: GridStack, t_final: float,
              dt: float, observer=None,
              observe_stride: int = 1) -> GridEvolution:
    """Evolve the S states of psi0 under exp(-i h t) by Strang splitting.

    Each step applies exp(-iV dt/2) exp(-i p^2 dt/2m) exp(-iV dt/2); the
    scheme is norm-preserving and second order in dt.  The FFTs are
    the pocketfft gufuncs behind np.fft.fft and ifft, bitwise numpy's
    without its Python wrapper, one axis at a time in np.fft.fft2's
    order (last axis first), and the step runs in place on one work
    buffer that the call owns, so the step itself allocates nothing.
    Only the final states are kept; earlier steps reach ``observer``.

    The rows of psi0 take each step together; one state runs as a stack
    of one (GridStack.of(psi)).  numpy transforms each row of a batched
    FFT as it would that row alone, and the table products take the
    operand order that one state's size sets, so each row is bitwise the
    run of that state alone.  Boundary mass and norm drift are tracked
    per row, on the whole stack at once: _edge_mass and _row_norms take
    one sum per row, so each row's telemetry is also a run alone's.

    ``observer`` sees the run in blocks, so running measurements need no
    snapshot storage and can batch their work.  The amplitude after every
    step that is a multiple of ``observe_stride`` (step 0 excluded) is
    copied into a block buffer of at most OBSERVE_BLOCK_BYTES and
    OBSERVE_BLOCK_STATES states, split across the stack (_block_rows: 32
    states in 1D at N = 1024, 4 in 2D at N = 128).  When it is full, and
    once more for a final partial block, propagate calls
    observer(times, amps) with times of shape (rows,), times[i] =
    step * dt, and amps of shape (S, rows) + (N,) * n, each row's states
    in step order.  Both are views of buffers reused
    for the next block: copy what must outlive the call.  propagate
    reads nothing back from the block, so an observer may overwrite the
    block it is handed (run_grid's bound stage does).

    Raises
    ------
    WraparoundError
        When the boundary-band mass of any row exceeds BOUNDARY_TOL
        (checked upfront, every CHECK_STRIDE steps and at the end): grid
        too small.
    """
    steps, dt = time_steps(t_final, dt)
    if observe_stride < 1:
        raise ValueError("observe_stride must be at least 1")
    grid = psi0.grid
    amp = psi0.amps.copy()
    # V is not kept: the step reads only half_v.
    half_v = np.exp(-0.5j * dt * potential_on_grid(spec, grid))
    kinetic = np.exp(-1j * dt * grid.k_squared / (2.0 * spec.mass))
    boundary_max = _edge_mass(amp, grid)
    if np.any(boundary_max > BOUNDARY_TOL):
        raise WraparoundError("initial state already touches the grid edge")
    work = np.empty_like(amp)
    # The tables broadcast over the rows of a stack; a stack of one steps
    # on its one state, where numpy's products skip the broadcast.
    state, state_work = (amp[0], work[0]) if len(amp) == 1 else (amp, work)
    # np.fft.fft and ifft(a, axis=x, out=a) call these with the same
    # arguments (ifft's factor is 1/N).  Read here: importing qreduce
    # loads no numpy.fft.
    pfu = np.fft._pocketfft_umath
    fft_axes = [[(axis,), (), (axis,)] for axis in range(-1, -grid.n - 1, -1)]
    # The written-out step ran on one state, so its size, not the
    # stack's, sets the operand order of the table products.
    result_first = amp[0].nbytes >= ELIDE_BYTES
    norm0 = _row_norms(amp, grid)
    norm_drift = np.zeros(len(amp))
    if observer is not None:
        block = _observer_block(grid, steps // observe_stride, len(amp))
        block = block.reshape((len(amp), -1) + block.shape[1:])
        block_rows = block.shape[1]
        block_times = np.empty(block_rows)
        filled = 0
    for step in range(1, steps + 1):
        # half_v * ifftn(kinetic * fftn(half_v * amp)), in place.
        np.multiply(half_v, state, out=state_work)
        for axes in fft_axes:
            pfu.fft(state_work, 1, axes=axes, out=state_work)
        _product(kinetic, state_work, state_work, result_first)
        for axes in fft_axes:
            pfu.ifft(state_work, 1.0 / grid.N, axes=axes, out=state_work)
        _product(half_v, state_work, state, result_first)
        t = step * dt
        if observer is not None and step % observe_stride == 0:
            block_times[filled] = t
            block[:, filled] = amp
            filled += 1
            if filled == block_rows:
                observer(block_times, block)
                filled = 0
        if step % CHECK_STRIDE == 0 or step == steps:
            # Each row's max(old, new) as Python's max takes it: new only
            # where it is the larger, so a NaN keeps what was there.
            edge = _edge_mass(amp, grid)
            np.copyto(boundary_max, edge, where=edge > boundary_max)
            drift = np.abs(_row_norms(amp, grid) - norm0)
            np.copyto(norm_drift, drift, where=drift > norm_drift)
            if np.any(boundary_max > BOUNDARY_TOL):
                first = boundary_max[np.argmax(boundary_max > BOUNDARY_TOL)]
                raise WraparoundError(
                    f"boundary mass {first:.3g} at t = {t:.6g}; "
                    "enlarge the grid")
    if observer is not None and filled:
        observer(block_times[:filled], block[:, :filled])
    return GridEvolution(final=GridStack(grid, amp),
                         boundary_mass_max=boundary_max, norm_drift=norm_drift)


def _observer_block(grid: GridSpec, states: int, stack: int = 1) -> np.ndarray:
    """An uninitialised complex array of (rows * stack,) + (N,) * n: the
    block in which propagate hands ``states`` observed states of each row
    of a ``stack`` on ``grid`` to its observer, rows per row as
    _block_rows gives them."""
    rows = _block_rows(grid, states, stack)
    return np.empty((rows * stack,) + (grid.N,) * grid.n, dtype=complex)


def _block_rows(grid: GridSpec, states: int, stack: int = 1) -> int:
    """The states of each row of a ``stack`` in propagate's observer block.

    A single run's block holds as many states as fit in
    OBSERVE_BLOCK_BYTES, but no more than OBSERVE_BLOCK_STATES (the cap
    that binds in 1D at N = 1024: 32 states of 16 KiB), no more than
    ``states`` and at least one.  A stack splits it evenly, one state
    per row at least.
    """
    state_bytes = np.dtype(complex).itemsize * grid.N ** grid.n
    rows = max(1, min(states, OBSERVE_BLOCK_STATES,
                      OBSERVE_BLOCK_BYTES // state_bytes))
    return max(1, rows // stack)


def _product(factor, temp, out, result_first: bool) -> None:
    """out = factor * temp, with the bits that expression has when temp
    is a fresh result: numpy's temporary elision runs it in place,
    result-first, once temp holds ELIDE_BYTES (``result_first``), and
    factor-first below that.  Complex products round differently in the
    two orders (FMA)."""
    if result_first:
        np.multiply(temp, factor, out=out)
    else:
        np.multiply(factor, temp, out=out)


def propagation_self_check(spec: HamiltonianSpec, psi0: GridWavefunction,
                           t_final: float, dt: float) -> float:
    """Distance between a dt and a dt/2 run; estimates the splitting error."""
    stack = GridStack.of(psi0)
    coarse = propagate(spec, stack, t_final, dt).final[0]
    fine = propagate(spec, stack, t_final, dt / 2).final[0]
    return coarse.distance(fine)


def expectation_a(psi, grid: GridSpec = None, work=None) -> np.ndarray:
    """Expectations (<q_1..q_n>, <p_1..p_n>) as a real 2n-vector.

    psi is a unit-norm GridWavefunction, or with ``grid`` a stack of
    amplitudes of shape lead + (grid.N,) * n, for which the result is a
    lead + (2n,) array, each row's moments those of that state alone.
    A row whose norm is off 1 by more than NORM_TOL is divided by its
    norm first.  Momenta are spectral:
    in 1D <p> = Re <psi, -i d psi> with the derivative a
    Fourier multiplier (an FFT pair per state); in 2D by Parseval from
    one 2D FFT per state, <p_j> = sum_k k_j |psi_hat(k)|^2 dx^2 / N^2.
    ``work``, a complex array of the stack's shape whose contents are
    not read, takes the spectra in place of a fresh array; the result
    has the same bits either way.
    """
    if grid is None:
        if not psi.is_unit:
            raise ValueError("expectation_a needs a unit-norm state")
        return _moments(psi.amp[None], psi.grid)[0]
    return _moments(np.asarray(psi, dtype=complex), grid, work)


def _moments(amps, grid, work=None):
    """The lead + (2n,) moments of a stack; the spectra go into ``work``,
    a complex array of the stack's shape, or a fresh one without it.

    The arithmetic is the per-block formula, taken a chunk of rows at a
    time so that no |psi|^2 array of the stack's size is made: with
    dens = |psi|^2 and each row's norm sqrt(sum dens * cell), a row off
    1 by more than NORM_TOL is divided by its norm (the stack is copied
    and measured again).  In 1D the moments are _moment_sums times the
    cell.  In 2D <q_j> is the axis marginal of dens (the sum over the
    other axis) times grid.x times the cell, and <p_j> the marginal of
    the power spectrum |fft2(psi)|^2 cell / N^2 times grid.k; the
    marginals come from _marginal_sums, and each product with grid.x or
    grid.k is one np.vecdot per row.  Every row is that row's alone.
    """
    lead = amps.shape[:-grid.n]
    flat = amps.reshape((-1,) + amps.shape[len(lead):])
    if work is not None:
        work = work.reshape(flat.shape)
    cell = grid.cell

    def measure(rows):
        # (mass, <q> and <p> sums) in 1D, (mass, the two marginals) in 2D.
        if grid.n == 1:
            return _moment_sums(rows, grid, work)
        return _marginal_sums(rows, grid)

    mass, *sums = measure(flat)
    norms = np.sqrt(mass * cell)
    off = np.abs(norms - 1.0) > NORM_TOL
    if np.any(off):
        flat = flat / np.where(off, norms, 1.0)[(...,) + (None,) * grid.n]
        mass, *sums = measure(flat)
    if grid.n == 1:
        moments = [s * cell for s in sums]
    else:
        q = [np.vecdot(marginal, grid.x) * cell for marginal in sums]
        spectrum = np.fft.fft2(flat, out=work)
        _, *p = _marginal_sums(spectrum, grid, cell / grid.N ** 2)
        moments = q + [np.vecdot(marginal, grid.k) for marginal in p]
    return np.stack(moments, axis=-1).reshape(lead + (2 * grid.n,))


def _marginal_sums(amps, grid: GridSpec, scale=None):
    """The axis marginals of dens = |amps|^2 over a 2D stack (B, N, N):
    (totals, sum over axis -1, sum over axis -2), each marginal (B, N).
    With ``scale``, dens is taken times it and totals is None; without,
    totals holds each row's sum of dens, the norm check's.

    dens is taken a chunk of rows at a time (_chunk_rows) in one buffer,
    as np.abs(amps) ** 2 (times scale) would give it whole; each row's
    sums are the whole stack's, since numpy sums each row alone.
    """
    row_bytes = np.dtype(float).itemsize * grid.N ** 2
    dens = np.empty((_chunk_rows(row_bytes, len(amps)),) + amps.shape[1:])
    totals = None if scale is not None else np.empty(len(amps))
    marginals = [np.empty((len(amps), grid.N)) for _ in range(2)]
    for rows in _chunks(len(amps), len(dens)):
        part = dens[:rows.stop - rows.start]
        np.abs(amps[rows], out=part)
        np.square(part, out=part)
        if totals is None:
            part *= scale
        else:
            np.sum(part, axis=(-2, -1), out=totals[rows])
        np.sum(part, axis=-1, out=marginals[0][rows])
        np.sum(part, axis=-2, out=marginals[1][rows])
    return [totals] + marginals


def _moment_sums(amps, grid: GridSpec, work=None, weights=()):
    """Row sums of a 1D stack (B, N): (sum |psi|^2, sum x |psi|^2,
    Re sum conj(psi) (-i dpsi)) and then sum f |psi|^2 for each position
    function f of ``weights``, each (B,).  dpsi = ifft(1j k fft(psi)) is
    taken in ``work``, of amps' shape, or in a fresh array without it.
    Not Parseval: this form keeps the bits of the per-state formula,
    and under a harmonic V the measured error is itself rounding
    (~1e-13), which other rounding would change.

    Every row temporary goes a chunk of rows at a time (_chunk_rows), in
    buffers of one chunk: |psi|^2, its products with x and with each f,
    and conj(psi) (-i) dpsi, with the operands in that order (complex
    products round differently in the other, FMA).  Each row sum is that
    row's alone, so it is the whole stack's.
    """
    if work is None:
        work = np.empty_like(amps)
    np.fft.fft(amps, out=work)
    # 1j * k is imaginary: either operand order rounds alike.
    work *= 1j * grid.k
    dpsi = np.fft.ifft(work, out=work)
    chunk = _chunk_rows(amps[0].nbytes, len(amps))
    term = np.empty((chunk, grid.N), dtype=complex)
    dens, moment = np.empty((chunk, grid.N)), np.empty((chunk, grid.N))
    weights = (grid.x,) + tuple(weights)
    mass, p = np.empty(len(amps)), np.empty(len(amps), dtype=complex)
    sums = np.empty((len(weights), len(amps)))
    for rows in _chunks(len(amps), chunk):
        size = rows.stop - rows.start
        np.abs(amps[rows], out=dens[:size])
        np.square(dens[:size], out=dens[:size])
        np.sum(dens[:size], axis=-1, out=mass[rows])
        for f, total in zip(weights, sums):
            np.multiply(f, dens[:size], out=moment[:size])
            np.sum(moment[:size], axis=-1, out=total[rows])
        np.conjugate(amps[rows], out=term[:size])
        np.multiply(term[:size], -1j, out=term[:size])
        np.multiply(term[:size], dpsi[rows], out=term[:size])
        np.sum(term[:size], axis=-1, out=p[rows])
    return (mass, sums[0], p.real, *sums[1:])


def _row_norms(amps, grid: GridSpec) -> np.ndarray:
    """L2 norm of each state in a stack (B,) + (grid.N,) * n: the
    package's one norm formula (GridWavefunction.norm reads it too).

    Each row is one contiguous sum, so it is bitwise the norm of that
    row alone.  |psi|^2 is taken a chunk of rows at a time (_chunk_rows)
    in one buffer, so no array of the stack's size is made.
    """
    flat = amps.reshape(len(amps), grid.N ** grid.n)
    row_bytes = np.dtype(float).itemsize * flat.shape[1]
    square = np.empty((_chunk_rows(row_bytes, len(flat)), flat.shape[1]))
    sums = np.empty(len(flat))
    for rows in _chunks(len(flat), len(square)):
        part = square[:rows.stop - rows.start]
        np.abs(flat[rows], out=part)
        np.square(part, out=part)
        np.sum(part, axis=-1, out=sums[rows])
    return np.sqrt(sums * grid.cell)


def _chunk_rows(row_bytes: int, rows: int) -> int:
    """Rows per chunk of a stacked measurement of ``rows`` rows whose
    temporary takes row_bytes a row: as many as CHUNK_BYTES holds, one
    at least and ``rows`` at most."""
    return max(1, min(rows, CHUNK_BYTES // row_bytes))


def _chunks(rows: int, step: int) -> list:
    """The slices that cover range(rows) in chunks of ``step`` rows."""
    return [slice(start, min(start + step, rows))
            for start in range(0, rows, step)]


def _edge_mass(amps, grid: GridSpec) -> np.ndarray:
    """Mass in the GridSpec.edge bands of each state in a stack.  One
    np.sum per row: one axis=-1 sum over the gathered bands is not each
    row's bits alone (1D N = 1024 at 9 rows, 2D N = 64 at 2)."""
    dens = np.abs(amps[:, grid.edge])
    np.square(dens, out=dens)
    return np.array([np.sum(row) for row in dens]) * grid.cell


def fourier_shift(psi: GridWavefunction, shift) -> GridWavefunction:
    """psi(x - shift) by Fourier phase ramp (exact for band-limited psi)."""
    grid = psi.grid
    phase = np.exp(-1j * np.sum(grid.k_mesh * shift, axis=-1))
    return GridWavefunction(grid, np.fft.ifftn(np.fft.fftn(psi.amp) * phase))


def weyl_displace(psi: GridWavefunction, alpha) -> GridWavefunction:
    """Phase-space displacement of psi by the 2n-vector alpha = (xi, pi),
    e.g. PhasePoint.vector.

    (U(alpha)psi)(x) = e^{i pi.xi/2} e^{i pi.(x - xi)} psi(x - xi); the
    position shift is spectral, so arbitrary real xi is allowed.
    """
    grid = psi.grid
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != 2 * grid.n:
        raise ValueError("alpha must supply 2n components")
    xi, pi = alpha[:grid.n], alpha[grid.n:]
    shifted = fourier_shift(psi, xi)
    dot = np.sum((grid.x_mesh - xi) * pi, axis=-1)
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
