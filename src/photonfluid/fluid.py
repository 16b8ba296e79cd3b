"""Two-dimensional photon fluid: mean field, ground states, excitations.

The mean field obeys the nonlinear Schrödinger equation (ħ = 1 internally)

    i ∂_t Ψ₀ = [ −∇²/2m + Ṽ(r) + 𝒢 |Ψ₀|² ] Ψ₀

on a periodic grid, advanced by Strang-split spectral stepping (exact for
plane waves and for spatially uniform states).  Relative fluctuations
φ = δΨ/Ψ₀ follow the linearized equation

    i ∂_t φ = −[ ∇²/2m + (∇Ψ₀/Ψ₀)·∇/m ] φ + n𝒢 (φ + φ*)

whose uniform-background normal modes disperse as

    ω(k) = c_ex k √(1 + k²ξ²/4),   c_ex = √(n𝒢/m),   ξ = 1/(m c_ex).

Attractive interactions (𝒢m < 0) make c_ex imaginary: long modes grow
(modulational instability) and the dispersion is returned with an
imaginary part.  Fields live on a `Grid`, the one definition of shape,
spacing, box-centred coordinates and periodic wavenumbers; their sides are
powers of two (FFT friendly).

The split step of `evolve` and the imaginary-time step of `ground_state`
share one in-place kinetic kernel.  Each 2-D transform is two per-axis
`fft2(blk, axes=(a,), out=blk)` passes over disjoint blocks of the field,
and the inverse is taken as ifft2(y) = conj(fft2(conj y))/N, so no
transform allocates a field-sized array (`ifft2(f, out=f)` is not an
option: numpy's `ifft2` drops `out` and returns a new array).  A row pass
on blocks of whole rows applies the inverse row FFT, the conjugation, the
kick and the next step's forward row FFT; a column pass on blocks of whole
columns applies the forward column FFT, the conjugation and ×conj(kin)/N,
and the inverse column FFT.  A step is thus two joins and no other
synchronisation.  The kinetic factor is separable,
e^{−i dt k²/2m} = e^{−i dt kx²/2m} ⊗ e^{−i dt ky²/2m} (and likewise the
real e^{−dτ k²/2m} of imaginary time), so conj(kin)/N is applied as a kx
column carrying 1/N and a ky row, and no step holds a field-sized `kin`.
On grids of at least 2¹⁶ cells `evolve` runs the blocks
of each pass on a thread pool sized to the CPUs the process may use (at
most 8), since numpy's pocketfft releases the GIL; pocketfft's plan cache
takes no lock, so both side lengths are planned serially first.  Smaller
grids, where threads cost more than they save, and `ground_state`
(`_kinetic_step`) run the same kernel as one block in the calling thread.
Every transform is per row or per column and every kick sees the same
rows, so the result does not depend on the block count.

Every phase factor e^{iφ} of `evolve`, the kick's and the kinetic step's,
is built by `_expi_half` from t = tan(φ/2) as ((1 − t²) + 2it)/(1 + t²):
one transcendental per cell instead of a cos and a sin (or a complex
`exp`), exact to rounding for every finite φ.

The module also holds the numerical kernels every linear stage of the
package shares: `spectral_d` is the spectral derivative of a real field
along one of `Grid.k()`'s wavenumber grids; `rk4` is the one classical RK4
integrator (with a per-step finiteness check) and `rk4_power` its closed
form for constant-coefficient systems.  `rk4` steps one stacked state
array in place and allocates nothing per step: a right-hand side
`rhs(y, out)` writes its derivative into `out` (each a tuple of component
arrays), and the stages are summed in three buffers of the state's shape
(acc, the current stage and the stage input) allocated once per call.
`_linear_steps` is the one driver of the four linear steppers
(`linearized_step`, `hydro_linear_step`, `kg_evolve`, `step_lattice`):
each hands it either its right-hand side or its symbol, and its docstring
holds their stretch, record, power-cache and blow-up contract.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, field as _field
from functools import cache, partial

import numpy as np

from .errors import ConvergenceError, NumericalError, StepSizeError

__all__ = [
    "Grid",
    "ComplexField2D",
    "FluidParams",
    "MeasuredMode",
    "CollapseError",
    "evolve",
    "split_step_cfl",
    "gp_energy",
    "ground_state",
    "linearized_step",
    "bogoliubov_dispersion",
    "measure_dispersion",
    "uniform_background",
    "spectral_d",
    "rk4",
]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic nx×ny grid with spacings dx, dy.

    The one definition of the grid's geometry: coordinates are centered on
    the box, x = (i − nx//2)·dx and y = (j − ny//2)·dy, `k()` gives the
    angular wavenumbers in FFT order and `k_squared_axes()` their squares
    per axis, whose broadcast sum is `k_squared()` and whose largest sum is
    `k2_max`.  Nothing field-sized is cached, and the NLSE steps and
    `gp_energy` read only the per-axis squares.
    """

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("dx and dy must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def xy(self):
        """Coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def k(self):
        """Angular wavenumbers of the periodic grid in FFT order: kx as an
        (nx, 1) column and ky as a (1, ny) row."""
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        return kx[:, None], ky[None, :]

    def k_squared_axes(self):
        """kx² as an (nx, 1) column and ky² as a (1, ny) row."""
        kx, ky = self.k()
        return kx**2, ky**2

    def k_squared(self) -> np.ndarray:
        kx2, ky2 = self.k_squared_axes()
        return kx2 + ky2

    @property
    def k2_max(self) -> float:
        """k²ₘₐₓ = max kx² + max ky², the same double as the maximum of
        `k_squared()` (rounding is monotone), formed from the two axes."""
        kx2, ky2 = self.k_squared_axes()
        return float(np.max(kx2)) + float(np.max(ky2))


def spectral_d(f: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Spectral derivative real(ifft2(i·k·fft2 f)) of a real periodic field
    along the axis of `k`, one of the two grids of `Grid.k()`.  Taking the
    real part drops the Nyquist mode of an even side.  The result owns its
    float buffer; it does not keep the complex transform alive."""
    return np.fft.ifft2(1j * k * np.fft.fft2(f)).real.copy()


def rk4(rhs, y: np.ndarray, dt: float, first: int, last: int,
        what: str) -> np.ndarray:
    """Classical RK4 steps first+1 … last of dy/dt = rhs, in place on `y`.

    `y` is the state as one array, its components stacked along the first
    axis.  `rhs(y, out)` receives a state and an output buffer, each as a
    tuple of its component arrays, and writes the time derivative at that
    state into the components of `out` without changing the state.  Every
    step checks the state for finiteness and raises `NumericalError`
    naming `what` and the step, so a blow-up stops the run where it
    happens.

    The stages are summed as they come, acc = k1, then acc + 2k2, then
    acc + 2k3, and y + (dt/6)(acc + k4), each stage input being
    y + (0.5·dt)·k or y + dt·k: the operation order of k1 + 2k2 + 2k3 + k4.
    Besides `y` a call holds three buffers of its shape, allocated once:
    acc, the current stage and the stage input (which also takes 2k
    before it is added to acc), plus one boolean mask for the finiteness
    check.  Returns `y`.
    """
    acc, k, s = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    finite = np.empty(y.shape, bool)
    # component views are formed once, and the step scalars are 0-d
    # arrays, which a ufunc converts faster than Python numbers (same values)
    ys, accs, ks, ss = tuple(y), tuple(acc), tuple(k), tuple(s)
    half, two, full, sixth = map(np.array, (0.5 * dt, 2.0, dt, dt / 6.0))
    for step in range(first + 1, last + 1):
        rhs(ys, accs)
        np.add(y, np.multiply(half, acc, out=s), out=s)
        rhs(ss, ks)
        np.add(acc, np.multiply(two, k, out=s), out=acc)
        np.add(y, np.multiply(half, k, out=s), out=s)
        rhs(ss, ks)
        np.add(acc, np.multiply(two, k, out=s), out=acc)
        np.add(y, np.multiply(full, k, out=s), out=s)
        rhs(ss, ks)
        np.add(acc, k, out=acc)
        np.add(y, np.multiply(sixth, acc, out=acc), out=y)
        if not np.isfinite(y, out=finite).all():
            raise NumericalError(f"{what} non-finite at step {step}")
    return y


def _check_counts(steps: int, record_every: int = 0) -> None:
    """Refuse a negative step count or record stride with `ValueError`."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 0:
        raise ValueError(f"record_every must be >= 0, got {record_every}")


def _step_count(t: float, dt: float) -> int:
    """Steps of size about `dt` that cover a time `t`: ⌈t/dt⌉, at least
    one.  A non-finite t/dt (a dt so small that t/dt overflows, a zero dt,
    a NaN) is refused with `ValueError`."""
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        ratio = np.divide(t, dt)
    if not np.isfinite(ratio):
        raise ValueError(f"step count t/dt = {t!r}/{dt!r} is not finite")
    return max(1, int(np.ceil(ratio)))


def _linear_steps(y: np.ndarray, steps: int, dt: float, what: str,
                  power=None, apply=None, rhs=None, record=None,
                  record_every: int = 0):
    """Steps 1 … `steps` of size `dt` of a linear description's state `y`:
    the one stepping core of `linearized_step`,
    `geometry.hydro_linear_step`, `kgwave.kg_evolve` and
    `lattice.step_lattice`.

    `y` is the state as one array that the caller owns and hands over,
    its components (δn and δθ, say) stacked along the first axis.  A
    description is passed either as its general right-hand side
    `rhs(y, out)`, which writes dy/dt into `out` (both tuples of component
    arrays) and whose steps `rk4` takes in place on `y` in three buffers
    of its shape allocated once per call (naming the first step that
    leaves the finite range, "<what> non-finite at step <s>"), or as its
    constant-coefficient symbol: `power(n)` is the n-step RK4 propagator
    (a `rk4_power` of the generators) and `apply(P, y)` returns the state
    advanced by such a propagator as a tuple of new component arrays.  A
    power is formed once per distinct stretch length and never for an
    empty run, and a stretch that leaves the finite range raises
    `NumericalError("<what> non-finite after <last> steps")`, naming the
    last step of that stretch.

    The steps go in stretches that end at each positive multiple of
    `record_every` when `record` is given, each followed by
    `record(step, *y)` with the live components (views of the stacked
    state on the general path); step 0 and a partial last stretch are not
    recorded.  So a stepper's set-up runs once per call, and a sampled run
    equals one call per stretch bit for bit.  Returns the state, whose
    components unpack along the first axis; it is `y` itself when `steps`
    is 0 or the general path ran.
    """
    if rhs is None:
        power = cache(power)    # a sampled run repeats one stride
    every = record_every if record is not None else 0
    step = 0
    while step < steps:
        last = min(step + every, steps) if every else steps
        if rhs is not None:
            y = rk4(rhs, y, dt, step, last, what)
        else:
            y = apply(power(last - step), y)
            if not all(np.isfinite(a).all() for a in y):
                raise NumericalError(f"{what} non-finite after {last} steps")
        step = last
        if every and step % every == 0:
            record(step, *y)
    return y


def _apply_real_pair(p, y: tuple) -> tuple:
    """(a, b) ← ifft2(P · (fft2 a, fft2 b)) for a pair of real fields and
    the four entry arrays P = (p00, p01, p10, p11) of per-mode 2×2
    propagators; each result is an owned real copy, since a real view
    would keep the complex transform alive."""
    p00, p01, p10, p11 = p
    ak, bk = np.fft.fft2(y[0]), np.fft.fft2(y[1])
    return (np.fft.ifft2(p00 * ak + p01 * bk).real.copy(),
            np.fft.ifft2(p10 * ak + p11 * bk).real.copy())


@dataclass
class ComplexField2D:
    """Complex amplitudes on a `Grid` with power-of-two sides.

    `data` has shape `grid.shape`, C-order (the y index varies fastest).
    """

    grid: Grid
    data: np.ndarray
    meta: dict = _field(default_factory=dict)

    def __post_init__(self):
        if not (_is_pow2(self.grid.nx) and _is_pow2(self.grid.ny)):
            raise ValueError("nx and ny must be powers of two (FFT-friendly)")
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.shape != self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != {self.grid.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite entries")

    def norm_sq(self) -> float:
        """∫|Ψ|² dx dy on the grid."""
        d = self.data
        return float(np.vdot(d, d).real * self.grid.cell_area)

    def copy(self) -> "ComplexField2D":
        return ComplexField2D(self.grid, self.data.copy(), dict(self.meta))

    @classmethod
    def filled(cls, grid: Grid, value=0.0):
        return cls(grid, np.full(grid.shape, value, dtype=np.complex128))


@dataclass
class FluidParams:
    """Effective-fluid parameters: photon mass m (≠ 0, sign free), contact
    coupling G_kerr (sign free), trap potential V (scalar or grid array;
    any constant offset only produces a global phase and is bookkept away
    by the stepper).  ħ is fixed to 1."""

    m: float
    G_kerr: float
    V: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("photon mass must be nonzero")
        if isinstance(self.V, np.ndarray) and not np.all(np.isfinite(self.V)):
            raise ValueError("potential must be finite everywhere")

    def potential_grid(self, psi: ComplexField2D) -> np.ndarray:
        V = np.asarray(self.V, dtype=float)
        if V.ndim == 0:
            return np.full(psi.grid.shape, float(V))
        if V.shape != psi.grid.shape:
            raise ValueError("potential grid does not match the field grid")
        return V


# fewest grid cells on which `evolve` runs its blocks on threads: on two
# cores, two blocks tie with one at 2¹⁵ cells (1.6–2.0 against 1.6–1.7 ms
# per step at 128×256) and win from 2¹⁶ (2.8–3.2 against 3.4–4.0 at 256²)
_THREAD_CELLS = 1 << 16
# cells per kick chunk, the unit of a kick's scratch buffers
_KICK_CELLS = 1 << 13


def _workers() -> int:
    """CPUs this process may run on, at most 8."""
    try:
        return min(len(os.sched_getaffinity(0)), 8)
    except AttributeError:  # no affinity mask on this platform
        return min(os.cpu_count() or 1, 8)


def _row_pass(blk: np.ndarray, inverse: bool, kick, forward: bool) -> None:
    """Row pass of the split step on a block of whole rows, in place: with
    `inverse` the inverse row FFT and the conjugation that end the last
    kinetic step, then `kick()` unless it is None, then with `forward` the
    next kinetic step's forward row FFT.

    The per-axis transforms here and in `_column_pass` pass `s`, which
    spares numpy's shape lookup: without it the 4 calls per step, against
    2 for whole-grid transforms, made the one-block step 12–15% slower at
    64²."""
    if inverse:
        np.fft.fft2(blk, s=blk.shape[1:], axes=(1,), out=blk)
        np.conjugate(blk, out=blk)
    if kick is not None:
        kick()
    if forward:
        np.fft.fft2(blk, s=blk.shape[1:], axes=(1,), out=blk)


def _column_pass(blk: np.ndarray, factors) -> None:
    """Column pass of the split step on a block of whole columns, in place:
    the forward column FFT, the conjugation and ×conj(kin)/N, then the
    inverse column FFT.  conj(kin)/N is the product of `factors`, each
    broadcastable to the block and cut to its columns."""
    np.fft.fft2(blk, s=blk.shape[:1], axes=(0,), out=blk)
    # numpy would copy a block narrower than the grid through 3 × 8192
    # element ufunc buffers (0.38 of a 256² field per concurrent block);
    # with 256-element buffers it runs on the contiguous row stretches of
    # a 512² half (0.81 against 1.32 ms) and a real kin still casts fast
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(256)
        np.conjugate(blk, out=blk)
        for fac in factors:
            blk *= fac
    np.fft.fft2(blk, s=blk.shape[:1], axes=(0,), out=blk)


def _expi_half(half: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
    """out ← e^{iφ} for the half phases `half` = φ/2, in place, from
    t = tan(φ/2) as ((1 − t²) + 2it)/(1 + t²), with d = 2/(1 + t²),
    Re = d − 1 and Im = t·d: one transcendental per cell, where cos and sin
    are two (and each slower than tan).

    `half` is overwritten with t, and `d` is real scratch of the same shape,
    which may be `out.real`.  The form is exact to rounding for every
    finite φ: |tan| of a double is at most about 1.6e16, so t² cannot
    overflow, and φ → ±π gives −1.  A non-finite φ gives NaN, as cos and
    sin do.
    """
    t = np.tan(half, out=half)
    np.multiply(t, t, out=d)
    d += 1.0
    np.divide(2.0, d, out=d)
    np.multiply(t, d, out=out.imag)
    np.subtract(d, 1.0, out=out.real)


def _run_blocks(pool, block, n: int) -> None:
    """block(0) … block(n − 1): the first in the calling thread, the rest on
    `pool` (None when n is 1), each in a copy of the caller's context, so
    numpy's error state is the same in every block.  Every block is joined
    before the first error in block order is raised."""
    futures = [pool.submit(contextvars.copy_context().run, block, b)
               for b in range(1, n)]
    try:
        block(0)
    finally:
        for fut in futures:
            fut.exception()  # waits for the block without raising
    for fut in futures:
        fut.result()


def _kinetic_step(f: np.ndarray, *factors: np.ndarray) -> None:
    """f ← ifft2(kin · fft2 f) in place, for a contiguous complex field on a
    power-of-two grid; the `factors`, each broadcastable to f (a full grid,
    or a kx column and a ky row), multiply to conj(kin)/N, N = f.size.

    This is the split step's kernel as one block: the inverse is
    conj(fft2(conj(kin · fft2 f)))/N, and conj(kin)/N multiplies the
    conjugated spectrum, so every per-axis transform writes into `f`.
    """
    _row_pass(f, False, None, True)
    _column_pass(f, factors)
    _row_pass(f, True, None, False)


def split_step_cfl(psi: ComplexField2D, p: FluidParams, dt: float) -> float:
    """dt · max(|V| + |𝒢| max n, k²ₘₐₓ/2|m|): should stay ≤ 0.1.

    max n is (max |Ψ|)², the same double as the maximum of the field-sized
    n (rounding is monotone), and k²ₘₐₓ is `Grid.k2_max`."""
    if np.ndim(p.V):
        vmax = float(np.max(np.abs(p.potential_grid(psi))))
    else:
        vmax = abs(float(p.V))
    nmax = float(np.max(np.abs(psi.data))) ** 2
    rate = max(vmax + abs(p.G_kerr) * nmax, psi.grid.k2_max / (2.0 * abs(p.m)))
    return dt * rate


def evolve(
    psi: ComplexField2D,
    p: FluidParams,
    dt: float,
    steps: int,
    force: bool = False,
    record=None,
    record_every: int = 0,
) -> ComplexField2D:
    """Strang split-step spectral evolution over `steps` of size `dt`.

    Each step is a half potential+interaction kick, a full kinetic step in
    k-space and a half kick; periodic boundaries.  A kick only rotates the
    phase, so |Ψ|² and with it the kick itself carry over: a step's closing
    half kick and the next step's opening one are applied as one full kick.
    The kick is split back into two halves at each `record` step and at the
    last step.  The spatial mean of V is removed and the accumulated global
    phase is tracked in meta['phase_offset'].  Refuses step sizes violating
    the resolution precondition unless `force`, and a negative `steps` or
    `record_every` with `ValueError`.  Every kick checks the
    field for finiteness and raises `NumericalError` naming the step, so a
    blow-up stops the run where it happens.

    A step is a column pass and a row pass of the module's kinetic kernel,
    the kick inside the row pass between the inverse and the next forward
    row FFT: 4 `fft2` calls per block, each over one axis of one block.
    The field is cut into B row blocks and B column blocks, B = 1 below
    2¹⁶ cells and otherwise the CPUs this process may use, at most 8 and at
    most half the kick chunks; the blocks of a pass run at once, the first
    in the calling thread and the rest on a thread pool that lives for the
    call.  Every block is joined before an error leaves, the first in
    block order.  Kicks work through fixed chunks of 2¹³ cells with
    per-block scratch, so a step allocates no field-sized array, and row
    blocks are whole chunks, so the result is bitwise the same for any B.
    The ky factor is cut to each column block; applying it in the row
    pass instead, right after the forward row FFT, measured no faster.

    The kick forms the half phase −½τ(Ṽ + 𝒢|f|²) directly (halving is
    exact, so it is half of the phase's own rounding), and conj(kin)/N =
    e^{+i dt k²/2m}/N is the product of the column e^{+i dt kx²/2m}/N
    and the row e^{+i dt ky²/2m}, each built from its half phase over
    `Grid.k_squared_axes()`.  `_expi_half` turns each into e^{iφ} through
    tan(φ/2): one transcendental per cell, where cos and sin (or a
    complex `exp`) take two.  On a 2-core Xeon, the phase factors of a
    serial 512² kick take 2.1 ms against 4.8 ms for cos and sin.  The
    call holds the input, its evolving copy, the kick scratch and two
    1-D factors, so its peak is the copy plus the kick scratch (1.58
    fields at 256² on 2 blocks).

    `record(step, field)` is invoked every `record_every` steps with the
    state after that step, meta['phase_offset'] included.  The field shares
    the live buffer of the evolution: copy whatever is kept beyond the call.
    """
    _check_counts(steps, record_every)
    cfl = split_step_cfl(psi, p, dt)
    if cfl > 0.1 and not force:
        raise StepSizeError(
            f"dt too large: dt*rate = {cfl:.3g} > 0.1 (pass force=True to override)"
        )
    v_mean = float(np.mean(p.V))
    # a scalar V is a global phase only: no grid for it
    Vc = p.potential_grid(psi) - v_mean if np.ndim(p.V) else None
    # conj(kin)/N = e^{iφ}/N, φ = dt·k²/2m, as the product of the kx column
    # e^{iφx}/N and the ky row e^{iφy}, each built from its half phase
    # (dt·k²)·(1/2m)·½
    kins = []
    for k2 in psi.grid.k_squared_axes():
        half = k2 * dt
        half *= 0.25 / p.m
        e = np.empty(half.shape, complex)
        _expi_half(half, e.real, e)
        kins.append(e)
    kin_x, kin_y = kins
    kin_x *= 1.0 / psi.data.size
    G = p.G_kerr
    offset = psi.meta.get("phase_offset", 0.0)

    f = psi.data.copy()
    nx, ny = f.shape
    # kicks go chunk by chunk and row blocks are whole chunks, so every call
    # sees the same rows, and the result the same bits, at any block count;
    # a block holds at least two chunks, so that the blocks' kick scratch
    # stays within 3/4 of a field
    chunk = min(nx, max(1, _KICK_CELLS // ny))
    n_chunks = nx // chunk
    workers = _workers() if f.size >= _THREAD_CELLS else 1
    nb = max(1, min(workers, n_chunks // 2, ny))
    rows = [slice(b * n_chunks // nb * chunk, (b + 1) * n_chunks // nb * chunk)
            for b in range(nb)]
    cols = [slice(b * ny // nb, (b + 1) * ny // nb) for b in range(nb)]
    # per block, for one chunk: the kick's half phase, the real scratch of
    # `_expi_half` and the exponential
    bufs = [(np.empty((chunk, ny)), np.empty((chunk, ny)),
             np.empty((chunk, ny), complex)) for _ in range(nb)]

    def kick(b, tau, step):
        # f *= exp(−iτ(Ṽ + 𝒢|f|²)) on the rows of block b; `ph` holds |f|,
        # |f|², then the half phase −½τ(Ṽ + 𝒢|f|²), exactly half the phase
        ph, d, e = bufs[b]
        for a in range(rows[b].start, rows[b].stop, chunk):
            part = f[a:a + chunk]
            np.abs(part, out=ph)
            ph *= ph
            if not np.isfinite(ph.sum()):
                raise NumericalError(f"non-finite field in step {step} of {steps}")
            ph *= -0.5 * tau * G
            if Vc is not None:
                ph -= 0.5 * tau * Vc[a:a + chunk]
            _expi_half(ph, d, e)
            part *= e

    def row_block(b, inverse, tau, forward, step):
        _row_pass(f[rows[b]], inverse, partial(kick, b, tau, step), forward)

    def column_block(b):
        _column_pass(f[:, cols[b]], (kin_x, kin_y[:, cols[b]]))

    def field(f, step):
        meta = dict(psi.meta, phase_offset=offset + v_mean * dt * step)
        return ComplexField2D(psi.grid, f, meta)

    pool = None
    if nb > 1:
        # imported here: the import costs about 10 ms that small grids skip
        from concurrent.futures import ThreadPoolExecutor

        # pocketfft's plan cache takes no lock: build both plans serially
        for n in {nx, ny}:
            np.fft.fft(np.zeros(n, complex))
        pool = ThreadPoolExecutor(nb - 1)
    try:
        half = True  # the step opens with a half kick
        for step in range(1, steps + 1):
            if half:
                _run_blocks(pool, partial(row_block, inverse=False, tau=0.5 * dt,
                                          forward=True, step=step), nb)
            _run_blocks(pool, column_block, nb)
            snap = record is not None and record_every and step % record_every == 0
            half = snap or step == steps
            _run_blocks(pool, partial(row_block, inverse=True,
                                      tau=0.5 * dt if half else dt,
                                      forward=not half, step=step), nb)
            if snap:
                record(step, field(f, step))
    finally:
        if pool is not None:
            pool.shutdown()
    return field(f, steps)


def gp_energy(psi: ComplexField2D, p: FluidParams) -> float:
    """Gross-Pitaevskii energy ∫ [ |∇Ψ|²/2m + V|Ψ|² + (𝒢/2)|Ψ|⁴ ] dx dy.

    Holds one complex copy of the field: the spectrum is transformed and
    squared in it, Σk²|f̂|² is taken from its row and column sums against
    kx² and ky², and n = |Ψ|² then reuses its first half."""
    fk = np.array(psi.data, dtype=complex)  # a copy, also of a real field
    np.fft.fft2(fk, out=fk)
    a = np.square(fk.real, out=fk.real)
    a += np.square(fk.imag, out=fk.imag)  # |f̂|²
    kx2, ky2 = psi.grid.k_squared_axes()
    kin = (np.dot(kx2[:, 0], a.sum(axis=1)) + np.dot(ky2[0], a.sum(axis=0))) \
        / fk.size / (2.0 * p.m)
    n = fk.reshape(-1).view(float)[:fk.size].reshape(fk.shape)
    np.abs(psi.data, out=n)
    n *= n
    if np.ndim(p.V):
        pot = np.vdot(p.potential_grid(psi), n)
    else:
        pot = float(p.V) * n.sum()
    inter = 0.5 * p.G_kerr * np.vdot(n, n)
    return float((kin + pot + inter) * psi.grid.cell_area)


def _normalize(data: np.ndarray, target: float, area: float) -> np.ndarray:
    cur = np.sum(np.abs(data) ** 2) * area
    return data * np.sqrt(target / cur)


class CollapseError(ConvergenceError):
    """Attractive collapse: no stable ground state at this resolution."""

    def __init__(self, peak, heal):
        super().__init__(
            f"no stable ground state: collapse detected (peak density {peak:.3g}, "
            f"healing length {heal:.3g} below grid resolution)"
        )


# imaginary-time steps `ground_state` takes before it gives up
_GS_MAX_ITER = 200_000


def ground_state(p: FluidParams, n_total: float, grid: Grid) -> ComplexField2D:
    """Imaginary-time ground state with ∫|Ψ₀|² = n_total.

    Descends the energy with norm restoration each step, at the fixed
    dτ = 0.25/max(k²ₘₐₓ/2m, |𝒢|n_total/area + max|V| + 1), until the
    relative energy change per step drops below 1e-10 (read every 10
    steps, over at most 200 000 steps).  Negative-mass parameters are
    handled through the conjugation map (m, V, 𝒢) → (−m, −V, −𝒢), under
    which Ψ* solves the original equation.  Attractive collapse (density
    piling up until the local healing length falls below the grid) raises
    instead of silently returning garbage.
    """
    if p.m < 0:
        Vneg = -np.asarray(p.V) if isinstance(p.V, np.ndarray) else -p.V
        conj = FluidParams(m=-p.m, G_kerr=-p.G_kerr, V=Vneg)
        gs = ground_state(conj, n_total, grid)
        gs.data = np.conj(gs.data)
        return gs

    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    psi = ComplexField2D.filled(grid, 1.0)
    V = p.potential_grid(psi)
    if np.ptp(V) > 0:
        # trapped start: isotropic gaussian at the potential minimum
        X, Y = grid.xy()
        i0 = np.unravel_index(np.argmin(V), V.shape)
        w = max(4 * max(dx, dy), 0.5 * min(nx * dx, ny * dy) / 8)
        psi.data = np.exp(-(((X - X[i0]) ** 2 + (Y - Y[i0]) ** 2) / (2 * w * w)))
    # complex even for the real trapped start: the kinetic step is in place
    psi.data = _normalize(np.asarray(psi.data, dtype=np.complex128), n_total,
                          grid.cell_area)

    kx2, ky2 = grid.k_squared_axes()
    dtau = 0.25 / max(grid.k2_max / (2 * p.m), abs(p.G_kerr) * n_total
                      / (nx * dx * ny * dy) + float(np.max(np.abs(V))) + 1.0)
    # real, so its own conjugate: the kinetic step's conj(kin)/N as a kx
    # column e^{−dτ kx²/2m}/N and a ky row e^{−dτ ky²/2m}
    kin_x = np.exp(-dtau * kx2 / (2.0 * p.m)) / psi.data.size
    kin_y = np.exp(-dtau * ky2 / (2.0 * p.m))
    Vc = V - float(np.mean(V))

    e_prev = gp_energy(psi, p)
    peak0 = float(np.max(np.abs(psi.data) ** 2))
    attractive = p.G_kerr < 0
    f = psi.data
    for it in range(1, _GS_MAX_ITER + 1):
        f *= np.exp(-0.5 * dtau * (Vc + p.G_kerr * (f.real**2 + f.imag**2)))
        _kinetic_step(f, kin_x, kin_y)
        f *= np.exp(-0.5 * dtau * (Vc + p.G_kerr * (f.real**2 + f.imag**2)))
        f = _normalize(f, n_total, grid.cell_area)
        if attractive and it % 2 == 0:
            peak = float(np.max(f.real**2 + f.imag**2))
            if not np.isfinite(peak):
                raise CollapseError(np.inf, 0.0)
            heal = 1.0 / np.sqrt(2.0 * p.m * abs(p.G_kerr) * peak)
            if peak > 25.0 * peak0 and heal < 2.0 * max(dx, dy):
                raise CollapseError(peak, heal)
        if it % 10 == 0 or it == _GS_MAX_ITER:
            psi.data = np.ascontiguousarray(f)
            e = gp_energy(psi, p)
            if not np.isfinite(e):
                raise ConvergenceError("imaginary time diverged (non-finite energy)")
            if abs(e - e_prev) < 1e-10 * max(abs(e), 1e-30) * 10:
                # per-step change is ~1/10 of the 10-step change
                psi.data = np.ascontiguousarray(f)
                return psi
            e_prev = e
    raise ConvergenceError(
        f"imaginary time did not converge in {_GS_MAX_ITER} steps "
        f"(last E={e_prev:.6e})"
    )


def is_uniform(*fields) -> bool:
    """True when every field equals its first entry to 1e-12 of the largest
    magnitude among all of them (all-zero fields are uniform; NaN is not).

    The linear stages take their closed forms only where this holds.  The
    scale has no additive floor: a floor's product with 1e-12 underflows.
    """
    scale = max(float(np.max(np.abs(f))) for f in fields)
    return all(float(np.max(np.abs(f - f.flat[0]))) <= 1e-12 * scale
               for f in fields)


def rk4_power(z, steps: int):
    """R(Z)^steps for the classical RK4 stability polynomial
    R(Z) = I + Z + Z²/2 + Z³/6 + Z⁴/24, elementwise over a grid of modes.

    `z` is either one array of scalar generators dt·λ or the four entry
    arrays (z00, z01, z10, z11) of a stack of 2×2 generators dt·M; the
    result has the same form.  One RK4 step of dy/dt = λy (or M y)
    multiplies y by R, so R^steps advances a constant-coefficient linear
    system by `steps` steps, equal to stepping up to roundoff: the RK4
    polynomial stands where an exponential integrator would put exp(Z).
    R is raised to `steps` (>= 1; `_linear_steps` forms no power for an
    empty run) by binary powering in numpy arithmetic, so an unstable mode
    overflows to inf for the caller's finiteness check and a decayed one
    underflows to zero.
    """
    if isinstance(z, tuple):
        z00, z01, z10, z11 = z

        def mul(a, b):
            return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                    a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

        # R = I + Z(I + Z/2(I + Z/3(I + Z/4))), innermost factor first
        r = (1 + z00 / 4, z01 / 4, z10 / 4, 1 + z11 / 4)
        for j in (3, 2, 1):
            zr = mul(z, r)
            r = (1 + zr[0] / j, zr[1] / j, zr[2] / j, 1 + zr[3] / j)
    else:
        z = np.asarray(z, complex)
        r = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
        mul = np.multiply

    out = None
    with np.errstate(under="ignore"):
        while steps > 0:
            if steps & 1:
                out = r if out is None else mul(out, r)
            steps >>= 1
            if steps:
                r = mul(r, r)
    return out


def linearized_step(
    dphi: ComplexField2D,
    psi0: ComplexField2D,
    p: FluidParams,
    dt: float,
    steps: int = 1,
    record=None,
    record_every: int = 0,
) -> ComplexField2D:
    """Advance the relative fluctuation φ on a stationary background Ψ₀.

    RK4 in time, spectral derivatives in space.  The background enters
    through n = |Ψ₀|² and ∇Ψ₀/Ψ₀, so Ψ₀ must stay clear of zeros (a
    min|Ψ₀| below 1e-10·max|Ψ₀| is refused with `ValueError`); fields
    with nodes or vortex cores belong to the masked-region machinery of
    the geometry layer, not here.

    On a uniform or plane-wave background (n𝒢 and ∇Ψ₀/Ψ₀ both uniform) the
    operator is diagonal in k up to the pairing of a_k with a*_{−k}, so
    each pair is advanced by the 2×2 RK4 amplification matrix raised to
    the number of steps (`rk4_power`); this equals stepping up to
    roundoff.  On any other background `rk4` steps the field, and each
    stage takes one `fft2` of φ and one batched `ifft2` of its three
    derivatives (−k²φ̂, ikₓφ̂, ik_yφ̂).

    `record(step, field)` is invoked every `record_every` steps with the
    state after that step; a negative `steps` or `record_every` is refused
    with `ValueError`.  The background set-up runs once per call; the
    stretches, the record steps, the matrix powers and the blow-up report
    are those of `_linear_steps`.  The field shares the live buffer of the
    evolution: copy whatever is kept beyond the call.
    """
    _check_counts(steps, record_every)
    amp = np.abs(psi0.data)
    if float(np.min(amp)) < 1e-10 * float(np.max(amp)):
        raise ValueError(
            "background amplitude has (near-)zeros; use the geometry module's "
            "masked-region handling for fields with nodes or vortex cores"
        )
    grid = psi0.grid
    kx, ky = grid.k()
    k2 = grid.k_squared()
    f0k = np.fft.fft2(psi0.data)
    gx = np.fft.ifft2(1j * kx * f0k) / psi0.data
    gy = np.fft.ifft2(1j * ky * f0k) / psi0.data
    nG = (amp**2) * p.G_kerr
    inv2m = 1.0 / (2.0 * p.m)
    invm = 1.0 / p.m

    power = apply = rhs = None
    if is_uniform(gx, gy) and is_uniform(nG):
        # dφ/dt = ifft2(kmul·fft2 φ) − ic(φ + φ*): with a = fft2 φ and
        # b_k = a*_{−k}, d(a, b)_k/dt = M_k (a, b)_k for each wavevector
        kmul = 1j * (inv2m * (-k2) + invm * (gx.flat[0] * 1j * kx
                                             + gy.flat[0] * 1j * ky))
        c = nG.flat[0]
        neg = (-np.arange(grid.nx) % grid.nx)[:, None], \
            (-np.arange(grid.ny) % grid.ny)[None, :]
        zc = dt * 1j * c
        z = (dt * kmul - zc, -zc, zc, dt * np.conj(kmul[neg]) + zc)

        def power(n):
            return rk4_power(z, n)[:2]

        def apply(pw, y):
            a = np.fft.fft2(y[0])
            return (np.fft.ifft2(pw[0] * a + pw[1] * np.conj(a[neg])),)
    else:
        mk2, ikx, iky, inG = -k2, 1j * kx, 1j * ky, 1j * nG
        i1, inv2m, invm = map(np.array, (1j, inv2m, invm))
        spec = np.empty((3,) + grid.shape, complex)

        def rhs(y, out):
            # (−k², ikₓ, ik_y)·fft2 φ, taken back by one batched ifft2
            (phi,), (rate,) = y, out
            phik = np.fft.fft2(phi)
            np.multiply(mk2, phik, out=spec[0])
            np.multiply(ikx, phik, out=spec[1])
            np.multiply(iky, phik, out=spec[2])
            lap, dx, dy = np.fft.ifft2(spec)
            # 1j(inv2m·lap + invm(gx·dx + gy·dy)) − 1j·nG(φ + φ*)
            np.multiply(gx, dx, out=dx)
            np.add(dx, np.multiply(gy, dy, out=dy), out=dx)
            np.multiply(invm, dx, out=dx)
            np.add(np.multiply(inv2m, lap, out=lap), dx, out=lap)
            np.multiply(i1, lap, out=rate)
            np.add(phi, np.conjugate(phi, out=dy), out=dy)
            np.subtract(rate, np.multiply(inG, dy, out=dy), out=rate)

    def emit(step, f):
        record(step, ComplexField2D(dphi.grid, f, dict(dphi.meta)))

    (f,) = _linear_steps(dphi.data[None].copy(), steps, dt,
                         "fluctuation field", power, apply, rhs,
                         None if record is None else emit, record_every)
    return ComplexField2D(dphi.grid, f, dict(dphi.meta))


def bogoliubov_dispersion(k, n: float, p: FluidParams):
    """Excitation frequency ω(k) = √[ (k²/2m)² + (n𝒢/m) k² ].

    Equals c_ex·k·√(1 + k²ξ²/4) in the repulsive case.  For n𝒢/m < 0 the
    root is taken in the complex plane: long wavelengths come back with a
    positive imaginary part (modulational growth rate).
    """
    k = np.asarray(k, dtype=float)
    eps = k * k / (2.0 * p.m)
    w2 = eps * eps + (n * p.G_kerr / p.m) * k * k
    out = np.sqrt(w2.astype(complex))
    return complex(out) if out.ndim == 0 else out


def uniform_background(grid: Grid, density=1.0, flow_mode=(0, 0)) -> ComplexField2D:
    """Uniform density √n with an optional quantized flow phase e^{i k₀·r}.

    `flow_mode` counts reciprocal-lattice quanta, so the state is exactly
    periodic; the flow velocity is ħk₀/m for the consumer's mass.  The
    state is built as √n · e^{ik₀ₓx} ⊗ e^{ik₀ᵧy} from a column and a row.
    """
    amp = np.sqrt(density)
    mx, my = flow_mode
    if not (mx or my):
        return ComplexField2D.filled(grid, amp)
    k0x = 2.0 * np.pi * mx / (grid.nx * grid.dx)
    k0y = 2.0 * np.pi * my / (grid.ny * grid.dy)
    # √n first: numpy's complex product is not bitwise commutative
    data = complex(amp) * np.exp(1j * (k0x * grid.x))[:, None]
    data = data * np.exp(1j * (k0y * grid.y))
    return ComplexField2D(grid, data, {"flow_k": (k0x, k0y)})


@dataclass
class MeasuredMode:
    k: float
    omega: complex
    ok: bool
    note: str = ""


def _peak_frequency(series: np.ndarray, dt_sample: float):
    """Dominant frequency of a complex time series by windowed FFT with
    parabolic interpolation around the peak bin."""
    n = len(series)
    win = np.hanning(n)
    spec = np.fft.fft(series * win)
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=dt_sample)
    mag = np.abs(spec)
    i = int(np.argmax(mag))
    im, ip = (i - 1) % n, (i + 1) % n
    denom = mag[im] - 2 * mag[i] + mag[ip]
    shift = 0.0 if denom == 0 else 0.5 * (mag[im] - mag[ip]) / denom
    return freqs[i] + shift * (freqs[1] - freqs[0]), mag[i] / (np.mean(mag) + 1e-300)


def measure_dispersion(
    psi0: ComplexField2D,
    p: FluidParams,
    k_list,
    periods: float = 16.0,
) -> list[MeasuredMode]:
    """Measure ω(k) by seeding each mode and peak-fitting its spectrum.

    Each k must sit on the reciprocal lattice of the grid.  On a stable
    background the projection ⟨φ e^{−ikx}⟩(t) oscillates and the spectral
    peak (parabolically interpolated) gives ω.  Exponential growth is
    detected first and reported as a positive imaginary frequency
    (modulational instability of attractive backgrounds).  Each k is one
    `linearized_step` call, seeded with a cosine of amplitude 1e-4 and
    stepped at dt = 1/λ (λ the operator's spectral-radius bound), that
    records the projection every stride, about 24 times per period.

    It reproduces the Bogoliubov dispersion ω(k) = c_ex k √(1 + k²ξ²/4)
    of the photon fluid's phonons: acceptance criterion 6
    (`test_criterion_06_bogoliubov_dispersion`) holds it to 2% at
    kξ = 0.1 … 1.
    """
    n = float(np.mean(np.abs(psi0.data) ** 2))
    x = psi0.grid.x
    area = psi0.data.size
    # spectral-radius bound of the linearized operator; RK4 is stable to
    # |λ|dt ≈ 2.8 and the seeded mode itself sits far below the bound
    lam = psi0.grid.k2_max / (2 * abs(p.m)) + 2.0 * abs(n * p.G_kerr)
    dt = 1.0 / lam
    results = []
    for k in k_list:
        w_pred = bogoliubov_dispersion(k, n, p)
        w_scale = max(abs(w_pred), abs(k * k / (2 * p.m)), 1e-12)
        T = periods * 2.0 * np.pi / w_scale
        growth = np.imag(w_pred)
        if growth > 0:
            # cap total growth so roundoff leakage into faster-growing
            # modes cannot overtake the seeded one
            T = min(T, 8.0 / growth)
        sample_dt = (2.0 * np.pi / w_scale) / 24
        stride = max(1, int(round(sample_dt / dt))) or 1
        n_samples = max(16, int(np.ceil(T / (stride * dt))))

        phi = ComplexField2D.filled(psi0.grid, 0.0)
        phi.data = 1e-4 * np.repeat(np.cos(k * x)[:, None], psi0.grid.ny, axis=1)
        carrier = np.exp(-1j * k * x)[:, None]

        series = np.empty(n_samples, dtype=complex)
        series[0] = np.sum(phi.data * carrier) / area

        def record(step, fld):
            series[step // stride] = np.sum(fld.data * carrier) / area

        linearized_step(phi, psi0, p, dt, steps=stride * (n_samples - 1),
                        record=record, record_every=stride)

        mags = np.abs(series)
        if mags[-1] > 50.0 * mags[0] and np.all(np.diff(np.log(mags[n_samples // 4:])) > 0):
            # exponential growth: fit the rate on the later half
            half = n_samples // 2
            t_fit = np.arange(half, n_samples) * stride * dt
            rate = np.polyfit(t_fit, np.log(mags[half:]), 1)[0]
            results.append(MeasuredMode(k, 1j * rate, True, "growing mode"))
            continue

        omega_fit, contrast = _peak_frequency(series, stride * dt)
        if contrast < 5.0:
            results.append(
                MeasuredMode(k, np.nan + 0j, False,
                             f"unresolved peak (contrast {contrast:.1f}); run longer")
            )
            continue
        results.append(MeasuredMode(k, abs(omega_fit) + 0.0j, True))
    return results
