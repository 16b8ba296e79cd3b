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
imaginary part.  Grids are FFT-friendly (power-of-two sides) and cell
coordinates are centered on the box.

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
synchronisation.  On grids of at least 2¹⁶ cells `evolve` runs the blocks
of each pass on a thread pool sized to the CPUs the process may use (at
most 8), since numpy's pocketfft releases the GIL; pocketfft's plan cache
takes no lock, so both side lengths are planned serially first.  Smaller
grids, where threads cost more than they save, and `ground_state`
(`_kinetic_step`) run the same kernel as one block in the calling thread.
Every transform is per row or per column and every kick sees the same
rows, so the result does not depend on the block count.

The module also holds the numerical kernels every linear stage of the
package shares: `wavenumbers` builds the periodic k-grid and `spectral_d`
the spectral derivative of a real field on it; `rk4` is the one classical
RK4 driver (with a per-step finiteness check) and `rk4_power` its closed
form for constant-coefficient systems.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, field as _field
from functools import partial

import numpy as np

from .errors import ConvergenceError, NumericalError, StepSizeError

__all__ = [
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
    "wavenumbers",
    "spectral_d",
    "rk4",
]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def wavenumbers(nx: int, ny: int, dx: float, dy: float):
    """Angular wavenumbers of a periodic nx×ny grid in FFT order: kx as an
    (nx, 1) column and ky as a (1, ny) row."""
    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=dy)
    return kx[:, None], ky[None, :]


def spectral_d(f: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Spectral derivative real(ifft2(i·k·fft2 f)) of a real periodic field
    along the axis of `k`, one of the two `wavenumbers` grids.  Taking the
    real part drops the Nyquist mode of an even side."""
    return np.real(np.fft.ifft2(1j * k * np.fft.fft2(f)))


def rk4(rhs, y: tuple, dt: float, first: int, last: int, what: str) -> tuple:
    """Classical RK4 steps first+1 … last of dy/dt = rhs(*y).

    `y` is a tuple of arrays and `rhs` returns their time derivatives as a
    tuple in the same order.  Every step checks each component for
    finiteness and raises `NumericalError` naming `what` and the step, so a
    blow-up stops the run where it happens.
    """
    for step in range(first + 1, last + 1):
        k1 = rhs(*y)
        k2 = rhs(*[a + 0.5 * dt * k for a, k in zip(y, k1)])
        k3 = rhs(*[a + 0.5 * dt * k for a, k in zip(y, k2)])
        k4 = rhs(*[a + dt * k for a, k in zip(y, k3)])
        y = [a + (dt / 6.0) * (p + 2 * q + 2 * r + s)
             for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        if not all(np.isfinite(a).all() for a in y):
            raise NumericalError(f"{what} non-finite at step {step}")
    return tuple(y)


@dataclass
class ComplexField2D:
    """Complex amplitudes on a uniform periodic grid.

    `data` has shape (nx, ny), C-order (the y index varies fastest), and
    physical coordinates are centered: x = (ix − nx/2)·dx.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    data: np.ndarray
    meta: dict = _field(default_factory=dict)

    def __post_init__(self):
        if not (_is_pow2(self.nx) and _is_pow2(self.ny)):
            raise ValueError("nx and ny must be powers of two (FFT-friendly)")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("dx and dy must be positive")
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.shape != (self.nx, self.ny):
            raise ValueError(f"data shape {self.data.shape} != ({self.nx}, {self.ny})")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite entries")

    # -- geometry helpers ---------------------------------------------------
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    def xy(self):
        return np.meshgrid(self.x(), self.y(), indexing="ij")

    def kx(self) -> np.ndarray:
        return wavenumbers(self.nx, self.ny, self.dx, self.dy)[0].ravel()

    def ky(self) -> np.ndarray:
        return wavenumbers(self.nx, self.ny, self.dx, self.dy)[1].ravel()

    def k_squared(self) -> np.ndarray:
        kx, ky = wavenumbers(self.nx, self.ny, self.dx, self.dy)
        return kx**2 + ky**2

    def cell_area(self) -> float:
        return self.dx * self.dy

    def norm_sq(self) -> float:
        """∫|Ψ|² dx dy on the grid."""
        return float(np.sum(np.abs(self.data) ** 2) * self.cell_area())

    def copy(self) -> "ComplexField2D":
        return ComplexField2D(self.nx, self.ny, self.dx, self.dy,
                              self.data.copy(), dict(self.meta))

    @classmethod
    def filled(cls, nx, ny, dx, dy, value=0.0, meta=None):
        data = np.full((nx, ny), value, dtype=np.complex128)
        return cls(nx, ny, dx, dy, data, meta or {})


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
            return np.full((psi.nx, psi.ny), float(V))
        if V.shape != (psi.nx, psi.ny):
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


def _column_pass(blk: np.ndarray, kin_conj_n: np.ndarray) -> None:
    """Column pass of the split step on a block of whole columns, in place:
    the forward column FFT, the conjugation and ×conj(kin)/N (`kin_conj_n`
    cut to the same columns), then the inverse column FFT."""
    np.fft.fft2(blk, s=blk.shape[:1], axes=(0,), out=blk)
    # numpy would copy a block narrower than the grid through 3 × 8192
    # element ufunc buffers (0.38 of a 256² field per concurrent block);
    # with 256-element buffers it runs on the contiguous row stretches of
    # a 512² half (0.81 against 1.32 ms) and a real kin still casts fast
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(256)
        np.conjugate(blk, out=blk)
        blk *= kin_conj_n
    np.fft.fft2(blk, s=blk.shape[:1], axes=(0,), out=blk)


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


def _kinetic_step(f: np.ndarray, kin_conj_n: np.ndarray) -> None:
    """f ← ifft2(kin · fft2 f) in place, for a contiguous complex field on a
    power-of-two grid; `kin_conj_n` holds conj(kin)/N, N = f.size.

    This is the split step's kernel as one block: the inverse is
    conj(fft2(conj(kin · fft2 f)))/N, and conj(kin)/N multiplies the
    conjugated spectrum, so every per-axis transform writes into `f`.
    """
    _row_pass(f, False, None, True)
    _column_pass(f, kin_conj_n)
    _row_pass(f, True, None, False)


def split_step_cfl(psi: ComplexField2D, p: FluidParams, dt: float) -> float:
    """dt · max(|V| + |𝒢| max n, k_max²/2|m|): should stay ≤ 0.1."""
    V = p.potential_grid(psi)
    nmax = float(np.max(np.abs(psi.data) ** 2))
    rate = max(
        float(np.max(np.abs(V))) + abs(p.G_kerr) * nmax,
        float(np.max(psi.k_squared())) / (2.0 * abs(p.m)),
    )
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
    the resolution precondition unless `force`, and a negative `steps`
    with `ValueError`.  Every kick checks the
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

    `record(step, field)` is invoked every `record_every` steps with the
    state after that step, meta['phase_offset'] included.  The field shares
    the live buffer of the evolution: copy whatever is kept beyond the call.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    cfl = split_step_cfl(psi, p, dt)
    if cfl > 0.1 and not force:
        raise StepSizeError(
            f"dt too large: dt*rate = {cfl:.3g} > 0.1 (pass force=True to override)"
        )
    v_mean = float(np.mean(p.V))
    # a scalar V is a global phase only: no grid for it
    Vc = p.potential_grid(psi) - v_mean if np.ndim(p.V) else None
    kin = np.exp(-1j * dt * psi.k_squared() / (2.0 * p.m))
    np.conjugate(kin, out=kin)
    kin *= 1.0 / kin.size
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
    # per block, the kick's phase and its exponential for one chunk
    bufs = [(np.empty((chunk, ny)), np.empty((chunk, ny), complex))
            for _ in range(nb)]

    def kick(b, tau, step):
        # f *= exp(−iτ(Ṽ + 𝒢|f|²)) on the rows of block b; `ph` holds |f|,
        # |f|², then the phase
        ph, e = bufs[b]
        for a in range(rows[b].start, rows[b].stop, chunk):
            part = f[a:a + chunk]
            np.abs(part, out=ph)
            ph *= ph
            if not np.isfinite(ph.sum()):
                raise NumericalError(f"non-finite field in step {step} of {steps}")
            ph *= -tau * G
            if Vc is not None:
                ph -= tau * Vc[a:a + chunk]
            np.cos(ph, out=e.real)
            np.sin(ph, out=e.imag)
            part *= e

    def row_block(b, inverse, tau, forward, step):
        _row_pass(f[rows[b]], inverse, partial(kick, b, tau, step), forward)

    def column_block(b):
        _column_pass(f[:, cols[b]], kin[:, cols[b]])

    def field(f, step):
        meta = dict(psi.meta, phase_offset=offset + v_mean * dt * step)
        return ComplexField2D(psi.nx, psi.ny, psi.dx, psi.dy, f, meta)

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
    """Gross-Pitaevskii energy ∫ [ |∇Ψ|²/2m + V|Ψ|² + (𝒢/2)|Ψ|⁴ ] dx dy."""
    fk = np.fft.fft2(psi.data)
    kin = np.sum(psi.k_squared() * np.abs(fk) ** 2) / (psi.nx * psi.ny) / (2.0 * p.m)
    n = np.abs(psi.data) ** 2
    V = p.potential_grid(psi)
    pot = np.sum(V * n)
    inter = 0.5 * p.G_kerr * np.sum(n * n)
    return float((kin + pot + inter) * psi.cell_area())


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


def ground_state(
    p: FluidParams,
    n_total: float,
    grid: tuple,
    dtau: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> ComplexField2D:
    """Imaginary-time ground state with ∫|Ψ₀|² = n_total.

    Descends the energy with norm restoration each step until the relative
    energy change per step drops below `tol`.  Negative-mass parameters are
    handled through the conjugation map (m, V, 𝒢) → (−m, −V, −𝒢), under
    which Ψ* solves the original equation.  Attractive collapse (density
    piling up until the local healing length falls below the grid) raises
    instead of silently returning garbage.
    """
    nx, ny, dx, dy = grid
    if p.m < 0:
        Vneg = -np.asarray(p.V) if isinstance(p.V, np.ndarray) else -p.V
        conj = FluidParams(m=-p.m, G_kerr=-p.G_kerr, V=Vneg)
        gs = ground_state(conj, n_total, grid, dtau, tol, max_iter)
        gs.data = np.conj(gs.data)
        return gs

    psi = ComplexField2D.filled(nx, ny, dx, dy, 1.0)
    V = p.potential_grid(psi)
    if np.ptp(V) > 0:
        # trapped start: isotropic gaussian at the potential minimum
        X, Y = psi.xy()
        i0 = np.unravel_index(np.argmin(V), V.shape)
        w = max(4 * max(dx, dy), 0.5 * min(nx * dx, ny * dy) / 8)
        psi.data = np.exp(-(((X - X[i0]) ** 2 + (Y - Y[i0]) ** 2) / (2 * w * w)))
    # complex even for the real trapped start: the kinetic step is in place
    psi.data = _normalize(np.asarray(psi.data, dtype=np.complex128), n_total,
                          psi.cell_area())

    k2 = psi.k_squared()
    if dtau is None:
        dtau = 0.25 / max(float(np.max(k2)) / (2 * p.m), abs(p.G_kerr) * n_total
                          / (nx * dx * ny * dy) + float(np.max(np.abs(V))) + 1.0)
    # real, so its own conjugate: the kinetic step's conj(kin)/N
    kin = np.exp(-dtau * k2 / (2.0 * p.m)) / k2.size
    Vc = V - float(np.mean(V))

    e_prev = gp_energy(psi, p)
    peak0 = float(np.max(np.abs(psi.data) ** 2))
    attractive = p.G_kerr < 0
    f = psi.data
    for it in range(1, max_iter + 1):
        f *= np.exp(-0.5 * dtau * (Vc + p.G_kerr * (f.real**2 + f.imag**2)))
        _kinetic_step(f, kin)
        f *= np.exp(-0.5 * dtau * (Vc + p.G_kerr * (f.real**2 + f.imag**2)))
        f = _normalize(f, n_total, psi.cell_area())
        if attractive and it % 2 == 0:
            peak = float(np.max(f.real**2 + f.imag**2))
            if not np.isfinite(peak):
                raise CollapseError(np.inf, 0.0)
            heal = 1.0 / np.sqrt(2.0 * p.m * abs(p.G_kerr) * peak)
            if peak > 25.0 * peak0 and heal < 2.0 * max(dx, dy):
                raise CollapseError(peak, heal)
        if it % 10 == 0 or it == max_iter:
            psi.data = np.ascontiguousarray(f)
            e = gp_energy(psi, p)
            if not np.isfinite(e):
                raise ConvergenceError("imaginary time diverged (non-finite energy)")
            if abs(e - e_prev) < tol * max(abs(e), 1e-30) * 10:
                # per-step change is ~1/10 of the 10-step change
                psi.data = np.ascontiguousarray(f)
                return psi
            e_prev = e
    raise ConvergenceError(
        f"imaginary time did not converge in {max_iter} steps (last E={e_prev:.6e})"
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
    R is raised to `steps` (>= 1; callers leave the state as it is for
    fewer) by binary powering in numpy arithmetic, so an unstable mode
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
    floor_rel: float = 1e-10,
) -> ComplexField2D:
    """Advance the relative fluctuation φ on a stationary background Ψ₀.

    RK4 in time (`rk4`, which names the first step that leaves the finite
    range), spectral derivatives in space.  The background enters
    through n = |Ψ₀|² and ∇Ψ₀/Ψ₀, so Ψ₀ must stay clear of zeros; fields
    with nodes or vortex cores belong to the masked-region machinery of
    the geometry layer, not here.

    On a uniform or plane-wave background (n𝒢 and ∇Ψ₀/Ψ₀ both uniform) the
    operator is diagonal in k up to the pairing of a_k with a*_{−k}, so
    each pair is advanced by the 2×2 RK4 amplification matrix raised to
    `steps` (`rk4_power`); this equals stepping `steps` times up to
    roundoff.
    """
    amp = np.abs(psi0.data)
    if float(np.min(amp)) < floor_rel * float(np.max(amp)):
        raise ValueError(
            "background amplitude has (near-)zeros; use the geometry module's "
            "masked-region handling for fields with nodes or vortex cores"
        )
    kx, ky = wavenumbers(psi0.nx, psi0.ny, psi0.dx, psi0.dy)
    k2 = psi0.k_squared()
    f0k = np.fft.fft2(psi0.data)
    gx = np.fft.ifft2(1j * kx * f0k) / psi0.data
    gy = np.fft.ifft2(1j * ky * f0k) / psi0.data
    nG = (amp**2) * p.G_kerr
    inv2m = 1.0 / (2.0 * p.m)
    invm = 1.0 / p.m

    out = dphi.copy()
    if steps > 0 and is_uniform(gx, gy) and is_uniform(nG):
        # dφ/dt = ifft2(kmul·fft2 φ) − ic(φ + φ*): with a = fft2 φ and
        # b_k = a*_{−k}, d(a, b)_k/dt = M_k (a, b)_k for each wavevector
        kmul = 1j * (inv2m * (-k2) + invm * (gx.flat[0] * 1j * kx
                                             + gy.flat[0] * 1j * ky))
        c = nG.flat[0]
        neg = (-np.arange(psi0.nx) % psi0.nx)[:, None], \
            (-np.arange(psi0.ny) % psi0.ny)[None, :]
        zc = dt * 1j * c
        p00, p01, _, _ = rk4_power(
            (dt * kmul - zc, -zc, zc, dt * np.conj(kmul[neg]) + zc), steps)
        a = np.fft.fft2(out.data)
        f = np.fft.ifft2(p00 * a + p01 * np.conj(a[neg]))
        if not np.all(np.isfinite(f)):
            raise NumericalError(
                f"fluctuation field non-finite after {steps} steps")
    else:
        def rhs(phi):
            phik = np.fft.fft2(phi)
            lap = np.fft.ifft2(-k2 * phik)
            dxphi = np.fft.ifft2(1j * kx * phik)
            dyphi = np.fft.ifft2(1j * ky * phik)
            return (1j * (inv2m * lap + invm * (gx * dxphi + gy * dyphi))
                    - 1j * nG * (phi + np.conj(phi)),)

        (f,) = rk4(rhs, (out.data,), dt, 0, steps, "fluctuation field")
    out.data = np.ascontiguousarray(f)
    return out


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


def uniform_background(nx, ny, dx, dy, density=1.0, flow_mode=(0, 0)) -> ComplexField2D:
    """Uniform density √n with an optional quantized flow phase e^{i k₀·r}.

    `flow_mode` counts reciprocal-lattice quanta, so the state is exactly
    periodic; the flow velocity is ħk₀/m for the consumer's mass.
    """
    psi = ComplexField2D.filled(nx, ny, dx, dy, np.sqrt(density))
    mx, my = flow_mode
    if mx or my:
        X, Y = psi.xy()
        k0x = 2.0 * np.pi * mx / (nx * dx)
        k0y = 2.0 * np.pi * my / (ny * dy)
        psi.data = psi.data * np.exp(1j * (k0x * X + k0y * Y))
        psi.meta["flow_k"] = (k0x, k0y)
    return psi


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
    samples_per_period: int = 24,
    amplitude: float = 1e-4,
    dt: float | None = None,
) -> list[MeasuredMode]:
    """Measure ω(k) by seeding each mode and peak-fitting its spectrum.

    Each k must sit on the reciprocal lattice of the grid.  On a stable
    background the projection ⟨φ e^{−ikx}⟩(t) oscillates and the spectral
    peak (parabolically interpolated) gives ω.  Exponential growth is
    detected first and reported as a positive imaginary frequency
    (modulational instability of attractive backgrounds).
    """
    n = float(np.mean(np.abs(psi0.data) ** 2))
    x = psi0.x()
    area = psi0.nx * psi0.ny
    if dt is None:
        # spectral-radius bound of the linearized operator; RK4 is stable to
        # |λ|dt ≈ 2.8 and the seeded mode itself sits far below the bound
        lam = float(np.max(psi0.k_squared())) / (2 * abs(p.m)) \
            + 2.0 * abs(n * p.G_kerr)
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
        sample_dt = (2.0 * np.pi / w_scale) / samples_per_period
        stride = max(1, int(round(sample_dt / dt))) or 1
        n_samples = max(16, int(np.ceil(T / (stride * dt))))

        phi = ComplexField2D.filled(psi0.nx, psi0.ny, psi0.dx, psi0.dy, 0.0)
        phi.data = amplitude * np.repeat(np.cos(k * x)[:, None], psi0.ny, axis=1)
        carrier = np.exp(-1j * k * x)[:, None]

        series = np.empty(n_samples, dtype=complex)
        series[0] = np.sum(phi.data * carrier) / area
        for i in range(1, n_samples):
            phi = linearized_step(phi, psi0, p, dt, steps=stride)
            series[i] = np.sum(phi.data * carrier) / area

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
