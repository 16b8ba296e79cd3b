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
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

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
]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


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
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)

    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)

    def k_squared(self) -> np.ndarray:
        kx, ky = self.kx(), self.ky()
        return kx[:, None] ** 2 + ky[None, :] ** 2

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
    G = p.G_kerr
    offset = psi.meta.get("phase_offset", 0.0)

    # the kick's phase and its exponential, reused by every kick: arrays
    # allocated per kick page-fault anew on most steps
    phase_buf = np.empty(psi.data.shape)
    e = np.empty_like(psi.data)

    def kick(f, tau, step):
        # f *= exp(−iτ(Ṽ + 𝒢|f|²)); the buffer holds |f|, |f|², then the phase
        ph = np.abs(f, out=phase_buf)
        ph *= ph
        if not np.isfinite(ph.sum()):
            raise NumericalError(f"non-finite field in step {step} of {steps}")
        ph *= -tau * G
        if Vc is not None:
            ph -= tau * Vc
        np.cos(ph, out=e.real)
        np.sin(ph, out=e.imag)
        f *= e

    def field(f, step):
        meta = dict(psi.meta, phase_offset=offset + v_mean * dt * step)
        return ComplexField2D(psi.nx, psi.ny, psi.dx, psi.dy, f, meta)

    f = psi.data.copy()
    half = True  # the step opens with a half kick
    for step in range(1, steps + 1):
        if half:
            kick(f, 0.5 * dt, step)
        f = np.fft.fft2(f)
        f *= kin
        f = np.fft.ifft2(f)
        snap = record is not None and record_every and step % record_every == 0
        half = snap or step == steps
        kick(f, 0.5 * dt if half else dt, step)
        if snap:
            record(step, field(f, step))
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
    psi.data = _normalize(psi.data, n_total, psi.cell_area())

    k2 = psi.k_squared()
    if dtau is None:
        dtau = 0.25 / max(float(np.max(k2)) / (2 * p.m), abs(p.G_kerr) * n_total
                          / (nx * dx * ny * dy) + float(np.max(np.abs(V))) + 1.0)
    kin = np.exp(-dtau * k2 / (2.0 * p.m))
    Vc = V - float(np.mean(V))

    e_prev = gp_energy(psi, p)
    peak0 = float(np.max(np.abs(psi.data) ** 2))
    attractive = p.G_kerr < 0
    f = psi.data
    for it in range(1, max_iter + 1):
        f *= np.exp(-0.5 * dtau * (Vc + p.G_kerr * (f.real**2 + f.imag**2)))
        f = np.fft.ifft2(np.fft.fft2(f) * kin)
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

    RK4 in time, spectral derivatives in space.  The background enters
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
    kx = psi0.kx()[:, None]
    ky = psi0.ky()[None, :]
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
    else:
        def rhs(phi):
            phik = np.fft.fft2(phi)
            lap = np.fft.ifft2(-k2 * phik)
            dxphi = np.fft.ifft2(1j * kx * phik)
            dyphi = np.fft.ifft2(1j * ky * phik)
            return 1j * (inv2m * lap + invm * (gx * dxphi + gy * dyphi)) \
                - 1j * nG * (phi + np.conj(phi))

        f = out.data
        for _ in range(steps):
            k1 = rhs(f)
            k2_ = rhs(f + 0.5 * dt * k1)
            k3 = rhs(f + 0.5 * dt * k2_)
            k4 = rhs(f + dt * k3)
            f = f + (dt / 6.0) * (k1 + 2 * k2_ + 2 * k3 + k4)
    if not np.all(np.isfinite(f)):
        raise NumericalError("non-finite fluctuation field; reduce dt")
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
