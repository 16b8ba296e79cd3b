"""Two-dimensional array of optomechanical cells and its continuum limit.

Each site holds one optical mode (on-site frequency ω_c, decay κ) coupled
by radiation pressure (rate g′) to one local mechanical mode (ω_m, γ);
photons hop to the four neighbours with rate J, phonons do not hop.  The
mean-field equations, with periodic wrap, are

    ∂_t a_ij = −(iω_c + κ) a_ij + i g′ (b_ij + b*_ij) a_ij
               − iJ (a_{i−1,j} + a_{i+1,j} + a_{i,j+1} + a_{i,j−1}),
    ∂_t b_ij = −(iω_m + γ) b_ij + i g′ |a_ij|²,

and a Bloch wave picks up the tight-binding dispersion

    ω(k) = ω_c + 2J (cos k_i + cos k_j),    k in radians per site.

Damping convention: the equations above use the literal full rates on the
amplitudes, which is the default.  Selecting `damping_convention="half"`
halves both κ and γ to match the half-linewidth convention used for the
ancillary-cavity stage; under the literal convention a damping γ plays the
role of a half-linewidth 2γ in the memory-kernel formulas.

For slowly varying fields (|k|h ≪ 1) the lattice is a photon fluid with
the parameter map m = ħ/(2Jh²), Ṽ = ħ(ω_c + 4J).  Note that the curvature
of ω(k) is −Jh²k², so the mass whose Schrödinger evolution reproduces the
lattice dynamics is −ħ/(2Jh²); `continuum_params` keeps the conventional
map (with a sign flag for J < 0, where m and an attractive coupling are
both negative and the excitation speed is real), while the comparison
harness `continuum_error` and the dispersion fit use the dynamically
matched sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as np

from .errors import NumericalError, StepSizeError
from .fluid import ComplexField2D, FluidParams, evolve, rk4_power

__all__ = [
    "LatticeParams",
    "LatticeState",
    "lattice_dispersion",
    "step_lattice",
    "continuum_params",
    "fit_mass_from_dispersion",
    "continuum_error",
]


@dataclass
class LatticeParams:
    Nx: int
    Ny: int
    h: float
    omega_c: float
    omega_m: float
    gamma: float
    kappa: float
    g_prime: float
    J: float
    damping_convention: str = "literal"   # "literal" | "half"

    def __post_init__(self):
        if self.Nx < 4 or self.Ny < 4:
            raise ValueError("lattice needs Nx, Ny >= 4")
        if self.h <= 0:
            raise ValueError("cell spacing must be positive")
        if self.damping_convention not in ("literal", "half"):
            raise ValueError("damping_convention must be 'literal' or 'half'")

    @property
    def kappa_eff(self) -> float:
        return self.kappa if self.damping_convention == "literal" else self.kappa / 2.0

    @property
    def gamma_eff(self) -> float:
        return self.gamma if self.damping_convention == "literal" else self.gamma / 2.0


@dataclass
class LatticeState:
    a: np.ndarray                 # optical mean field, shape (Nx, Ny)
    b: np.ndarray                 # mechanical mean field, shape (Nx, Ny)
    t: float = 0.0
    meta: dict = _field(default_factory=dict)

    @classmethod
    def zeros(cls, p: LatticeParams):
        return cls(np.zeros((p.Nx, p.Ny), complex), np.zeros((p.Nx, p.Ny), complex))

    @classmethod
    def bloch(cls, p: LatticeParams, mi: int, mj: int, amplitude=1.0):
        """Single Bloch wave a_ij = A exp[i(k_i·i + k_j·j)] with lattice
        wavenumbers k = 2π m / N."""
        ii = np.arange(p.Nx)[:, None]
        jj = np.arange(p.Ny)[None, :]
        ki = 2.0 * np.pi * mi / p.Nx
        kj = 2.0 * np.pi * mj / p.Ny
        a = amplitude * np.exp(1j * (ki * ii + kj * jj))
        return cls(a.astype(complex), np.zeros((p.Nx, p.Ny), complex))

    def copy(self):
        return LatticeState(self.a.copy(), self.b.copy(), self.t, dict(self.meta))


def lattice_dispersion(ki, kj, omega_c, J):
    """Tight-binding branch ω = ω_c + 2J(cos k_i + cos k_j); k in (−π, π]."""
    return omega_c + 2.0 * J * (np.cos(ki) + np.cos(kj))


def _neighbor_sum(a: np.ndarray) -> np.ndarray:
    return (np.roll(a, 1, 0) + np.roll(a, -1, 0)
            + np.roll(a, 1, 1) + np.roll(a, -1, 1))


def step_lattice(s: LatticeState, p: LatticeParams, dt: float,
                 steps: int = 1, force: bool = False) -> LatticeState:
    """Advance the mean-field lattice by `steps` RK4 steps of size `dt`.

    Refuses dt·max(|ω_c| + 4|J|, ω_m) > 0.1 unless forced; aborts with the
    step index if the state leaves the finite range.

    With g′ = 0 the optical and mechanical modes decouple and the lattice
    is linear and translation-invariant: every Bloch wave of `a` is an
    eigenmode with λ_k = −(iω_c + κ) − 2iJ(cos k_i + cos k_j), and `b`
    decays site by site with λ = −(iω_m + γ).  One RK4 step multiplies an
    eigenmode by the stability function R(z) = 1 + z + z²/2 + z³/6 + z⁴/24
    at z = dt·λ, so the state is advanced by R(dt·λ)^steps between one
    `fft2` and one `ifft2`, which equals stepping up to roundoff.
    """
    rate = max(abs(p.omega_c) + 4.0 * abs(p.J), abs(p.omega_m))
    if dt * rate > 0.1 and not force:
        raise StepSizeError(
            f"dt too large for lattice rates: dt*rate = {dt * rate:.3g} > 0.1"
        )
    ca = 1j * p.omega_c + p.kappa_eff
    cb = 1j * p.omega_m + p.gamma_eff
    gp, J = p.g_prime, p.J

    if gp == 0.0 and steps > 0:
        ki = 2.0 * np.pi * np.arange(p.Nx)[:, None] / p.Nx
        kj = 2.0 * np.pi * np.arange(p.Ny)[None, :] / p.Ny
        lam_a = -1j * lattice_dispersion(ki, kj, p.omega_c, J) - p.kappa_eff
        # decayed modes underflow to zero, which is the right answer
        with np.errstate(under="ignore"):
            a = np.fft.ifft2(rk4_power(dt * lam_a, steps) * np.fft.fft2(s.a))
            b = rk4_power(-dt * cb, steps) * s.b
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericalError(
                f"lattice state non-finite after {steps} steps")
        return LatticeState(a, b, s.t + steps * dt, dict(s.meta))

    def rhs(a, b):
        da = -ca * a + 1j * gp * (2.0 * b.real) * a - 1j * J * _neighbor_sum(a)
        db = -cb * b + 1j * gp * (a.real**2 + a.imag**2)
        return da, db

    a, b = s.a.copy(), s.b.copy()
    for step in range(1, steps + 1):
        k1 = rhs(a, b)
        k2 = rhs(a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = rhs(a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = rhs(a + dt * k3[0], b + dt * k3[1])
        a = a + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericalError(f"lattice state non-finite at step {step}")
    return LatticeState(a, b, s.t + steps * dt, dict(s.meta))


def continuum_params(J: float, h: float, omega_c: float):
    """Continuum parameter map (m, Ṽ) = (ħ/(2Jh²), ħ(ω_c + 4J)), ħ = 1.

    J < 0 gives a negative mass, passed through deliberately: paired with
    an attractive coupling it yields a real excitation speed and a
    Lorentzian acoustic metric downstream.
    """
    if J == 0:
        raise ValueError("J = 0: no kinetic term, continuum limit undefined")
    return 1.0 / (2.0 * J * h * h), omega_c + 4.0 * J


def fit_mass_from_dispersion(J: float, h: float, omega_c: float = 0.0,
                             kh_max: float = 0.1, npts: int = 9) -> float:
    """Recover the continuum mass from a quadratic fit of ω(k) near k = 0.

    Fits ω(k) ≈ ω₀ + b k² on axis-aligned wavenumbers with |k|h ≤ kh_max,
    reads the hopping rate off the curvature (b = −J_fit h²) and returns
    ħ/(2 J_fit h²).  Agrees with `continuum_params` to O((kh_max)²).
    """
    kh = np.linspace(kh_max / npts, kh_max, npts)
    w = lattice_dispersion(kh, 0.0, omega_c, J)
    k = kh / h
    coef = np.polyfit(k * k, w, 1)      # ω ≈ coef[1] + coef[0]·k²
    J_fit = -coef[0] / h**2
    return 1.0 / (2.0 * J_fit * h * h)


def continuum_error(
    lattice: LatticeState,
    nlse_field: ComplexField2D,
    p: LatticeParams,
    t_final: float,
    dt_lattice: float | None = None,
    dt_nlse: float | None = None,
    force: bool = False,
) -> float:
    """Relative L2 deviation between lattice and continuum evolution.

    Both representations start from the same sampled field (the lattice
    optical array and the NLSE field must live on one grid: Nx×Ny sites at
    spacing h) and run to t_final; the comparison is on the complex
    amplitudes, which bounds the density error and, for narrow-band
    states, is dominated by the O((kh)²) Taylor remainder of the
    slowly-varying approximation.

    The continuum side uses the dynamically matched mass −ħ/(2Jh²), the
    uniform offset Ṽ = ω_c + 4J, and, for g′ ≠ 0, the eliminated contact
    coupling with the kernel written in this module's damping convention.
    """
    if (lattice.a.shape != (p.Nx, p.Ny)
            or (nlse_field.nx, nlse_field.ny) != (p.Nx, p.Ny)
            or not np.isclose(nlse_field.dx, p.h)
            or not np.isclose(nlse_field.dy, p.h)):
        raise ValueError("incompatible grids between lattice and continuum field")
    # refuses J = 0 before any stepping; ω(k) curves as −Jh²k², so the
    # dynamically matched mass is the map's mass with the sign flipped
    m_map, v_tilde = continuum_params(p.J, p.h, p.omega_c)
    m_dyn = -m_map

    rate = max(abs(p.omega_c) + 4.0 * abs(p.J), abs(p.omega_m), 1e-12)
    if dt_lattice is None:
        dt_lattice = 0.05 / rate
    n_lat = max(1, int(np.ceil(t_final / dt_lattice)))
    lat = step_lattice(lattice, p, t_final / n_lat, steps=n_lat, force=force)

    G_eff = 0.0
    if p.g_prime != 0.0:
        # steady mirror response with amplitude decay gamma_eff
        gam = p.gamma_eff
        G_eff = -2.0 * p.g_prime**2 * p.omega_m / (gam**2 + p.omega_m**2)
    fp = FluidParams(m=m_dyn, G_kerr=G_eff, V=v_tilde)
    if G_eff == 0.0:
        # linear + uniform offset: the split step is exact, one step suffices
        n_con = 1
    else:
        if dt_nlse is None:
            dt_nlse = 0.05 / max(
                float(np.max(nlse_field.k_squared())) / (2 * abs(m_dyn)),
                abs(v_tilde) + abs(G_eff) * float(np.max(np.abs(nlse_field.data)) ** 2),
                1e-12,
            )
        n_con = max(1, int(np.ceil(t_final / dt_nlse)))
    con = evolve(nlse_field, fp, t_final / n_con, n_con, force=True)
    # undo the bookkept uniform-offset phase so both carry the full phase
    con_data = con.data * np.exp(-1j * con.meta.get("phase_offset", 0.0))

    ref = np.linalg.norm(con_data)
    return float(np.linalg.norm(lat.a - con_data) / ref)
