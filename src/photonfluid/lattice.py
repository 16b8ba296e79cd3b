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

κ and γ are the amplitude decay rates of these equations, the one damping
convention of this module: a half-linewidth reading of the rates is the
same lattice at κ/2 and γ/2.  The steady mirror response to a static
photon number is then the elimination's kernel at energy damping 2γ.

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

from dataclasses import dataclass

import numpy as np

from .elimination import KernelParams, kerr_coupling
from .errors import StepSizeError
from .fluid import (ComplexField2D, FluidParams, _check_counts, _linear_steps,
                    _step_count, evolve, rk4_power, split_step_cfl)

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

    def __post_init__(self):
        if self.Nx < 4 or self.Ny < 4:
            raise ValueError("lattice needs Nx, Ny >= 4")
        if self.h <= 0:
            raise ValueError("cell spacing must be positive")

    @property
    def rate(self) -> float:
        """max(|ω_c| + 4|J|, |ω_m|): the fastest undamped frequency of the
        lattice, which sets its RK4 step."""
        return max(abs(self.omega_c) + 4.0 * abs(self.J), abs(self.omega_m))


@dataclass
class LatticeState:
    a: np.ndarray                 # optical mean field, shape (Nx, Ny)
    b: np.ndarray                 # mechanical mean field, shape (Nx, Ny)
    t: float = 0.0

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


def lattice_dispersion(ki, kj, omega_c, J):
    """Tight-binding branch ω = ω_c + 2J(cos k_i + cos k_j); k in (−π, π]."""
    return omega_c + 2.0 * J * (np.cos(ki) + np.cos(kj))


def _neighbor_index(shape) -> np.ndarray:
    """Flat indices of the four periodic neighbours of every site of an
    array of `shape`, stacked as i−1, i+1, j−1, j+1 on a leading axis."""
    flat = np.arange(shape[0] * shape[1]).reshape(shape)
    return np.stack((np.roll(flat, 1, 0), np.roll(flat, -1, 0),
                     np.roll(flat, 1, 1), np.roll(flat, -1, 1)))


def _neighbor_sum(a: np.ndarray, index: np.ndarray | None = None,
                  gathered: np.ndarray | None = None) -> np.ndarray:
    """Periodic sum of the four nearest neighbours of a 2-D array, added
    in the order a[i−1] + a[i+1] + a[:, j−1] + a[:, j+1].

    One `take` over `index` (`_neighbor_index(a.shape)`) gathers the
    four neighbour values of every site into `gathered`, of shape
    (4,) + a.shape, and three adds sum them into its first slice, which
    is returned.  Whichever of the two is not given is allocated, so a
    stepper that passes both allocates nothing; `gathered` must not
    overlap `a`.
    """
    if index is None:
        index = _neighbor_index(a.shape)
    # the default mode="raise" copies through a buffer; the indices are in
    # range, so "clip" changes nothing but that
    g = a.take(index, out=gathered, mode="clip")
    total = g[0]
    np.add(total, g[1], out=total)
    np.add(total, g[2], out=total)
    np.add(total, g[3], out=total)
    return total


def step_lattice(s: LatticeState, p: LatticeParams, dt: float,
                 steps: int = 1, force: bool = False) -> LatticeState:
    """Advance the mean-field lattice by `steps` RK4 steps of size `dt`.

    Refuses dt·`p.rate` > 0.1 with `StepSizeError` unless forced, and
    with `ValueError` a negative `steps` or a state whose `a` or `b` is not
    of shape (Nx, Ny), all before any stepping; a state that leaves the
    finite range is reported as `fluid._linear_steps` says.

    With g′ = 0 the optical and mechanical modes decouple and the lattice
    is linear and translation-invariant: every Bloch wave of `a` is an
    eigenmode with λ_k = −(iω_c + κ) − 2iJ(cos k_i + cos k_j), and `b`
    decays site by site with λ = −(iω_m + γ).  One RK4 step multiplies an
    eigenmode by the stability function R(z) = 1 + z + z²/2 + z³/6 + z⁴/24
    at z = dt·λ, so the state is advanced by R(dt·λ)^steps between one
    `fft2` and one `ifft2`, which equals stepping up to roundoff.  With
    g′ ≠ 0 `fluid.rk4` steps (a, b) as one stacked array, and the
    right-hand side forms its on-site terms and neighbour sum in scratch
    allocated once per call.
    """
    _check_counts(steps)
    if s.a.shape != (p.Nx, p.Ny) or s.b.shape != (p.Nx, p.Ny):
        raise ValueError(f"lattice state of shapes {s.a.shape} and "
                         f"{s.b.shape}, want (Nx, Ny) = {(p.Nx, p.Ny)}")
    if dt * p.rate > 0.1 and not force:
        raise StepSizeError(
            f"dt too large for lattice rates: dt*rate = {dt * p.rate:.3g} > 0.1"
        )
    ca = 1j * p.omega_c + p.kappa
    cb = 1j * p.omega_m + p.gamma
    gp, J = p.g_prime, p.J

    y = np.array((s.a, s.b), complex)
    power = apply = rhs = None
    if gp == 0.0:
        ki = 2.0 * np.pi * np.arange(p.Nx)[:, None] / p.Nx
        kj = 2.0 * np.pi * np.arange(p.Ny)[None, :] / p.Ny
        za = dt * (-1j * lattice_dispersion(ki, kj, p.omega_c, J) - p.kappa)
        zb = -dt * cb

        def power(n):
            return rk4_power(za, n), rk4_power(zb, n)

        def apply(pw, y):
            # decayed modes underflow to zero, which is the right answer
            with np.errstate(under="ignore"):
                return np.fft.ifft2(pw[0] * np.fft.fft2(y[0])), pw[1] * y[1]
    else:
        # scratch reused by every stage of every step: one complex and two
        # real site arrays, the neighbour index and its gather buffer
        c = np.empty_like(y[0])
        r, q = np.empty((2,) + c.shape)
        index = _neighbor_index(c.shape)
        gathered = np.empty(index.shape, complex)
        mca, mcb, igp, iJ, two = map(np.array, (-ca, -cb, 1j * gp, 1j * J,
                                              2.0))

        def rhs(y, out):
            # da = −ca·a + i g′(2 Re b)·a − iJ·Σ_nn a,
            # db = −cb·b + i g′(Re² a + Im² a), in that operation order
            (a, b), (da, db) = y, out
            np.multiply(mca, a, out=da)
            np.multiply(igp, np.multiply(two, b.real, out=r), out=c)
            np.add(da, np.multiply(c, a, out=c), out=da)
            np.multiply(iJ, _neighbor_sum(a, index, gathered), out=c)
            np.subtract(da, c, out=da)
            np.add(np.square(a.real, out=r), np.square(a.imag, out=q), out=r)
            np.add(np.multiply(mcb, b, out=db), np.multiply(igp, r, out=c),
                   out=db)

    a, b = _linear_steps(y, steps, dt, "lattice state", power, apply, rhs)
    return LatticeState(a, b, s.t + steps * dt)


def continuum_params(J: float, h: float, omega_c: float):
    """Continuum parameter map (m, Ṽ) = (ħ/(2Jh²), ħ(ω_c + 4J)), ħ = 1.

    J < 0 gives a negative mass, passed through deliberately: paired with
    an attractive coupling it yields a real excitation speed and a
    Lorentzian acoustic metric downstream.
    """
    if J == 0:
        raise ValueError("J = 0: no kinetic term, continuum limit undefined")
    return 1.0 / (2.0 * J * h * h), omega_c + 4.0 * J


def fit_mass_from_dispersion(J: float, h: float, kh_max: float = 0.1) -> float:
    """Recover the continuum mass from a quadratic fit of ω(k) near k = 0.

    Fits ω(k) ≈ ω₀ + b k² at 9 axis-aligned wavenumbers with |k|h ≤ kh_max
    (at ω_c = 0, since the offset does not enter the curvature), reads the
    hopping rate off the curvature (b = −J_fit h²) and returns
    ħ/(2 J_fit h²).  Agrees with `continuum_params` to O((kh_max)²).
    """
    kh = np.linspace(kh_max / 9, kh_max, 9)
    w = lattice_dispersion(kh, 0.0, 0.0, J)
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
    coupling `kerr_coupling` at energy damping 2γ, −2g′²ω_m/(γ² + ω_m²);
    with g′ ≠ 0 and ω_m ≤ 0 it refuses with `PhysicsGateError` before any
    stepping.  The NLSE step is 0.05 over the rate of `split_step_cfl` and
    the default lattice step 0.05/`p.rate`, each rate floored at 1e-12.
    A field grid other than Nx×Ny at spacing h is refused with
    `ValueError`, and a lattice state of another shape as `step_lattice`
    refuses it.
    """
    grid = nlse_field.grid
    if (grid.shape != (p.Nx, p.Ny) or not np.isclose(grid.dx, p.h)
            or not np.isclose(grid.dy, p.h)):
        raise ValueError("incompatible grids between lattice and continuum field")
    # refuses J = 0 before any stepping; ω(k) curves as −Jh²k², so the
    # dynamically matched mass is the map's mass with the sign flipped
    m_map, v_tilde = continuum_params(p.J, p.h, p.omega_c)
    m_dyn = -m_map

    # the steady mirror response with amplitude decay γ is the
    # elimination's kernel at energy damping 2γ
    G_eff = 0.0 if p.g_prime == 0.0 else kerr_coupling(
        KernelParams(p.omega_m, 2.0 * p.gamma, p.g_prime))

    if dt_lattice is None:
        dt_lattice = 0.05 / max(p.rate, 1e-12)
    n_lat = _step_count(t_final, dt_lattice)
    lat = step_lattice(lattice, p, t_final / n_lat, steps=n_lat, force=force)

    fp = FluidParams(m=m_dyn, G_kerr=G_eff, V=v_tilde)
    if G_eff == 0.0:
        # linear + uniform offset: the split step is exact, one step suffices
        n_con = 1
    else:
        dt_nlse = 0.05 / max(split_step_cfl(nlse_field, fp, 1.0), 1e-12)
        n_con = _step_count(t_final, dt_nlse)
    con = evolve(nlse_field, fp, t_final / n_con, n_con, force=True)
    # undo the bookkept uniform-offset phase so both carry the full phase
    con_data = con.data * np.exp(-1j * con.meta.get("phase_offset", 0.0))

    ref = np.linalg.norm(con_data)
    return float(np.linalg.norm(lat.a - con_data) / ref)
