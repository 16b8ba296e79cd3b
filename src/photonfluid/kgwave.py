"""Massless scalar propagation on the extracted acoustic metric.

The phase fluctuation obeys □δθ = 0 with the covariant d'Alembertian

    □ = (1/√−g) ∂_μ ( √−g g^{μν} ∂_ν ).

On a static metric this is advanced as a first-order system in
(δθ, u = ∂_tδθ):

    A ∂_t u = −[ Bˣ∂ₓu + Bʸ∂ᵧu + ∂ₓ(Bˣu) + ∂ᵧ(Bʸu) + ∂ᵢ(C^{ij}∂ⱼδθ) ],

with A = √−g g⁰⁰ (< 0), Bⁱ = √−g g⁰ⁱ, C^{ij} = √−g g^{ij}; space is
discretized with centered second-order differences in flux form (periodic
wrap) and time with classical RK4, stable under the sonic CFL bound
dt ≤ ½ min(dx,dy)/max(c_ex + |v₀|).  The equation is regular at horizons
in these coordinates, so horizon-adjacent cells need no special stencil.

On a uniform background (A, Bⁱ and C^{ij} equal everywhere to 1e-12
relative) and within the CFL bound, every Fourier mode evolves on its own
and `kg_evolve` applies the powers of its 2×2 RK4 amplification matrix
instead of stepping; the result equals stepping up to roundoff.

Characteristics travel at dx/dt = v₀ ± c_ex; inside the superexcitonic
region (|v₀| > c_ex) both branches point downstream and upstream-launched
packets stall at the horizon.  On uniform-flow backgrounds mode
frequencies Doppler-shift to ω = k·v₀ ± c_ex k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PhysicsGateError, StepSizeError
from .fluid import (ComplexField2D, FluidParams, is_uniform, linearized_step,
                    rk4_power)
from .geometry import LORENTZIAN, HydroFields, MetricField, build_metric

__all__ = [
    "kg_coefficients",
    "dalembertian",
    "kg_evolve",
    "kg_energy",
    "center_of_energy",
    "KGResult",
    "CrosscheckReport",
    "crosscheck_kg_vs_nlse",
]


def _dx_c(f, dx):
    return (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2.0 * dx)


def _dy_c(f, dy):
    return (np.roll(f, -1, 1) - np.roll(f, 1, 1)) / (2.0 * dy)


def kg_coefficients(metric: MetricField):
    """Flux-form coefficient fields (A, Bx, By, Cxx, Cxy, Cyy).

    Built from the sign-normalized metric |Ω|·[...] (the wave operator is
    invariant under an overall sign flip of g, which occurs for negative
    photon mass), so A < 0 always and C is the usual c²δ − v v quadratic
    form scaled by √|Ω|/c.
    """
    with np.errstate(invalid="ignore"):
        om = np.abs(metric.conformal)
        c = np.sqrt(metric.c2)
        w = np.sqrt(om) / c
    vx, vy = metric.vx, metric.vy
    A = -w
    Bx = -w * vx
    By = -w * vy
    Cxx = w * (metric.c2 - vx * vx)
    Cxy = -w * vx * vy
    Cyy = w * (metric.c2 - vy * vy)
    return A, Bx, By, Cxx, Cxy, Cyy


def dalembertian(
    dtheta: np.ndarray,
    metric: MetricField,
    dtheta_dot: np.ndarray | None = None,
    dtheta_ddot: np.ndarray | None = None,
) -> np.ndarray:
    """□δθ on the grid; the caller supplies the time derivatives.

    Missing time derivatives are treated as zero (static field).  Output
    is NaN wherever the centred stencil touches a non-Lorentzian point.
    """
    nx, ny, dx, dy = metric.nx, metric.ny, metric.dx, metric.dy
    A, Bx, By, Cxx, Cxy, Cyy = kg_coefficients(metric)
    th = np.asarray(dtheta, float)
    u = np.zeros((nx, ny)) if dtheta_dot is None else np.asarray(dtheta_dot, float)
    udot = np.zeros((nx, ny)) if dtheta_ddot is None else np.asarray(dtheta_ddot, float)

    thx, thy = _dx_c(th, dx), _dy_c(th, dy)
    out = (
        A * udot
        + Bx * _dx_c(u, dx) + By * _dy_c(u, dy)
        + _dx_c(Bx * u, dx) + _dy_c(By * u, dy)
        + _dx_c(Cxx * thx + Cxy * thy, dx)
        + _dy_c(Cxy * thx + Cyy * thy, dy)
    ) / metric.sqrt_minus_g

    good = metric.lorentzian()
    if not np.all(good):
        ok = good.copy()
        for shift, axis in (((1), 0), ((-1), 0), ((1), 1), ((-1), 1)):
            ok &= np.roll(good, shift, axis)
        out = np.where(ok, out, np.nan)
    return out


@dataclass
class KGResult:
    dtheta: np.ndarray
    dtheta_dot: np.ndarray
    t: float
    times: np.ndarray | None = None
    snapshots: list | None = None
    energy: np.ndarray | None = None


def kg_energy(dtheta, dtheta_dot, metric: MetricField) -> float:
    """Discrete wave energy ∫ [ −A u²/2 + C^{ij}∂ᵢθ∂ⱼθ/2 ] dx dy.

    Conserved on static backgrounds; positive definite only where the
    flow is subcritical (C is indefinite inside a superexcitonic region).
    """
    A, _, _, Cxx, Cxy, Cyy = kg_coefficients(metric)
    thx = _dx_c(dtheta, metric.dx)
    thy = _dy_c(dtheta, metric.dy)
    dens = -0.5 * A * np.asarray(dtheta_dot) ** 2 \
        + 0.5 * (Cxx * thx**2 + 2 * Cxy * thx * thy + Cyy * thy**2)
    return float(np.sum(dens) * metric.dx * metric.dy)


def _energy_density(dtheta, dtheta_dot, metric: MetricField) -> np.ndarray:
    A, _, _, Cxx, Cxy, Cyy = kg_coefficients(metric)
    thx = _dx_c(dtheta, metric.dx)
    thy = _dy_c(dtheta, metric.dy)
    # positive tracking density: fluid-frame kinetic + gradient energy
    comoving = np.asarray(dtheta_dot) + metric.vx * thx + metric.vy * thy
    with np.errstate(invalid="ignore"):
        dens = 0.5 * metric.n * (comoving**2 / metric.c2 + thx**2 + thy**2)
    return dens


def center_of_energy(dtheta, dtheta_dot, metric: MetricField):
    """Energy-weighted mean position of the excitation."""
    dens = _energy_density(dtheta, dtheta_dot, metric)
    tot = float(np.sum(dens))
    if tot <= 0:
        raise ValueError("zero field: center of energy undefined")
    X = metric.x()[:, None]
    Y = metric.y()[None, :]
    return float(np.sum(X * dens) / tot), float(np.sum(Y * dens) / tot)


def kg_evolve(
    dtheta0: np.ndarray,
    dtheta_dot0: np.ndarray,
    metric: MetricField,
    dt: float,
    steps: int,
    force: bool = False,
    sample_every: int = 0,
) -> KGResult:
    """Integrate □δθ = 0 on a static, everywhere-Lorentzian metric.

    RK4 on (δθ, u); refuses CFL violations (dt > ½ min(dx,dy)/max(c+|v|))
    unless forced, and aborts with the step index if the field leaves the
    finite range.  With `sample_every` > 0, snapshots of δθ and the wave
    energy are recorded every `sample_every` steps and at the last one; a
    negative `sample_every` is refused with `ValueError`.

    When the coefficients are uniform to 1e-12 relative, dt is within the
    CFL bound and `steps` > 0, the steps are applied in closed form: each
    Fourier mode (δθ_k, u_k) is multiplied by a power of its 2×2 RK4
    amplification matrix (`rk4_power`), between snapshots when sampling.
    This equals stepping up to roundoff.  A forced run past the CFL bound
    always steps, so a blow-up is still reported at the step it happens.
    """
    if sample_every < 0:
        raise ValueError(f"sample_every must be >= 0, got {sample_every}")
    if np.any(metric.signature != LORENTZIAN):
        raise PhysicsGateError(
            "metric has non-Lorentzian points: wave propagation is gated off"
        )
    speed = float(np.max(np.sqrt(metric.c2)
                         + np.hypot(metric.vx, metric.vy)))
    dt_max = 0.5 * min(metric.dx, metric.dy) / speed
    if dt > dt_max and not force:
        raise StepSizeError(f"CFL violation: dt = {dt:.3g} > {dt_max:.3g}")

    coeffs = kg_coefficients(metric)
    if steps > 0 and dt <= dt_max and is_uniform(*coeffs):
        advance = _kg_mode_propagator(metric, dt,
                                      *(f.flat[0] for f in coeffs))
    else:
        A, Bx, By, Cxx, Cxy, Cyy = coeffs
        inv_negA = 1.0 / (-A)
        dx, dy = metric.dx, metric.dy

        def rhs(th, u):
            thx, thy = _dx_c(th, dx), _dy_c(th, dy)
            flux = (Bx * _dx_c(u, dx) + By * _dy_c(u, dy)
                    + _dx_c(Bx * u, dx) + _dy_c(By * u, dy)
                    + _dx_c(Cxx * thx + Cxy * thy, dx)
                    + _dy_c(Cxy * thx + Cyy * thy, dy))
            return u, inv_negA * flux

        def advance(th, u, first, last):
            for step in range(first + 1, last + 1):
                k1 = rhs(th, u)
                k2 = rhs(th + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
                k3 = rhs(th + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
                k4 = rhs(th + dt * k3[0], u + dt * k3[1])
                th = th + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                u = u + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
                if not (np.all(np.isfinite(th)) and np.all(np.isfinite(u))):
                    raise NumericalError(
                        f"Klein-Gordon field non-finite at step {step}")
            return th, u

    th = np.asarray(dtheta0, float).copy()
    u = np.asarray(dtheta_dot0, float).copy()
    times, snaps, energies = [], [], []
    if sample_every:
        times.append(0.0)
        snaps.append((th.copy(), u.copy()))
        energies.append(kg_energy(th, u, metric))

    # one stretch per sample: every `sample_every` steps and the last step
    step = 0
    while step < steps:
        last = min(step + sample_every, steps) if sample_every else steps
        th, u = advance(th, u, step, last)
        step = last
        if sample_every:
            times.append(step * dt)
            snaps.append((th.copy(), u.copy()))
            energies.append(kg_energy(th, u, metric))

    return KGResult(
        dtheta=th, dtheta_dot=u, t=steps * dt,
        times=np.array(times) if sample_every else None,
        snapshots=snaps if sample_every else None,
        energy=np.array(energies) if sample_every else None,
    )


def _kg_mode_propagator(metric: MetricField, dt, A, Bx, By, Cxx, Cxy, Cyy):
    """RK4 steps of `kg_evolve` on uniform coefficients, mode by mode.

    The centred `np.roll` difference has the symbol S = i·sin(k·dx)/dx, so
    (δθ_k, u_k) obeys d/dt (δθ, u) = [[0, 1], [C_k/(−A), 2B_k/(−A)]] (δθ, u)
    with B_k = BⁱSᵢ and C_k = C^{ij}SᵢSⱼ, and each RK4 step multiplies it
    by one 2×2 amplification matrix.  Returns `advance(θ, u, first, last)`,
    which applies steps first+1 … last as that matrix's power.
    """
    sx = 1j * np.sin(2.0 * np.pi * np.fft.fftfreq(metric.nx))[:, None] / metric.dx
    sy = 1j * np.sin(2.0 * np.pi * np.fft.fftfreq(metric.ny))[None, :] / metric.dy
    z = (0.0, dt,
         (dt / -A) * (Cxx * sx * sx + 2.0 * Cxy * sx * sy + Cyy * sy * sy),
         (2.0 * dt / -A) * (Bx * sx + By * sy))
    powers = {}     # a sampled run repeats one stride

    def advance(th, u, first, last):
        n = last - first
        if n not in powers:
            powers[n] = rk4_power(z, n)
        p00, p01, p10, p11 = powers[n]
        thk, uk = np.fft.fft2(th), np.fft.fft2(u)
        th = np.real(np.fft.ifft2(p00 * thk + p01 * uk))
        u = np.real(np.fft.ifft2(p10 * thk + p11 * uk))
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(u))):
            raise NumericalError(f"Klein-Gordon field non-finite at step {last}")
        return th, u

    return advance


@dataclass
class CrosscheckReport:
    deviation: float          # windowed relative L2 over the run
    kxi_max: float            # largest seeded kξ
    times: np.ndarray
    per_sample: np.ndarray    # relative L2 at each sample


def _seed_kxi(seed: np.ndarray, fields: HydroFields) -> float:
    """Largest kξ carried by the seed (spectral support above 1e-10 of peak)."""
    spec = np.abs(np.fft.fft2(seed))
    peak = float(np.max(spec))
    if peak == 0.0:
        return 0.0
    kx = 2 * np.pi * np.fft.fftfreq(fields.nx, fields.dx)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(fields.ny, fields.dy)[None, :]
    kk = np.sqrt(kx**2 + ky**2)
    live = spec > 1e-10 * peak
    xi = float(np.nanmean(fields.xi))
    return float(np.max(kk[live]) * xi)


def crosscheck_kg_vs_nlse(
    psi0: ComplexField2D,
    p: FluidParams,
    dtheta0: np.ndarray,
    t_final: float,
    n_samples: int = 32,
    kxi_limit: float = 0.3,
) -> CrosscheckReport:
    """Propagate one seed through both descriptions and compare phases.

    (i) Klein-Gordon on the metric extracted from the background, with
    initial u = −v₀·∇δθ (no initial density fluctuation); (ii) the
    linearized fluid equation seeded with φ = iδθ, projected back to
    δθ = Im φ.  Returns the windowed relative L2 deviation.  Seeds with
    spectral content beyond kξ = `kxi_limit` are refused: that is outside
    the hydrodynamic window the metric description lives in.
    """
    fields = HydroFields.from_field(psi0, p)
    kxi = _seed_kxi(dtheta0, fields)
    if kxi > kxi_limit + 1e-9:
        raise PhysicsGateError(
            f"seed carries kξ = {kxi:.3g} > {kxi_limit}: outside the "
            "hydrodynamic window"
        )
    metric = build_metric(fields)

    kx = 2 * np.pi * np.fft.fftfreq(fields.nx, fields.dx)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(fields.ny, fields.dy)[None, :]
    thx = np.real(np.fft.ifft2(1j * kx * np.fft.fft2(dtheta0)))
    thy = np.real(np.fft.ifft2(1j * ky * np.fft.fft2(dtheta0)))
    u0 = -(fields.vx * thx + fields.vy * thy)

    speed = float(np.max(np.sqrt(metric.c2) + np.hypot(metric.vx, metric.vy)))
    dt_kg = 0.25 * min(metric.dx, metric.dy) / speed
    dt_nl = 0.08 / max(
        float(np.max(psi0.k_squared())) / (2 * abs(p.m)),
        2.0 * abs(p.G_kerr) * float(np.max(np.abs(psi0.data)) ** 2),
    )

    t_s = t_final / n_samples
    th, u = np.asarray(dtheta0, float).copy(), u0
    phi = ComplexField2D(psi0.nx, psi0.ny, psi0.dx, psi0.dy,
                         1j * np.asarray(dtheta0, float))
    times = np.zeros(n_samples + 1)
    errs = np.zeros(n_samples + 1)
    num = den = 0.0
    for i in range(1, n_samples + 1):
        n_kg = max(1, int(np.ceil(t_s / dt_kg)))
        res = kg_evolve(th, u, metric, t_s / n_kg, n_kg)
        th, u = res.dtheta, res.dtheta_dot
        n_nl = max(1, int(np.ceil(t_s / dt_nl)))
        phi = linearized_step(phi, psi0, p, t_s / n_nl, steps=n_nl)
        th_nlse = np.imag(phi.data)
        diff = np.linalg.norm(th - th_nlse)
        ref = np.linalg.norm(th_nlse)
        times[i] = i * t_s
        errs[i] = diff / ref if ref > 0 else diff
        num += diff**2
        den += ref**2
    deviation = float(np.sqrt(num / den)) if den > 0 else 0.0
    return CrosscheckReport(deviation=deviation, kxi_max=kxi,
                            times=times, per_sample=errs)
