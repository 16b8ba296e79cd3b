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
and `kg_evolve` hands `fluid._linear_steps` its per-mode 2×2 symbol
instead of its right-hand side; the result equals stepping up to
roundoff.  That driver's docstring holds the stretch, record and blow-up
contract.  `kg_evolve` keeps no snapshots, so each caller keeps only what
it reads (the `kg` stage a trace row, the crosscheck one δθ copy per
sample).

Characteristics travel at dx/dt = v₀ ± c_ex; inside the superexcitonic
region (|v₀| > c_ex) both branches point downstream and upstream-launched
packets stall at the horizon.  On uniform-flow backgrounds mode
frequencies Doppler-shift to ω = k·v₀ ± c_ex k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsGateError, StepSizeError
from .fluid import (ComplexField2D, FluidParams, _apply_real_pair,
                    _check_counts, _linear_steps, _step_count, is_uniform,
                    linearized_step, rk4_power, spectral_d)
from .geometry import LORENTZIAN, HydroFields, MetricField, build_metric

__all__ = [
    "kg_coefficients",
    "sonic_cfl_dt",
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
    form scaled by √|Ω|/c = n/(|m| c²).
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


def sonic_cfl_dt(metric: MetricField) -> float:
    """Sonic CFL bound ½ min(dx,dy)/max(c_ex + |v₀|) of the RK4 stepper."""
    speed = float(np.max(np.sqrt(metric.c2) + np.hypot(metric.vx, metric.vy)))
    return 0.5 * min(metric.grid.dx, metric.grid.dy) / speed


def _flux(th, u, coeffs, grid):
    """Bˣ∂ₓu + Bʸ∂ᵧu + ∂ₓ(Bˣu) + ∂ᵧ(Bʸu) + ∂ᵢ(C^{ij}∂ⱼδθ), centred."""
    _, Bx, By, Cxx, Cxy, Cyy = coeffs
    dx, dy = grid.dx, grid.dy
    thx, thy = _dx_c(th, dx), _dy_c(th, dy)
    return (Bx * _dx_c(u, dx) + By * _dy_c(u, dy)
            + _dx_c(Bx * u, dx) + _dy_c(By * u, dy)
            + _dx_c(Cxx * thx + Cxy * thy, dx)
            + _dy_c(Cxy * thx + Cyy * thy, dy))


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
    shape = metric.grid.shape
    coeffs = kg_coefficients(metric)
    th = np.asarray(dtheta, float)
    u = np.zeros(shape) if dtheta_dot is None else np.asarray(dtheta_dot, float)
    udot = np.zeros(shape) if dtheta_ddot is None else np.asarray(dtheta_ddot, float)
    out = (coeffs[0] * udot + _flux(th, u, coeffs, metric.grid)) \
        / metric.sqrt_minus_g

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


def kg_energy(dtheta, dtheta_dot, metric: MetricField) -> float:
    """Discrete wave energy ∫ [ −A u²/2 + C^{ij}∂ᵢθ∂ⱼθ/2 ] dx dy.

    Conserved on static backgrounds; positive definite only where the
    flow is subcritical (C is indefinite inside a superexcitonic region).
    """
    A, _, _, Cxx, Cxy, Cyy = kg_coefficients(metric)
    grid = metric.grid
    thx, thy = _dx_c(dtheta, grid.dx), _dy_c(dtheta, grid.dy)
    dens = -0.5 * A * np.asarray(dtheta_dot) ** 2 \
        + 0.5 * (Cxx * thx**2 + 2 * Cxy * thx * thy + Cyy * thy**2)
    return float(np.sum(dens) * grid.cell_area)


def center_of_energy(dtheta, dtheta_dot, metric: MetricField):
    """Energy-weighted mean position of the excitation."""
    thx = _dx_c(dtheta, metric.grid.dx)
    thy = _dy_c(dtheta, metric.grid.dy)
    # positive tracking density: fluid-frame kinetic + gradient energy
    comoving = np.asarray(dtheta_dot) + metric.vx * thx + metric.vy * thy
    with np.errstate(invalid="ignore"):
        dens = 0.5 * metric.n * (comoving**2 / metric.c2 + thx**2 + thy**2)
    tot = float(np.sum(dens))
    if not tot > 0:         # a NaN total is no energy either
        raise ValueError("zero field: center of energy undefined")
    X = metric.grid.x[:, None]
    Y = metric.grid.y[None, :]
    return float(np.sum(X * dens) / tot), float(np.sum(Y * dens) / tot)


def kg_evolve(
    dtheta0: np.ndarray,
    dtheta_dot0: np.ndarray,
    metric: MetricField,
    dt: float,
    steps: int,
    force: bool = False,
    record=None,
    record_every: int = 0,
) -> KGResult:
    """Integrate □δθ = 0 on a static, everywhere-Lorentzian metric.

    RK4 on (δθ, u); refuses CFL violations (dt > ½ min(dx,dy)/max(c+|v|))
    unless forced and a negative `steps` or `record_every` with
    `ValueError`.  `record(step, dtheta, dtheta_dot)` is invoked every
    `record_every` steps with the live arrays of the run: copy whatever is
    kept beyond the call.  The stretches, the record steps, the matrix
    powers and the blow-up report are those of `fluid._linear_steps`.

    When the coefficients are uniform to 1e-12 relative and dt is within
    the CFL bound, the steps are applied in closed form: each Fourier mode
    (δθ_k, u_k) is multiplied by a power of its 2×2 RK4 amplification
    matrix (`_kg_symbol`, `rk4_power`), which equals stepping up to
    roundoff.  A forced run past the CFL bound always steps, so a blow-up
    is still reported at the step it happens.
    """
    _check_counts(steps, record_every)
    if np.any(metric.signature != LORENTZIAN):
        raise PhysicsGateError(
            "metric has non-Lorentzian points: wave propagation is gated off"
        )
    dt_max = sonic_cfl_dt(metric)
    if dt > dt_max and not force:
        raise StepSizeError(f"CFL violation: dt = {dt:.3g} > {dt_max:.3g}")

    coeffs = kg_coefficients(metric)
    power = rhs = None
    if dt <= dt_max and is_uniform(*coeffs):
        z = _kg_symbol(metric.grid, dt, *(f.flat[0] for f in coeffs))

        def power(n):
            return rk4_power(z, n)
    else:
        inv_negA = 1.0 / (-coeffs[0])
        grid = metric.grid

        def rhs(y, out):
            (th, u), (dth, du) = y, out
            np.copyto(dth, u)
            np.multiply(inv_negA, _flux(th, u, coeffs, grid), out=du)

    th, u = _linear_steps(np.array((dtheta0, dtheta_dot0), float), steps, dt,
                          "Klein-Gordon field", power, _apply_real_pair, rhs,
                          record, record_every)
    return KGResult(dtheta=th, dtheta_dot=u, t=steps * dt)


def _kg_symbol(grid, dt, A, Bx, By, Cxx, Cxy, Cyy) -> tuple:
    """The generators dt·M_k of `kg_evolve` on uniform coefficients, as the
    four entry arrays of one 2×2 matrix per mode.

    The centred `np.roll` difference has the symbol S = i·sin(k·dx)/dx, so
    (δθ_k, u_k) obeys d/dt (δθ, u) = [[0, 1], [C_k/(−A), 2B_k/(−A)]] (δθ, u)
    with B_k = BⁱSᵢ and C_k = C^{ij}SᵢSⱼ.
    """
    sx = 1j * np.sin(2.0 * np.pi * np.fft.fftfreq(grid.nx))[:, None] / grid.dx
    sy = 1j * np.sin(2.0 * np.pi * np.fft.fftfreq(grid.ny))[None, :] / grid.dy
    return (0.0, dt,
            (dt / -A) * (Cxx * sx * sx + 2.0 * Cxy * sx * sy + Cyy * sy * sy),
            (2.0 * dt / -A) * (Bx * sx + By * sy))


@dataclass
class CrosscheckReport:
    deviation: float          # windowed relative L2 over the run
    kxi_max: float            # largest seeded kξ
    times: np.ndarray
    per_sample: np.ndarray    # relative L2 at each sample
    kg_energy_drift: float    # relative KG wave-energy drift over the run


def _seed_kxi(seed: np.ndarray, fields: HydroFields) -> float:
    """Largest kξ carried by the seed (spectral support above 1e-10 of peak)."""
    spec = np.abs(np.fft.fft2(seed))
    peak = float(np.max(spec))
    if peak == 0.0:
        return 0.0
    kk = np.sqrt(fields.grid.k_squared())
    live = spec > 1e-10 * peak
    xi = float(np.nanmean(fields.xi))
    return float(np.max(kk[live]) * xi)


def crosscheck_kg_vs_nlse(
    psi0: ComplexField2D,
    p: FluidParams,
    dtheta0: np.ndarray,
    t_final: float,
    kxi_limit: float = 0.3,
) -> CrosscheckReport:
    """Propagate one seed through both descriptions and compare phases.

    (i) Klein-Gordon on the metric extracted from the background, with
    initial u = −v₀·∇δθ (no initial density fluctuation); (ii) the
    linearized fluid equation seeded with φ = iδθ, projected back to
    δθ = Im φ.  Returns the windowed relative L2 deviation and the KG
    wave-energy drift.  Seeds with spectral content beyond kξ = `kxi_limit`
    are refused: that is outside the hydrodynamic window the metric
    description lives in.

    Each side is one sampled stepper call: `kg_evolve` records a copy of
    δθ at each of 32 evenly spaced sample times (u is not kept), and
    `linearized_step` is compared with that copy as it records.  So the
    set-up of each side (coefficients, uniformity tests, matrix powers) is
    paid once per run, and every sample equals the one a call per sample
    would give, bit for bit.
    """
    fields = HydroFields.from_field(psi0, p)
    kxi = _seed_kxi(dtheta0, fields)
    if kxi > kxi_limit + 1e-9:
        raise PhysicsGateError(
            f"seed carries kξ = {kxi:.3g} > {kxi_limit}: outside the "
            "hydrodynamic window"
        )
    metric = build_metric(fields)

    kx, ky = fields.grid.k()
    thx = spectral_d(dtheta0, kx)
    thy = spectral_d(dtheta0, ky)
    u0 = -(fields.vx * thx + fields.vy * thy)

    dt_kg = 0.5 * sonic_cfl_dt(metric)
    dt_nl = 0.08 / max(
        psi0.grid.k2_max / (2 * abs(p.m)),
        2.0 * abs(p.G_kerr) * float(np.max(np.abs(psi0.data)) ** 2),
    )

    n_samples = 32
    t_s = t_final / n_samples
    n_kg = _step_count(t_s, dt_kg)
    n_nl = _step_count(t_s, dt_nl)
    kg_th = []      # δθ at sample times 1 … n_samples
    res = kg_evolve(dtheta0, u0, metric, t_s / n_kg, n_samples * n_kg,
                    record=lambda step, th, u: kg_th.append(th.copy()),
                    record_every=n_kg)
    errs = np.zeros(n_samples + 1)
    num = den = 0.0

    def record(step, phi):
        nonlocal num, den
        i = step // n_nl
        th, th_nlse = kg_th[i - 1], np.imag(phi.data)
        diff = np.linalg.norm(th - th_nlse)
        ref = np.linalg.norm(th_nlse)
        errs[i] = diff / ref if ref > 0 else diff
        num += diff**2
        den += ref**2

    linearized_step(ComplexField2D(psi0.grid, 1j * np.asarray(dtheta0, float)),
                    psi0, p, t_s / n_nl, steps=n_samples * n_nl,
                    record=record, record_every=n_nl)
    deviation = float(np.sqrt(num / den)) if den > 0 else 0.0
    e0 = kg_energy(np.asarray(dtheta0, float), u0, metric)
    drift = abs(kg_energy(res.dtheta, res.dtheta_dot, metric) - e0) \
        / max(abs(e0), 1e-300)
    return CrosscheckReport(deviation=deviation, kxi_max=kxi,
                            times=np.arange(n_samples + 1) * t_s,
                            per_sample=errs,
                            kg_energy_drift=drift)
