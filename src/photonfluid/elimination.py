"""Adiabatic elimination of a fast mechanical mode → effective Kerr medium.

Once the mechanical damping dominates every other rate (γ ≫ κ), the mirror
follows the instantaneous photon density and can be integrated out.  The
retarded response is carried by the memory kernel

    𝒯(t) = ∫₀ᵗ e^{−γs/2} sin(ω_m s) ds
         → 𝒯(∞) = ω_m / (γ²/4 + ω_m²),

and the photons acquire an effective contact interaction

    𝒢 = −2ħ g² 𝒯(∞),

attractive (𝒢 < 0) for any stable mechanical frequency ω_m > 0.  The sign
flip t′−t → s in the kernel integrand is absorbed in the definition above;
the long-time limit uses the quarter-square damping γ²/4 consistent with
the half-linewidth equation of motion ∂_t b = −i(ω_m − iγ/2) b + i g|Ψ|².

`validate_elimination` checks the reduction on a single cell: it evaluates
the full photon–phonon pair in closed form against the eliminated Kerr
equation and reports the phase-trajectory discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR
from .errors import PhysicsGateError
from .fluid import _step_count

__all__ = [
    "KernelParams",
    "MicrocavityGeometry",
    "EliminationCheck",
    "microcavity_params",
    "memory_kernel",
    "memory_kernel_inf",
    "kerr_coupling",
    "validate_elimination",
]


@dataclass
class KernelParams:
    """Renormalized mechanical parameters feeding the elimination.

    omega_m  mechanical frequency after the optical spring shift (may be
             ≤ 0 near instability; elimination then refuses)
    gamma    total mechanical damping (must be > 0 to eliminate)
    g        effective optomechanical coupling g = g₀ z₀ √A
    """

    omega_m: float
    gamma: float
    g: float


@dataclass
class MicrocavityGeometry:
    """Planar microcavity: longitudinal order q, mirror spacing l0 (m),
    mirror radius of curvature R (m)."""

    q: int
    l0: float
    R: float

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise ValueError("q must be an integer >= 1")
        if not (self.l0 > 0 and self.R > 0):
            raise ValueError("l0 and R must be positive")


def microcavity_params(geom: MicrocavityGeometry):
    """Transverse photon mass, trap frequency and coupling rate (SI).

    Confinement along the cavity axis gives the in-plane photons an
    effective mass m = ħqπ/(c l₀); the mirror curvature acts as a
    harmonic trap with Ω = c√(2/(l₀R)); the per-photon frequency pull of
    a mirror displacement is g₀ = qπc/l₀².  These are the parameters of
    the paper's first model, the planar microcavity photon fluid:
    `test_microcavity_reference_arithmetic` checks m ≈ 3.87·10⁻³⁶ kg at
    q = 7, l₀ = 2 µm and Ω ≈ 4.24·10¹¹ rad/s at q = 1, l₀ = 1 µm, R = 1 m.
    """
    m = HBAR * geom.q * np.pi / (C * geom.l0)
    Omega = C * np.sqrt(2.0 / (geom.l0 * geom.R))
    g0 = geom.q * np.pi * C / geom.l0**2
    return m, Omega, g0


def memory_kernel(t, k: KernelParams):
    """Closed form of 𝒯(t) = ∫₀ᵗ e^{−γs/2} sin(ω_m s) ds for t ≥ 0.

    𝒯(t) = [ω_m − e^{−γt/2}(ω_m cos ω_m t + (γ/2) sin ω_m t)] / (γ²/4 + ω_m²)
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("memory kernel is defined for t >= 0")
    a = k.gamma / 2.0
    b = k.omega_m
    denom = a * a + b * b
    if denom == 0.0:
        return np.zeros_like(t) if t.ndim else 0.0
    out = (b - np.exp(-a * t) * (b * np.cos(b * t) + a * np.sin(b * t))) / denom
    return float(out) if out.ndim == 0 else out


def memory_kernel_inf(k: KernelParams) -> float:
    """Long-time limit 𝒯(∞) = ω_m/(γ²/4 + ω_m²)."""
    return k.omega_m / (k.gamma**2 / 4.0 + k.omega_m**2)


def kerr_coupling(k: KernelParams) -> float:
    """Effective photon-photon coupling 𝒢 = −2g² 𝒯(∞) (ħ = 1).

    Strictly non-positive for ω_m > 0 (γ = 0 is accepted as the undamped
    limit of the closed form).  ω_m ≤ 0 means the spring has softened
    through zero: the elimination is invalid there.
    """
    if k.omega_m <= 0:
        raise PhysicsGateError(
            f"omega_m = {k.omega_m:.3g} <= 0: unstable mechanics, no Kerr limit"
        )
    return -2.0 * k.g**2 * memory_kernel_inf(k)


@dataclass
class EliminationCheck:
    """Outcome of the single-cell full-vs-eliminated comparison.

    err_norm        relative L2 deviation of the phase trajectories over
                    the window t ∈ [5/γ, t_final]
    phase_err_abs   absolute phase discrepancy at t_final (radians)
    phase_full      accumulated phase of the full model at t_final
    phase_elim      accumulated phase of the Kerr model at t_final
    norm_drift      max relative drift of |Ψ|² (0: conserved exactly)
    """

    err_norm: float
    phase_err_abs: float
    phase_full: float
    phase_elim: float
    norm_drift: float


def validate_elimination(
    k: KernelParams,
    n_photon: float,
    t_final: float,
    dt: float | None = None,
    Delta: float = 0.0,
) -> EliminationCheck:
    """Compare the full photon-phonon cell with the eliminated equation.

    Full model:      ∂_t Ψ = −i[Δ − g(b + b*)]Ψ,
                     ∂_t b = −i(ω_m − iγ/2) b + i g |Ψ|²,  b(0) = 0.
    Eliminated:      ∂_t Ψ = −i[Δ − 2g²𝒯(∞)|Ψ|²]Ψ.

    Both conserve |Ψ|² = n exactly, so b is driven by a constant source and
    Re b(t) = g n 𝒯(t).  The full model's phase is then closed form,

        φ(t) = −Δt + 2g²n ∫₀ᵗ 𝒯(s) ds,   a = γ/2,  D = a² + ω_m²,
        ∫₀ᵗ 𝒯 = [ω_m t − (2aω_m − e^{−at}(2aω_m cos ω_m t
                                         + (a² − ω_m²) sin ω_m t))/D] / D,

    and the comparison is purely between the phase trajectories, sampled
    where an RK4 run with step `dt` would record: every n_steps // 4000
    steps and at t_final.  The window starts at 5/γ so the mechanical
    transient has died before the deviation is scored.
    """
    if k.gamma <= 0:
        raise ValueError("gamma must be positive for elimination")
    if dt is None:
        dt = min(0.02 / max(abs(k.omega_m), 1e-12), 0.1 / k.gamma)
    n_steps = _step_count(t_final, dt)
    dt = t_final / n_steps
    sample_every = max(1, n_steps // 4000)
    steps = np.arange(0, n_steps + 1, sample_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    ts = steps * dt

    g, wm = k.g, k.omega_m
    a = k.gamma / 2.0
    D = a * a + wm * wm
    with np.errstate(under="ignore"):     # the transient decays to zero
        int_T = (wm * ts - (2 * a * wm - np.exp(-a * ts) * (
            2 * a * wm * np.cos(wm * ts)
            + (a * a - wm * wm) * np.sin(wm * ts))) / D) / D
    phase_full = -Delta * ts + 2.0 * g**2 * n_photon * int_T
    phase_elim = -(Delta - 2.0 * g**2 * memory_kernel_inf(k) * n_photon) * ts

    win = ts >= 5.0 / k.gamma
    if not np.any(win):
        raise ValueError("t_final too short: window [5/gamma, t_final] is empty")
    diff = phase_full[win] - phase_elim[win]
    ref = np.linalg.norm(phase_elim[win])
    err_norm = float(np.linalg.norm(diff) / ref) if ref > 0 else float(np.linalg.norm(diff))

    return EliminationCheck(
        err_norm=err_norm,
        phase_err_abs=float(abs(phase_full[-1] - phase_elim[-1])),
        phase_full=float(phase_full[-1]),
        phase_elim=float(phase_elim[-1]),
        norm_drift=0.0,
    )
