"""Reversed-dissipation-regime engineering of a mechanical reservoir.

A high-Q mechanical mode (intrinsic frequency ω_i, damping γ_i) is coupled
to a strongly damped, driven ancillary cavity mode (linewidth κ′).  The
radiation-pressure backaction renormalizes the mechanical damping and
frequency,

    γ = γ_i + γ_opt(ω),      ω_m = ω_i + ω_opt(ω),

where γ_opt/ω_opt follow from the optical susceptibility

    χ[ω] = 1 / (−i(ω + Δ̄) + κ′/2)

and the self-energy Σ[ω] = −i|G|² (χ[ω] − χ*[−ω]).  Driving on the red
side (Δ̄ < 0) makes γ_opt large and positive, so the mechanical element
thermalizes much faster than the primary cavity decays (γ ≫ κ): the
reversed dissipation regime.  This module computes the steady state of
the driven ancillary system, the induced damping/spring shift, the final
phonon occupancy, and linear stability.

Conventions.  All rates are angular frequencies in a common unit (use
ω_i = 1 for dimensionless work, or rad/s throughout).  Cavity amplitude
decay is κ′/2 (half-linewidth); the mechanical steady amplitude keeps the
full-γ_i form β = −G₀|α|²/(ω_i − iγ_i), whose difference from the
half-linewidth form is O(γ_i²/ω_i²).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, K_B
from .errors import ConvergenceError, PhysicsGateError

__all__ = [
    "OptomechParams",
    "SteadyState",
    "StabilityReport",
    "RdrReport",
    "steady_state",
    "optical_susceptibility",
    "self_energy",
    "gamma_opt",
    "omega_opt",
    "thermal_occupancy",
    "n_min_resolved_sideband",
    "final_phonon_number",
    "drift_matrix",
    "stability_check",
    "rdr_report",
]


@dataclass
class OptomechParams:
    """Inputs for the ancillary-mode engineering stage.

    omega_i      intrinsic mechanical frequency
    gamma_i      intrinsic mechanical damping
    kappa_prime  ancillary cavity linewidth (full width; amplitude decay κ′/2)
    kappa        primary cavity linewidth (figure-of-merit only)
    G0           single-photon optomechanical coupling of the ancillary mode
    eps          drive rate of the ancillary mode
    Delta        bare laser detuning (ω_L − ω_c)
    n_th         thermal occupancy of the mechanical bath
    """

    omega_i: float
    gamma_i: float
    kappa_prime: float
    kappa: float = 0.0
    G0: float = 0.0
    eps: float = 0.0
    Delta: float = 0.0
    n_th: float | None = None

    def __post_init__(self):
        if not self.omega_i > 0:
            raise ValueError("omega_i must be positive")
        if self.gamma_i < 0:
            raise ValueError("gamma_i must be non-negative")
        if not self.kappa_prime > 0:
            raise ValueError("kappa_prime must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.n_th is not None and self.n_th < 0:
            raise ValueError("n_th must be non-negative")


@dataclass
class SteadyState:
    """Self-consistent classical steady state of the driven ancillary system.

    The default branch is the one continuously connected to the undriven
    (ε → 0) solution; all physical branches are kept in `branches` as
    (alpha, beta, Delta_bar) tuples sorted by |α|².
    """

    alpha: complex
    beta: complex
    Delta_bar: float
    branches: list = field(default_factory=list)
    multistable: bool = False

    def __iter__(self):
        return iter((self.alpha, self.beta, self.Delta_bar))


def steady_state(p: OptomechParams) -> SteadyState:
    """Solve the classical steady state of the driven ancillary mode.

    The fixed point of

        α = −iε / (κ′/2 − iΔ̄),    β = −G₀|α|² / (ω_i − iγ_i),
        Δ̄ = Δ − G₀(β + β*)

    reduces to a cubic in I = |α|², solved exactly; every real root with
    I ≥ 0 is a physical branch.  Two or more branches flag multistability.
    The sign of the static shift in Δ̄ is the one generated by the
    radiation-pressure Hamiltonian (the same linearization that yields the
    susceptibility and damping formulas); mirror displacement pushes the
    effective detuning toward the blue for any sign of G₀.
    """
    w, g = p.omega_i, p.gamma_i
    # −G0*(beta+beta*) = S*I with S > 0 the static pull per photon
    S = 2.0 * p.G0**2 * w / (w * w + g * g)
    half_k = p.kappa_prime / 2.0

    if p.eps == 0.0:
        return SteadyState(0.0 + 0.0j, 0.0 + 0.0j, p.Delta, [(0j, 0j, p.Delta)])

    if S == 0.0:
        roots = [p.eps**2 / (half_k**2 + p.Delta**2)]
    else:
        coeffs = [S * S, 2.0 * p.Delta * S, p.Delta**2 + half_k**2, -p.eps**2]
        rts = np.roots(coeffs)
        scale = max(abs(r) for r in rts)
        roots = sorted(
            float(r.real) for r in rts if abs(r.imag) <= 1e-9 * scale and r.real >= 0.0
        )
    if not roots:
        raise ConvergenceError("steady state: no physical root of the intensity cubic")

    branches = []
    for I in roots:
        Delta_bar = p.Delta + S * I
        alpha = -1j * p.eps / (half_k - 1j * Delta_bar)
        beta = -p.G0 * I / (w - 1j * g)
        resid = abs(I - p.eps**2 / (half_k**2 + Delta_bar**2))
        if resid > 1e-9 * max(I, 1.0):
            raise ConvergenceError(
                f"steady state: branch residual {resid:.3e} exceeds tolerance"
            )
        branches.append((alpha, beta, Delta_bar))

    a0, b0, d0 = branches[0]  # smallest intensity: the ε→0-connected branch
    return SteadyState(a0, b0, d0, branches, multistable=len(branches) > 1)


def optical_susceptibility(omega, Delta_bar, kappa_prime):
    """χ[ω] = 1/(−i(ω + Δ̄) + κ′/2).  Never singular for κ′ > 0."""
    return 1.0 / (-1j * (np.asarray(omega) + Delta_bar) + kappa_prime / 2.0)


def self_energy(omega, G, Delta_bar, kappa_prime):
    """Radiation-pressure self-energy Σ[ω] = −i|G|²(χ[ω] − χ*[−ω]).

    The induced damping and the optical spring of the mechanical mode are
    its two parts, γ_opt = −(2ω_i/ω) Im Σ and ω_opt = (ω_i/ω) Re Σ;
    `test_shift_formulas_match_self_energy` checks `gamma_opt` and
    `omega_opt` against it.
    """
    chi_p = optical_susceptibility(omega, Delta_bar, kappa_prime)
    chi_m = optical_susceptibility(-np.asarray(omega), Delta_bar, kappa_prime)
    return -1j * abs(G) ** 2 * (chi_p - np.conj(chi_m))


def _check_omega(omega):
    if np.any(np.asarray(omega) == 0.0):
        raise ValueError("omega = 0: the 1/omega prefactor is singular")


def gamma_opt(omega, G, Delta_bar, kappa_prime, omega_i):
    """Optically induced mechanical damping rate at probe frequency ω.

    γ_opt(ω) = (|G|²ω_i/ω) [ κ′/(κ′²/4 + (Δ̄+ω)²) − κ′/(κ′²/4 + (Δ̄−ω)²) ],
    equivalently −(2ω_i/ω)·Im Σ[ω].  Positive (cooling) for red detuning.
    """
    _check_omega(omega)
    omega = np.asarray(omega, dtype=float)
    dp = kappa_prime**2 / 4.0 + (Delta_bar + omega) ** 2
    dm = kappa_prime**2 / 4.0 + (Delta_bar - omega) ** 2
    out = (abs(G) ** 2 * omega_i / omega) * (kappa_prime / dp - kappa_prime / dm)
    return float(out) if out.ndim == 0 else out


def omega_opt(omega, G, Delta_bar, kappa_prime, omega_i):
    """Optical spring shift of the mechanical frequency at probe frequency ω.

    ω_opt(ω) = (|G|²ω_i/ω) [ (Δ̄+ω)/(κ′²/4 + (Δ̄+ω)²) + (Δ̄−ω)/(κ′²/4 + (Δ̄−ω)²) ],
    equivalently (ω_i/ω)·Re Σ[ω].
    """
    _check_omega(omega)
    omega = np.asarray(omega, dtype=float)
    dp = kappa_prime**2 / 4.0 + (Delta_bar + omega) ** 2
    dm = kappa_prime**2 / 4.0 + (Delta_bar - omega) ** 2
    out = (abs(G) ** 2 * omega_i / omega) * ((Delta_bar + omega) / dp + (Delta_bar - omega) / dm)
    return float(out) if out.ndim == 0 else out


def thermal_occupancy(omega: float, T: float) -> float:
    """Bose occupancy n̄ = 1/(exp(ħω/k_BT) − 1) with exact SI constants.

    `omega` in rad/s, `T` in kelvin.  T = 0 returns the limit value 0.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if T < 0:
        raise ValueError("T must be non-negative")
    if T == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * T)
    return float(1.0 / np.expm1(x))


def n_min_resolved_sideband(kappa_prime: float, omega_i: float) -> float:
    """Backaction-limited occupancy floor n̄_min = (κ′/4ω_i)²."""
    return (kappa_prime / (4.0 * omega_i)) ** 2


def final_phonon_number(gamma_opt_val, gamma_i, n_min, n_th) -> float:
    """Steady phonon number n_f = (γ_opt n̄_min + γ_i n̄_th)/(γ_opt + γ_i).

    A rate-weighted mix of the backaction floor and the bath occupancy;
    total damping must be positive (otherwise the mode is unstable).
    """
    total = gamma_opt_val + gamma_i
    if total <= 0:
        raise PhysicsGateError(
            f"total damping {total:.3e} <= 0: mechanical mode unstable"
        )
    # weights first: the products γ·n̄ can round a subnormal rate out of range
    return (gamma_opt_val / total) * n_min + (gamma_i / total) * n_th


def drift_matrix(p: OptomechParams, G: complex, Delta_bar: float) -> np.ndarray:
    """Real 4×4 drift matrix of the linearized quadratures (X_c, Y_c, X_d, Y_d).

    From ∂_t ĉ = (iΔ̄ − κ′/2)ĉ − iG(d̂ + d̂†) and
    ∂_t d̂ = −(iω_i + γ_i/2)d̂ − i(Gĉ† + G*ĉ).
    """
    gr, gi = np.real(G), np.imag(G)
    hk, hg = p.kappa_prime / 2.0, p.gamma_i / 2.0
    return np.array(
        [
            [-hk, -Delta_bar, 2 * gi, 0.0],
            [Delta_bar, -hk, -2 * gr, 0.0],
            [0.0, 0.0, -hg, p.omega_i],
            [-2 * gr, -2 * gi, -p.omega_i, -hg],
        ]
    )


@dataclass
class StabilityReport:
    stable: bool
    eigenvalues: np.ndarray
    omega_m_softened: float       # ω_i − |G|²/(2ω_i), resolved-sideband spring law
    softening_unstable: bool      # True when the softened frequency is negative

    def __iter__(self):
        return iter((self.stable, self.eigenvalues))


def stability_check(p: OptomechParams, G: complex, Delta_bar: float) -> StabilityReport:
    """Linear stability of the coupled (ĉ, d̂) fluctuations.

    Stable iff every eigenvalue of the 4×4 quadrature drift matrix has a
    strictly negative real part (equivalent to the Routh–Hurwitz
    conditions, but numerically robust).  Also reports the
    resolved-sideband spring-softening criterion, which drives ω_m
    negative for |G| > √2 ω_i.
    """
    eig = np.linalg.eigvals(drift_matrix(p, G, Delta_bar))
    softened = p.omega_i - abs(G) ** 2 / (2.0 * p.omega_i)
    return StabilityReport(
        stable=bool(np.all(eig.real < 0.0)),
        eigenvalues=eig,
        omega_m_softened=softened,
        softening_unstable=softened < 0.0,
    )


@dataclass
class RdrReport:
    """Full characterization of an RDR operating point."""

    Delta_bar: float
    G: complex
    gamma_opt: float
    omega_opt: float
    gamma_total: float
    omega_m: float
    n_min: float
    n_f: float
    stable: bool
    ratio_gamma_kappa: float


def rdr_report(
    p: OptomechParams,
    omega: float | None = None,
    G: complex | None = None,
    Delta_bar: float | None = None,
) -> RdrReport:
    """Assemble the RDR figure-of-merit report.

    When (G, Delta_bar) are not supplied they are derived from the driven
    steady state via G = G₀α.  The probe frequency defaults to ω_i.  The
    thermal occupancy is `p.n_th` (the `rdr` stage converts a temperature
    itself); n̄_min is the resolved-sideband floor.
    """
    if G is None or Delta_bar is None:
        ss = steady_state(p)
        G = p.G0 * ss.alpha if G is None else G
        Delta_bar = ss.Delta_bar if Delta_bar is None else Delta_bar

    if omega is None:
        omega = p.omega_i
    if p.n_th is None:
        raise ValueError("n_th is required for occupancies")
    n_min = n_min_resolved_sideband(p.kappa_prime, p.omega_i)

    g_opt = gamma_opt(omega, G, Delta_bar, p.kappa_prime, p.omega_i)
    w_opt = omega_opt(omega, G, Delta_bar, p.kappa_prime, p.omega_i)
    gamma_total = g_opt + p.gamma_i
    omega_m = w_opt + p.omega_i
    nf = final_phonon_number(g_opt, p.gamma_i, n_min, p.n_th)
    ratio = gamma_total / p.kappa if p.kappa > 0 else float("inf")

    return RdrReport(
        Delta_bar=Delta_bar,
        G=G,
        gamma_opt=g_opt,
        omega_opt=w_opt,
        gamma_total=gamma_total,
        omega_m=omega_m,
        n_min=n_min,
        n_f=nf,
        stable=stability_check(p, G, Delta_bar).stable,
        ratio_gamma_kappa=ratio,
    )
