"""Reservoir-engineering stage: steady state, induced damping/spring shift,
occupancies and stability, checked against independent integrations."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import solve_ivp

from photonfluid.rdr import (
    OptomechParams,
    drift_matrix,
    final_phonon_number,
    gamma_opt,
    n_min_resolved_sideband,
    omega_opt,
    optical_susceptibility,
    rdr_report,
    self_energy,
    stability_check,
    steady_state,
    thermal_occupancy,
)
from photonfluid.errors import PhysicsGateError

W = 1.0  # all rates in units of the intrinsic mechanical frequency


def params(gamma_i=1e-5, kappa_prime=0.2, **kw):
    return OptomechParams(omega_i=W, gamma_i=gamma_i, kappa_prime=kappa_prime,
                          n_th=0.0, **kw)


# ---------------------------------------------------------------------------
# steady state

def test_steady_state_undriven():
    ss = steady_state(params(G0=1e-3, eps=0.0, Delta=-0.3))
    assert ss.alpha == 0 and ss.beta == 0
    assert ss.Delta_bar == -0.3


def test_steady_state_linear_cavity():
    # G0 = 0, Delta = 0, kappa' = 2, eps = 1: alpha = -i eps/(kappa'/2) = -i
    ss = steady_state(params(kappa_prime=2.0, eps=1.0))
    assert ss.alpha == pytest.approx(-1j)
    assert ss.beta == 0


def _mean_field_rhs(p):
    def rhs(t, y):
        a = y[0] + 1j * y[1]
        b = y[2] + 1j * y[3]
        da = (1j * (p.Delta - p.G0 * 2 * b.real) - p.kappa_prime / 2) * a \
            - 1j * p.eps
        db = -(1j * p.omega_i + p.gamma_i) * b - 1j * p.G0 * (abs(a) ** 2)
        return [da.real, da.imag, db.real, db.imag]
    return rhs


def test_steady_state_relaxation_oracle():
    # independent long-time integration of the full nonlinear mean field.
    # gamma_i = 1e-3 keeps the relaxation (~18/gamma_i carrier periods)
    # affordable; the spec point gamma_i = 1e-5 is checked algebraically
    # below, its transient would span ~10^6 carrier periods.
    p = params(gamma_i=1e-3, G0=1e-4, eps=1e3, Delta=-1.0)
    ss = steady_state(p)
    sol = solve_ivp(_mean_field_rhs(p), [0, 18.0 / p.gamma_i], [0.0, 0, 0, 0],
                    method="DOP853", rtol=1e-10, atol=1e-5)
    a = sol.y[0, -1] + 1j * sol.y[1, -1]
    b = sol.y[2, -1] + 1j * sol.y[3, -1]
    assert abs(a - ss.alpha) / abs(ss.alpha) < 1e-6
    assert abs(b - ss.beta) / abs(ss.beta) < 1e-6


def test_steady_state_self_consistency_at_spec_point():
    p = params(gamma_i=1e-5, G0=1e-4, eps=1e3, Delta=-1.0)
    alpha, beta, Delta_bar = steady_state(p)
    assert alpha == pytest.approx(-1j * p.eps / (p.kappa_prime / 2 - 1j * Delta_bar))
    assert beta == pytest.approx(-p.G0 * abs(alpha) ** 2 / (p.omega_i - 1j * p.gamma_i))
    assert Delta_bar == pytest.approx(p.Delta - p.G0 * 2 * beta.real)


def test_steady_state_multistable_branches():
    # deep red detuning + strong drive: the intensity cubic folds
    # (for S = 2 G0^2, Delta = -1, kappa'/2 = 0.1 the fold spans
    # eps in (7.1, 27.5))
    p = params(gamma_i=1e-3, G0=0.01, eps=12.0, Delta=-1.0)
    ss = steady_state(p)
    assert ss.multistable
    assert len(ss.branches) == 3
    # every branch satisfies the fixed-point equations
    for alpha, beta, Db in ss.branches:
        I = abs(alpha) ** 2
        assert I == pytest.approx(p.eps**2 / ((p.kappa_prime / 2) ** 2 + Db**2),
                                  rel=1e-8)
    # default branch is the low-intensity one connected to eps -> 0
    assert abs(ss.alpha) ** 2 == pytest.approx(
        min(abs(b[0]) ** 2 for b in ss.branches))


# ---------------------------------------------------------------------------
# susceptibility and self-energy

def test_susceptibility_resonance():
    assert optical_susceptibility(1.0, -1.0, 2.0) == pytest.approx(1.0)
    assert optical_susceptibility(0.0, 0.0, 4.0) == pytest.approx(0.5)


def test_susceptibility_driven_ode_oracle():
    # steady response of dc/dt = (i Delta_bar - kappa'/2) c + e^{-i w t}
    Db, kp, w = -1.0, 0.2, 1.0

    def rhs(t, y):
        c = y[0] + 1j * y[1]
        dc = (1j * Db - kp / 2) * c + np.exp(-1j * w * t)
        return [dc.real, dc.imag]

    sol = solve_ivp(rhs, [0, 40.0 / kp], [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    c_end = (sol.y[0, -1] + 1j * sol.y[1, -1]) * np.exp(1j * w * sol.t[-1])
    assert c_end == pytest.approx(optical_susceptibility(w, Db, kp), rel=1e-8)


def test_self_energy_zero_coupling_and_symmetry():
    assert self_energy(0.7, 0.0, -1.0, 0.2) == 0
    # at omega = 0 the difference chi[0] - chi*[0] is purely imaginary,
    # so Sigma[0] is purely real
    s0 = self_energy(0.0, 0.05, -0.8, 0.3)
    assert abs(s0.imag) < 1e-15 * abs(s0)


def test_shift_formulas_match_self_energy():
    # gamma_opt = -(2 w_i/w) Im Sigma, omega_opt = (w_i/w) Re Sigma
    G, Db, kp = 0.05, -1.0, 0.2
    for w in np.logspace(-2, 2, 41):
        S = self_energy(w, G, Db, kp)
        assert gamma_opt(w, G, Db, kp, W) == pytest.approx(
            -2 * W / w * S.imag, rel=1e-12)
        assert omega_opt(w, G, Db, kp, W) == pytest.approx(
            W / w * S.real, rel=1e-12)


# ---------------------------------------------------------------------------
# induced damping and spring shift

def test_gamma_opt_reference_values():
    g = gamma_opt(1.0, 0.08, -1.0, 0.2, W)
    assert g == pytest.approx(0.1277, abs=2e-4)
    assert abs(g - 4 * 0.08**2 / 0.2) / g < 5e-3      # sideband limit, 0.5%


def test_gamma_opt_zero_and_domain():
    assert gamma_opt(1.0, 0.0, -1.0, 0.2, W) == 0
    with pytest.raises(ValueError):
        gamma_opt(0.0, 0.05, -1.0, 0.2, W)


def test_gamma_opt_blue_detuning_antidamps():
    red = gamma_opt(1.0, 0.08, -1.0, 0.2, W)
    blue = gamma_opt(1.0, 0.08, +1.0, 0.2, W)
    assert blue == pytest.approx(-red)
    assert blue < 0


@given(st.floats(0.2, 5.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0),
       st.floats(0.0, 0.5))
def test_gamma_opt_detuning_antisymmetry(w, Db, kp, G):
    assert gamma_opt(w, G, Db, kp, W) == pytest.approx(
        -gamma_opt(w, G, -Db, kp, W), abs=1e-15)


def test_omega_opt_reference_values():
    v = omega_opt(1.0, 0.08, -1.0, 0.2, W)
    assert v == pytest.approx(-3.19e-3, abs=1e-5)
    assert omega_opt(1.0, 0.0, -1.0, 0.2, W) == 0
    assert v == pytest.approx(-0.08**2 / (2 * W), rel=5e-3)


def test_omega_opt_odd_symmetry_at_zero_detuning():
    # Delta_bar = 0: the two bracket terms cancel for any probe frequency
    assert omega_opt(0.1, 0.05, 0.0, 0.2, W) == pytest.approx(0.0, abs=1e-18)
    assert omega_opt(1.7, 0.05, 0.0, 0.2, W) == pytest.approx(0.0, abs=1e-18)


def _linearized_rhs(p, G, Db):
    def rhs(t, y):
        c = y[0] + 1j * y[1]
        d = y[2] + 1j * y[3]
        dc = (1j * Db - p.kappa_prime / 2) * c - 1j * G * (d + np.conj(d))
        dd = -(1j * p.omega_i + p.gamma_i / 2) * d \
            - 1j * (G * np.conj(c) + np.conj(G) * c)
        return [dc.real, dc.imag, dd.real, dd.imag]
    return rhs


def test_gamma_opt_decay_fit_oracle():
    # time-domain decay of <d>(t) in the weak-coupling regime (4|G| < kappa'
    # is required for the perturbative rate to be an eigenvalue decay;
    # beyond it the modes hybridize and cooling saturates at kappa'/2)
    p = params()
    G, Db = 0.01, -1.0
    g_pred = gamma_opt(1.0, G, Db, p.kappa_prime, W) + p.gamma_i
    T = 6.0 / g_pred
    ts = np.arange(0.2 * T, T, 0.7)
    sol = solve_ivp(_linearized_rhs(p, G, Db), [0, T], [0, 0, 1, 0],
                    method="DOP853", rtol=1e-11, atol=1e-12, t_eval=ts)
    d = sol.y[2] + 1j * sol.y[3]
    gamma_fit = -2 * np.polyfit(ts, np.log(np.abs(d)), 1)[0]
    assert gamma_fit == pytest.approx(g_pred, rel=3e-2)


def test_omega_opt_frequency_fit_oracle():
    p = params()
    G, Db = 0.01, -1.0
    w_pred = omega_opt(1.0, G, Db, p.kappa_prime, W)
    T = 6.0 / (gamma_opt(1.0, G, Db, p.kappa_prime, W) + p.gamma_i)
    ts = np.arange(0.2 * T, T, 0.7)
    sol = solve_ivp(_linearized_rhs(p, G, Db), [0, T], [0, 0, 1, 0],
                    method="DOP853", rtol=1e-11, atol=1e-12, t_eval=ts)
    d = sol.y[2] + 1j * sol.y[3]
    freq = -np.polyfit(ts, np.unwrap(np.angle(d)), 1)[0]
    assert freq - W == pytest.approx(w_pred, rel=2e-2)


# ---------------------------------------------------------------------------
# occupancies

def test_thermal_occupancy_room_temperature():
    n = thermal_occupancy(2 * np.pi * 1e7, 300.0)
    assert n == pytest.approx(6.3e5, rel=2e-2)


def test_thermal_occupancy_half_point_and_limits():
    # hbar w / kB T = ln 2  ->  n = 1
    from scipy.constants import hbar, k
    T = 1.0
    w = np.log(2.0) * k * T / hbar
    assert thermal_occupancy(w, T) == pytest.approx(1.0, rel=1e-12)
    assert thermal_occupancy(2 * np.pi * 1e7, 0.0) == 0.0


def test_thermal_occupancy_cryogenic_mpmath_oracle():
    import mpmath
    from scipy.constants import hbar, k
    w, T = 2 * np.pi * 1e7, 4.0
    x = mpmath.mpf(hbar) * mpmath.mpf(w) / (mpmath.mpf(k) * mpmath.mpf(T))
    expected = float(1 / mpmath.expm1(x))
    assert thermal_occupancy(w, T) == pytest.approx(expected, rel=1e-12)


def test_final_phonon_number_reference_chain():
    n_th = thermal_occupancy(2 * np.pi * 1e7, 300.0)
    n_min = n_min_resolved_sideband(0.2, W)
    assert n_min == pytest.approx(2.5e-3)
    g8 = gamma_opt(1.0, 0.08, -1.0, 0.2, W)
    g5 = gamma_opt(1.0, 0.05, -1.0, 0.2, W)
    assert final_phonon_number(g8, 1e-5, n_min, n_th) == pytest.approx(49, rel=5e-2)
    assert final_phonon_number(g5, 1e-5, n_min, n_th) == pytest.approx(126, rel=5e-2)


def test_final_phonon_number_rejects_antidamped():
    with pytest.raises(PhysicsGateError):
        final_phonon_number(-2e-5, 1e-5, 1e-3, 100.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1e3), st.floats(0.0, 1e6))
@example(0.0, 5e-324, 0.0, 1.5)   # subnormal rate: γ_i·n̄_th rounds up
def test_final_phonon_number_is_convex_combination(go, gi, n_min, n_th):
    if go + gi <= 0:
        return
    nf = final_phonon_number(go, gi, n_min, n_th)
    assert min(n_min, n_th) - 1e-9 <= nf <= max(n_min, n_th) + 1e-9


@given(st.floats(0.01, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 2.0),
       st.floats(0.0, 0.3), st.floats(0.3, 3.0))
def test_renormalization_additivity(G, Db, kp, gi, w):
    from hypothesis import assume
    p = OptomechParams(omega_i=W, gamma_i=gi, kappa_prime=kp, n_th=10.0)
    assume(gamma_opt(w, G, Db, kp, W) + gi > 0)   # physical operating point
    rep = rdr_report(p, omega=w, G=G, Delta_bar=Db)
    scale = max(1.0, abs(rep.gamma_opt), abs(rep.omega_opt))
    assert rep.gamma_total - p.gamma_i - rep.gamma_opt == pytest.approx(
        0.0, abs=1e-12 * scale)
    assert rep.omega_m - p.omega_i - rep.omega_opt == pytest.approx(
        0.0, abs=1e-12 * scale)


def test_gamma_opt_resolved_sideband_limit_law():
    # for w_i/kappa' >= 50 the limit 4|G|^2/kappa' holds to (kappa'/w_i)^2
    # up to a constant factor <= 4
    G = 0.01
    for kp in (0.02, 0.01, 0.005):
        full = gamma_opt(1.0, G, -1.0, kp, W)
        limit = 4 * G**2 / kp
        assert abs(full - limit) / full <= 4 * kp**2


# ---------------------------------------------------------------------------
# stability

def test_stability_decoupled_is_stable():
    p = params(gamma_i=1e-3)
    st_ = stability_check(p, 0.0, -1.0)
    assert st_.stable
    assert not st_.softening_unstable


def test_spring_softening_criterion():
    p = params(kappa_prime=0.02)
    st_ = stability_check(p, 1.5, -1.0)   # G > sqrt(2) w_i
    assert st_.omega_m_softened < 0
    assert st_.softening_unstable


def _routh_hurwitz_stable(M):
    # quartic char poly s^4 + a1 s^3 + a2 s^2 + a3 s + a4
    a = np.poly(M).real
    a1, a2, a3, a4 = a[1], a[2], a[3], a[4]
    d2 = a1 * a2 - a3
    d3 = a3 * d2 - a1 * a1 * a4
    return a1 > 0 and d2 > 0 and d3 > 0 and a4 > 0


def test_stability_matches_routh_hurwitz_on_random_draws():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(1200):
        p = OptomechParams(
            omega_i=W,
            gamma_i=float(rng.uniform(0, 0.2)),
            kappa_prime=float(rng.uniform(0.02, 2.0)),
            n_th=0.0,
        )
        G = float(rng.uniform(0, 1.2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        Db = float(rng.uniform(-2.5, 2.5))
        M = drift_matrix(p, G, Db)
        eig_stable = bool(np.all(np.linalg.eigvals(M).real < 0))
        assert stability_check(p, G, Db).stable == eig_stable
        rh = _routh_hurwitz_stable(M)
        # marginal cases can disagree at roundoff level; require near-total
        # agreement and no disagreement away from the boundary
        if rh == eig_stable:
            agree += 1
        else:
            assert abs(np.max(np.linalg.eigvals(M).real)) < 1e-10
    assert agree >= 1195


def test_instability_onset_matches_blowup_oracle():
    # blue detuning: total damping crosses zero at G_c = sqrt(gamma_i kp/4)
    p = params(gamma_i=1e-3)
    Db = +1.0
    G_c = np.sqrt(p.gamma_i * p.kappa_prime / 4.0)
    assert stability_check(p, 0.5 * G_c, Db).stable
    assert not stability_check(p, 1.5 * G_c, Db).stable

    def grows(G):
        T = 8.0 / abs(gamma_opt(1.0, G, Db, p.kappa_prime, W) + p.gamma_i)
        sol = solve_ivp(_linearized_rhs(p, G, Db), [0, T], [0, 0, 1, 0],
                        method="DOP853", rtol=1e-10, atol=1e-12)
        return abs(sol.y[2, -1] + 1j * sol.y[3, -1]) > 1.0

    assert not grows(0.5 * G_c)
    assert grows(1.5 * G_c)


def test_rdr_report_figures_of_merit():
    p = OptomechParams(omega_i=W, gamma_i=1e-5, kappa_prime=0.2, kappa=1e-3,
                       n_th=6.3e5)
    rep = rdr_report(p, G=0.08, Delta_bar=-1.0)
    assert rep.gamma_total == pytest.approx(0.1277, rel=1e-2)
    assert rep.n_f == pytest.approx(49, rel=5e-2)
    assert rep.ratio_gamma_kappa == pytest.approx(rep.gamma_total / 1e-3)
    assert rep.stable is False or rep.stable is True


def test_rdr_report_takes_the_driven_operating_point_from_the_steady_state():
    p = params(G0=1e-3, eps=10.0, Delta=-1.0)
    ss = steady_state(p)
    assert rdr_report(p) == rdr_report(p, G=p.G0 * ss.alpha,
                                       Delta_bar=ss.Delta_bar)
