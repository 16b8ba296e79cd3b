"""Memory kernel, Kerr coupling and the single-cell elimination check."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from photonfluid.elimination import (
    EliminationCheck,
    KernelParams,
    MicrocavityGeometry,
    kerr_coupling,
    memory_kernel,
    memory_kernel_inf,
    microcavity_params,
    validate_elimination,
)
from photonfluid.errors import PhysicsGateError


def kernel_quadrature(t, k):
    val, _ = quad(lambda s: np.exp(-k.gamma * s / 2) * np.sin(k.omega_m * s),
                  0, t, epsabs=1e-14, epsrel=1e-14, limit=400)
    return val


# ---------------------------------------------------------------------------
# microcavity parameter map

def test_microcavity_scaling_laws():
    base = MicrocavityGeometry(q=3, l0=2e-6, R=0.5)
    m0, Om0, g0 = microcavity_params(base)
    m1, Om1, g1 = microcavity_params(MicrocavityGeometry(q=3, l0=4e-6, R=0.5))
    assert m1 == pytest.approx(m0 / 2)
    assert g1 == pytest.approx(g0 / 4)
    assert Om1 == pytest.approx(Om0 / np.sqrt(2))


def test_microcavity_reference_arithmetic():
    from scipy.constants import c, hbar
    m, _, _ = microcavity_params(MicrocavityGeometry(q=7, l0=2e-6, R=1.0))
    assert m == pytest.approx(hbar * 7 * np.pi / (c * 2e-6), rel=1e-12)
    assert m == pytest.approx(3.87e-36, rel=1e-2)
    _, Om, _ = microcavity_params(MicrocavityGeometry(q=1, l0=1e-6, R=1.0))
    assert Om == pytest.approx(c * np.sqrt(2e6), rel=1e-12)
    assert Om == pytest.approx(4.24e11, rel=1e-2)


def test_microcavity_validation():
    with pytest.raises(ValueError):
        MicrocavityGeometry(q=0, l0=1e-6, R=1.0)
    with pytest.raises(ValueError):
        MicrocavityGeometry(q=1, l0=-1e-6, R=1.0)


# ---------------------------------------------------------------------------
# memory kernel

def test_kernel_at_zero_and_negative_time():
    k = KernelParams(1.0, 0.5, 1.0)
    assert memory_kernel(0.0, k) == 0.0
    with pytest.raises(ValueError):
        memory_kernel(-0.1, k)


def test_kernel_long_time_value():
    k = KernelParams(1.0, 0.5, 1.0)
    assert memory_kernel_inf(k) == pytest.approx(1.0 / 1.0625)   # 0.94118
    assert memory_kernel(400.0, k) == pytest.approx(memory_kernel_inf(k),
                                                    rel=1e-12)


def test_kernel_matches_quadrature_at_reference_point():
    k = KernelParams(1.0, 0.5, 1.0)
    assert abs(memory_kernel(3.0, k) - kernel_quadrature(3.0, k)) < 1e-10


@given(st.floats(0.1, 5.0), st.floats(0.01, 8.0), st.floats(0.05, 50.0))
def test_kernel_matches_quadrature(omega_m, gamma, t):
    k = KernelParams(omega_m, gamma, 1.0)
    assert abs(memory_kernel(t, k) - kernel_quadrature(t, k)) < 1e-10


@given(st.floats(0.2, 4.0), st.floats(0.05, 6.0))
def test_kernel_envelope_bound(omega_m, gamma):
    # |T(t) - T(inf)| <= e^{-gamma t/2} (1 + gamma/(2 omega_m)) / sqrt-scale;
    # numerically the residual is < 1e-6 T(inf)-scale for t >= 40/gamma
    k = KernelParams(omega_m, gamma, 1.0)
    t = 40.0 / gamma
    tinf = memory_kernel_inf(k)
    scale = omega_m / (gamma**2 / 4 + omega_m**2)
    assert abs(memory_kernel(t, k) - tinf) < 1e-6 * max(abs(scale), 1e-3)


def test_kernel_monotone_envelope_convergence():
    k = KernelParams(1.3, 0.8, 1.0)
    tinf = memory_kernel_inf(k)
    ts = np.linspace(0.5, 60.0, 200)
    resid = np.abs(memory_kernel(ts, k) - tinf)
    bound = np.exp(-k.gamma * ts / 2) * (1 + k.gamma / (2 * k.omega_m)) \
        * (k.omega_m**2 + k.gamma**2 / 4) ** -0.5 * 2
    assert np.all(resid <= bound + 1e-14)


# ---------------------------------------------------------------------------
# Kerr coupling

def test_kerr_trivial_and_undamped():
    assert kerr_coupling(KernelParams(1.0, 0.5, 0.0)) == 0.0
    assert kerr_coupling(KernelParams(1.0, 0.0, 1.0)) == pytest.approx(-2.0)


def test_kerr_reference_value():
    k = KernelParams(1.0, 0.5, 1.0)
    assert kerr_coupling(k) == pytest.approx(-2 * kernel_quadrature(4000.0, k),
                                             rel=1e-9)
    assert kerr_coupling(k) == pytest.approx(-1.88235, abs=1e-5)


@given(st.floats(0.05, 5.0), st.floats(0.0, 10.0), st.floats(0.01, 3.0))
def test_kerr_is_attractive(omega_m, gamma, g):
    assert kerr_coupling(KernelParams(omega_m, gamma, g)) < 0


def test_kerr_rejects_softened_spring():
    with pytest.raises(PhysicsGateError):
        kerr_coupling(KernelParams(-0.2, 1.0, 1.0))


# ---------------------------------------------------------------------------
# elimination validation (single cell)

def test_elimination_free_case_is_exact():
    chk = validate_elimination(KernelParams(1.0, 2.0, 0.0), 1.0, 50.0)
    assert chk.err_norm == pytest.approx(0.0, abs=1e-12)
    assert chk.phase_err_abs == pytest.approx(0.0, abs=1e-10)


def test_elimination_norm_is_conserved():
    chk = validate_elimination(KernelParams(1.0, 10.0, 0.1), 1.0, 100.0)
    assert chk.norm_drift < 1e-12


def test_elimination_phase_agreement_at_gamma_ten():
    # accumulated Kerr phase after t = 100/omega_m matches -2 g^2 T n t
    chk = validate_elimination(KernelParams(1.0, 10.0, 0.1), 1.0, 100.0)
    assert chk.err_norm <= 0.02
    assert abs(chk.phase_full - chk.phase_elim) / abs(chk.phase_elim) <= 0.02


def test_elimination_fixed_kerr_gamma_ladder():
    # raising gamma at fixed G (g rescaled) strictly improves the reduction
    errs = []
    for gamma in (1.0, 10.0, 100.0):
        tinf = memory_kernel_inf(KernelParams(1.0, gamma, 1.0))
        g = np.sqrt(0.01 / tinf)          # keeps 2 g^2 T(inf) fixed
        chk = validate_elimination(KernelParams(1.0, gamma, g), 1.0, 100.0)
        errs.append(chk.err_norm)
    assert errs[0] > errs[1] > errs[2]


def test_elimination_absolute_phase_error_monotone():
    # the late-time phase offset 2 g^2 n gamma w/(gamma^2/4+w^2)^2 falls
    # monotonically across this ladder (its peak sits at gamma = 2w/sqrt(3),
    # left of the first rung)
    errs = [validate_elimination(KernelParams(1.0, g, 0.1), 1.0, 100.0).phase_err_abs
            for g in (1.0, 3.0, 10.0, 30.0)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_elimination_rejects_undamped():
    with pytest.raises(ValueError):
        validate_elimination(KernelParams(1.0, 0.0, 0.1), 1.0, 10.0)


def rk4_elimination(k, n_photon, t_final, Delta=0.0):
    """Step the full photon-phonon cell with scalar RK4 and score it as
    `validate_elimination` does: the reference for its closed form."""
    dt = min(0.02 / max(abs(k.omega_m), 1e-12), 0.1 / k.gamma)
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps
    g, wm, ga = k.g, k.omega_m, k.gamma

    def rhs(psi, b):
        dpsi = -1j * (Delta - g * 2.0 * b.real) * psi
        db = -(1j * wm + ga / 2.0) * b + 1j * g * (psi.real**2 + psi.imag**2)
        return dpsi, db

    psi, b = complex(np.sqrt(n_photon)), 0j
    sample_every = max(1, n_steps // 4000)
    ts, psis = [0.0], [psi]
    for step in range(1, n_steps + 1):
        k1 = rhs(psi, b)
        k2 = rhs(psi + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = rhs(psi + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = rhs(psi + dt * k3[0], b + dt * k3[1])
        psi = psi + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if step % sample_every == 0 or step == n_steps:
            ts.append(step * dt)
            psis.append(psi)
    ts = np.array(ts)
    phase_full = np.unwrap(np.angle(np.array(psis)))
    phase_elim = -(Delta - 2.0 * g**2 * memory_kernel_inf(k) * n_photon) * ts
    win = ts >= 5.0 / ga
    diff = phase_full[win] - phase_elim[win]
    ref = np.linalg.norm(phase_elim[win])
    err_norm = np.linalg.norm(diff) / ref if ref > 0 else np.linalg.norm(diff)
    return err_norm, abs(phase_full[-1] - phase_elim[-1]), phase_full[-1]


@pytest.mark.parametrize("gamma, g, Delta", [
    (1.0, 0.1, 0.0), (3.0, 0.1, 0.0), (10.0, 0.1, 0.0), (30.0, 0.1, 0.0),
    (100.0, 0.1, 0.0), (3.0, 0.5, 0.0), (1.0, 0.1, 0.05), (3.0, 0.1, 0.1),
    (10.0, 0.1, -0.01), (2.0, 0.0, 0.4),
])
def test_elimination_closed_form_matches_rk4_cell(gamma, g, Delta):
    # a large detuning is left out: the loop's own truncation error on the
    # phase −Δt then exceeds 1e-9 of the small Kerr discrepancy it scores
    k = KernelParams(1.0, gamma, g)
    err_norm, phase_err_abs, phase_full = rk4_elimination(k, 1.0, 100.0, Delta)
    chk = validate_elimination(k, 1.0, 100.0, Delta=Delta)
    # with g = 0 the closed form scores exactly zero and the loop its
    # truncation error, so the scale there is the accumulated phase
    floor = 0.0 if g else 1e-9
    assert chk.err_norm == pytest.approx(err_norm, rel=1e-9, abs=floor)
    assert chk.phase_err_abs == pytest.approx(
        phase_err_abs, rel=1e-9, abs=floor * abs(phase_full))
    assert chk.phase_full == pytest.approx(phase_full, rel=1e-9)
