"""Optomechanical array: dispersion, mean-field stepping, continuum limit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photonfluid.elimination import KernelParams, kerr_coupling
from photonfluid.errors import PhysicsGateError, StepSizeError
from photonfluid.fluid import ComplexField2D, Grid
from photonfluid.lattice import (
    LatticeParams,
    LatticeState,
    continuum_error,
    continuum_params,
    fit_mass_from_dispersion,
    lattice_dispersion,
    step_lattice,
)
from photonfluid.lattice import _neighbor_sum


def make_params(**kw):
    base = dict(Nx=16, Ny=16, h=1.0, omega_c=0.0, omega_m=1.0, gamma=1.0,
                kappa=0.0, g_prime=0.0, J=-0.25)
    base.update(kw)
    return LatticeParams(**base)


# ---------------------------------------------------------------------------
# dispersion

def test_dispersion_band_edges():
    assert lattice_dispersion(0.0, 0.0, 2.0, 0.3) == pytest.approx(2.0 + 4 * 0.3)
    assert lattice_dispersion(np.pi, np.pi, 2.0, 0.3) == pytest.approx(2.0 - 4 * 0.3)
    assert lattice_dispersion(np.pi / 2, np.pi / 2, 2.0, 0.3) == pytest.approx(2.0)


def test_bloch_wave_phase_advance_matches_dispersion():
    p = make_params(Nx=32, Ny=32, omega_c=0.3)
    s0 = LatticeState.bloch(p, 3, 2)
    w = lattice_dispersion(2 * np.pi * 3 / 32, 2 * np.pi * 2 / 32, 0.3, p.J)
    dt, steps = 0.05, 400
    s1 = step_lattice(s0, p, dt, steps)
    ratio = s1.a / s0.a
    # profile is an exact eigenmode: only a global phase rotates
    assert np.max(np.abs(np.abs(ratio) - 1)) < 1e-8
    phase_err = np.angle(ratio[0, 0] * np.exp(1j * w * dt * steps))
    assert abs(phase_err) / (dt * steps) < 1e-8


def test_decoupled_sites_evolve_locally():
    p = make_params(J=0.0, omega_c=0.7, kappa=0.05)
    rng = np.random.default_rng(3)
    a0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    s = LatticeState(a0.copy(), np.zeros((16, 16), complex))
    t = 2.0
    s1 = step_lattice(s, p, 0.01, 200)
    expected = a0 * np.exp(-(1j * 0.7 + 0.05) * t)
    assert np.max(np.abs(s1.a - expected)) < 1e-9


def test_step_size_refusal():
    p = make_params(J=-2.0)
    s = LatticeState.zeros(p)
    with pytest.raises(StepSizeError):
        step_lattice(s, p, 0.1, 1)


@pytest.mark.parametrize("g_prime", [0.0, 0.05])
def test_step_lattice_refuses_a_state_of_the_wrong_shape(g_prime):
    # an 8×8 state under Nx = 16 ran silently on the g′ ≠ 0 path and hit a
    # broadcast error on g′ = 0; either component is checked
    p = make_params(Nx=16, Ny=8, g_prime=g_prime)
    good, bad = np.zeros((16, 8), complex), np.zeros((8, 8), complex)
    for a, b in ((bad, bad), (bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"\(Nx, Ny\) = \(16, 8\)"):
            step_lattice(LatticeState(a, b), p, 0.01, 1)


def test_norm_conservation_without_loss_or_coupling():
    p = make_params(J=0.25)
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    s = LatticeState(a0, np.zeros((16, 16), complex))
    n0 = np.sum(np.abs(s.a) ** 2)
    s1 = step_lattice(s, p, 0.01, 1000)
    assert abs(np.sum(np.abs(s1.a) ** 2) - n0) / n0 < 1e-10


def test_kerr_phase_matches_eliminated_rate():
    # uniform field, J=0: site phase accumulates at 2 g'^2 T_eff |a|^2 with
    # the kernel written for this module's literal damping (amplitude decay
    # gamma acts like a half-linewidth 2*gamma)
    p = make_params(J=0.0, omega_c=0.0, omega_m=1.0, gamma=20.0, g_prime=0.05)
    s = LatticeState(np.ones((16, 16), complex), np.zeros((16, 16), complex))
    T = 40.0
    s1 = step_lattice(s, p, 0.005, 8000)
    rate_meas = np.angle(s1.a[0, 0]) / T
    kernel = p.omega_m / (p.gamma**2 + p.omega_m**2)
    assert rate_meas == pytest.approx(2 * p.g_prime**2 * kernel, rel=5e-2)


@given(st.integers(0, 1000))
def test_phonon_subsystem_is_strictly_on_site(seed):
    # with the optical field dark, permuting site labels commutes with
    # stepping: there is no phonon hopping by construction
    rng = np.random.default_rng(seed)
    p = make_params(Ny=8, Nx=8, gamma=0.3)
    b0 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    perm = rng.permutation(64)

    def scramble(arr):
        return arr.reshape(-1)[perm].reshape(8, 8)

    s = LatticeState(np.zeros((8, 8), complex), b0.copy())
    stepped = step_lattice(s, p, 0.02, 25).b
    s_perm = LatticeState(np.zeros((8, 8), complex), scramble(b0))
    stepped_perm = step_lattice(s_perm, p, 0.02, 25).b
    assert np.allclose(scramble(stepped), stepped_perm, rtol=0, atol=1e-14)


def _rk4_oracle(a, b, p, dt, steps):
    """Step-by-step RK4 of the uncoupled (g' = 0) lattice equations."""
    ca = 1j * p.omega_c + p.kappa
    cb = 1j * p.omega_m + p.gamma

    def rhs(a, b):
        hop = (np.roll(a, 1, 0) + np.roll(a, -1, 0)
               + np.roll(a, 1, 1) + np.roll(a, -1, 1))
        return -ca * a - 1j * p.J * hop, -cb * b

    for _ in range(steps):
        k1 = rhs(a, b)
        k2 = rhs(a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = rhs(a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = rhs(a + dt * k3[0], b + dt * k3[1])
        a = a + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return a, b


@pytest.mark.parametrize("J, kappa, rates", [
    (-0.25, 0.0, "literal"),
    (0.4, 0.05, "literal"),
    (0.4, 0.05, "half"),
    (0.0, 0.05, "half"),
])
@pytest.mark.parametrize("steps", [0, 1, 300])
def test_uncoupled_lattice_propagator_matches_rk4_steps(J, kappa, rates, steps):
    # full-spectrum complex a on a non-square grid: every Bloch wave, the
    # zone-edge rows included, carries an independent amplitude; a "half"
    # case passes κ/2 and γ/2, so J = 0 and κ > 0 are both covered
    scale = 0.5 if rates == "half" else 1.0
    p = make_params(Nx=32, Ny=8, omega_c=0.3, omega_m=1.0, gamma=0.2 * scale,
                    kappa=kappa * scale, J=J)
    rng = np.random.default_rng(steps + 11)
    a0 = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    b0 = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    dt = 0.08 / p.rate
    out = step_lattice(LatticeState(a0.copy(), b0.copy(), t=0.5), p, dt, steps)
    ref_a, ref_b = _rk4_oracle(a0, b0, p, dt, steps)
    assert np.linalg.norm(out.a - ref_a) <= 1e-11 * np.linalg.norm(ref_a)
    assert np.linalg.norm(out.b - ref_b) <= 1e-11 * np.linalg.norm(ref_b)
    assert out.t == 0.5 + steps * dt


@pytest.mark.parametrize("shape", [(4, 4), (64, 16), (4, 128), (128, 4),
                                   (33, 7)])
def test_neighbor_sum_matches_rolled_stencil(shape):
    # the gathered sum adds the four neighbours in the order of the rolled
    # stencil, so it must agree with it bit for bit, wrap rows included
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = (np.roll(a, 1, 0) + np.roll(a, -1, 0)
           + np.roll(a, 1, 1) + np.roll(a, -1, 1))
    assert np.array_equal(_neighbor_sum(a), ref)


# ---------------------------------------------------------------------------
# continuum limit

def test_continuum_params_map():
    m, vt = continuum_params(0.5, 1.0, 0.0)
    assert m == pytest.approx(1.0)
    assert vt == pytest.approx(2.0)
    m2, vt2 = continuum_params(-0.5, 1.0, 2.0)
    assert m2 == pytest.approx(-1.0)
    assert vt2 == pytest.approx(0.0)
    with pytest.raises(ValueError):
        continuum_params(0.0, 1.0, 0.0)


def test_continuum_params_si_arithmetic():
    # J = 2pi x 1 MHz, h = 1 um, hbar = 1: m = 1/(2 J h^2)
    J = 2 * np.pi * 1e6
    h = 1e-6
    m, _ = continuum_params(J, h, 0.0)
    assert m == pytest.approx(1.0 / (2 * J * h * h), rel=1e-15)


def test_mass_fit_recovers_parameter_map():
    for J in (-0.25, 0.4):
        m_fit = fit_mass_from_dispersion(J, 1.0, kh_max=0.1)
        m_ref = continuum_params(J, 1.0, 0.0)[0]
        assert abs(m_fit - m_ref) / abs(m_ref) < 1e-2


def test_continuum_error_uniform_field_is_exact():
    p = make_params(Nx=16, Ny=16, omega_c=1.0, J=-0.25)
    a = np.ones((16, 16), complex)
    s = LatticeState(a.copy(), np.zeros_like(a))
    fld = ComplexField2D(Grid(16, 16, 1.0, 1.0), a.copy())
    err = continuum_error(s, fld, p, t_final=5.0)
    assert err < 1e-9


def test_continuum_error_rejects_grid_mismatch():
    p = make_params(Nx=16, Ny=16)
    s = LatticeState.zeros(p)
    fld = ComplexField2D(Grid(16, 16, 0.5, 0.5), np.ones((16, 16), complex))
    with pytest.raises(ValueError, match="incompatible"):
        continuum_error(s, fld, p, 1.0)


def test_continuum_error_refuses_zero_hopping():
    p = make_params(Nx=8, Ny=8, J=0.0)
    s = LatticeState(np.ones((8, 8), complex), np.zeros((8, 8), complex))
    fld = ComplexField2D(Grid(8, 8, 1.0, 1.0), np.ones((8, 8), complex))
    with pytest.raises(ValueError, match="J = 0"):
        continuum_error(s, fld, p, 1.0)


def test_continuum_error_takes_the_eliminated_coupling(monkeypatch):
    # g′ ≠ 0: the continuum 𝒢 is `kerr_coupling` at energy damping 2γ,
    # −2g′²ω_m/(γ² + ω_m²); unstable mechanics (ω_m ≤ 0) is refused
    # before the lattice is stepped
    from photonfluid import lattice

    seen = []

    def coupling(k):
        seen.append(k)
        return kerr_coupling(k)

    monkeypatch.setattr(lattice, "kerr_coupling", coupling)
    a = np.ones((8, 8), complex)
    fld = ComplexField2D(Grid(8, 8, 1.0, 1.0), a.copy())
    for gamma in (0.4, 0.2):
        p = make_params(Nx=8, Ny=8, omega_c=1.0, gamma=gamma, g_prime=0.05)
        continuum_error(LatticeState(a.copy(), np.zeros_like(a)), fld, p, 0.5)
        assert seen[-1] == KernelParams(1.0, 2 * gamma, 0.05)
        assert kerr_coupling(seen[-1]) == pytest.approx(
            -2 * 0.05**2 * 1.0 / (gamma**2 + 1.0), rel=1e-14)

    def no_stepping(*args, **kwargs):
        raise AssertionError("the lattice was stepped")

    monkeypatch.setattr(lattice, "step_lattice", no_stepping)
    p = make_params(Nx=8, Ny=8, omega_m=-0.1, g_prime=0.05)
    with pytest.raises(PhysicsGateError, match="omega_m"):
        continuum_error(LatticeState(a.copy(), np.zeros_like(a)), fld, p, 0.5)


def test_continuum_error_taylor_scaling():
    # single Bloch modes over one kinetic period: the deviation is the
    # O((kh)^2) Taylor remainder of the slowly-varying approximation
    Nx, J = 128, -0.25
    p = LatticeParams(Nx=Nx, Ny=4, h=1.0, omega_c=-4 * J, omega_m=1.0,
                      gamma=1.0, kappa=0.0, g_prime=0.0, J=J)
    khs, errs = [], []
    for mode in (1, 2, 4, 8):
        kh = 2 * np.pi * mode / Nx
        st_ = LatticeState.bloch(p, mode, 0)
        fld = ComplexField2D(Grid(Nx, 4, 1.0, 1.0), st_.a.copy())
        T = 2 * np.pi / (abs(J) * kh * kh)
        w_k = abs(lattice_dispersion(kh, 0.0, -4 * J, J))
        # a pure Bloch state only sees its own eigenfrequency, so the
        # forced step is limited by the (decoupled) mechanical rate
        err = continuum_error(st_, fld, p, T,
                              dt_lattice=min(1.0, 0.2 / max(w_k, 1e-9)),
                              force=True)
        khs.append(kh)
        errs.append(err)
    slope = np.polyfit(np.log(khs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_continuum_error_gaussian_packet_regression():
    # narrow-band packet, kh ~ 0.1, one kinetic period: relative deviation
    # stays below 1e-2 (frozen regression level)
    Nx, J = 256, -0.25
    p = LatticeParams(Nx=Nx, Ny=4, h=1.0, omega_c=-4 * J, omega_m=1.0,
                      gamma=1.0, kappa=0.0, g_prime=0.0, J=J)
    kh = 2 * np.pi * 4 / Nx          # 0.098
    x = np.arange(Nx) - Nx // 2
    env = np.exp(-x**2 / (2 * 40.0**2))
    a0 = (env * np.exp(1j * kh * x))[:, None] * np.ones((1, 4))
    s = LatticeState(a0.astype(complex), np.zeros_like(a0, dtype=complex))
    fld = ComplexField2D(Grid(Nx, 4, 1.0, 1.0), a0.copy())
    T = 2 * np.pi / (abs(J) * kh * kh)
    err = continuum_error(s, fld, p, T, dt_lattice=0.1, force=True)
    assert err < 1e-2
