"""Wave propagation on the acoustic metric and its NLSE crosscheck."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from photonfluid.errors import NumericalError, PhysicsGateError, StepSizeError
from photonfluid.fluid import ComplexField2D, FluidParams, uniform_background
from photonfluid.geometry import HydroFields, build_metric
from photonfluid.kgwave import (
    center_of_energy,
    crosscheck_kg_vs_nlse,
    dalembertian,
    kg_energy,
    kg_evolve,
)


def uniform_metric(nx=128, ny=4, dx=0.5, m=1.0, G=1.0, n=1.0, vx=0.0):
    return build_metric(
        HydroFields.uniform(nx, ny, dx, dx, m=m, G=G, density=n, vx=vx))


def mode_seed(metric, mode, amp=1e-2):
    k = 2 * np.pi * mode / (metric.nx * metric.dx)
    x = metric.x()[:, None]
    return k, amp * np.cos(k * x) * np.ones((1, metric.ny))


# ---------------------------------------------------------------------------
# d'Alembertian

def test_dalembertian_constant_field():
    met = uniform_metric()
    out = dalembertian(np.ones((met.nx, met.ny)), met)
    assert np.max(np.abs(out)) < 1e-14


def test_dalembertian_conformally_flat_reduction():
    # v0 = 0, uniform n and c: box(theta) = Omega^{-1}(-c^{-2} d_tt + lap)
    met = uniform_metric(m=2.0, G=0.5, n=2.0)
    c2 = 2.0 * 0.5 / 2.0
    Om = 2.0 / (2.0 * np.sqrt(c2))
    k, th = mode_seed(met, 3)
    w = 0.77
    thddot = -w * w * th
    out = dalembertian(th, met, dtheta_dot=None, dtheta_ddot=thddot)
    # spatial part: nested centered first-derivatives act on cos(kx) as
    # -k_eff^2 with k_eff = sin(k dx)/dx
    keff2 = (np.sin(k * met.dx) / met.dx) ** 2
    expected = (w * w / c2 - keff2) * th / Om
    assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))


def test_dalembertian_null_mode_residual_refines_at_second_order():
    errs, hs = [], []
    for nx in (64, 128, 256):
        dx = 64.0 / nx
        met = uniform_metric(nx=nx, dx=dx, vx=0.4)
        k = 2 * np.pi * 4 / 64.0
        w = 0.4 * k + 1.0 * k            # v+c branch
        x = met.x()[:, None]
        th = np.cos(k * x) * np.ones((1, met.ny))
        out = dalembertian(th, met, dtheta_dot=w * np.sin(k * x) * np.ones((1, met.ny)),
                           dtheta_ddot=-w * w * th)
        errs.append(np.sqrt(np.mean(out**2)))
        hs.append(dx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_dalembertian_masks_stencils_touching_bad_points():
    f = HydroFields.uniform(16, 16, 1.0, 1.0, m=1.0, G=1.0)
    f.c2[5, 5] = -1.0                   # one Euclidean point
    met = build_metric(f)
    out = dalembertian(np.ones((16, 16)), met)
    assert np.isnan(out[5, 5]) and np.isnan(out[4, 5]) and np.isnan(out[5, 6])
    assert np.isfinite(out[10, 10])


# ---------------------------------------------------------------------------
# evolution

def test_kg_zero_data_stays_zero():
    met = uniform_metric()
    z = np.zeros((met.nx, met.ny))
    res = kg_evolve(z, z, met, 0.1, 50)
    assert np.all(res.dtheta == 0) and np.all(res.dtheta_dot == 0)


def test_kg_standing_wave_period():
    met = uniform_metric(nx=128, dx=0.5)
    k, th0 = mode_seed(met, 4)
    T = 2 * np.pi / (1.0 * k)           # c_ex = 1
    steps = int(round(T / 0.1))
    res = kg_evolve(th0, np.zeros_like(th0), met, T / steps, steps)
    assert np.linalg.norm(res.dtheta - th0) / np.linalg.norm(th0) < 0.01


def test_kg_cfl_refusal():
    met = uniform_metric()
    z = np.zeros((met.nx, met.ny))
    with pytest.raises(StepSizeError):
        kg_evolve(z, z, met, 1.0, 1)


def test_kg_forced_cfl_violation_aborts_at_blow_up():
    # dt = 5 is ten times the CFL limit: the shortest waves grow every step
    # until the field overflows, long before the requested step count
    met = uniform_metric(nx=64)
    _, th0 = mode_seed(met, 1)
    rng = np.random.default_rng(8)
    th0 = th0 + 1e-6 * rng.standard_normal(th0.shape)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite at step"):
        kg_evolve(th0, np.zeros_like(th0), met, 5.0, 100_000, force=True)


def test_kg_rejects_euclidean_metric():
    f = HydroFields.uniform(16, 16, 1.0, 1.0, m=1.0, G=-1.0)
    met = build_metric(f)
    z = np.zeros((16, 16))
    with pytest.raises(PhysicsGateError):
        kg_evolve(z, z, met, 0.01, 1)


def test_kg_energy_conservation():
    met = uniform_metric(nx=128, dx=0.5, vx=0.3)
    k, th0 = mode_seed(met, 3)
    u0 = -(0.3 + 1.0) * np.gradient(th0, met.dx, axis=0)
    res = kg_evolve(th0, u0, met, 0.12, 1000, sample_every=100)
    en = res.energy
    assert abs(en[-1] - en[0]) / abs(en[0]) < 1e-6


def test_kg_doppler_shift_on_uniform_flow():
    # single rightward mode on flow v: frequency = (v + c) k within 2%
    nx, dx, v = 128, 0.5, 0.5
    met = uniform_metric(nx=nx, dx=dx, vx=v)
    k, th0 = mode_seed(met, 3)
    kx = 2 * np.pi * np.fft.fftfreq(nx, dx)[:, None]
    thx = np.real(np.fft.ifft2(1j * kx * np.fft.fft2(th0)))
    u0 = -(v + 1.0) * thx
    w_expect = (v + 1.0) * k

    dt = 0.1
    n_samp = 4096
    xs = met.x()
    proj = np.empty(n_samp, complex)
    th, u = th0, u0
    stride = 2
    for i in range(n_samp):
        res = kg_evolve(th, u, met, dt, stride)
        th, u = res.dtheta, res.dtheta_dot
        proj[i] = np.mean(th[:, 0] * np.exp(-1j * k * xs))
    spec = np.abs(np.fft.fft(proj * np.hanning(n_samp)))
    freqs = 2 * np.pi * np.fft.fftfreq(n_samp, d=dt * stride)
    ipk = int(np.argmax(spec))
    im, ip = (ipk - 1) % n_samp, (ipk + 1) % n_samp
    den = spec[im] - 2 * spec[ipk] + spec[ip]
    shift = 0.5 * (spec[im] - spec[ip]) / den if den else 0.0
    w_meas = abs(freqs[ipk] + shift * (freqs[1] - freqs[0]))
    assert w_meas == pytest.approx(w_expect, rel=2e-2)


def _trapping_background(nx=1024, ny=4, dx=0.25, c=1.0,
                         x1=-60.0, x2=60.0, w=4.0):
    x = (np.arange(nx) - nx // 2) * dx
    y = (np.arange(ny) - ny // 2) * dx
    prof = 0.5 * (np.tanh((x - x1) / w) - np.tanh((x - x2) / w))
    v = -(0.5 + 1.0 * prof)            # -0.5c outside, -1.5c inside
    f = HydroFields.from_profiles(x, y, 1.0, 1.0, n=np.ones((nx, ny)),
                                  vx=np.repeat(v[:, None], ny, 1), vy=0.0,
                                  c2=np.full((nx, ny), c * c))
    return f, x, v


def test_superexcitonic_trapping_against_ray_oracle():
    # an upstream-launched packet inside the supersonic well recedes from
    # the trapping horizon; its worldline follows dx/dt = v(x) + c
    f, x, v = _trapping_background()
    met = build_metric(f)
    x0, sig, c = 30.0, 6.0, 1.0
    th0 = np.exp(-(x - x0) ** 2 / (2 * sig**2))[:, None] * np.ones((1, 4))
    kx = 2 * np.pi * np.fft.fftfreq(len(x), 0.25)[:, None]
    thx = np.real(np.fft.ifft2(1j * kx * np.fft.fft2(th0)))
    u0 = -(np.repeat(v[:, None], 4, 1) + c) * thx

    T, dt = 55.0, 0.04
    steps = int(T / dt)
    res = kg_evolve(th0, u0, met, T / steps, steps,
                    sample_every=max(1, steps // 50))
    xs = np.array([center_of_energy(th, u, met)[0]
                   for th, u in res.snapshots])
    # monotonically receding from the trapping horizon at x2 = 60
    dist = 60.0 - xs
    assert np.all(np.diff(dist) > 0)

    sol = solve_ivp(lambda t, q: np.interp(q, x, v) + c, [0, T], [x0],
                    dense_output=True, rtol=1e-10, atol=1e-10)
    t_dense = np.linspace(0, T, 4001)
    ray = sol.sol(t_dense)[0]
    for marker in (20.0, 10.0):
        t_kg = float(np.interp(-marker, -xs, res.times))
        t_ray = float(np.interp(-marker, -ray, t_dense))
        assert t_kg == pytest.approx(t_ray, rel=5e-2)


# ---------------------------------------------------------------------------
# crosscheck against the linearized fluid

def test_crosscheck_zero_seed():
    psi0 = uniform_background(64, 4, 1.0, 1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)
    rep = crosscheck_kg_vs_nlse(psi0, p, np.zeros((64, 4)), t_final=5.0)
    assert rep.deviation == 0.0


def test_crosscheck_refuses_short_wavelength_seed():
    psi0 = uniform_background(64, 4, 1.0, 1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.x()[:, None]
    k = 2 * np.pi * 8 / 64.0            # k*xi ~ 0.79
    seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    with pytest.raises(PhysicsGateError, match="hydrodynamic"):
        crosscheck_kg_vs_nlse(psi0, p, seed, t_final=1.0)


def test_crosscheck_uniform_background_one_period():
    psi0 = uniform_background(64, 4, 1.0, 1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.x()[:, None]
    k = 2 * np.pi * 1 / 64.0
    seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k)
    assert rep.kxi_max == pytest.approx(k, rel=1e-6)
    assert rep.deviation <= 0.05


def test_crosscheck_deviation_grows_with_kxi():
    psi0 = uniform_background(128, 4, 0.5, 0.5)
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.x()[:, None]
    devs = []
    for mode, limit in ((1, 0.3), (3, 0.3), (6, 0.6)):
        k = 2 * np.pi * mode / 64.0
        seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
        rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k,
                                    kxi_limit=limit)
        devs.append(rep.deviation)
    assert devs[0] < devs[1] < devs[2]
