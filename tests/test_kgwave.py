"""Wave propagation on the acoustic metric and its NLSE crosscheck."""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from photonfluid.errors import NumericalError, PhysicsGateError, StepSizeError
from photonfluid.fluid import (ComplexField2D, FluidParams, Grid, ground_state,
                               linearized_step, spectral_d, uniform_background)
from photonfluid.geometry import HydroFields, build_metric, hydro_linear_step
from photonfluid import fluid, kgwave
from photonfluid.kgwave import (
    center_of_energy,
    crosscheck_kg_vs_nlse,
    dalembertian,
    kg_coefficients,
    kg_energy,
    kg_evolve,
    sonic_cfl_dt,
)


def uniform_metric(nx=128, ny=4, dx=0.5, m=1.0, G=1.0, n=1.0, vx=0.0):
    return build_metric(
        HydroFields.uniform(Grid(nx, ny, dx, dx), m=m, G=G, density=n, vx=vx))


def mode_seed(metric, mode, amp=1e-2):
    k = 2 * np.pi * mode / (metric.grid.nx * metric.grid.dx)
    x = metric.grid.x[:, None]
    return k, amp * np.cos(k * x) * np.ones((1, metric.grid.ny))


# ---------------------------------------------------------------------------
# d'Alembertian

def test_dalembertian_constant_field():
    met = uniform_metric()
    out = dalembertian(np.ones((met.grid.nx, met.grid.ny)), met)
    assert np.max(np.abs(out)) < 1e-14


def test_dalembertian_conformally_flat_reduction():
    # v0 = 0, uniform n and c: box(theta) = Omega^{-1}(-c^{-2} d_tt + lap)
    met = uniform_metric(m=2.0, G=0.5, n=2.0)
    c2 = 2.0 * 0.5 / 2.0
    Om = 2.0 / (2.0 * np.sqrt(c2))
    Om *= abs(Om)
    k, th = mode_seed(met, 3)
    w = 0.77
    thddot = -w * w * th
    out = dalembertian(th, met, dtheta_dot=None, dtheta_ddot=thddot)
    # spatial part: nested centered first-derivatives act on cos(kx) as
    # -k_eff^2 with k_eff = sin(k dx)/dx
    keff2 = (np.sin(k * met.grid.dx) / met.grid.dx) ** 2
    expected = (w * w / c2 - keff2) * th / Om
    assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))


def test_dalembertian_null_mode_residual_refines_at_second_order():
    errs, hs = [], []
    for nx in (64, 128, 256):
        dx = 64.0 / nx
        met = uniform_metric(nx=nx, dx=dx, vx=0.4)
        k = 2 * np.pi * 4 / 64.0
        w = 0.4 * k + 1.0 * k            # v+c branch
        x = met.grid.x[:, None]
        th = np.cos(k * x) * np.ones((1, met.grid.ny))
        out = dalembertian(th, met, dtheta_dot=w * np.sin(k * x) * np.ones((1, met.grid.ny)),
                           dtheta_ddot=-w * w * th)
        errs.append(np.sqrt(np.mean(out**2)))
        hs.append(dx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_dalembertian_masks_stencils_touching_bad_points():
    c2 = np.ones((16, 16))
    c2[5, 5] = -1.0                     # one Euclidean point
    f = HydroFields.from_profiles(Grid(16, 16, 1.0, 1.0), 1.0, 1.0, n=1.0,
                                  vx=0.0, vy=0.0, c2=c2)
    met = build_metric(f)
    out = dalembertian(np.ones((16, 16)), met)
    assert np.isnan(out[5, 5]) and np.isnan(out[4, 5]) and np.isnan(out[5, 6])
    assert np.isfinite(out[10, 10])


# ---------------------------------------------------------------------------
# evolution

def test_kg_zero_data_stays_zero():
    met = uniform_metric()
    z = np.zeros((met.grid.nx, met.grid.ny))
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
    z = np.zeros((met.grid.nx, met.grid.ny))
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
    f = HydroFields.uniform(Grid(16, 16, 1.0, 1.0), m=1.0, G=-1.0)
    met = build_metric(f)
    z = np.zeros((16, 16))
    with pytest.raises(PhysicsGateError):
        kg_evolve(z, z, met, 0.01, 1)


def test_kg_energy_conservation():
    met = uniform_metric(nx=128, dx=0.5, vx=0.3)
    k, th0 = mode_seed(met, 3)
    u0 = -(0.3 + 1.0) * np.gradient(th0, met.grid.dx, axis=0)
    en = [kg_energy(th0, u0, met)]
    kg_evolve(th0, u0, met, 0.12, 1000, record_every=100,
              record=lambda step, th, u: en.append(kg_energy(th, u, met)))
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
    xs = met.grid.x
    proj = []
    stride = 2
    kg_evolve(th0, u0, met, dt, stride * n_samp, record_every=stride,
              record=lambda step, th, u: proj.append(
                  np.mean(th[:, 0] * np.exp(-1j * k * xs))))
    proj = np.array(proj)
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
    f = HydroFields.from_profiles(Grid(nx, ny, dx, dx), 1.0, 1.0, n=np.ones((nx, ny)),
                                  vx=np.repeat(v[:, None], ny, 1), vy=0.0,
                                  c2=np.full((nx, ny), c * c))
    return f, x, v


def test_dalembertian_vanishes_on_the_general_stepper_rhs(monkeypatch):
    # kg_evolve integrates □δθ = 0: on a curved (tanh1d) metric, the
    # ∂_t u its general right-hand side returns must zero the operator
    f, _, _ = _trapping_background(nx=128, dx=0.5, x1=-15.0, x2=15.0, w=3.0)
    met = build_metric(f)
    rng = np.random.default_rng(17)
    th, u = rng.standard_normal((2, met.grid.nx, met.grid.ny))
    rates = []

    def one_rhs_call(rhs, y, dt, first, last, what):
        out = np.empty_like(y)
        rhs(tuple(y), tuple(out))
        rates.append(out[1])
        return y

    monkeypatch.setattr(fluid, "rk4", one_rhs_call)
    kg_evolve(th, u, met, 0.5 * sonic_cfl_dt(met), 1)
    (a,) = rates
    residual = dalembertian(th, met, u, a)
    scale = np.max(np.abs(dalembertian(th, met, u)))
    assert scale > 0
    assert np.max(np.abs(residual)) <= 1e-12 * scale


def _sampled_centers(th0, u0, met, dt, steps, every):
    """Times and x centres of energy at t = 0, every `every` steps and at
    the last step, from one recorded `kg_evolve` run."""
    times, xs = [0.0], [center_of_energy(th0, u0, met)[0]]

    def record(step, th, u):
        times.append(step * dt)
        xs.append(center_of_energy(th, u, met)[0])

    res = kg_evolve(th0, u0, met, dt, steps, record=record, record_every=every)
    if steps % every:
        record(steps, res.dtheta, res.dtheta_dot)
    return np.array(times), np.array(xs)


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
    times, xs = _sampled_centers(th0, u0, met, T / steps, steps,
                                 max(1, steps // 50))
    # monotonically receding from the trapping horizon at x2 = 60
    dist = 60.0 - xs
    assert np.all(np.diff(dist) > 0)

    sol = solve_ivp(lambda t, q: np.interp(q, x, v) + c, [0, T], [x0],
                    dense_output=True, rtol=1e-10, atol=1e-10)
    t_dense = np.linspace(0, T, 4001)
    ray = sol.sol(t_dense)[0]
    for marker in (20.0, 10.0):
        t_kg = float(np.interp(-marker, -xs, times))
        t_ray = float(np.interp(-marker, -ray, t_dense))
        assert t_kg == pytest.approx(t_ray, rel=5e-2)


# ---------------------------------------------------------------------------
# crosscheck against the linearized fluid

def test_crosscheck_zero_seed():
    psi0 = uniform_background(Grid(64, 4, 1.0, 1.0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    rep = crosscheck_kg_vs_nlse(psi0, p, np.zeros((64, 4)), t_final=5.0)
    assert rep.deviation == 0.0


def test_crosscheck_refuses_short_wavelength_seed():
    psi0 = uniform_background(Grid(64, 4, 1.0, 1.0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.grid.x[:, None]
    k = 2 * np.pi * 8 / 64.0            # k*xi ~ 0.79
    seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    with pytest.raises(PhysicsGateError, match="hydrodynamic"):
        crosscheck_kg_vs_nlse(psi0, p, seed, t_final=1.0)


def test_crosscheck_uniform_background_one_period():
    psi0 = uniform_background(Grid(64, 4, 1.0, 1.0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.grid.x[:, None]
    k = 2 * np.pi * 1 / 64.0
    seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k)
    assert rep.kxi_max == pytest.approx(k, rel=1e-6)
    assert rep.deviation <= 0.05


def test_crosscheck_deviation_grows_with_kxi():
    psi0 = uniform_background(Grid(128, 4, 0.5, 0.5))
    p = FluidParams(m=1.0, G_kerr=1.0)
    x = psi0.grid.x[:, None]
    devs = []
    for mode, limit in ((1, 0.3), (3, 0.3), (6, 0.6)):
        k = 2 * np.pi * mode / 64.0
        seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
        rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k,
                                    kxi_limit=limit)
        devs.append(rep.deviation)
    assert devs[0] < devs[1] < devs[2]


@functools.lru_cache(maxsize=None)
def _cosine_ground_state(dx, V0=0.2, L=64.0, ny=4):
    """`ground_state` of m = 𝒢 = 1 in V = V₀ cos(2πx/L) with mean density
    1, on an L × ny·dx grid: a curved static background (n and c vary by
    about ±20 % at V₀ = 0.2).  Returns (ψ₀, params)."""
    grid = Grid(int(round(L / dx)), ny, dx, dx)
    V = V0 * np.cos(2 * np.pi * grid.x / L)[:, None] * np.ones((1, ny))
    p = FluidParams(m=1.0, G_kerr=1.0, V=V)
    return ground_state(p, L * ny * dx, grid), p


def _kg_hydro_gap(dx, n_samples=32):
    """Relative L2 gap between `kg_evolve` and `hydro_linear_step` without
    quantum pressure, windowed over `n_samples` samples of one period of
    mode 1 on the cosine ground state of cell `dx`.  Both solve the
    long-wave equation of the same background; KG with centred differences
    and hydro with spectral ones, so with the right metric the gap is the
    O(dx²) error of the centred stencil."""
    psi0, p = _cosine_ground_state(dx)
    fields = HydroFields.from_field(psi0, p)
    metric = build_metric(fields)
    k = 2 * np.pi / (psi0.grid.nx * dx)
    th0 = 1e-3 * np.cos(k * psi0.grid.x)[:, None] * np.ones((1, psi0.grid.ny))
    t_s = 2 * np.pi / k / n_samples           # c = 1 on average
    n = int(np.ceil(t_s / (0.5 * sonic_cfl_dt(metric))))
    kg = []
    kg_evolve(th0, np.zeros_like(th0), metric, t_s / n, n_samples * n,
              record=lambda step, th, u: kg.append(th.copy()), record_every=n)
    dn, th = np.zeros_like(th0), th0
    num = den = 0.0
    for want in kg:
        dn, th = hydro_linear_step(dn, th, fields, t_s / n, steps=n,
                                   quantum_pressure=False)
        num += float(np.sum((want - th) ** 2))
        den += float(np.sum(th ** 2))
    return np.sqrt(num / den)


def test_kg_meets_long_wave_hydro_at_second_order_on_a_curved_background():
    # the 2+1-D conformal factor Ω = (n/(m c))² makes □δθ = 0 the long-wave
    # hydrodynamic equation; with the 3+1-D n/(m c) the gap stalls near
    # 6.4e-2 (orders 0.16, 0.02) instead of falling as dx²
    gaps = [_kg_hydro_gap(dx) for dx in (2.0, 1.0, 0.5)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert gaps[-1] < 5e-3
    assert np.all(np.abs(orders - 2.0) < 0.25)


def test_crosscheck_on_a_curved_background_is_as_close_as_on_a_flat_one():
    # V₀ = 0.2 cosine ground state against the uniform fluid of the same
    # mean density, mode 1 over one period: 1.00 % flat and 1.25 % curved
    # (6.60 % curved with the 3+1-D conformal factor)
    psi0, p = _cosine_ground_state(1.0)
    k = 2 * np.pi / 64.0
    seed = 1e-3 * np.cos(k * psi0.grid.x)[:, None] * np.ones((1, 4))
    curved = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k)
    flat = crosscheck_kg_vs_nlse(uniform_background(psi0.grid),
                                 FluidParams(m=1.0, G_kerr=1.0), seed,
                                 t_final=2 * np.pi / k)
    assert curved.deviation <= 1.5 * flat.deviation


def _crosscheck_per_sample(psi0, p, dtheta0, t_final, n_samples=32):
    """The crosscheck as one `kg_evolve` and one `linearized_step` call per
    sample: (deviation, per-sample errors, KG energy drift)."""
    fields = HydroFields.from_field(psi0, p)
    metric = build_metric(fields)
    kx, ky = fields.grid.k()
    u0 = -(fields.vx * spectral_d(dtheta0, kx)
           + fields.vy * spectral_d(dtheta0, ky))
    dt_kg = 0.5 * sonic_cfl_dt(metric)
    dt_nl = 0.08 / max(
        float(np.max(psi0.grid.k_squared())) / (2 * abs(p.m)),
        2.0 * abs(p.G_kerr) * float(np.max(np.abs(psi0.data)) ** 2),
    )
    t_s = t_final / n_samples
    th, u = np.asarray(dtheta0, float).copy(), u0
    phi = ComplexField2D(psi0.grid, 1j * np.asarray(dtheta0, float))
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
        errs[i] = diff / ref if ref > 0 else diff
        num += diff**2
        den += ref**2
    e0, e1 = kg_energy(dtheta0, u0, metric), kg_energy(th, u, metric)
    return (float(np.sqrt(num / den)), errs,
            float(abs(e1 - e0) / max(abs(e0), 1e-300)))


@pytest.mark.parametrize("modulated", [False, True])
def test_crosscheck_equals_one_call_per_sample(modulated, monkeypatch):
    # uniform flowing background: both sides in closed form; a modulated
    # density: both RK4 loops
    grid = Grid(32, 4, 1.0, 1.0)
    psi0 = uniform_background(grid, flow_mode=(1, 0))
    if modulated:
        psi0.data = psi0.data * (1.0 + 0.05 * np.cos(2 * np.pi * grid.x
                                                     / 32.0))[:, None]
    p = FluidParams(m=1.0, G_kerr=1.0)
    seed = 1e-3 * np.cos(2 * np.pi * grid.x / 32.0)[:, None] * np.ones((1, 4))
    powers, power = [], kgwave.rk4_power
    monkeypatch.setattr(kgwave, "rk4_power",
                        lambda z, n: powers.append(n) or power(z, n))
    rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=3.0)
    assert len(powers) == (0 if modulated else 1)   # one stride, one power
    deviation, errs, drift = _crosscheck_per_sample(psi0, p, seed, 3.0)
    assert rep.deviation == deviation
    assert np.array_equal(rep.per_sample, errs)
    assert np.array_equal(rep.times, np.arange(33) * (3.0 / 32))
    assert rep.kg_energy_drift == drift


def test_crosscheck_peak_memory():
    # tracemalloc peak of a 256^2 crosscheck on a flowing uniform background
    # (mode-1 seed over one period, 32 samples), in float fields: 134.3
    # while kg_evolve kept a copy of δθ and u at every sample; 100.3 once
    # the crosscheck keeps one δθ copy per sample; 96.3 now that spectral
    # results own their real buffers instead of keeping the complex
    # transform alive; the second call is counted, after the first has
    # made the lazy imports
    grid = Grid(256, 256, 0.5, 0.5)
    psi0 = uniform_background(grid, flow_mode=(1, 0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    length = grid.nx * grid.dx
    seed = 1e-3 * np.cos(2 * np.pi * grid.x / length)[:, None] \
        * np.ones((1, grid.ny))
    crosscheck_kg_vs_nlse(psi0, p, seed, t_final=length)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        crosscheck_kg_vs_nlse(psi0, p, seed, t_final=length)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (256 * 256 * 8) <= 105


# ---------------------------------------------------------------------------
# closed form on uniform coefficients against step-by-step RK4

def _kg_rk4_oracle(th, u, metric, dt, steps, every=0):
    """Step-by-step RK4 of the flux-form system with np.roll differences;
    records (step, δθ, u) at every positive multiple of `every`, where
    `kg_evolve` calls its `record`."""
    A, Bx, By, Cxx, Cxy, Cyy = kg_coefficients(metric)

    def d(f, axis, h):
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)

    def rhs(th, u):
        thx, thy = d(th, 0, metric.grid.dx), d(th, 1, metric.grid.dy)
        flux = (Bx * d(u, 0, metric.grid.dx) + By * d(u, 1, metric.grid.dy)
                + d(Bx * u, 0, metric.grid.dx) + d(By * u, 1, metric.grid.dy)
                + d(Cxx * thx + Cxy * thy, 0, metric.grid.dx)
                + d(Cxy * thx + Cyy * thy, 1, metric.grid.dy))
        return u, flux / (-A)

    records = []
    for step in range(1, steps + 1):
        k1 = rhs(th, u)
        k2 = rhs(th + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
        k3 = rhs(th + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
        k4 = rhs(th + dt * k3[0], u + dt * k3[1])
        th = th + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if every and step % every == 0:
            records.append((step, th, u))
    return th, u, records


def _uniform_kg_case(nx, ny, dx, dy, m, G, n, vx, vy, seed):
    met = build_metric(HydroFields.uniform(Grid(nx, ny, dx, dy), m=m, G=G,
                                           density=n, vx=vx, vy=vy))
    dt = 0.9 * 0.5 * min(dx, dy) / (np.sqrt(n * G / m) + np.hypot(vx, vy))
    rng = np.random.default_rng(seed)
    # full-spectrum seeds: every mode, the Nyquist row and column included
    return met, dt, rng.standard_normal((nx, ny)), rng.standard_normal((nx, ny))


def _close(a, b, rel=1e-11):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


@pytest.mark.parametrize("case", [
    (32, 16, 0.5, 0.7, 1.0, 1.0, 1.0, 0.3, -0.2),     # flow in x and y
    (128, 4, 0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0),
    (32, 16, 0.6, 0.4, -2.0, -0.5, 1.3, -0.25, 0.15),  # m < 0
    (33, 7, 0.5, 0.7, 1.0, 1.0, 1.0, 0.3, -0.2),      # odd sides
])
@pytest.mark.parametrize("steps", [0, 1, 300])
def test_kg_uniform_closed_form_matches_rk4_steps(case, steps, monkeypatch):
    met, dt, th0, u0 = _uniform_kg_case(*case, seed=steps + 3)
    calls, power = [], kgwave.rk4_power
    monkeypatch.setattr(kgwave, "rk4_power",
                        lambda z, n: calls.append(n) or power(z, n))
    res = kg_evolve(th0, u0, met, dt, steps)
    assert calls == ([steps] if steps else [])
    th, u, _ = _kg_rk4_oracle(th0, u0, met, dt, steps)
    assert _close(res.dtheta, th) and _close(res.dtheta_dot, u)
    assert res.t == steps * dt


@pytest.mark.parametrize("every", [100, 70, 500])
def test_kg_uniform_closed_form_samples_where_the_loop_does(every):
    # 100 divides 300 (the last stride ends on the last step), 70 does not
    # (a remainder stride of 20 follows, unrecorded), 500 exceeds the run
    met, dt, th0, u0 = _uniform_kg_case(32, 16, 0.5, 0.7, 1.0, 1.0, 1.0,
                                        0.3, -0.2, seed=11)
    records = []
    res = kg_evolve(th0, u0, met, dt, 300, record_every=every,
                    record=lambda s, th, u: records.append(
                        (s, th.copy(), u.copy())))
    th_end, u_end, ref = _kg_rk4_oracle(th0, u0, met, dt, 300, every)
    assert [s for s, _, _ in records] == [s for s, _, _ in ref]
    for (_, th, u), (_, th_ref, u_ref) in zip(records + [(300, res.dtheta,
                                                          res.dtheta_dot)],
                                              ref + [(300, th_end, u_end)]):
        assert _close(th, th_ref) and _close(u, u_ref)
        e, e_ref = kg_energy(th, u, met), kg_energy(th_ref, u_ref, met)
        assert abs(e - e_ref) <= 1e-11 * abs(e_ref)
