"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from photonfluid.elimination import (KernelParams, memory_kernel,
                                     memory_kernel_inf, validate_elimination)
from photonfluid.fluid import (ComplexField2D, FluidParams, Grid,
                               bogoliubov_dispersion, evolve, gp_energy,
                               measure_dispersion, uniform_background)
from photonfluid.geometry import (EUCLIDEAN, LORENTZIAN, HydroFields,
                                  build_metric, find_horizon)
from photonfluid.kgwave import (center_of_energy, crosscheck_kg_vs_nlse,
                                kg_evolve)
from photonfluid.lattice import (LatticeParams, LatticeState, continuum_error,
                                 continuum_params, fit_mass_from_dispersion,
                                 lattice_dispersion)
from photonfluid.rdr import (final_phonon_number, gamma_opt,
                             n_min_resolved_sideband, omega_opt,
                             thermal_occupancy)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_rdr_golden_numbers():
    n_th = thermal_occupancy(2 * np.pi * 1e7, 300.0)
    ok_th = abs(n_th - 6.3e5) / 6.3e5 <= 0.02
    n_min = n_min_resolved_sideband(0.2, 1.0)
    ok_min = n_min == (0.2 / 4.0) ** 2 and abs(n_min - 2.5e-3) < 1e-15
    nf8 = final_phonon_number(gamma_opt(1.0, 0.08, -1.0, 0.2, 1.0),
                              1e-5, n_min, n_th)
    nf5 = final_phonon_number(gamma_opt(1.0, 0.05, -1.0, 0.2, 1.0),
                              1e-5, n_min, n_th)
    ok8 = abs(nf8 - 49) / 49 <= 0.05
    ok5 = abs(nf5 - 126) / 126 <= 0.05
    report(1, ok_th and ok_min and ok8 and ok5,
           f"n_th={n_th:.4g} (vs 6.3e5), n_min={n_min:.3g}, "
           f"n_f={nf8:.1f} (vs 49) / {nf5:.1f} (vs 126)")


def test_criterion_02_resolved_sideband_limits():
    kp, G = 0.02, 0.03
    g_full = gamma_opt(1.0, G, -1.0, kp, 1.0)
    w_full = omega_opt(1.0, G, -1.0, kp, 1.0)
    g_rel = abs(g_full - 4 * G**2 / kp) / abs(g_full)
    w_rel = abs(w_full - (-G**2 / 2.0)) / abs(w_full)
    report(2, g_rel <= 1e-3 and w_rel <= 1e-3,
           f"gamma_opt limit dev {g_rel:.2e}, omega_opt limit dev {w_rel:.2e} "
           "(tolerance 1e-3)")


def test_criterion_03_kernel_against_quadrature():
    import warnings
    from scipy.integrate import IntegrationWarning
    worst = 0.0
    with warnings.catch_warnings():
        # long oscillatory tails trip quad's roundoff advisory; the
        # comparison below still demands 1e-10 absolute agreement
        warnings.simplefilter("ignore", IntegrationWarning)
        for wm in np.logspace(-1, 0.7, 10):
            for ga in np.logspace(-1.7, 0.9, 10):
                k = KernelParams(wm, ga, 1.0)
                for t in np.logspace(-1.3, 1.7, 10):
                    oracle, _ = quad(
                        lambda s: np.exp(-ga * s / 2) * np.sin(wm * s), 0, t,
                        epsabs=1e-14, epsrel=1e-14, limit=400)
                    worst = max(worst, abs(memory_kernel(t, k) - oracle))
    ok_cf = worst < 1e-10

    worst_tail = 0.0
    for wm in np.logspace(-1, 0.7, 10):
        for ga in np.logspace(-1.7, 0.9, 10):
            k = KernelParams(wm, ga, 1.0)
            tinf = memory_kernel_inf(k)
            resid = abs(memory_kernel(40.0 / ga, k) - tinf) / tinf
            worst_tail = max(worst_tail, resid)
    ok_tail = worst_tail < 1e-6
    report(3, ok_cf and ok_tail,
           f"closed form vs quadrature max dev {worst:.2e} (<1e-10), "
           f"tail residual {worst_tail:.2e} (<1e-6 of T_inf)")


def test_criterion_04_elimination_validity():
    rel_err = {}
    abs_err = {}
    for ga in (1.0, 3.0, 10.0, 30.0):
        chk = validate_elimination(KernelParams(1.0, ga, 0.1), 1.0, 100.0)
        rel_err[ga] = chk.err_norm
        abs_err[ga] = chk.phase_err_abs
    ok_two_pct = rel_err[10.0] <= 0.02
    # the discrepancy (absolute accumulated-phase offset) shrinks
    # monotonically with the damping ladder; the relative windowed norm
    # folds 1/T_inf(gamma) into the denominator and peaks at gamma = 2 w_m
    errs = [abs_err[g] for g in (1.0, 3.0, 10.0, 30.0)]
    ok_mono = errs[0] > errs[1] > errs[2] > errs[3]
    report(4, ok_two_pct and ok_mono,
           f"rel err at gamma=10: {rel_err[10.0]:.3%} (<=2%); phase offsets "
           + " > ".join(f"{e:.2e}" for e in errs) + " (monotone)")


def test_criterion_05_nlse_solver_properties():
    rng = np.random.default_rng(5)
    nx, dx = 128, 0.5
    base = np.ones((nx, nx), complex) + 0.05 * (
        rng.standard_normal((nx, nx)) + 1j * rng.standard_normal((nx, nx)))
    psi = ComplexField2D(Grid(nx, nx, dx, dx), base)
    psi.data = np.fft.ifft2(np.fft.fft2(psi.data)
                            * np.exp(-psi.grid.k_squared() / 2))
    p = FluidParams(m=1.0, G_kerr=1.0)
    n0, e0 = psi.norm_sq(), gp_energy(psi, p)
    out = evolve(psi, p, 0.002, 1000)
    norm_drift = abs(out.norm_sq() - n0) / n0
    energy_drift = abs(gp_energy(out, p) - e0) / abs(e0)

    # Strang order: error against a dt/16 reference
    nx2, dx2 = 64, 0.25
    psi2 = ComplexField2D.filled(Grid(nx2, nx2, dx2, dx2), 0.0)
    X, Y = psi2.grid.xy()
    psi2.data = np.exp(-(X**2 + Y**2) / 2).astype(complex) * np.exp(0.3j * X)
    psi2.data /= np.sqrt(psi2.norm_sq())
    p2 = FluidParams(m=1.0, G_kerr=1.5, V=0.5 * (X**2 + Y**2))
    T = 0.8
    ref_steps = int(T / 1.25e-4)
    ref = evolve(psi2, p2, T / ref_steps, ref_steps, force=True)
    dts = [2e-3, 1e-3, 5e-4]
    errs = []
    for dt in dts:
        s = int(round(T / dt))
        o = evolve(psi2, p2, T / s, s, force=True)
        errs.append(np.linalg.norm(o.data - ref.data)
                    / np.linalg.norm(ref.data))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = norm_drift <= 1e-10 and energy_drift <= 1e-6 and abs(slope - 2) <= 0.1
    report(5, ok,
           f"norm drift {norm_drift:.2e} (<=1e-10), energy drift "
           f"{energy_drift:.2e} (<=1e-6), Strang slope {slope:.3f} (2±0.1)")


def test_criterion_06_bogoliubov_dispersion():
    nx = 64
    L = 20 * np.pi
    psi0 = uniform_background(Grid(nx, 4, L / nx, L / nx), density=1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)          # c_ex = 1, xi = 1
    ks = [0.1, 0.3, 0.6, 1.0]
    res = measure_dispersion(psi0, p, ks, periods=16)
    devs = {}
    for r in res:
        w_ref = bogoliubov_dispersion(r.k, 1.0, p).real
        devs[r.k] = abs(r.omega.real - w_ref) / w_ref
    ok = all(r.ok for r in res) and all(d <= 0.02 for d in devs.values())
    report(6, ok, "measured vs formula: " + ", ".join(
        f"k*xi={k}: {d:.3%}" for k, d in devs.items()) + " (<=2%)")


def test_criterion_07_lattice_continuum_limit():
    J, h = -0.25, 1.0
    m_fit = fit_mass_from_dispersion(J, h, kh_max=0.1)
    m_ref = continuum_params(J, h, 0.0)[0]
    mass_dev = abs(m_fit - m_ref) / abs(m_ref)

    Nx = 128
    p = LatticeParams(Nx=Nx, Ny=4, h=h, omega_c=-4 * J, omega_m=1.0,
                      gamma=1.0, kappa=0.0, g_prime=0.0, J=J)
    khs, errs = [], []
    for mode in (1, 2, 4, 8):
        kh = 2 * np.pi * mode / Nx
        st_ = LatticeState.bloch(p, mode, 0)
        fld = ComplexField2D(Grid(Nx, 4, h, h), st_.a.copy())
        T = 2 * np.pi / (abs(J) * kh * kh)
        w_k = abs(lattice_dispersion(kh, 0.0, -4 * J, J))
        errs.append(continuum_error(
            st_, fld, p, T, dt_lattice=min(1.0, 0.2 / max(w_k, 1e-9)),
            force=True))
        khs.append(kh)
    slope = float(np.polyfit(np.log(khs), np.log(errs), 1)[0])
    ok = mass_dev <= 0.01 and abs(slope - 2) <= 0.2
    report(7, ok,
           f"mass fit dev {mass_dev:.3%} (<=1%), Taylor-remainder slope "
           f"{slope:.3f} (2±0.2)")


def test_criterion_08_metric_identities():
    rng = np.random.default_rng(8)
    nx = ny = 128                                  # 16384 > 1e4 points
    m = 1.7
    f = HydroFields.uniform(Grid(nx, ny, 1.0, 1.0), m=m, G=1.0)
    f.n = rng.uniform(0.1, 10.0, (nx, ny))
    f.c2 = rng.uniform(0.05, 4.0, (nx, ny))
    f.vx = rng.uniform(-3, 3, (nx, ny))
    f.vy = rng.uniform(-3, 3, (nx, ny))
    met = build_metric(f)
    om = f.n / (m * np.sqrt(f.c2))
    det_closed = -(om * np.abs(om)) ** 3 * f.c2
    det_generic = np.linalg.det(met.g.reshape(-1, 3, 3)).reshape(nx, ny)
    det_dev = float(np.max(np.abs(det_generic - det_closed)
                           / np.abs(det_closed)))
    prod = np.einsum("xyij,xyjk->xyik", met.g, met.g_inv)
    id_dev = float(np.max(np.abs(prod - np.eye(3))))

    lor = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=-2.0, G=-1.0))
    euc = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=2.0, G=-1.0))
    euc2 = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=-2.0, G=1.0))
    sig_ok = (np.all(lor.signature == LORENTZIAN)
              and np.all(euc.signature == EUCLIDEAN)
              and np.all(euc2.signature == EUCLIDEAN))
    ok = det_dev <= 1e-10 and id_dev <= 1e-10 and sig_ok
    report(8, ok,
           f"det dev {det_dev:.2e}, g*ginv dev {id_dev:.2e} (<=1e-10) on "
           f"{nx*ny} points; Euclidean iff G*m<0: {sig_ok}")


def test_criterion_09_horizon_detection():
    nx, L = 256, 8.0
    dx = L / nx
    x = (np.arange(nx) - nx // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.maximum(np.hypot(X, Y), 0.25 * dx)
    D, c = 1.0, 0.5
    f = HydroFields.from_profiles(Grid(nx, nx, dx, dx), 1.0, 1.0,
                                  n=np.ones_like(X), vx=-D * X / r**2, vy=-D * Y / r**2,
                                  c2=np.full_like(X, c * c))
    loops = find_horizon(f)
    main = max(loops, key=lambda l: np.max(np.hypot(l[:, 0], l[:, 1])))
    radii = np.hypot(main[:, 0], main[:, 1])
    sink_dev = float(np.max(np.abs(radii - D / c)))

    nx2, dx2 = 512, 0.25
    x2 = (np.arange(nx2) - nx2 // 2) * dx2
    y2 = (np.arange(4) - 2) * dx2

    def v(xx):
        prof = 0.5 * (np.tanh((xx + 20.3) / 3.0) - np.tanh((xx - 19.4) / 3.0))
        return -(0.5 + 1.0 * prof)

    f2 = HydroFields.from_profiles(Grid(nx2, 4, dx2, dx2), 1.0, 1.0, n=np.ones((nx2, 4)),
                                   vx=np.repeat(v(x2)[:, None], 4, 1), vy=0.0,
                                   c2=np.ones((nx2, 4)))
    found = sorted(float(np.mean(l[:, 0])) for l in find_horizon(f2))
    refs = [brentq(lambda xx: v(xx) ** 2 - 1.0, -30, 0),
            brentq(lambda xx: v(xx) ** 2 - 1.0, 0, 30)]
    tanh_dev = max(abs(found[0] - refs[0]), abs(found[1] - refs[1]))
    ok = sink_dev < dx and len(found) == 2 and tanh_dev < dx2
    report(9, ok,
           f"sink radius dev {sink_dev:.4f} (< dx={dx}), tanh crossing dev "
           f"{tanh_dev:.4f} (< dx={dx2})")


def test_criterion_10_kg_nlse_equivalence():
    p = FluidParams(m=1.0, G_kerr=1.0)
    nx = 64
    x = None
    devs = {}
    for label, flow in (("uniform", (0, 0)), ("flow", (3, 0))):
        psi0 = uniform_background(Grid(nx, 4, 1.0, 1.0), flow_mode=flow)
        x = psi0.grid.x[:, None]
        k = 2 * np.pi * 1 / nx                    # k*xi ~ 0.098
        seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
        rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k)
        devs[label] = rep.deviation
    ok_small = all(d <= 0.05 for d in devs.values())

    psi0 = uniform_background(Grid(128, 4, 0.5, 0.5))
    x = psi0.grid.x[:, None]
    lad = []
    for mode, lim in ((1, 0.3), (3, 0.3), (6, 0.6)):
        k = 2 * np.pi * mode / 64.0
        seed = 1e-3 * np.cos(k * x) * np.ones((1, 4))
        rep = crosscheck_kg_vs_nlse(psi0, p, seed, t_final=2 * np.pi / k,
                                    kxi_limit=lim)
        lad.append(rep.deviation)
    ok_mono = lad[0] < lad[1] < lad[2]
    ok = ok_small and ok_mono
    report(10, ok,
           f"deviation uniform {devs['uniform']:.3%}, flow {devs['flow']:.3%} "
           f"(<=5%); k*xi ladder " + " < ".join(f"{d:.3%}" for d in lad))


def test_criterion_11_horizon_trapping():
    nx, dx, c = 1024, 0.25, 1.0
    x = (np.arange(nx) - nx // 2) * dx
    y = (np.arange(4) - 2) * dx
    x1, x2, w = -60.0, 60.0, 4.0
    prof = 0.5 * (np.tanh((x - x1) / w) - np.tanh((x - x2) / w))
    v = -(0.5 + 1.0 * prof)
    f = HydroFields.from_profiles(Grid(nx, 4, dx, dx), 1.0, 1.0, n=np.ones((nx, 4)),
                                  vx=np.repeat(v[:, None], 4, 1), vy=0.0,
                                  c2=np.full((nx, 4), c * c))
    met = build_metric(f)
    x0, sig = 30.0, 6.0
    th0 = np.exp(-(x - x0) ** 2 / (2 * sig**2))[:, None] * np.ones((1, 4))
    kx = 2 * np.pi * np.fft.fftfreq(nx, dx)[:, None]
    thx = np.real(np.fft.ifft2(1j * kx * np.fft.fft2(th0)))
    u0 = -(np.repeat(v[:, None], 4, 1) + c) * thx   # upstream (v+c) branch

    T = 55.0
    steps = int(T / 0.04)
    dt, every = T / steps, max(1, steps // 50)
    times, xs = [0.0], [center_of_energy(th0, u0, met)[0]]

    def record(step, th, u):
        times.append(step * dt)
        xs.append(center_of_energy(th, u, met)[0])

    res = kg_evolve(th0, u0, met, dt, steps, record=record, record_every=every)
    if steps % every:       # the partial last stretch, from the result
        record(steps, res.dtheta, res.dtheta_dot)
    xs = np.array(xs)
    ok_recede = bool(np.all(np.diff(x2 - xs) > 0))

    sol = solve_ivp(lambda t, q: np.interp(q, x, v) + c, [0, T], [x0],
                    dense_output=True, rtol=1e-10, atol=1e-10)
    td = np.linspace(0, T, 4001)
    ray = sol.sol(td)[0]
    worst = 0.0
    for marker in (20.0, 10.0):
        t_kg = float(np.interp(-marker, -xs, times))
        t_ray = float(np.interp(-marker, -ray, td))
        worst = max(worst, abs(t_kg - t_ray) / t_ray)
    ok = ok_recede and worst <= 0.05
    report(11, ok,
           f"center-of-energy recedes monotonically: {ok_recede}; arrival "
           f"time dev vs ray tracing {worst:.3%} (<=5%)")
