"""Madelung split, linearized hydrodynamics, acoustic metric, horizons."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import fft as sp_fft
from scipy.optimize import brentq

from photonfluid import geometry
from photonfluid.errors import PhysicsGateError
from photonfluid.fluid import (
    ComplexField2D,
    FluidParams,
    bogoliubov_dispersion,
    linearized_step,
    uniform_background,
)
from photonfluid.geometry import (
    DEGENERATE,
    EUCLIDEAN,
    LORENTZIAN,
    HydroFields,
    build_metric,
    estimate_density_fluctuation,
    find_horizon,
    hydro_linear_step,
    line_element,
    madelung,
    marching_squares,
)
from photonfluid.geometry import _CASES, _key, _link
from photonfluid.unwrap import (dctn, idctn, phase_residues,
                                unwrap_least_squares, wrap_to_pi)


# ---------------------------------------------------------------------------
# Madelung decomposition and unwrapping

def test_madelung_uniform_field():
    psi = ComplexField2D.filled(16, 16, 1.0, 1.0, np.sqrt(2) * np.exp(1j * np.pi / 4))
    n, theta = madelung(psi)
    assert np.allclose(n, 2.0)
    assert np.allclose(theta, np.pi / 4)


def test_madelung_plane_wave_ramp():
    # theta = k x recovered beyond the wrapped range; v0 = k/m uniform
    nx, dx = 64, 0.5
    psi = uniform_background(nx, 8, dx, dx, flow_mode=(5, 0))
    k0 = psi.meta["flow_k"][0]
    md = madelung(psi)
    X = psi.x()[:, None]
    assert np.max(np.abs(md.theta - (md.theta[0, 0] + k0 * (X - X[0])))) < 1e-9
    assert md.vortices == []
    f = HydroFields.from_field(psi, FluidParams(m=2.0, G_kerr=1.0))
    assert np.allclose(f.vx, k0 / 2.0, atol=1e-9)
    assert np.allclose(f.vy, 0.0, atol=1e-12)


def test_vortex_residue_and_circulation():
    nx, dx = 64, 0.3
    psi = ComplexField2D.filled(nx, nx, dx, dx, 0.0)
    X, Y = psi.xy()
    xc, yc = 0.12 * dx, 0.07 * dx     # off-grid core
    r = np.hypot(X - xc, Y - yc)
    psi.data = np.tanh(r) * np.exp(1j * np.arctan2(Y - yc, X - xc))
    md = madelung(psi)
    assert len(md.vortices) == 1
    i, j, charge = md.vortices[0]
    assert charge == 1
    assert abs(i - nx // 2) <= 1 and abs(j - nx // 2) <= 1
    assert not md.mask[nx // 2, nx // 2]

    # discrete line-integral oracle: circulation of v0 = grad(theta)/m
    # around the core equals 2*pi/m
    ph = np.angle(psi.data)
    i0, i1, j0, j1 = 8, 56, 8, 56
    circ = 0.0
    for i in range(i0, i1):
        circ += wrap_to_pi(ph[i + 1, j0] - ph[i, j0])
    for j in range(j0, j1):
        circ += wrap_to_pi(ph[i1, j + 1] - ph[i1, j])
    for i in range(i1, i0, -1):
        circ += wrap_to_pi(ph[i - 1, j1] - ph[i, j1])
    for j in range(j1, j0, -1):
        circ += wrap_to_pi(ph[i0, j - 1] - ph[i0, j])
    m = 1.7
    assert circ / m == pytest.approx(2 * np.pi / m, rel=1e-12)


def test_unwrap_congruence_without_residues():
    rng = np.random.default_rng(7)
    smooth = np.cumsum(rng.standard_normal((32, 32)) * 0.1, axis=0)
    smooth += np.linspace(0, 9 * np.pi, 32)[None, :]
    wrapped = wrap_to_pi(smooth)
    theta, res = unwrap_least_squares(wrapped)
    assert not np.any(res)
    # congruent to the input and free of 2*pi jumps
    assert np.allclose(wrap_to_pi(theta - wrapped), 0.0, atol=1e-9)
    assert np.max(np.abs(np.diff(theta, axis=1))) < np.pi


def test_dct_matches_scipy_orthonormal_type_two():
    rng = np.random.default_rng(5)
    shapes = [(64, 4), (1, 1), (1, 8), (8, 1), (2, 2), (2, 3), (5, 7)]
    shapes += [tuple(int(s) for s in rng.integers(1, 40, size=2))
               for _ in range(16)]
    for shape in shapes:
        a = rng.standard_normal(shape)
        keep = a.copy()
        for ours, ref in ((dctn, sp_fft.dctn), (idctn, sp_fft.idctn)):
            want = ref(a, type=2, norm="ortho")
            got = ours(a)
            assert got.shape == shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        back = idctn(dctn(a))
        assert np.max(np.abs(back - a)) <= 1e-13 * np.max(np.abs(a))
        assert np.array_equal(a, keep)


# ---------------------------------------------------------------------------
# linearized hydrodynamics

def _uniform_fields(nx=64, ny=4, dx=1.0, m=1.0, G=1.0, n=1.0, vx=0.0):
    return HydroFields.uniform(nx, ny, dx, dx, m=m, G=G, density=n, vx=vx)


def test_hydro_zero_stays_zero():
    f = _uniform_fields()
    dn, th = hydro_linear_step(np.zeros((64, 4)), np.zeros((64, 4)), f, 0.01,
                               steps=20)
    assert np.all(dn == 0) and np.all(th == 0)


def test_hydro_mode_frequencies_with_and_without_quantum_pressure():
    f = _uniform_fields()
    k = 2 * np.pi * 1 / 64.0          # k*xi ~ 0.1
    x = f.x()[:, None]
    th0 = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    zero = np.zeros_like(th0)

    wB = bogoliubov_dispersion(k, 1.0, FluidParams(m=1.0, G_kerr=1.0)).real
    TB = 2 * np.pi / wB
    steps = int(round(TB / 0.01))
    dn1, th1 = hydro_linear_step(zero, th0, f, TB / steps, steps=steps,
                                 quantum_pressure=True)
    assert np.linalg.norm(th1 - th0) / np.linalg.norm(th0) < 0.02

    Tc = 2 * np.pi / (1.0 * k)
    steps = int(round(Tc / 0.01))
    dn2, th2 = hydro_linear_step(zero, th0, f, Tc / steps, steps=steps,
                                 quantum_pressure=False)
    assert np.linalg.norm(th2 - th0) / np.linalg.norm(th0) < 0.02


def test_hydro_quantum_pressure_holds_to_unit_kxi():
    # mode at k*xi ~ 1 returns after one full Bogoliubov period
    f = _uniform_fields()
    k = 2 * np.pi * 10 / 64.0
    x = f.x()[:, None]
    th0 = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    wB = bogoliubov_dispersion(k, 1.0, FluidParams(m=1.0, G_kerr=1.0)).real
    T = 2 * np.pi / wB
    steps = int(round(T / 0.004))
    _, th1 = hydro_linear_step(np.zeros_like(th0), th0, f, T / steps,
                               steps=steps, quantum_pressure=True)
    assert np.linalg.norm(th1 - th0) / np.linalg.norm(th0) < 0.02


def test_hydro_matches_linearized_field_evolution():
    # same seed through the (dn, dtheta) pair and through the fluctuation
    # field phi = dn/2n + i dtheta; Madelung projection agrees to 1e-3
    nx, ny = 64, 4
    f = _uniform_fields(nx=nx, ny=ny)
    psi0 = uniform_background(nx, ny, 1.0, 1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)
    k = 2 * np.pi * 3 / nx           # k*xi ~ 0.3
    x = f.x()[:, None]
    th0 = 1e-3 * np.cos(k * x) * np.ones((1, ny))
    zero = np.zeros_like(th0)

    T = 2 * np.pi / bogoliubov_dispersion(k, 1.0, p).real
    steps = int(round(T / 0.005))
    dn_h, th_h = hydro_linear_step(zero, th0, f, T / steps, steps=steps)

    phi = ComplexField2D(nx, ny, 1.0, 1.0, 1j * th0)
    phi = linearized_step(phi, psi0, p, T / steps, steps=steps)
    th_f = np.imag(phi.data)
    dn_f = 2.0 * np.real(phi.data)    # n = 1

    ref = max(np.linalg.norm(th_f), np.linalg.norm(dn_f))
    assert np.linalg.norm(th_h - th_f) / ref < 1e-3
    assert np.linalg.norm(dn_h - dn_f) / ref < 1e-3


def test_density_estimate_trivial_and_plane_wave():
    f = _uniform_fields(vx=0.0)
    static = estimate_density_fluctuation(np.zeros((64, 4)),
                                          3.0 * np.ones((64, 4)), f)
    assert np.all(static == 0)

    # plane wave on uniform flow: dn = (n w~ k /(m c^2)) * amplitude, with
    # w~ the comoving frequency entering through dtheta_t
    fv = _uniform_fields(vx=0.4)
    k = 2 * np.pi * 2 / 64.0
    x = fv.x()[:, None]
    w_lab = 0.9
    th = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    th_t = 1e-3 * w_lab * np.sin(k * x) * np.ones((1, 4))
    dn = estimate_density_fluctuation(th_t, th, fv)
    # dn = -(n/mc^2)(v dx(th) + th_t) = -A (w_lab - v k) sin(kx), the
    # comoving frequency setting the amplitude
    expected = -1e-3 * (w_lab - 0.4 * k) * np.sin(k * x) * np.ones((1, 4))
    assert np.allclose(dn, expected, atol=1e-12)


def test_density_estimate_against_hydro_solver():
    f = _uniform_fields()
    k = 2 * np.pi * 1 / 64.0          # k*xi ~ 0.1
    x = f.x()[:, None]
    th0 = 1e-3 * np.cos(k * x) * np.ones((1, 4))
    zero = np.zeros_like(th0)
    dt = 0.01
    dn, th = hydro_linear_step(zero, th0, f, dt, steps=500)
    # centered time derivative of dtheta around the sample
    dn_b, th_b = hydro_linear_step(zero, th0, f, dt, steps=499)
    dn_a, th_a = hydro_linear_step(zero, th0, f, dt, steps=501)
    th_t = (th_a - th_b) / (2 * dt)
    est = estimate_density_fluctuation(th_t, th, f)
    kxi = k * 1.0
    tol = kxi**2 / 4 + 0.02
    assert np.linalg.norm(est - dn) / np.linalg.norm(dn) < tol


def test_density_estimate_requires_hydrodynamic_regime():
    f = HydroFields.uniform(16, 4, 1.0, 1.0, m=1.0, G=-1.0)
    with pytest.raises(PhysicsGateError):
        estimate_density_fluctuation(np.zeros((16, 4)), np.zeros((16, 4)), f)


# ---------------------------------------------------------------------------
# metric

def test_metric_static_conformally_flat():
    f = HydroFields.uniform(8, 8, 1.0, 1.0, m=2.0, G=3.0, density=1.5)
    met = build_metric(f)
    c2 = 1.5 * 3.0 / 2.0
    Om = 1.5 / (2.0 * np.sqrt(c2))
    g = met.g[4, 4]
    assert g[0, 0] == pytest.approx(-Om * c2)
    assert g[1, 1] == pytest.approx(Om) and g[2, 2] == pytest.approx(Om)
    assert g[0, 1] == 0 and g[0, 2] == 0
    assert met.det_g[4, 4] == pytest.approx(-(Om**3) * c2)


@given(st.floats(0.1, 10.0), st.floats(0.05, 4.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.floats(0.2, 3.0))
def test_metric_identities_random_points(n, c2, vx, vy, m):
    f = HydroFields.uniform(4, 4, 1.0, 1.0, m=m, G=1.0, density=n,
                            vx=vx, vy=vy)
    f.c2 = np.full((4, 4), c2)       # impose the speed independently
    met = build_metric(f)
    g = met.g[2, 2]
    gi = met.g_inv[2, 2]
    assert np.max(np.abs(g @ gi - np.eye(3))) < 1e-10
    assert np.linalg.det(g) == pytest.approx(met.det_g[2, 2], rel=1e-9)
    Om = n / (m * np.sqrt(c2))
    assert met.det_g[2, 2] == pytest.approx(-(Om**3) * c2, rel=1e-9)


def test_build_metric_peak_memory():
    # tracemalloc peak of one call, in float grids: 28.4 while g and g_inv
    # were stored; 6.25 once only Ω, √−g and the copied inputs are kept
    nx = 256
    x = (np.arange(nx) - nx // 2) * 0.25
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = HydroFields.from_profiles(x, x, 1.0, 1.0, n=np.ones_like(X),
                                  vx=0.1 * X, vy=0.1 * Y,
                                  c2=np.full_like(X, 0.25))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        met = build_metric(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (nx * nx * 8) < 10
    assert not any(isinstance(v, np.ndarray) and v.ndim == 4
                   for v in vars(met).values())


def test_signature_classification_follows_interaction_sign():
    lor = build_metric(HydroFields.uniform(8, 8, 1, 1, m=-1.0, G=-2.0))
    assert np.all(lor.signature == LORENTZIAN)
    euc = build_metric(HydroFields.uniform(8, 8, 1, 1, m=1.0, G=-2.0))
    assert np.all(euc.signature == EUCLIDEAN)
    assert np.all(np.isnan(euc.g))
    deg = build_metric(HydroFields.uniform(8, 8, 1, 1, m=1.0, G=0.0))
    assert np.all(deg.signature == DEGENERATE)


def test_line_element_special_observers():
    f = HydroFields.uniform(8, 8, 1.0, 1.0, m=1.0, G=1.0, density=1.0,
                            vx=0.3, vy=-0.1)
    met = build_metric(f)
    Om = met.conformal[3, 3]
    dt = 0.7
    # comoving displacement: ds^2 = -Omega c^2 dt^2
    ds2 = line_element(met, 3, 3, dt, (0.3 * dt, -0.1 * dt))
    assert ds2 == pytest.approx(-Om * met.c2[3, 3] * dt**2)
    # spatial slice: conformally flat
    ds2 = line_element(met, 3, 3, 0.0, (0.2, 0.4))
    assert ds2 == pytest.approx(Om * (0.2**2 + 0.4**2))
    # null ray along x: dx/dt = vx +- c
    c = np.sqrt(met.c2[3, 3])
    for sgn in (+1, -1):
        dx = (0.3 + sgn * c) * dt
        assert line_element(met, 3, 3, dt, (dx, -0.1 * dt)) == pytest.approx(
            0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# horizons

def test_no_horizon_in_subcritical_flow():
    f = HydroFields.uniform(32, 32, 0.5, 0.5, m=1.0, G=1.0, vx=0.3)
    assert find_horizon(f) == []


def test_radial_sink_horizon_circle():
    nx, L = 256, 8.0
    dx = L / nx
    x = (np.arange(nx) - nx // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.maximum(np.hypot(X, Y), 0.25 * dx)
    D, c = 1.0, 0.5
    f = HydroFields.from_profiles(x, x, 1.0, 1.0, n=np.ones_like(X),
                                  vx=-D * X / r**2, vy=-D * Y / r**2,
                                  c2=np.full_like(X, c * c))
    loops = find_horizon(f)
    main = max(loops, key=lambda l: np.max(np.hypot(l[:, 0], l[:, 1])))
    radii = np.hypot(main[:, 0], main[:, 1])
    assert np.all(np.abs(radii - D / c) < dx)
    # superexcitonic side (F > 0, the interior) on the left: CCW loop
    area = 0.5 * np.sum(main[:-1, 0] * main[1:, 1] - main[1:, 0] * main[:-1, 1])
    assert area > 0
    assert np.allclose(main[0], main[-1])


def test_orientation_flips_with_outside_supercriticality():
    # supersonic OUTSIDE a disk: the same circle walked clockwise
    nx, L = 128, 8.0
    dx = L / nx
    x = (np.arange(nx) - nx // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(X, Y)
    v = np.where(r < 2.0, 0.2, 0.9)
    f = HydroFields.from_profiles(x, x, 1.0, 1.0, n=np.ones_like(X),
                                  vx=v, vy=0.0 * X, c2=np.full_like(X, 0.25))
    loops = find_horizon(f)
    main = max(loops, key=len)
    area = 0.5 * np.sum(main[:-1, 0] * main[1:, 1] - main[1:, 0] * main[:-1, 1])
    assert area < 0


def test_tanh_profile_crossings_match_root_finder():
    nx, ny, dx = 512, 4, 0.25
    x = (np.arange(nx) - nx // 2) * dx
    y = (np.arange(ny) - ny // 2) * dx
    w = 3.0

    def v(xx):
        prof = 0.5 * (np.tanh((xx + 20.3) / w) - np.tanh((xx - 19.4) / w))
        return -(0.5 + 1.0 * prof)

    f = HydroFields.from_profiles(x, y, 1.0, 1.0, n=np.ones((nx, ny)),
                                  vx=np.repeat(v(x)[:, None], ny, 1), vy=0.0,
                                  c2=np.ones((nx, ny)))
    loops = find_horizon(f)
    found = sorted(float(np.mean(l[:, 0])) for l in loops)
    x_left = brentq(lambda xx: v(xx) ** 2 - 1.0, -30, 0)
    x_right = brentq(lambda xx: v(xx) ** 2 - 1.0, 0, 30)
    assert len(found) == 2
    assert abs(found[0] - x_left) < dx
    assert abs(found[1] - x_right) < dx


def test_horizon_requires_lorentzian_background():
    f = HydroFields.uniform(16, 16, 1.0, 1.0, m=1.0, G=-1.0)
    with pytest.raises(PhysicsGateError):
        find_horizon(f)


def test_marching_squares_open_chain_spans_domain():
    x = np.linspace(0, 1, 21)
    y = np.linspace(0, 1, 17)
    X, Y = np.meshgrid(x, y, indexing="ij")
    F = X - 0.503                      # vertical line crossing
    lines = marching_squares(F, x, y)
    assert len(lines) == 1
    assert lines[0][:, 1].min() == pytest.approx(0.0)
    assert lines[0][:, 1].max() == pytest.approx(1.0)
    assert np.allclose(lines[0][:, 0], 0.503, atol=1e-9)


def _per_cell_segments(F, x, y):
    """Reference segments: scan every cell, i outer and j inner, and form
    each case index from its four corner signs."""
    edges = {0: ((0, 0), (1, 0)), 1: ((1, 0), (1, 1)),
             2: ((0, 1), (1, 1)), 3: ((0, 0), (0, 1))}

    def edge_point(i, j, edge):
        (a0, b0), (a1, b1) = edges[edge]
        f0 = F[i + a0, j + b0]
        f1 = F[i + a1, j + b1]
        t = f0 / (f0 - f1)
        return (x[i + a0] + t * (x[i + a1] - x[i + a0]),
                y[j + b0] + t * (y[j + b1] - y[j + b0]))

    segments = {}
    for i in range(F.shape[0] - 1):
        for j in range(F.shape[1] - 1):
            idx = ((F[i, j] > 0) | (F[i + 1, j] > 0) << 1
                   | (F[i + 1, j + 1] > 0) << 2 | (F[i, j + 1] > 0) << 3)
            if idx in (0, 15):
                continue
            if idx in (5, 10):
                center = 0.25 * (F[i, j] + F[i + 1, j] + F[i + 1, j + 1]
                                 + F[i, j + 1])
                if idx == 5:
                    pairs = [(0, 1), (2, 3)] if center > 0 else [(0, 3), (2, 1)]
                else:
                    pairs = [(3, 0), (1, 2)] if center > 0 else [(1, 0), (3, 2)]
            else:
                pairs = _CASES[idx]
            for e_in, e_out in pairs:
                p0, p1 = edge_point(i, j, e_in), edge_point(i, j, e_out)
                segments.setdefault(_key(p0), []).append((p0, p1))
    return segments


def test_marching_squares_matches_per_cell_oracle():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(30):
        nx, ny = (int(v) for v in rng.integers(2, 40, size=2))
        x = np.cumsum(rng.uniform(0.1, 1.0, nx))     # non-uniform spacing
        y = np.cumsum(rng.uniform(0.1, 1.0, ny))
        F = rng.standard_normal((nx, ny))
        F[rng.random((nx, ny)) < 0.15] = 0.0          # exact zeros
        level = float(rng.choice([0.0, 0.3 * rng.standard_normal()]))
        lines = marching_squares(F, x, y, level=level)
        ref = _link(_per_cell_segments(F - level, x, y))
        assert len(lines) == len(ref)
        for line, want in zip(lines, ref):
            assert np.array_equal(line, want)

        G = F - level
        P = (G > 0).astype(int)
        case = P[:-1, :-1] | P[1:, :-1] << 1 | P[1:, 1:] << 2 | P[:-1, 1:] << 3
        center = G[:-1, :-1] + G[1:, :-1] + G[1:, 1:] + G[:-1, 1:]
        for c in (5, 10):
            seen |= {(c, bool(s)) for s in center[case == c] > 0}
        seen |= {"zero"} if np.any(G == 0) else set()
    assert seen == {(5, True), (5, False), (10, True), (10, False), "zero"}


@pytest.mark.parametrize("F, expected", [
    # case 5, centre positive: the positive diagonal stays connected
    ([[2.0, -1.0], [-1.0, 2.0]],
     [[(2 / 3, 0.0), (1.0, 1 / 3)], [(1 / 3, 1.0), (0.0, 2 / 3)]]),
    # case 5, centre negative: each positive corner is cut off alone
    ([[1.0, -2.0], [-2.0, 1.0]],
     [[(1 / 3, 0.0), (0.0, 1 / 3)], [(2 / 3, 1.0), (1.0, 2 / 3)]]),
    # case 10, centre positive
    ([[-1.0, 2.0], [2.0, -1.0]],
     [[(0.0, 1 / 3), (1 / 3, 0.0)], [(1.0, 2 / 3), (2 / 3, 1.0)]]),
    # case 10, centre negative
    ([[-2.0, 1.0], [1.0, -2.0]],
     [[(1.0, 1 / 3), (2 / 3, 0.0)], [(0.0, 2 / 3), (1 / 3, 1.0)]]),
])
def test_saddle_cell_pairings(F, expected):
    # one 2x2 cell on the unit square; F[i, j] sits at (x_i, y_j), and the
    # positive region lies to the left of each segment
    lines = marching_squares(np.array(F), np.array([0.0, 1.0]),
                             np.array([0.0, 1.0]))
    assert len(lines) == 2
    for line, want in zip(lines, expected):
        assert np.allclose(line, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# closed form on uniform backgrounds against step-by-step RK4

def _hydro_rk4_oracle(dn, th, f, dt, steps, quantum_pressure):
    """Step-by-step RK4 of the pointwise right-hand side with spectral
    derivatives of real fields, real(ifft2(ik·fft2 g))."""
    kx = 2 * np.pi * np.fft.fftfreq(f.nx, f.dx)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(f.ny, f.dy)[None, :]

    def d(g, k):
        return np.real(np.fft.ifft2(1j * k * np.fft.fft2(g)))

    n, m = f.n, f.m

    def rhs(a, th):
        da = -(d(f.vx * a + (n / m) * d(th, kx), kx)
               + d(f.vy * a + (n / m) * d(th, ky), ky))
        dth = -(f.vx * d(th, kx) + f.vy * d(th, ky)) - (m * f.c2 / n) * a
        if quantum_pressure:
            r = a / n
            dth = dth + (d(n * d(r, kx), kx) + d(n * d(r, ky), ky)) / (4 * m * n)
        return da, dth

    a = dn
    for _ in range(steps):
        k1 = rhs(a, th)
        k2 = rhs(a + 0.5 * dt * k1[0], th + 0.5 * dt * k1[1])
        k3 = rhs(a + 0.5 * dt * k2[0], th + 0.5 * dt * k2[1])
        k4 = rhs(a + dt * k3[0], th + dt * k3[1])
        a = a + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        th = th + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return a, th


@pytest.mark.parametrize("case", [
    (32, 8, 0.7, 0.9, 1.0, 1.0, 1.3, 0.4, -0.3),      # flow in x and y
    (32, 8, 0.5, 0.6, -2.0, -0.5, 0.8, -0.2, 0.35),   # m < 0
    (33, 7, 0.7, 0.9, 1.0, 1.0, 1.3, 0.4, -0.3),      # odd sides: no Nyquist
])
@pytest.mark.parametrize("quantum_pressure", [True, False])
@pytest.mark.parametrize("steps", [0, 1, 300])
def test_hydro_uniform_closed_form_matches_rk4_steps(case, quantum_pressure,
                                                     steps, monkeypatch):
    nx, ny, dx, dy, m, G, n, vx, vy = case
    f = HydroFields.uniform(nx, ny, dx, dy, m=m, G=G, density=n, vx=vx, vy=vy)
    k2max = (np.pi / dx) ** 2 + (np.pi / dy) ** 2
    q = 0.25 / abs(m * n) if quantum_pressure else 0.0
    rate = np.hypot(vx, vy) * np.sqrt(k2max) \
        + np.sqrt(abs(n / m) * k2max * (abs(G) + q * k2max))
    dt = 0.5 / rate
    rng = np.random.default_rng(steps + 5)
    # full-spectrum seeds: the Nyquist row and column carry content too
    dn0, th0 = rng.standard_normal((nx, ny)), rng.standard_normal((nx, ny))
    calls, power = [], geometry.rk4_power
    monkeypatch.setattr(geometry, "rk4_power",
                        lambda z, k: calls.append(k) or power(z, k))
    dn, th = hydro_linear_step(dn0, th0, f, dt, steps=steps,
                               quantum_pressure=quantum_pressure)
    assert calls == ([steps] if steps else [])
    dn_ref, th_ref = _hydro_rk4_oracle(dn0, th0, f, dt, steps, quantum_pressure)
    assert np.linalg.norm(dn - dn_ref) <= 1e-11 * np.linalg.norm(dn_ref)
    assert np.linalg.norm(th - th_ref) <= 1e-11 * np.linalg.norm(th_ref)


@pytest.mark.parametrize("quantum_pressure", [True, False])
def test_hydro_nonuniform_background_steps_like_the_oracle(quantum_pressure,
                                                           monkeypatch):
    # one perturbed flow point and one perturbed density point: no closed
    # form, so the general RK4 loop runs
    f = HydroFields.uniform(32, 8, 0.7, 0.9, m=1.0, G=1.0, density=1.3,
                            vx=0.4, vy=-0.3)
    f.vx[5, 3] += 0.05
    f.n[20, 6] *= 1.02
    f.c2 = f.n * f.G / f.m
    monkeypatch.setattr(geometry, "rk4_power",
                        lambda z, k: pytest.fail("closed form taken"))
    rng = np.random.default_rng(17)
    dn0, th0 = rng.standard_normal((32, 8)), rng.standard_normal((32, 8))
    dt, steps = 2e-3, 50
    dn, th = hydro_linear_step(dn0, th0, f, dt, steps=steps,
                               quantum_pressure=quantum_pressure)
    dn_ref, th_ref = _hydro_rk4_oracle(dn0, th0, f, dt, steps, quantum_pressure)
    assert np.linalg.norm(dn - dn_ref) <= 1e-11 * np.linalg.norm(dn_ref)
    assert np.linalg.norm(th - th_ref) <= 1e-11 * np.linalg.norm(th_ref)
