"""Madelung split, linearized hydrodynamics, acoustic metric, horizons."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import fft as sp_fft
from scipy.optimize import brentq

from photonfluid import geometry
from photonfluid.errors import NumericalError, PhysicsGateError, StepSizeError
from photonfluid.fluid import (
    ComplexField2D,
    FluidParams,
    Grid,
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
    healing_length,
    hydro_linear_step,
    madelung,
    marching_squares,
)
from photonfluid.unwrap import (dctn, idctn, phase_residues,
                                unwrap_least_squares, wrap_to_pi)


# ---------------------------------------------------------------------------
# Madelung decomposition and unwrapping

def test_madelung_uniform_field():
    psi = ComplexField2D.filled(Grid(16, 16, 1.0, 1.0), np.sqrt(2) * np.exp(1j * np.pi / 4))
    n, theta = madelung(psi)
    assert np.allclose(n, 2.0)
    assert np.allclose(theta, np.pi / 4)


def test_madelung_density_and_mask_from_one_modulus():
    rng = np.random.default_rng(31)
    data = (1.0 + rng.random((16, 8))) * np.exp(0.3j)   # no phase residues
    data[3, 4] = 1e-12                       # below the relative floor
    md = madelung(ComplexField2D(Grid(16, 8, 1.0, 1.0), data))
    assert md.n.tobytes() == (np.abs(data) ** 2).tobytes()
    assert not md.mask[3, 4] and md.mask.sum() == data.size - 1


def test_madelung_plane_wave_ramp():
    # theta = k x recovered beyond the wrapped range; v0 = k/m uniform
    nx, dx = 64, 0.5
    psi = uniform_background(Grid(nx, 8, dx, dx), flow_mode=(5, 0))
    k0 = psi.meta["flow_k"][0]
    md = madelung(psi)
    X = psi.grid.x[:, None]
    assert np.max(np.abs(md.theta - (md.theta[0, 0] + k0 * (X - X[0])))) < 1e-9
    assert md.vortices == []
    f = HydroFields.from_field(psi, FluidParams(m=2.0, G_kerr=1.0))
    assert f.grid == psi.grid
    assert np.allclose(f.vx, k0 / 2.0, atol=1e-9)
    assert np.allclose(f.vy, 0.0, atol=1e-12)


def test_vortex_residue_and_circulation():
    nx, dx = 64, 0.3
    psi = ComplexField2D.filled(Grid(nx, nx, dx, dx), 0.0)
    X, Y = psi.grid.xy()
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
    return HydroFields.uniform(Grid(nx, ny, dx, dx), m=m, G=G, density=n, vx=vx)


def _perturbed_fields(grid, m, G, density=1.0, vx=0.0, vy=0.0,
                      dense_point=False):
    """A uniform background with vx raised by 0.05 at (5, 3) and, with
    `dense_point`, n scaled by 1.02 at (20, 6): owned arrays passed to
    `from_profiles`, since uniform profiles are read-only views."""
    n, u = np.full(grid.shape, float(density)), np.full(grid.shape, float(vx))
    u[5, 3] += 0.05
    if dense_point:
        n[20, 6] *= 1.02
    return HydroFields.from_profiles(grid, m, G, n=n, vx=u, vy=vy)


def test_hydro_zero_stays_zero():
    f = _uniform_fields()
    dn, th = hydro_linear_step(np.zeros((64, 4)), np.zeros((64, 4)), f, 0.01,
                               steps=20)
    assert np.all(dn == 0) and np.all(th == 0)


def test_hydro_mode_frequencies_with_and_without_quantum_pressure():
    f = _uniform_fields()
    k = 2 * np.pi * 1 / 64.0          # k*xi ~ 0.1
    x = f.grid.x[:, None]
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
    x = f.grid.x[:, None]
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
    psi0 = uniform_background(Grid(nx, ny, 1.0, 1.0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    k = 2 * np.pi * 3 / nx           # k*xi ~ 0.3
    x = f.grid.x[:, None]
    th0 = 1e-3 * np.cos(k * x) * np.ones((1, ny))
    zero = np.zeros_like(th0)

    T = 2 * np.pi / bogoliubov_dispersion(k, 1.0, p).real
    steps = int(round(T / 0.005))
    dn_h, th_h = hydro_linear_step(zero, th0, f, T / steps, steps=steps)

    phi = ComplexField2D(Grid(nx, ny, 1.0, 1.0), 1j * th0)
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
    x = fv.grid.x[:, None]
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
    x = f.grid.x[:, None]
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
    f = HydroFields.uniform(Grid(16, 4, 1.0, 1.0), m=1.0, G=-1.0)
    with pytest.raises(PhysicsGateError):
        estimate_density_fluctuation(np.zeros((16, 4)), np.zeros((16, 4)), f)


# ---------------------------------------------------------------------------
# metric

def test_metric_static_conformally_flat():
    f = HydroFields.uniform(Grid(8, 8, 1.0, 1.0), m=2.0, G=3.0, density=1.5)
    met = build_metric(f)
    c2 = 1.5 * 3.0 / 2.0
    Om = 1.5 / (2.0 * np.sqrt(c2))
    Om *= abs(Om)
    g = met.g[4, 4]
    assert g[0, 0] == pytest.approx(-Om * c2)
    assert g[1, 1] == pytest.approx(Om) and g[2, 2] == pytest.approx(Om)
    assert g[0, 1] == 0 and g[0, 2] == 0
    assert met.det_g[4, 4] == pytest.approx(-(Om**3) * c2)


def test_hydro_healing_length_follows_reassigned_c2():
    # ξ is derived from c2 when read, so imposing a speed cannot leave a
    # stale healing length behind
    f = HydroFields.uniform(Grid(4, 4, 1.0, 1.0), m=2.0, G=3.0, density=1.5)
    assert np.all(f.xi == 1.0 / (2.0 * np.sqrt(1.5 * 3.0 / 2.0)))
    f.c2 = np.full((4, 4), 4.0)
    assert np.all(f.xi == 0.25)
    f.c2[1, 2] = -1.0
    assert np.array_equal(f.xi, healing_length(2.0, f.c2), equal_nan=True)
    assert np.isnan(f.xi[1, 2])


@given(st.floats(0.1, 10.0), st.floats(0.05, 4.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.floats(0.2, 3.0))
def test_metric_identities_random_points(n, c2, vx, vy, m):
    f = HydroFields.uniform(Grid(4, 4, 1.0, 1.0), m=m, G=1.0, density=n,
                            vx=vx, vy=vy)
    f.c2 = np.full((4, 4), c2)       # impose the speed independently
    met = build_metric(f)
    g = met.g[2, 2]
    gi = met.g_inv[2, 2]
    assert np.max(np.abs(g @ gi - np.eye(3))) < 1e-10
    assert np.linalg.det(g) == pytest.approx(met.det_g[2, 2], rel=1e-9)
    Om = n / (m * np.sqrt(c2))
    Om *= abs(Om)
    assert met.det_g[2, 2] == pytest.approx(-(Om**3) * c2, rel=1e-9)


def test_sqrt_minus_g_is_built_on_access_from_det_g():
    # |det g|^{1/2}, NaN off Lorentzian points, for either sign of the mass;
    # like det_g it is computed when read, not stored by build_metric
    rng = np.random.default_rng(3)
    for m in (1.3, -0.7):
        f = HydroFields.from_profiles(Grid(8, 8, 0.5, 0.5), m, 1.0,
                                      n=rng.uniform(0.5, 2.0, (8, 8)),
                                      vx=rng.uniform(-1, 1, (8, 8)), vy=0.2,
                                      c2=rng.uniform(0.1, 1.0, (8, 8)))
        f.c2[2, 3] = -0.5
        met = build_metric(f)
        assert "sqrt_minus_g" not in vars(met)
        root = met.sqrt_minus_g
        assert np.allclose(root, np.sqrt(np.abs(met.det_g)), rtol=1e-14,
                           atol=0.0, equal_nan=True)
        assert np.array_equal(np.isnan(root), ~met.lorentzian())


def test_build_metric_peak_memory():
    # tracemalloc peak of one call, in float grids: 28.4 while g and g_inv
    # were stored; 6.25 once only Ω, √−g and copies of the inputs were
    # kept; 2.4 now that the inputs are shared, not copied
    nx = 256
    x = (np.arange(nx) - nx // 2) * 0.25
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = HydroFields.from_profiles(Grid(nx, nx, 0.25, 0.25), 1.0, 1.0,
                                  n=np.ones_like(X), vx=0.1 * X, vy=0.1 * Y,
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


def test_build_metric_shares_the_hydro_arrays():
    x = (np.arange(16) - 8) * 0.5
    f = HydroFields.from_profiles(Grid(16, 16, 0.5, 0.5), 1.0, 1.0,
                                  n=np.ones((16, 16)), vx=0.1 * x[:, None],
                                  vy=0.0, c2=np.full((16, 16), 0.25))
    met = build_metric(f)
    for name in ("n", "c2", "vx", "vy"):
        assert np.shares_memory(getattr(met, name), getattr(f, name)), name


@pytest.mark.parametrize("profile", ["constant", "column", "full", "masked"])
def test_build_metric_matches_the_full_grid_arithmetic(profile):
    # the signature and Ω are formed on the profiles' own shapes: a
    # constant or column profile gives read-only views of the grid's
    # shape, and every value is that of the materialized profiles, which
    # take the full-grid path
    grid = Grid(24, 16, 0.5, 0.5)
    rng = np.random.default_rng(26)
    col = rng.uniform(-0.5, 1.5, (grid.nx, 1))
    col[3] = col[7] = 0.0                       # degenerate rows
    full = rng.uniform(-0.5, 1.5, grid.shape)
    n, c2 = {"constant": (1.3, 0.25), "column": (col, 0.7 * col),
             "full": (full, 0.3), "masked": (1.3, 0.25)}[profile]
    f = HydroFields.from_profiles(grid, -0.8, 1.0, n=n, vx=0.1, vy=-0.2,
                                  c2=c2)
    if profile == "masked":
        f.mask = rng.uniform(size=grid.shape) > 0.2
    owned = HydroFields(grid=grid, m=f.m, n=np.array(f.n),
                        vx=f.vx, vy=f.vy, c2=np.array(f.c2), mask=f.mask)
    got, want = build_metric(f), build_metric(owned)
    viewed = profile in ("constant", "column")
    for name in ("signature", "conformal"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == grid.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
        assert b.flags.writeable and b.flags.c_contiguous, name
        assert a.flags.writeable != viewed, name
        if viewed:
            assert a.strides[1] == 0, name
            with pytest.raises(ValueError, match="read-only"):
                a[2, 3] = a[2, 4]
    if profile == "constant":
        assert got.conformal.strides == (0, 0)
        assert got.conformal.base.size == 1


def test_from_profiles_keeps_lower_rank_profiles_as_read_only_views():
    # a scalar density, a column flow and the c2 = n𝒢/m they imply are
    # zero-stride views of the grid's shape: no grid is allocated, and a
    # write to one raises instead of changing every point at once
    grid = Grid(256, 256, 0.5, 0.5)
    v = np.linspace(-1.0, 1.0, grid.nx)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f = HydroFields.from_profiles(grid, 2.0, 3.0, n=1.5, vx=v[:, None],
                                      vy=0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * grid.nx * grid.ny * 8
    for name in ("n", "vx", "vy", "c2"):
        a = getattr(f, name)
        assert a.shape == grid.shape and a.strides[1] == 0, name
        assert not a.flags.writeable, name
    assert np.array_equal(f.vx, np.broadcast_to(v[:, None], grid.shape))
    assert np.all(f.n == 1.5) and np.all(f.vy == 0.0)
    assert np.all(f.c2 == 1.5 * 3.0 / 2.0)
    with pytest.raises(ValueError, match="read-only"):
        f.vx[5, 3] += 0.05
    with pytest.raises(ValueError, match="read-only"):
        f.n[20, 6] *= 1.02


def test_from_profiles_keeps_grid_shaped_arrays_without_a_copy():
    rng = np.random.default_rng(12)
    n, vx, vy, c2 = (rng.uniform(0.5, 2.0, (16, 8)) for _ in range(4))
    f = HydroFields.from_profiles(Grid(16, 8, 0.5, 0.5), 1.0, 1.0, n=n,
                                  vx=vx, vy=vy, c2=c2)
    assert f.n is n and f.vx is vx and f.vy is vy and f.c2 is c2
    assert f.mask is None
    f.vx[5, 3] += 0.05                  # the caller's own array stays writable
    assert vx[5, 3] == f.vx[5, 3]


def test_signature_classification_follows_interaction_sign():
    lor = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=-1.0, G=-2.0))
    assert np.all(lor.signature == LORENTZIAN)
    euc = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=1.0, G=-2.0))
    assert np.all(euc.signature == EUCLIDEAN)
    assert np.all(np.isnan(euc.g))
    deg = build_metric(HydroFields.uniform(Grid(8, 8, 1, 1), m=1.0, G=0.0))
    assert np.all(deg.signature == DEGENERATE)
    # the density floor: n ≤ 1e-300 is degenerate even where c² > 0, and
    # so is a point whose Ω = n² (m = c = 1) underflows to a subnormal;
    # just above that, Ω is a normal float and the inverse metric finite
    for n, want in ((-1.0, DEGENERATE), (0.0, DEGENERATE),
                    (1e-300, DEGENERATE), (1e-154, DEGENERATE),
                    (2e-154, LORENTZIAN)):
        f = HydroFields.from_profiles(Grid(8, 8, 1, 1), 1.0, 1.0, n=n,
                                      vx=0.0, vy=0.0, c2=1.0)
        with np.errstate(all="raise"):
            met = build_metric(f)
        assert np.all(met.signature == want)
        if want == LORENTZIAN:
            assert np.all(np.isfinite(met.g_inv))
        else:
            assert np.all(np.isnan(met.conformal))


def test_line_element_special_observers():
    # ds² = dxᵘ g_μν dxᵛ at one grid point, dx = (dt, dx, dy)
    f = HydroFields.uniform(Grid(8, 8, 1.0, 1.0), m=1.0, G=1.0, density=1.0,
                            vx=0.3, vy=-0.1)
    met = build_metric(f)
    g = met.g[3, 3]
    Om = met.conformal[3, 3]
    dt = 0.7

    def line_element(dt, dr):
        d = np.array((dt, *dr))
        return float(d @ g @ d)

    # comoving displacement: ds^2 = -Omega c^2 dt^2
    ds2 = line_element(dt, (0.3 * dt, -0.1 * dt))
    assert ds2 == pytest.approx(-Om * met.c2[3, 3] * dt**2)
    # spatial slice: conformally flat
    ds2 = line_element(0.0, (0.2, 0.4))
    assert ds2 == pytest.approx(Om * (0.2**2 + 0.4**2))
    # null ray along x: dx/dt = vx +- c
    c = np.sqrt(met.c2[3, 3])
    for sgn in (+1, -1):
        dx = (0.3 + sgn * c) * dt
        assert line_element(dt, (dx, -0.1 * dt)) == pytest.approx(
            0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# horizons

def test_no_horizon_in_subcritical_flow():
    f = HydroFields.uniform(Grid(32, 32, 0.5, 0.5), m=1.0, G=1.0, vx=0.3)
    assert find_horizon(f) == []


def test_radial_sink_horizon_circle():
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
    f = HydroFields.from_profiles(Grid(nx, nx, dx, dx), 1.0, 1.0,
                                  n=np.ones_like(X), vx=v, vy=0.0 * X, c2=np.full_like(X, 0.25))
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

    f = HydroFields.from_profiles(Grid(nx, ny, dx, dx), 1.0, 1.0, n=np.ones((nx, ny)),
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
    f = HydroFields.uniform(Grid(16, 16, 1.0, 1.0), m=1.0, G=-1.0)
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


def test_marching_squares_leaves_F_unmodified():
    x = np.linspace(-1, 1, 33)
    F = x[:, None] ** 2 + x[None, :] ** 2
    before = F.copy()
    loops = marching_squares(F, x, x, level=0.3)
    assert F.tobytes() == before.tobytes()
    assert len(loops) == 1
    assert loops[0].tobytes() == marching_squares(F - 0.3, x, x)[0].tobytes()


def test_find_horizon_loops_of_a_small_sink():
    # the loops of the contour of vx**2 + vy**2 - c2 formed the plain way
    nx, dx = 64, 0.125
    x = (np.arange(nx) - nx // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.maximum(np.hypot(X, Y), 0.25 * dx)
    f = HydroFields.from_profiles(Grid(nx, nx, dx, dx), 1.0, 1.0, n=1.0,
                                  vx=-X / r**2, vy=-Y / r**2, c2=0.25)
    loops = find_horizon(f)
    want = marching_squares(f.vx**2 + f.vy**2 - f.c2, x, x)
    assert len(loops) == len(want) >= 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(loops, want))


# per-case oriented segment list (entry edge, exit edge) with the positive
# region kept on the LEFT of the walking direction; corner order of the
# case index bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1), 8=(i,j+1)
_CASES = {
    1: [(0, 3)], 2: [(1, 0)], 3: [(1, 3)], 4: [(2, 1)],
    6: [(2, 0)], 7: [(2, 3)], 8: [(3, 2)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def _link(segments: dict) -> list:
    """Chain oriented segments, keyed by their start vertex in scan order,
    into polylines; emptied in the process."""
    by_end = {}
    for segs in segments.values():
        for seg in segs:
            by_end.setdefault(_key(seg[1]), []).append(seg)

    def _take(index, key):
        seg = index[key].pop(0)
        if not index[key]:
            del index[key]
        return seg

    def _discard(index, key, seg):
        if key in index and seg in index[key]:
            index[key].remove(seg)
            if not index[key]:
                del index[key]

    polylines = []
    while segments:
        k0 = next(iter(segments))
        seg = _take(segments, k0)
        _discard(by_end, _key(seg[1]), seg)
        line = [seg[0], seg[1]]
        while True:                      # forward
            k = _key(line[-1])
            if k == _key(line[0]):
                break
            if k not in segments:
                break
            seg = _take(segments, k)
            _discard(by_end, _key(seg[1]), seg)
            line.append(seg[1])
        if _key(line[-1]) != _key(line[0]):
            while True:                  # backward, for open chains
                k = _key(line[0])
                if k not in by_end:
                    break
                seg = _take(by_end, k)
                _discard(segments, _key(seg[0]), seg)
                line.insert(0, seg[0])
        polylines.append(np.array(line))
    return polylines


def _key(p, tol=1e-9):
    return (round(p[0] / tol), round(p[1] / tol))


def _per_cell_segments(F, x, y):
    """Reference segments: scan every cell, i outer and j inner, and form
    each case index from its four corner signs; a segment whose two ends
    have one key is left out."""
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
                # a segment from a zero corner to itself is no segment
                if _key(p0) != _key(p1):
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

    def assert_matches_oracle(F, x, y):
        lines = marching_squares(F, x, y)
        ref = _link(_per_cell_segments(F, x, y))
        assert len(lines) == len(ref) >= 1
        for line, want in zip(lines, ref):
            assert line.dtype == want.dtype and line.shape == want.shape
            assert line.tobytes() == want.tobytes()

    # coordinates offset by 1e10: keys of about 1e19 exceed 2**63
    for _ in range(5):
        nx, ny = (int(v) for v in rng.integers(2, 40, size=2))
        x = 1e10 + np.cumsum(rng.uniform(0.1, 1.0, nx))
        y = -1e10 - np.cumsum(rng.uniform(0.1, 1.0, ny))
        assert_matches_oracle(rng.standard_normal((nx, ny)), x, y)
    assert abs(round(1e10 / 1e-9)) > 2**63

    # small integer fields: many exact zeros and coinciding segments
    for _ in range(20):
        nx, ny = (int(v) for v in rng.integers(2, 20, size=2))
        F = rng.integers(-1, 2, (nx, ny)).astype(float)
        F[0, 0] = 1.0
        assert_matches_oracle(F, np.arange(nx) * 0.5, np.arange(ny) * 0.5)

    # the horizon function of a 256**2 radial sink, formed as the metric
    # stage forms it
    grid = Grid(256, 256, 8.0 / 256, 8.0 / 256)
    xc, yc = grid.x[:, None], grid.y[None, :]
    r = np.hypot(xc, yc)
    np.maximum(r, 0.25 * min(grid.dx, grid.dy), out=r)
    speed = 1.0 / r
    vx = np.negative(speed)
    vx *= xc
    vx /= r
    vy = np.negative(speed, out=speed)
    vy *= yc
    vy /= r
    F = np.square(vx)
    F += np.square(vy)
    F -= 0.25
    assert_matches_oracle(F, grid.x, grid.y)


@pytest.mark.parametrize("d, r2, vertices", [(0.1, 0.08, 4), (0.25, 1.25, 8)])
def test_a_level_through_grid_vertices_gives_one_closed_loop(d, r2, vertices):
    # x² + y² = r² passes through grid vertices: at four, where F rounds to
    # 1.4e-17, on the finer grid and at eight, where F is exactly 0, on the
    # coarser one; each was traced as several loops
    grid = Grid(64, 64, d, d)
    X, Y = grid.xy()
    F = X**2 + Y**2 - r2
    assert np.count_nonzero(np.abs(F) < 1e-12) == vertices
    (loop,) = marching_squares(F, grid.x, grid.y)
    assert np.array_equal(np.rint(loop[0] / 1e-9), np.rint(loop[-1] / 1e-9))
    assert len(loop) >= 17
    assert np.allclose(np.hypot(*loop.T), np.sqrt(r2), rtol=0.05)


def test_marching_squares_refuses_coordinates_of_the_wrong_length():
    F = np.linspace(-1.0, 1.0, 8)[:, None] * np.ones((8, 6))
    x, y = np.arange(8.0), np.arange(6.0)
    assert len(marching_squares(F, x, y)) == 1
    for bad_x, bad_y in ((x[:5], y), (x, y[:4]), (y, x), (x[:, None], y)):
        with pytest.raises(ValueError, match="x and y"):
            marching_squares(F, bad_x, bad_y)
    with pytest.raises(ValueError):
        marching_squares(F[:, 0], x, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_marching_squares_refuses_a_non_finite_vertex(bad):
    # a non-finite corner of a crossed cell makes a non-finite edge point
    F = np.linspace(-1.0, 1.0, 8)[:, None] * np.ones((8, 6))
    F[3, 2] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="not finite"):
        marching_squares(F, np.arange(8.0), np.arange(6.0))


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


def _fields_to_contour():
    """(F, x, y, level) whose contours cross many bands of a few rows:
    saddles everywhere, one loop over every band at a nonzero level, open
    chains that leave the grid at both ends of x, exact zeros on a row that
    neighbouring bands share, and small integers with coinciding
    segments."""
    rng = np.random.default_rng(27)
    x = np.cumsum(rng.uniform(0.1, 1.0, 43))
    y = np.cumsum(rng.uniform(0.1, 1.0, 23))
    X, Y = np.meshgrid(x - x.mean(), y - y.mean(), indexing="ij")
    yield rng.standard_normal((43, 23)), x, y, 0.0
    yield X**2 + Y**2, x, y, 16.0
    yield Y - 0.3 * X + np.sin(X), x, y, 0.0
    yield X - X[12, 0], x, y, 0.0                 # zero on row 12 exactly
    yield rng.integers(-1, 2, (43, 23)).astype(float), x, y, 0.0


@pytest.mark.parametrize("rows", [2, 3, 4, 7])
def test_banded_contour_matches_one_band(monkeypatch, rows):
    # bands of `rows` rows share a row with their neighbours; every
    # polyline is the one-band polyline byte for byte
    for F, x, y, level in _fields_to_contour():
        monkeypatch.setattr(geometry, "_BAND_FLOATS", 1 << 40)
        want = marching_squares(F, x, y, level=level)
        monkeypatch.setattr(geometry, "_BAND_FLOATS", rows * F.shape[1])
        got = marching_squares(F, x, y, level=level)
        assert len(got) == len(want) >= 1
        for line, ref in zip(got, want):
            assert line.shape == ref.shape
            assert line.tobytes() == ref.tobytes()


class _RowReader:
    """F seen only through `shape` and row slices, which are recorded."""

    def __init__(self, F):
        self.F, self.shape, self.read = F, F.shape, []

    def __getitem__(self, rows):
        self.read.append((rows.start, rows.stop))
        return self.F[rows]


def test_marching_squares_reads_F_in_row_bands_only(monkeypatch):
    # bands of 4 rows, each sharing its last row with the next; a source
    # with `shape` and row slices contours as the array does
    F, x, y, level = list(_fields_to_contour())[1]
    monkeypatch.setattr(geometry, "_BAND_FLOATS", 4 * F.shape[1] + 3)
    reader = _RowReader(F)
    got = marching_squares(reader, x, y, level=level)
    want = marching_squares(F, x, y, level=level)
    assert [line.tobytes() for line in got] == [line.tobytes() for line in want]
    assert reader.read == [(i, i + 4) for i in range(0, 42, 3)]


def test_find_horizon_in_bands_matches_the_plain_contour(monkeypatch):
    # F = (vx² + vy²) − c² formed band by band, and vy² block by block
    # within a band, contours as the whole-grid F does
    nx, dx = 64, 0.125
    x = (np.arange(nx) - nx // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.maximum(np.hypot(X, Y), 0.25 * dx)
    f = HydroFields.from_profiles(Grid(nx, nx, dx, dx), 1.0, 1.0, n=1.0,
                                  vx=-X / r**2, vy=-Y / r**2, c2=0.25)
    want = marching_squares(f.vx**2 + f.vy**2 - f.c2, x, x)
    monkeypatch.setattr(geometry, "_BAND_FLOATS", 5 * nx)
    monkeypatch.setattr(geometry, "_BLOCK_FLOATS", 2 * nx)
    loops = find_horizon(f)
    assert len(loops) == len(want) >= 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(loops, want))


def test_find_horizon_refuses_a_nan_in_the_last_band(monkeypatch):
    # bands of 8 rows start at rows 0, 7, …, 56: the last holds rows 56–63
    nx, dx = 64, 0.125
    x = (np.arange(nx) - nx // 2) * dx
    vx = np.repeat(np.tanh(x)[:, None], nx, 1)
    f = HydroFields.from_profiles(Grid(nx, nx, dx, dx), 1.0, 1.0, n=1.0,
                                  vx=vx, vy=0.0, c2=0.25)
    assert len(find_horizon(f)) == 2
    vx[-1, 7] = np.nan
    monkeypatch.setattr(geometry, "_BAND_FLOATS", 8 * nx)
    with pytest.raises(NumericalError, match="not finite in rows 56–63"):
        find_horizon(f)


# ---------------------------------------------------------------------------
# closed form on uniform backgrounds against step-by-step RK4

def _hydro_rk4_oracle(dn, th, f, dt, steps, quantum_pressure):
    """Step-by-step RK4 of the pointwise right-hand side with spectral
    derivatives of real fields, real(ifft2(ik·fft2 g))."""
    kx = 2 * np.pi * np.fft.fftfreq(f.grid.nx, f.grid.dx)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(f.grid.ny, f.grid.dy)[None, :]

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
    f = HydroFields.uniform(Grid(nx, ny, dx, dy), m=m, G=G, density=n, vx=vx, vy=vy)
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
    f = _perturbed_fields(Grid(32, 8, 0.7, 0.9), m=1.0, G=1.0, density=1.3,
                          vx=0.4, vy=-0.3, dense_point=True)
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


@pytest.mark.parametrize("perturbed, steps", [(False, 2000), (True, 200)])
def test_hydro_unstable_step_raises(perturbed, steps):
    # dt = 5 is far past the stability bound of the fastest modes: forced
    # past the step-size check, the closed form (uniform) and the loop (one
    # perturbed flow point) must both refuse their non-finite result
    make = _perturbed_fields if perturbed else HydroFields.uniform
    f = make(Grid(32, 8, 1.0, 1.0), m=1.0, G=1.0, vx=0.3)
    rng = np.random.default_rng(4)
    dn0, th0 = rng.standard_normal((32, 8)), rng.standard_normal((32, 8))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="hydro fluctuation non-finite") \
            as exc:
        hydro_linear_step(dn0, th0, f, 5.0, steps=steps, force=True)
    # a forced run past the bound steps, so the report names the step where
    # the field left the finite range
    head, _, step = str(exc.value).rpartition(" ")
    assert head.endswith("at step") and int(step) < steps


def _hydro_step_bound(f, quantum_pressure):
    """2√2 over the fastest mode |v|ₘₐₓ|k| + cₘₐₓ|k|√(1 + (|k|ξₘᵢₙ)²/4)."""
    k = np.hypot(np.pi / f.grid.dx, np.pi / f.grid.dy)    # even sides
    c = np.sqrt(np.max(np.abs(f.c2)))
    xi = 1.0 / (abs(f.m) * c)
    qp = (k * xi) ** 2 / 4 if quantum_pressure else 0.0
    v = np.max(np.hypot(f.vx, f.vy))
    return 2 * np.sqrt(2) / (v * k + c * k * np.sqrt(1 + qp))


@pytest.mark.parametrize("perturbed", [False, True])
def test_hydro_unstable_step_is_refused_before_any_fft(perturbed, monkeypatch):
    make = _perturbed_fields if perturbed else HydroFields.uniform
    f = make(Grid(32, 8, 1.0, 1.0), m=1.0, G=1.0, vx=0.3)
    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name,
                            lambda *a, **k: pytest.fail("FFT before refusal"))
    zero = np.zeros((32, 8))
    with pytest.raises(StepSizeError, match="2√2"):
        hydro_linear_step(zero, zero, f, 5.0, steps=2000)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("quantum_pressure", [True, False])
def test_hydro_step_within_the_bound_stays_finite(perturbed, quantum_pressure):
    make = _perturbed_fields if perturbed else HydroFields.uniform
    f = make(Grid(32, 8, 0.7, 0.9), m=-1.5, G=-0.8, density=1.3, vx=0.4,
             vy=-0.3)
    bound = _hydro_step_bound(f, quantum_pressure)
    rng = np.random.default_rng(8)
    dn0, th0 = rng.standard_normal((32, 8)), rng.standard_normal((32, 8))
    dn, th = hydro_linear_step(dn0, th0, f, 0.9 * bound, steps=200,
                               quantum_pressure=quantum_pressure)
    assert np.all(np.isfinite(dn)) and np.all(np.isfinite(th))
    assert np.max(np.abs(dn)) + np.max(np.abs(th)) < 1e3
    with pytest.raises(StepSizeError):
        hydro_linear_step(dn0, th0, f, 1.01 * bound, steps=1,
                          quantum_pressure=quantum_pressure)
