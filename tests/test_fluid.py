"""NLSE core: split-step evolution, ground states, linearized excitations."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from photonfluid import fluid
from photonfluid.errors import NumericalError, StepSizeError
from photonfluid.fluid import (
    CollapseError,
    ComplexField2D,
    FluidParams,
    _kinetic_step,
    bogoliubov_dispersion,
    evolve,
    gp_energy,
    ground_state,
    linearized_step,
    measure_dispersion,
    rk4_power,
    spectral_d,
    uniform_background,
    wavenumbers,
)
from photonfluid.geometry import HydroFields, build_metric, hydro_linear_step
from photonfluid.kgwave import kg_evolve
from photonfluid.lattice import LatticeParams, LatticeState, step_lattice


def gaussian_field(nx, dx, width, k0=0.0):
    psi = ComplexField2D.filled(nx, nx, dx, dx, 0.0)
    X, Y = psi.xy()
    psi.data = np.exp(-(X**2 + Y**2) / (2 * width**2)).astype(complex) \
        * np.exp(1j * k0 * X)
    psi.data /= np.sqrt(psi.norm_sq())
    return psi


# ---------------------------------------------------------------------------
# field container

def test_field_validation():
    with pytest.raises(ValueError):
        ComplexField2D(48, 32, 0.5, 0.5, np.zeros((48, 32), complex))
    with pytest.raises(ValueError):
        ComplexField2D(32, 32, 0.5, 0.5, np.zeros((16, 32), complex))
    with pytest.raises(ValueError):
        ComplexField2D(8, 8, 0.5, 0.5, np.full((8, 8), np.nan, complex))


# ---------------------------------------------------------------------------
# split-step evolution

def test_plane_wave_is_exact():
    psi = uniform_background(64, 64, 0.5, 0.5, flow_mode=(3, 0))
    p = FluidParams(m=1.0, G_kerr=0.0)
    out = evolve(psi, p, 0.0025, 2000)
    k0 = psi.meta["flow_k"][0]
    ratio = out.data / psi.data * np.exp(1j * (k0**2 / 2) * 0.0025 * 2000)
    assert np.max(np.abs(np.abs(ratio) - 1)) < 1e-12
    assert np.max(np.abs(np.angle(ratio))) < 1e-12


def test_uniform_kerr_phase_is_exact():
    psi = uniform_background(32, 32, 0.5, 0.5, density=2.0)
    p = FluidParams(m=1.0, G_kerr=0.7)
    out = evolve(psi, p, 0.0025, 1200)
    ratio = out.data / psi.data * np.exp(1j * 0.7 * 2.0 * 3.0)
    assert np.max(np.abs(np.angle(ratio))) < 1e-12


def test_step_size_refusal():
    psi = uniform_background(64, 64, 0.25, 0.25)
    with pytest.raises(StepSizeError):
        evolve(psi, FluidParams(m=1.0, G_kerr=0.0), 0.01, 10)
    evolve(psi, FluidParams(m=1.0, G_kerr=0.0), 0.01, 10, force=True)


def test_evolve_rejects_negative_steps():
    # a scalar V books v̄·dt·steps of global phase; a negative count must not
    psi = uniform_background(8, 8, 0.5, 0.5)
    p = FluidParams(m=1.0, G_kerr=1.0, V=2.0)
    with pytest.raises(ValueError, match="steps must be >= 0, got -3"):
        evolve(psi, p, 1e-3, -3)
    out = evolve(psi, p, 1e-3, 0)
    assert out.meta["phase_offset"] == 0.0
    assert np.array_equal(out.data, psi.data)


def test_trap_evolution_matches_crank_nicolson_oracle():
    # independent time integrator (Crank-Nicolson) on the shared spectral
    # Hamiltonian; a breathing Gaussian in a harmonic trap
    nx, dx = 64, 0.25
    psi = gaussian_field(nx, dx, width=1.3)
    X, Y = psi.xy()
    V = 0.5 * (X**2 + Y**2)
    p = FluidParams(m=1.0, G_kerr=0.0, V=V)
    k2 = psi.k_squared()

    def H(v):
        return np.fft.ifft2(k2 / 2 * np.fft.fft2(v)) + V * v

    dt, steps = 4.4e-4, int(round((np.pi / 2) / 4.4e-4))
    v = psi.data.copy()
    for _ in range(steps):
        rhs = v - 0.5j * dt * H(v)
        w = v
        for _ in range(8):               # contraction rate ~ dt*|H|/2 << 1
            w = rhs - 0.5j * dt * H(w)
        v = w
    out = evolve(psi, p, dt, steps)
    restored = out.data * np.exp(-1j * out.meta["phase_offset"])
    assert np.linalg.norm(restored - v) / np.linalg.norm(v) < 1e-4


def test_trap_width_breathes_at_twice_trap_frequency():
    nx, dx = 64, 0.25
    psi = gaussian_field(nx, dx, width=1.3)
    X, Y = psi.xy()
    p = FluidParams(m=1.0, G_kerr=0.0, V=0.5 * (X**2 + Y**2))
    widths = []
    cur = psi
    n_samp, t_samp = 300, 0.05
    for _ in range(n_samp):
        cur = evolve(cur, p, t_samp / 112, 112)
        n = np.abs(cur.data) ** 2
        widths.append(float(np.sum((X**2 + Y**2) * n) / np.sum(n)))
    w = np.array(widths) - np.mean(widths)
    spec = np.abs(np.fft.rfft(w * np.hanning(n_samp)))
    freqs = 2 * np.pi * np.fft.rfftfreq(n_samp, d=t_samp)
    assert freqs[np.argmax(spec)] == pytest.approx(2.0, rel=0.05)


def test_norm_and_energy_conservation():
    rng = np.random.default_rng(1)
    nx, dx = 64, 0.5
    base = np.ones((nx, nx), complex) + 0.05 * (
        rng.standard_normal((nx, nx)) + 1j * rng.standard_normal((nx, nx)))
    psi = ComplexField2D(nx, nx, dx, dx, base)
    k2 = psi.k_squared()
    psi.data = np.fft.ifft2(np.fft.fft2(psi.data) * np.exp(-k2 / 2))
    p = FluidParams(m=1.0, G_kerr=1.0)
    n0, e0 = psi.norm_sq(), gp_energy(psi, p)
    out = evolve(psi, p, 0.002, 1000)
    assert abs(out.norm_sq() - n0) / n0 < 1e-10
    assert abs(gp_energy(out, p) - e0) / abs(e0) < 1e-6


def test_strang_splitting_second_order():
    nx, dx = 64, 0.25
    psi = gaussian_field(nx, dx, width=1.0, k0=0.3)
    X, Y = psi.xy()
    p = FluidParams(m=1.0, G_kerr=1.5, V=0.5 * (X**2 + Y**2))
    T = 0.8
    ref_steps = int(T / 1.25e-4)
    ref = evolve(psi, p, T / ref_steps, ref_steps, force=True)
    errs = []
    dts = [2e-3, 1e-3, 5e-4]
    for dt in dts:
        s = int(round(T / dt))
        o = evolve(psi, p, T / s, s, force=True)
        errs.append(np.linalg.norm(o.data - ref.data) / np.linalg.norm(ref.data))
    # halving dt cuts the error ~4x against the dt/8-and-finer reference
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def _unfused_strang(psi, p, dt, steps):
    """The textbook Strang loop, two half kicks in every step; returns the
    state after each step (index 0 is the start)."""
    V = p.potential_grid(psi)
    Vc = V - np.mean(V)
    kin = np.exp(-1j * dt * psi.k_squared() / (2.0 * p.m))
    f = psi.data.copy()
    states = [f.copy()]
    for _ in range(steps):
        f = f * np.exp(-0.5j * dt * (Vc + p.G_kerr * np.abs(f) ** 2))
        f = np.fft.ifft2(np.fft.fft2(f) * kin)
        f = f * np.exp(-0.5j * dt * (Vc + p.G_kerr * np.abs(f) ** 2))
        states.append(f.copy())
    return states


def _trapped_packet():
    # non-square grid, moving Gaussian in an off-center trap with a nonzero
    # mean (so the bookkept phase grows), repulsive 𝒢 for negative m
    psi = ComplexField2D.filled(32, 16, 0.5, 0.5, 0.0)
    X, Y = psi.xy()
    psi.data = 2.0 * np.exp(-((X - 1.0) ** 2 + Y**2) / 4.0 + 0.8j * X + 0.3j * Y)
    psi.meta["phase_offset"] = 0.25
    p = FluidParams(m=-0.8, G_kerr=-1.5, V=0.7 + 0.05 * (X**2 + 2 * (Y - 0.5) ** 2))
    return psi, p


@pytest.mark.parametrize("steps, every", [
    (0, 1), (1, 1), (1, 2), (2, 1), (2, 3),
    (37, 0), (37, 1), (37, 4), (37, 5), (37, 37),
])
def test_fused_kicks_match_unfused_strang_loop(steps, every):
    psi, p = _trapped_packet()
    before = psi.data.copy()
    dt = 2e-3
    v_mean = float(np.mean(p.V))
    ref = _unfused_strang(psi, p, dt, steps)
    seen = []

    def record(step, fld):
        seen.append((step, fld.data.copy(), fld.meta["phase_offset"]))

    out = evolve(psi, p, dt, steps, record=record, record_every=every)
    want = [s for s in range(1, steps + 1) if every and s % every == 0]
    assert [s for s, _, _ in seen] == want
    for step, data, offset in seen + [(steps, out.data, out.meta["phase_offset"])]:
        assert np.linalg.norm(data - ref[step]) <= 1e-12 * np.linalg.norm(ref[step])
        assert offset == pytest.approx(0.25 + v_mean * dt * step, rel=1e-12, abs=1e-15)
    np.testing.assert_array_equal(psi.data, before)


def test_evolve_aborts_in_the_step_the_field_breaks():
    psi, p = _trapped_packet()

    def record(step, fld):
        assert np.all(np.isfinite(fld.data))
        if step == 10:
            fld.data[3, 4] = np.nan            # the live buffer breaks here

    with pytest.raises(NumericalError, match="step 11 of 37"):
        evolve(psi, p, 2e-3, 37, record=record, record_every=5)
    # a kick phase past the float range turns the field to nan in step 1
    huge = FluidParams(m=1.0, G_kerr=1e308)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="step 1 of 37"):
        evolve(psi, huge, 10.0, 37, force=True, record=record, record_every=5)


@pytest.mark.parametrize("shape", [(2, 2), (4, 128), (64, 4), (32, 16),
                                   (256, 256)])
def test_in_place_kinetic_step_matches_ifft2(shape):
    # the inverse is conj(fft2(conj y))/N written into the input buffer;
    # it must agree with numpy's allocating ifft2 of the same spectrum
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kin = np.exp(1j * rng.uniform(0.0, 2 * np.pi, shape)) \
        * rng.uniform(0.5, 1.0, shape)
    ref = np.fft.ifft2(kin * np.fft.fft2(f))
    _kinetic_step(f, np.conj(kin) / f.size)
    assert np.max(np.abs(f - ref)) <= 1e-15 * np.max(np.abs(ref))


def _allocating_evolve(psi, p, dt, steps, every):
    """The fused split step with a new array per transform,
    f = ifft2(kin · fft2 f); returns (step, field, phase_offset) at every
    recorded step and at the last one."""
    v_mean = float(np.mean(p.V))
    Vc = p.potential_grid(psi) - v_mean
    kin = np.exp(-1j * dt * psi.k_squared() / (2.0 * p.m))
    offset = psi.meta.get("phase_offset", 0.0)

    def kick(f, tau):
        return f * np.exp(-1j * tau * (Vc + p.G_kerr * np.abs(f) ** 2))

    f = psi.data.copy()
    out = []
    half = True
    for step in range(1, steps + 1):
        if half:
            f = kick(f, 0.5 * dt)
        f = np.fft.ifft2(np.fft.fft2(f) * kin)
        snap = bool(every) and step % every == 0
        half = snap or step == steps
        f = kick(f, 0.5 * dt if half else dt)
        if half:
            out.append((step, f.copy(), offset + v_mean * dt * step))
    return out


def _moving_packet(nx, ny):
    psi = ComplexField2D.filled(nx, ny, 0.5, 0.5, 0.0)
    X, Y = psi.xy()
    psi.data = 2.0 * np.exp(-((X - 0.5) ** 2 + Y**2) / 4.0 + 0.8j * X + 0.3j * Y)
    psi.meta["phase_offset"] = 0.25
    p = FluidParams(m=-0.8, G_kerr=-1.5, V=0.7 + 0.05 * (X**2 + 2 * Y**2))
    return psi, p


# 256² is at the threaded size: its row and column passes run on blocks
@pytest.mark.parametrize("shape", [(2, 2), (4, 128), (64, 4), (32, 16),
                                   (256, 256)])
def test_evolve_matches_allocating_split_step(shape):
    psi, p = _moving_packet(*shape)
    seen = []

    def record(step, fld):
        seen.append((step, fld.data.copy(), fld.meta["phase_offset"]))

    out = evolve(psi, p, 1e-3, 23, force=True, record=record, record_every=4)
    got = seen + [(23, out.data, out.meta["phase_offset"])]
    want = _allocating_evolve(psi, p, 1e-3, 23, 4)
    assert [s for s, _, _ in got] == [s for s, _, _ in want]
    for (_, data, offset), (_, ref, ref_offset) in zip(got, want):
        assert np.max(np.abs(data - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert offset == pytest.approx(ref_offset, rel=1e-13)


def _allocating_ground_state(p, n_total, grid, tol=1e-10):
    """The imaginary-time loop of `ground_state` with a new array per
    transform, kick and normalization (m > 0, no collapse check)."""
    nx, ny, dx, dy = grid
    psi = ComplexField2D.filled(nx, ny, dx, dy, 1.0)
    V = p.potential_grid(psi)
    if np.ptp(V) > 0:
        X, Y = psi.xy()
        i0 = np.unravel_index(np.argmin(V), V.shape)
        w = max(4 * max(dx, dy), 0.5 * min(nx * dx, ny * dy) / 8)
        psi.data = np.exp(-(((X - X[i0]) ** 2 + (Y - Y[i0]) ** 2) / (2 * w * w)))

    def normalize(f):
        return f * np.sqrt(n_total / (np.sum(np.abs(f) ** 2) * dx * dy))

    k2 = psi.k_squared()
    dtau = 0.25 / max(float(np.max(k2)) / (2 * p.m), abs(p.G_kerr) * n_total
                      / (nx * dx * ny * dy) + float(np.max(np.abs(V))) + 1.0)
    kin = np.exp(-dtau * k2 / (2.0 * p.m))
    Vc = V - float(np.mean(V))
    f = normalize(psi.data)
    psi.data = f
    e_prev = gp_energy(psi, p)
    for it in range(1, 200_001):
        f = f * np.exp(-0.5 * dtau * (Vc + p.G_kerr * np.abs(f) ** 2))
        f = np.fft.ifft2(np.fft.fft2(f) * kin)
        f = f * np.exp(-0.5 * dtau * (Vc + p.G_kerr * np.abs(f) ** 2))
        f = normalize(f)
        if it % 10 == 0:
            psi.data = f
            e = gp_energy(psi, p)
            if abs(e - e_prev) < tol * max(abs(e), 1e-30) * 10:
                return f
            e_prev = e
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("nx, ny, dx, G, trap", [
    (32, 16, 0.3, 2.0, True),     # real trapped start, non-square grid
    (16, 16, 0.5, 2.0, False),    # uniform start
    (64, 64, 0.25, -1.0, True),   # attractive, below collapse
])
def test_ground_state_matches_allocating_loop(nx, ny, dx, G, trap):
    probe = ComplexField2D.filled(nx, ny, dx, dx, 1.0)
    X, Y = probe.xy()
    p = FluidParams(m=1.0, G_kerr=G, V=0.5 * (X**2 + Y**2) if trap else 0.0)
    gs = ground_state(p, 1.0, (nx, ny, dx, dx))
    ref = _allocating_ground_state(p, 1.0, (nx, ny, dx, dx))
    assert np.max(np.abs(gs.data - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_evolve_peak_memory():
    # tracemalloc peak of one call, in complex fields of the grid: 7.006 for
    # the unfused loop, which filled V and Ṽ grids for a scalar V and held
    # the input copy across each FFT; 5.506 for the fused one, whose kick
    # reuses one real and one complex buffer; 3.682 since the kinetic step
    # transforms in place (the peak is now set while building kin)
    psi = uniform_background(256, 256, 0.25, 0.25, flow_mode=(2, 0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evolve(psi, p, 5e-4, 6, record=lambda step, fld: None, record_every=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (256 * 256 * 16) < 3.78


def _count_fft2(monkeypatch):
    calls = [0]

    def counted(*args, _fn=np.fft.fft2, **kw):
        calls[0] += 1
        return _fn(*args, **kw)

    monkeypatch.setattr(np.fft, "fft2", counted)
    return calls


def test_split_step_is_bitwise_identical_for_any_block_count(monkeypatch):
    # blocks are whole kick chunks and every transform is per row or per
    # column, so cutting the grid into more blocks must not change a bit,
    # also with more blocks than cores and a short switch interval to
    # shuffle the threads; each step makes 4 fft2 calls per block, each
    # over one axis of one block
    psi, p = _moving_packet(256, 256)
    calls = _count_fft2(monkeypatch)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for blocks in (1, 2, 4):
            monkeypatch.setattr(fluid, "_workers", lambda blocks=blocks: blocks)
            calls[0] = 0
            seen = []
            out = evolve(psi, p, 1e-3, 9, force=True, record_every=4,
                         record=lambda step, fld: seen.append(fld.data.copy()))
            assert calls[0] == 4 * blocks * 9
            runs.append(seen + [out.data])
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            np.testing.assert_array_equal(got, want)


def test_non_finite_last_block_raises_after_joining_every_block(monkeypatch):
    # the NaN sits in the last of four row blocks, which a pool thread
    # kicks; its error names the step and no pool thread outlives the call
    monkeypatch.setattr(fluid, "_workers", lambda: 4)
    psi, p = _moving_packet(256, 256)
    baseline = threading.active_count()

    def record(step, fld):
        if step == 10:
            fld.data[-1, 7] = np.nan

    with pytest.raises(NumericalError, match="step 11 of 23"):
        evolve(psi, p, 1e-3, 23, force=True, record=record, record_every=5)
    assert threading.active_count() == baseline


def test_run_blocks_joins_every_block_and_raises_the_first_in_order():
    # block 0 (calling thread) fails at once and block 2 before block 1;
    # block 1's error is raised, and only after every block has finished
    from concurrent.futures import ThreadPoolExecutor

    done = []

    def block(b):
        time.sleep(0.05 * (b == 1) + 0.1 * (b == 3))
        done.append(b)
        if b in (1, 2):
            raise ValueError(f"block {b}")

    with ThreadPoolExecutor(3) as pool:
        with pytest.raises(ValueError, match="block 1"):
            fluid._run_blocks(pool, block, 4)
        assert sorted(done) == [0, 1, 2, 3]
        done.clear()
        with pytest.raises(ZeroDivisionError):
            fluid._run_blocks(pool, lambda b: done.append(b) or 1 / b, 4)
        assert sorted(done) == [0, 1, 2, 3]


def test_small_grids_and_cli_import_start_no_thread():
    # below 2^16 cells evolve runs its one block in the calling thread and
    # never imports concurrent.futures (about 10 ms of start-up)
    src = os.path.dirname(os.path.dirname(fluid.__file__))
    code = (
        "import sys, threading\n"
        "import photonfluid.cli\n"
        "from photonfluid import fluid\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "fluid._workers = lambda: 8\n"
        "psi = fluid.uniform_background(64, 16, 0.5, 0.5, flow_mode=(1, 0))\n"
        "started = []\n"
        "threading.Thread.start = lambda self: started.append(self)\n"
        "fluid.evolve(psi, fluid.FluidParams(m=1.0, G_kerr=1.0), 1e-3, 4)\n"
        "print(len(started), 'concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# ---------------------------------------------------------------------------
# ground states

def test_oscillator_ground_state():
    nx, dx = 128, 0.15
    probe = ComplexField2D.filled(nx, nx, dx, dx, 1.0)
    X, Y = probe.xy()
    p = FluidParams(m=1.0, G_kerr=0.0, V=0.5 * (X**2 + Y**2))
    gs = ground_state(p, 1.0, (nx, nx, dx, dx))
    assert gp_energy(gs, p) == pytest.approx(1.0, rel=1e-6)
    n = np.abs(gs.data) ** 2
    assert np.sum((X**2 + Y**2) * n) / np.sum(n) == pytest.approx(1.0, rel=1e-3)


def test_uniform_box_ground_state():
    nx, dx = 32, 0.5
    p = FluidParams(m=1.0, G_kerr=2.0, V=0.0)
    gs = ground_state(p, 3.0, (nx, nx, dx, dx))
    n = np.abs(gs.data) ** 2
    area = (nx * dx) ** 2
    assert np.max(np.abs(n - 3.0 / area)) < 1e-10 * 3.0 / area


def test_thomas_fermi_chemical_potential():
    nx, dx = 128, 0.125
    probe = ComplexField2D.filled(nx, nx, dx, dx, 1.0)
    X, Y = probe.xy()
    G, N = 500.0, 1.0
    V = 0.5 * (X**2 + Y**2)
    p = FluidParams(m=1.0, G_kerr=G, V=V)
    gs = ground_state(p, N, (nx, nx, dx, dx))
    n = np.abs(gs.data) ** 2
    fk = np.fft.fft2(gs.data)
    kin = np.sum(probe.k_squared() * np.abs(fk) ** 2) / nx**2 / 2
    mu = float((kin + np.sum((V + G * n) * n)) * dx * dx / N)
    assert mu == pytest.approx(np.sqrt(G * N / np.pi), rel=5e-2)


def test_ground_state_is_stationary():
    nx, dx = 64, 0.25
    probe = ComplexField2D.filled(nx, nx, dx, dx, 1.0)
    X, Y = probe.xy()
    p = FluidParams(m=1.0, G_kerr=0.0, V=0.5 * (X**2 + Y**2))
    gs = ground_state(p, 1.0, (nx, nx, dx, dx))
    out = evolve(gs, p, 5e-4, 1)
    dn = np.abs(np.abs(out.data) ** 2 - np.abs(gs.data) ** 2)
    assert np.max(dn) < 1e-8 * np.max(np.abs(gs.data) ** 2)


def test_attractive_collapse_is_detected():
    nx, dx = 64, 0.25
    probe = ComplexField2D.filled(nx, nx, dx, dx, 1.0)
    X, Y = probe.xy()
    p = FluidParams(m=1.0, G_kerr=-10.0, V=0.5 * (X**2 + Y**2))
    with pytest.raises(CollapseError):
        ground_state(p, 40.0, (nx, nx, dx, dx))


def test_negative_mass_conjugate_ground_state():
    # (m<0, G<0) maps to the repulsive positive-mass problem by conjugation
    nx, dx = 32, 0.5
    p = FluidParams(m=-1.0, G_kerr=-2.0, V=0.0)
    gs = ground_state(p, 3.0, (nx, nx, dx, dx))
    area = (nx * dx) ** 2
    assert np.max(np.abs(np.abs(gs.data) ** 2 - 3.0 / area)) < 1e-9 / area


# ---------------------------------------------------------------------------
# linearized dynamics and dispersion

def test_linearized_zero_seed_stays_zero():
    psi0 = uniform_background(32, 4, 1.0, 1.0)
    p = FluidParams(m=1.0, G_kerr=1.0)
    phi = ComplexField2D.filled(32, 4, 1.0, 1.0, 0.0)
    out = linearized_step(phi, psi0, p, 0.01, steps=50)
    assert np.all(out.data == 0)


def test_linearized_free_plane_wave_frequency():
    # G = 0: phi modes rotate at the free-particle rate
    nx = 64
    L = 20 * np.pi
    psi0 = uniform_background(nx, 4, L / nx, L / nx)
    p = FluidParams(m=1.0, G_kerr=0.0)
    res = measure_dispersion(psi0, p, [0.3], periods=12)
    assert res[0].omega.real == pytest.approx(0.3**2 / 2, rel=1e-2)


def test_linearized_rejects_background_with_nodes():
    psi0 = uniform_background(32, 4, 1.0, 1.0)
    psi0.data[5, 2] = 0.0
    phi = ComplexField2D.filled(32, 4, 1.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="masked-region"):
        linearized_step(phi, psi0, FluidParams(m=1.0, G_kerr=1.0), 0.01)


def test_bogoliubov_dispersion_closed_form_points():
    p = FluidParams(m=1.0, G_kerr=1.0)
    # phononic limit: omega/k -> c_ex
    k = 1e-3
    assert bogoliubov_dispersion(k, 1.0, p).real / k == pytest.approx(
        1.0, rel=1e-5)
    # k*xi = 2: omega = sqrt(2) c k
    assert bogoliubov_dispersion(2.0, 1.0, p).real == pytest.approx(
        np.sqrt(2) * 2.0, rel=1e-12)


def test_measured_dispersion_matches_formula():
    nx = 64
    L = 20 * np.pi
    psi0 = uniform_background(nx, 4, L / nx, L / nx)
    p = FluidParams(m=1.0, G_kerr=1.0)
    res = measure_dispersion(psi0, p, [0.3], periods=16)
    expected = bogoliubov_dispersion(0.3, 1.0, p).real
    assert res[0].ok
    assert res[0].omega.real == pytest.approx(expected, rel=2e-2)


def test_modulational_instability_growth_rate():
    nx = 64
    L = 20 * np.pi
    psi0 = uniform_background(nx, 4, L / nx, L / nx)
    p = FluidParams(m=1.0, G_kerr=-1.0)
    res = measure_dispersion(psi0, p, [0.3], periods=8)
    expected = bogoliubov_dispersion(0.3, 1.0, p).imag
    assert res[0].note == "growing mode"
    assert res[0].omega.imag == pytest.approx(expected, rel=2e-2)


def test_galilean_boost_shifts_frequencies():
    nx = 64
    L = 20 * np.pi
    psi0 = uniform_background(nx, 4, L / nx, L / nx, flow_mode=(2, 0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    v = psi0.meta["flow_k"][0] / p.m
    k = 2 * np.pi * 3 / L
    res = measure_dispersion(psi0, p, [k], periods=16)
    expected = bogoliubov_dispersion(k, 1.0, p).real + k * v
    assert res[0].omega.real == pytest.approx(expected, rel=2e-2)


def _rk4_oracle(phi, psi0, p, dt, steps):
    """Step-by-step RK4 of the uniform-background linearized equation."""
    n = float(np.mean(np.abs(psi0.data) ** 2))
    k0x, k0y = psi0.meta.get("flow_k", (0.0, 0.0))
    kx, ky = psi0.kx()[:, None], psi0.ky()[None, :]
    # i[∇²/2m + (ik₀)·∇/m] in k-space
    kmul = 1j * (-psi0.k_squared() / (2 * p.m) - (k0x * kx + k0y * ky) / p.m)

    def rhs(f):
        return np.fft.ifft2(kmul * np.fft.fft2(f)) \
            - 1j * n * p.G_kerr * (f + np.conj(f))

    f = phi.copy()
    for _ in range(steps):
        k1 = rhs(f)
        k2 = rhs(f + 0.5 * dt * k1)
        k3 = rhs(f + 0.5 * dt * k2)
        k4 = rhs(f + dt * k3)
        f = f + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return f


@pytest.mark.parametrize("flow, G, m", [
    ((2, 1), 1.0, 1.0),
    ((1, 0), -0.3, 0.7),
    ((2, 0), 0.0, 1.0),
    ((0, 0), 1.0, -2.0),
    ((1, 1), -1.0, -2.0),
])
@pytest.mark.parametrize("steps", [0, 1, 300])
def test_uniform_background_propagator_matches_rk4_steps(flow, G, m, steps):
    # full-spectrum complex seed: every ±k pair and the Nyquist rows carry
    # independent amplitudes
    nx, ny, dx, dy, density = 32, 8, 0.7, 0.9, 1.3
    psi0 = uniform_background(nx, ny, dx, dy, density=density, flow_mode=flow)
    p = FluidParams(m=m, G_kerr=G)
    rng = np.random.default_rng(steps + 7)
    seed = 1e-3 * (rng.standard_normal((nx, ny))
                   + 1j * rng.standard_normal((nx, ny)))
    phi = ComplexField2D(nx, ny, dx, dy, seed)
    dt = 0.2 / (float(np.max(psi0.k_squared())) / (2 * abs(m))
                + 2 * density * abs(G))
    out = linearized_step(phi, psi0, p, dt, steps=steps)
    ref = _rk4_oracle(seed, psi0, p, dt, steps)
    assert np.linalg.norm(out.data - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("steps", [1, 2, 3, 494])
def test_rk4_power_matches_matrix_power_on_2x2_stacks(steps):
    rng = np.random.default_rng(steps + 21)
    Z = 0.05 * (rng.standard_normal((16, 8, 2, 2))
                + 1j * rng.standard_normal((16, 8, 2, 2)))
    Z2 = Z @ Z
    R = np.eye(2) + Z + Z2 / 2 + Z2 @ Z / 6 + Z2 @ Z2 / 24
    ref = np.linalg.matrix_power(R, steps)
    p00, p01, p10, p11 = rk4_power(
        (Z[..., 0, 0], Z[..., 0, 1], Z[..., 1, 0], Z[..., 1, 1]), steps)
    got = np.stack([np.stack([p00, p01], -1), np.stack([p10, p11], -1)], -2)
    err = np.linalg.norm(got - ref, axis=(-2, -1))
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))


@pytest.mark.parametrize("steps", [1, 2, 3, 494])
def test_rk4_power_matches_product_loop_on_scalars(steps):
    rng = np.random.default_rng(steps + 22)
    z = 0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    ref = np.ones_like(R)
    for _ in range(steps):
        ref = ref * R
    got = rk4_power(z, steps)
    assert got.shape == z.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


# ---------------------------------------------------------------------------
# shared RK4 driver and spectral kernel

def _unstable_runs():
    """Each stepped stage on a step far past its stability bound, as
    `steps -> arrays`, with the name its error message carries."""
    rng = np.random.default_rng(3)
    psi0 = uniform_background(16, 16, 0.5, 0.5)
    psi0.data = psi0.data * (1.0 + 0.1 * np.cos(psi0.x()))[:, None]
    phi = ComplexField2D(16, 16, 0.5, 0.5,
                         1e-3 * rng.standard_normal((16, 16)))
    fp = FluidParams(m=1.0, G_kerr=1.0)

    hydro = HydroFields.uniform(32, 8, 1.0, 1.0, m=1.0, G=1.0, vx=0.3)
    hydro.vx[5, 3] += 0.05
    dn0, th0 = rng.standard_normal((32, 8)), rng.standard_normal((32, 8))

    met = build_metric(HydroFields.uniform(64, 4, 0.5, 0.5, m=1.0, G=1.0))
    kg0 = 1e-2 * np.cos(2 * np.pi * met.x() / 32.0)[:, None] \
        + 1e-6 * rng.standard_normal((64, 4))

    lp = LatticeParams(Nx=8, Ny=8, h=1.0, omega_c=0.0, omega_m=1.0,
                       gamma=0.1, kappa=0.0, g_prime=0.05, J=-0.25)
    lat = LatticeState.bloch(lp, 1, 0)

    def linearized(n):
        return (linearized_step(phi, psi0, fp, 1.0, steps=n).data,)

    def hydro_step(n):
        return hydro_linear_step(dn0, th0, hydro, 5.0, steps=n)

    def kg(n):
        r = kg_evolve(kg0, np.zeros_like(kg0), met, 5.0, n, force=True)
        return r.dtheta, r.dtheta_dot

    def lattice(n):
        s = step_lattice(lat, lp, 5.0, n, force=True)
        return s.a, s.b

    return {"linearized_step": ("fluctuation field", linearized),
            "hydro_linear_step": ("hydro fluctuation", hydro_step),
            "kg_evolve": ("Klein-Gordon field", kg),
            "step_lattice": ("lattice state", lattice)}


@pytest.mark.parametrize("stage", ["linearized_step", "hydro_linear_step",
                                   "kg_evolve", "step_lattice"])
def test_rk4_loops_name_the_first_non_finite_step(stage):
    what, run = _unstable_runs()[stage]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError,
                           match=f"^{what} non-finite at step \\d+$") as err:
            run(100_000)
        step = int(str(err.value).rsplit(" ", 1)[1])
        before = run(step - 1)
    assert step > 1
    assert all(np.all(np.isfinite(a)) for a in before)


def test_spectral_stages_reach_numpy_fft(monkeypatch):
    # the benchmark tracer counts FFTs by wrapping numpy.fft.fft2/ifft2; a
    # module that bound them at import would bypass both it and this test
    counts = {"fft2": 0, "ifft2": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)

    def calls(run):
        counts.update(fft2=0, ifft2=0)
        run()
        return counts["fft2"], counts["ifft2"]

    rng = np.random.default_rng(11)
    f = rng.standard_normal((16, 8))
    kx, _ = wavenumbers(16, 8, 0.5, 0.5)
    assert calls(lambda: spectral_d(f, kx)) == (1, 1)

    # one general step: four stages of ∂ₓδθ, ∂ᵧδθ, the two flux
    # derivatives and the four quantum-pressure derivatives
    hydro = HydroFields.uniform(16, 8, 0.5, 0.5, m=1.0, G=1.0, vx=0.3)
    hydro.vx[5, 3] += 0.05
    assert calls(lambda: hydro_linear_step(f, f, hydro, 1e-3)) == (32, 32)

    # closed form: one fft2 and one ifft2 per component
    met = build_metric(HydroFields.uniform(16, 8, 0.5, 0.5, m=1.0, G=1.0))
    assert calls(lambda: kg_evolve(f, f, met, 1e-2, 5)) == (2, 2)

    # the split step's in-place inverse is a second fft2, never an ifft2;
    # each transform is a row and a column fft2 call, here on one block
    psi = uniform_background(16, 8, 0.5, 0.5, flow_mode=(1, 0))
    p = FluidParams(m=1.0, G_kerr=1.0)
    assert calls(lambda: evolve(psi, p, 1e-3, 1)) == (4, 0)
    n_fft2, n_ifft2 = calls(lambda: ground_state(p, 3.0, (8, 8, 0.5, 0.5)))
    assert n_fft2 >= 3 and n_ifft2 == 0
