"""Command-line pipeline runner.

Subcommands mirror the pipeline stages:

    rdr       reservoir-engineering figures of merit
    kernel    memory kernel table, Kerr coupling and the closed-form
              elimination check (its `err_norm` is in every summary)
    lattice   array mean-field evolution and continuum comparison
    nlse      2D photon-fluid evolution with snapshots
    metric    acoustic metric, signature census, horizon polylines
    kg        wave propagation on the extracted metric
    pipeline  rdr → kernel → background → metric → horizon → kg crosscheck
              (of `[kernel]` it takes only g: ω_m and γ come from the rdr
              report)

Every run writes its artifacts plus a `manifest.json` (config hash, tool
version, timestamps, artifact checksums, derived quantities).  Each
artifact's SHA-256 and byte count are taken from the bytes as they are
written, so the manifest re-reads no file.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 physics gate (unstable
operating point or Euclidean signature: the run is valid but gated stages
were skipped, and `derived` keeps what came before the gate).  A config
error still writes a `manifest.json` with status "failed" and the error in
its notes when the output directory is known, i.e. `--out` was given or
the config parsed; otherwise (an unreadable or unparsable config without
`--out`) the error goes to stderr only.

`--sweep section.key:min:max:steps` (every stage) reruns the stage at
`steps` evenly spaced values of one key it reads, each checked as a config
value (any `[run]` or unread key, or a point its rule refuses, is a config
error before anything runs).  A point writes no artifacts; it adds the row
`section.key, status, <each number or bool derived>` to `<stage>_sweep.csv`,
nested as `signature.lorentzian`; a gated point's row keeps its status
`gated` and what it derived before the gate, and a point that fails (exit
2 or 3) fails the run.

Nothing in the pipeline is random: `[run] seed` is reserved and only
recorded in the manifest.  When the process may use more than one CPU,
two stages use threads on grids of at least 2¹⁶ cells: the NLSE split
step runs its blocks on a thread pool, and the metric stage writes its
four fields on writer threads while its census runs.  Everything else
runs in one thread.  `--force` (on `lattice`, `nlse` and `kg`, the
stages with a step-size refusal) steps past that refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import numbers
import os
import sys
import threading
import time
import warnings
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__, fluid
from .config import RunConfig, parse_config
from .elimination import KernelParams, kerr_coupling, memory_kernel, \
    memory_kernel_inf, validate_elimination
from .errors import ConfigError, PhotonFluidError, PhysicsGateError
from .fieldio import write_bytes, write_field
from .fluid import ComplexField2D, FluidParams, Grid, _step_count, evolve, \
    gp_energy, ground_state, spectral_d, split_step_cfl, uniform_background
from .geometry import DEGENERATE, EUCLIDEAN, LORENTZIAN, HydroFields, \
    _BLOCK_FLOATS, _unbroadcast, build_metric, find_horizon, healing_length
from .kgwave import center_of_energy, crosscheck_kg_vs_nlse, kg_energy, \
    kg_evolve, sonic_cfl_dt
from .lattice import LatticeParams, LatticeState, continuum_error, \
    continuum_params, lattice_dispersion, step_lattice
from .rdr import OptomechParams, rdr_report, thermal_occupancy

__all__ = ["main", "entry", "run_pipeline"]


# ---------------------------------------------------------------------------
# small artifact helpers

class Artifacts:
    """Tracks emitted files, with the SHA-256 and byte count of what was
    written to each for the manifest, and notes.  The manifest lists the
    files in the order their writes were recorded."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.written: dict[str, tuple[str, int]] = {}
        self.notes: list[str] = []
        os.makedirs(outdir, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        p = os.path.join(self.outdir, name)
        self.written[p] = write_bytes(p, text.encode())

    def write_csv(self, name: str, header, rows) -> None:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        self.write_text(name, buf.getvalue())

    def write_json(self, name: str, payload) -> None:
        self.write_text(name, _json_text(payload))

    def write_field(self, name: str, field: ComplexField2D,
                    sidecar=None) -> None:
        self.written.update(write_field(os.path.join(self.outdir, name),
                                        field, sidecar))

    def write_fields(self, fields, meanwhile):
        """Write each (name, field) of `fields` while `meanwhile()` runs on
        the calling thread, and return what `meanwhile()` returns.

        When a field has at least `fluid._THREAD_CELLS` cells and the
        process may use more than one CPU, the fields are written on
        `fluid._workers()` threads (at most one per field), started before
        `meanwhile()`; each takes the next field in order as it comes free.
        Otherwise the same writes run first, one after another, and then
        `meanwhile()`.  Either way every write and `meanwhile()` run to
        their end.  Then the files written are recorded, after those
        `meanwhile()` wrote and in the order of `fields`, and the first
        error is raised: the writes' in that order, then `meanwhile()`'s.
        The writers read the fields' data as it is, so nothing may change
        it until this returns."""
        written = [{} for _ in fields]
        errors = [None] * (len(fields) + 1)
        queue = iter(range(len(fields)))

        def writer():
            for k in queue:
                name, field = fields[k]
                try:
                    written[k] = write_field(os.path.join(self.outdir, name),
                                             field)
                except BaseException as exc:
                    errors[k] = exc

        cells = max(np.size(f.data) for _, f in fields)
        workers = fluid._workers() if cells >= fluid._THREAD_CELLS else 1
        threads = [threading.Thread(target=writer)
                   for _ in range(min(workers, len(fields)))] \
            if workers > 1 else []
        for t in threads:
            t.start()
        if not threads:
            writer()
        try:
            result = meanwhile()
        except BaseException as exc:
            errors[-1] = exc
        for t in threads:
            t.join()
        for files in written:
            self.written.update(files)
        for exc in errors:
            if exc is not None:
                raise exc
        return result

    def manifest_entries(self):
        return [{"path": os.path.relpath(p, self.outdir),
                 "sha256": sha256, "bytes": size}
                for p, (sha256, size) in self.written.items()]


class _Discard(Artifacts):
    """A sink that writes nothing and starts no thread: a sweep point keeps
    only its derived."""

    def __init__(self):
        self.written, self.notes = {}, []

    write_text = write_csv = write_json = write_field = \
        staticmethod(lambda *a, **kw: None)

    @staticmethod
    def write_fields(fields, meanwhile):
        return meanwhile()


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)


def write_manifest(outdir: str, payload: dict) -> None:
    write_bytes(os.path.join(outdir, "manifest.json"),
                _json_text(payload).encode())


_ORIENTATION = "superexcitonic region (|v0| > c_ex) on the left"
# one vertex of a loop in horizons.json
_VERTEX = "[\n        %r,\n        %r\n      ]"


def _horizons_text(loops) -> str:
    """The text of `horizons.json` for horizon loops given as non-empty
    (n, 2) float arrays of finite vertices: byte for byte `_json_text` of
    {"loops": [loop.tolist(), ...], "orientation": _ORIENTATION}, built by
    one %-format per loop instead of json's pure-Python indent encoder
    (`%r` of a float is the `float.__repr__` json writes)."""
    def block(loop):
        return ("[\n      " + ",\n      ".join([_VERTEX] * len(loop))
                + "\n    ]") % tuple(np.ravel(loop).tolist())

    listed = "[\n    " + ",\n    ".join(map(block, loops)) + "\n  ]" \
        if loops else "[]"
    return '{\n  "loops": %s,\n  "orientation": %s\n}' % (
        listed, json.dumps(_ORIENTATION))


# ---------------------------------------------------------------------------
# stage runners

def _from_config(build, *args, **kwargs):
    """Call a parameter constructor or check on values taken from the
    config; the `ValueError` of its argument checks is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _rdr_params(cfg: RunConfig) -> tuple[OptomechParams, complex | None, float | None]:
    r = cfg["rdr"]
    n_th = r["n_th"]
    if n_th is None and r["T"] is not None:
        n_th = _from_config(thermal_occupancy, cfg.omega_ref, r["T"])
    p = _from_config(
        OptomechParams,
        omega_i=r["omega_i"], gamma_i=r["gamma_i"],
        kappa_prime=r["kappa_prime"], kappa=r["kappa"],
        G0=r["G0"] or 0.0, eps=r["eps"] or 0.0, Delta=r["Delta"] or 0.0,
        n_th=n_th,
    )
    return p, r["G"], r["Delta_bar"]


def run_rdr(cfg: RunConfig, art: Artifacts) -> dict:
    p, G, Delta_bar = _rdr_params(cfg)
    omega = cfg["rdr"]["omega_eval"]
    if omega is None:
        omega = p.omega_i
    rep = rdr_report(p, omega=omega, G=G, Delta_bar=Delta_bar)

    summary = {
        "Delta_bar": rep.Delta_bar, "G_abs": abs(rep.G),
        "gamma_opt": rep.gamma_opt, "omega_opt": rep.omega_opt,
        "gamma_total": rep.gamma_total, "omega_m": rep.omega_m,
        "n_min": rep.n_min, "n_f": rep.n_f, "stable": rep.stable,
        "ratio_gamma_kappa": rep.ratio_gamma_kappa,
        "omega_ref_si": cfg.omega_ref,
    }
    art.write_json("rdr_summary.json", summary)
    return summary


def run_kernel(cfg: RunConfig, art: Artifacts) -> dict:
    sec = cfg["kernel"]
    kp = KernelParams(sec["omega_m"], sec["gamma"], sec["g"])
    chk = _from_config(validate_elimination, kp, n_photon=sec["n_photon"],
                       t_final=sec["t_final"], dt=sec["dt"])
    t_max = sec["t_table"] or 40.0 / kp.gamma
    ts = np.linspace(0.0, t_max, 400)
    art.write_csv("kernel.csv", ["t", "T"],
                  [[t, memory_kernel(t, kp)] for t in ts])
    summary = {"G_kerr": kerr_coupling(kp), "T_inf": memory_kernel_inf(kp),
               "omega_m": kp.omega_m, "gamma": kp.gamma, "g": kp.g,
               "err_norm": chk.err_norm}
    art.write_json("kernel_summary.json", summary)
    return summary


def run_lattice(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    sec = cfg["lattice"]
    p = _from_config(
        LatticeParams,
        Nx=sec["nx"], Ny=sec["ny"], h=sec["h"], omega_c=sec["omega_c"],
        omega_m=sec["omega_m"], gamma=sec["gamma"], kappa=sec["kappa"],
        g_prime=sec["g_prime"], J=sec["J"],
    )
    state = LatticeState.bloch(p, sec["mode_i"], sec["mode_j"],
                               sec["amplitude"])
    dt = sec["dt"] or 0.05 / max(p.rate, 1e-12)
    steps = _from_config(_step_count, sec["t_final"], dt)
    state = step_lattice(state, p, sec["t_final"] / steps, steps=steps,
                         force=force)

    grid = Grid(p.Nx, p.Ny, p.h, p.h)
    fld = ComplexField2D(grid, state.a.copy(), {"units": "natural"})
    art.write_field("lattice_final.pfld", fld, sidecar={"t": state.t})

    rows = []
    # modes below Nyquist only: on Nx sites mode Nx is the k = 0 state
    for mode in (m for m in (1, 2, 4, 8) if 2 * m < p.Nx):
        kh = 2 * np.pi * mode / p.Nx
        psi = ComplexField2D(grid, LatticeState.bloch(p, mode, 0).a)
        lat0 = LatticeState(psi.data.copy(), np.zeros_like(psi.data))
        # bias the on-site frequency so the k=0 edge sits at zero: a pure
        # Bloch state then only sees its own (small) eigenfrequency
        p0 = replace(p, omega_c=-4.0 * p.J, kappa=0.0, g_prime=0.0)
        w_k = abs(lattice_dispersion(kh, 0.0, -4.0 * p.J, p.J))
        t_one = 2 * np.pi / (abs(p.J) * kh * kh)
        dt = 0.2 / max(w_k, abs(p.omega_m))
        rows.append([kh, continuum_error(lat0, psi, p0, t_one,
                                         dt_lattice=dt, force=True)])
    art.write_csv("continuum_error.csv", ["kh", "error"], rows)

    m, v_tilde = continuum_params(p.J, p.h, p.omega_c)
    summary = {"m": m, "V_tilde": v_tilde, "t": state.t}
    art.write_json("lattice_summary.json", summary)
    return summary


def _background(cfg: RunConfig, m: float,
                G_kerr: float) -> tuple[ComplexField2D, FluidParams]:
    """The `[nlse]` background on `[grid]` for a fluid of mass m and Kerr
    coupling G_kerr."""
    grid = Grid(**cfg["grid"])
    sec = cfg["nlse"]
    if sec["background"] == "uniform":
        psi = uniform_background(grid, density=sec["density"],
                                 flow_mode=(sec["flow_mx"], sec["flow_my"]))
        p = _from_config(FluidParams, m=m, G_kerr=G_kerr, V=0.0)
    else:
        X, Y = grid.xy()
        V = 0.5 * m * sec["trap_omega"] ** 2 * (X**2 + Y**2)
        p = _from_config(FluidParams, m=m, G_kerr=G_kerr, V=V)
        n_total = sec["n_total"] or \
            sec["density"] * grid.nx * grid.dx * grid.ny * grid.dy
        psi = ground_state(p, n_total, grid)
    psi.meta["units"] = "natural"
    return psi, p


def run_nlse(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    sec = cfg["nlse"]
    psi, p = _background(cfg, sec["m"], sec["G_kerr"])
    # the default keeps dt·rate at 0.08, under `evolve`'s 0.1 refusal
    dt = sec["dt"] or 0.08 / max(split_step_cfl(psi, p, 1.0), 1e-12)
    steps = sec["steps"]
    snaps = []

    def record(step, fld):
        name = f"nlse_{step:06d}.pfld"
        art.write_field(name, fld, sidecar={"t": step * dt})
        snaps.append(name)

    if steps > 0:
        # rebinding drops the background: only the evolved field stays
        psi = evolve(psi, p, dt, steps, force=force, record=record,
                     record_every=sec["snapshot_every"])
    art.write_field("nlse_final.pfld", psi, sidecar={"t": steps * dt})
    summary = {
        "steps": steps, "dt": dt, "norm": psi.norm_sq(),
        "energy": gp_energy(psi, p), "snapshots": snaps,
    }
    art.write_json("nlse_summary.json", summary)
    return summary


def _real_field(grid: Grid, values: np.ndarray, units: str) -> SimpleNamespace:
    """A real array as the grid, data and meta `write_field` reads; the
    writer stores it as real (PFLD version 2) without a copy."""
    return SimpleNamespace(grid=grid, data=values, meta={"units": units})


def _sink_flow(grid: Grid, strength: float):
    """The radial sink's flow v = −(D/r)·r̂ on `grid`, r floored at a
    quarter cell, each component formed in the order ((−D/r)·x)/r.  It is
    formed band by band of rows straight into vx and vy, so r and the
    speed are held for one band; the coordinates stay a column and a
    row."""
    x, y = grid.x[:, None], grid.y[None, :]
    vx, vy = np.empty(grid.shape), np.empty(grid.shape)
    rows = min(grid.nx, max(1, _BLOCK_FLOATS // grid.ny))
    r, speed = np.empty((rows, grid.ny)), np.empty((rows, grid.ny))
    for i in range(0, grid.nx, rows):
        band = slice(i, i + rows)
        xb, vxb, vyb = x[band], vx[band], vy[band]
        rb, sb = r[:len(xb)], speed[:len(xb)]
        np.hypot(xb, y, out=rb)
        np.maximum(rb, 0.25 * min(grid.dx, grid.dy), out=rb)
        np.divide(strength, rb, out=sb)
        np.negative(sb, out=vxb)
        vxb *= xb
        vxb /= rb
        np.negative(sb, out=vyb)
        vyb *= y
        vyb /= rb
    return vx, vy


def _hydro_fields(cfg: RunConfig) -> HydroFields:
    msec = cfg["metric"]
    nsec = cfg["nlse"]
    m, G = nsec["m"], nsec["G_kerr"]
    if msec["source"] == "nlse":
        return HydroFields.from_field(*_background(cfg, m, G))
    grid = Grid(**cfg["grid"])
    if msec["source"] == "uniform":
        return HydroFields.uniform(grid, m, G, density=nsec["density"],
                                   vx=msec["vx"], vy=msec["vy"])
    c2 = msec["c_ex"] * msec["c_ex"]
    if msec["source"] == "radial_sink":
        vx, vy = _sink_flow(grid, msec["sink_strength"])
        # r̂ is undefined at the origin grid point, where the formula gives
        # v = 0: one subsonic point in the supersonic core, which would be
        # traced as a horizon of its own.  It flows inward along the
        # diagonal at the speed of its nearest neighbours, D/min(dx, dy),
        # so the fastest flow on the grid (and the kg stage's CFL step)
        # stays as it was.
        i, j = grid.nx // 2, grid.ny // 2
        vx[i, j] = vy[i, j] = \
            -msec["sink_strength"] / min(grid.dx, grid.dy) / np.sqrt(2.0)
        return HydroFields.from_profiles(grid, m, G, n=1.0, vx=vx, vy=vy,
                                         c2=c2)
    # tanh1d: leftward flow with a supersonic well between x1 and x2
    x = grid.x
    prof = 0.5 * (np.tanh((x - msec["x1"]) / msec["width"])
                  - np.tanh((x - msec["x2"]) / msec["width"]))
    v = -(msec["v_out"] + (msec["v_in"] - msec["v_out"]) * prof)
    return HydroFields.from_profiles(grid, m, G, n=1.0, vx=v[:, None], vy=0.0,
                                     c2=c2)


def _metric_census(fields: HydroFields, art: Artifacts):
    """The mean conformal factor of the acoustic metric of `fields`, its
    signature census and its horizon loops (traced only when every point
    is Lorentzian), which are written to `horizons.json`.  The metric is
    released before the horizon search.  A signature that is a broadcast
    view is counted on its own shape."""
    metric = build_metric(fields)
    signature = _unbroadcast(metric.signature)
    copies = metric.signature.size // signature.size
    census = {name: int(np.sum(signature == code)) * copies
              for name, code in (("lorentzian", LORENTZIAN),
                                 ("euclidean", EUCLIDEAN),
                                 ("degenerate", DEGENERATE))}
    lorentzian = census["lorentzian"] == metric.signature.size
    if lorentzian:
        # Ω is NaN exactly off Lorentzian points, so with none of those the
        # plain mean is nanmean's sum over the same values and count,
        # without nanmean's copy of Ω
        conformal_mean = float(np.mean(metric.conformal))
    else:
        # with no Lorentzian point the mean is NaN, as the census says:
        # nanmean's "Mean of empty slice" warning adds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            conformal_mean = float(np.nanmean(metric.conformal))
    del metric
    horizons = find_horizon(fields) if lorentzian else []
    art.write_text("horizons.json", _horizons_text(horizons))
    return conformal_mean, census, horizons


def run_metric(cfg: RunConfig, art: Artifacts) -> dict:
    """The acoustic metric stage.  The four background fields are written
    to `metric_*.pfld` while the census and the horizon search run on the
    calling thread: on writer threads when the grid has at least 2¹⁶
    cells and the process may use more than one CPU, else first and one
    after another (`Artifacts.write_fields`).  The census only reads the
    fields, and nothing may write to them before every writer has ended.
    `metric_summary.json` is written after that; every artifact, and the
    manifest's order, are those of the serial run."""
    fields = _hydro_fields(cfg)
    conformal_mean, census, horizons = art.write_fields(
        [(f"metric_{name}.pfld", _real_field(fields.grid, values, name))
         for name, values in (("c2", fields.c2), ("vx", fields.vx),
                              ("vy", fields.vy), ("n", fields.n))],
        partial(_metric_census, fields, art))
    summary = {"signature": census, "horizon_count": len(horizons),
               "conformal_mean": conformal_mean}
    art.write_json("metric_summary.json", summary)
    return summary


def _mode_seed(grid: Grid, sec) -> tuple[float, np.ndarray]:
    """The `[kg]` mode seed: k = 2π·mode_mx/(nx·dx) and the phase
    amplitude·cos(k x) on every row.  A k that overflows (a tiny dx, say)
    is a config error."""
    k = 2 * np.pi * sec["mode_mx"] / (grid.nx * grid.dx)
    if not np.isfinite(k):
        raise ConfigError(f"kg seed wavenumber 2π·mode_mx/(nx·dx) = {k!r} "
                          "is not finite")
    return k, sec["amplitude"] * np.cos(k * grid.x[:, None]) \
        * np.ones((1, grid.ny))


def run_kg(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    fields = _hydro_fields(cfg)
    metric = build_metric(fields)
    if np.any(metric.signature != LORENTZIAN):
        raise PhysicsGateError(
            "metric is not Lorentzian everywhere; Klein-Gordon stage gated off"
        )
    sec = cfg["kg"]
    grid = metric.grid
    x = grid.x[:, None]
    if sec["seed"] == "mode":
        _, th0 = _mode_seed(grid, sec)
    else:
        th0 = sec["amplitude"] * np.exp(
            -((x - sec["x_center"]) ** 2) / (2 * sec["sigma"] ** 2)
        ) * np.ones((1, grid.ny))
    kx, _ = grid.k()
    thx = spectral_d(th0, kx)
    u0 = -(fields.vx + np.sqrt(fields.c2)) * thx   # launch on the v+c branch
    dt = sec["dt"] or 0.8 * sonic_cfl_dt(metric)
    steps = _from_config(_step_count, sec["t_final"], dt)
    dt = sec["t_final"] / steps
    rows = []

    def record(step, th, u):
        rows.append([step * dt, *center_of_energy(th, u, metric),
                     kg_energy(th, u, metric)])

    # the trace's t = 0 row: a seed the grid cannot carry (a mode at
    # Nyquist, a gaussian narrower than a cell) has no energy, and its
    # trace no centre
    _from_config(record, 0, th0, u0)
    res = kg_evolve(th0, u0, metric, dt, steps, force=force,
                    record=record, record_every=sec["sample_every"])
    if steps % sec["sample_every"]:     # the partial last stretch
        record(steps, res.dtheta, res.dtheta_dot)
    art.write_csv("kg_trace.csv", ["t", "x_energy", "y_energy", "energy"], rows)
    art.write_field("kg_final.pfld", _real_field(grid, res.dtheta, "dtheta"))
    e0, e1 = rows[0][-1], rows[-1][-1]
    summary = {"t_final": res.t,
               "energy_drift": abs(e1 - e0) / max(abs(e0), 1e-300)}
    art.write_json("kg_summary.json", summary)
    return summary


def run_pipeline(cfg: RunConfig, art: Artifacts) -> dict:
    """The full analogy chain: engineered reservoir → Kerr fluid →
    acoustic metric → wave propagation crosscheck.  A physics gate carries
    what the chain derived before it as its `derived`."""
    derived: dict = {}
    try:
        rsum = run_rdr(cfg, art)
        derived.update({k: rsum[k] for k in ("gamma_total", "omega_m", "n_f",
                                             "ratio_gamma_kappa")})
        if not rsum["stable"]:
            raise PhysicsGateError("operating point linearly unstable; "
                                   "pipeline gated at the rdr stage")

        G_kerr = kerr_coupling(KernelParams(rsum["omega_m"],
                                            rsum["gamma_total"],
                                            cfg["kernel"]["g"]))
        derived["G_kerr"] = G_kerr

        if cfg["pipeline"]["model"] == "array":
            lsec = cfg["lattice"]
            m, _ = continuum_params(lsec["J"], lsec["h"], lsec["omega_c"])
            art.notes.append(f"array model: m = {m:.6g} from J = {lsec['J']}")
        else:
            m = cfg["nlse"]["m"]
        derived["m"] = m

        density = cfg["nlse"]["density"]
        c2 = density * G_kerr / m
        derived["c_ex_sq"] = c2
        if c2 > 0:
            derived["c_ex"] = float(np.sqrt(c2))
            derived["xi"] = float(healing_length(m, c2))

        # the background is uniform: `[nlse] background = ground_state` is a
        # config error for this stage
        psi, p = _background(cfg, m, G_kerr)
        art.write_field("background.pfld", psi,
                        sidecar={"m": m, "G_kerr": G_kerr})
        _, census, _ = _metric_census(HydroFields.from_field(psi, p), art)
        derived["signature"] = census
        # any non-Lorentzian point gates: the crosscheck's run time needs
        # derived["c_ex"], which is unset unless c_ex² > 0
        if census["euclidean"] or census["degenerate"]:
            why = "Euclidean (G_kerr·m < 0)" if census["euclidean"] \
                else "degenerate (c_ex² = 0)"
            raise PhysicsGateError(f"metric {why}: kg stage skipped")

        sec = cfg["kg"]
        k, th0 = _mode_seed(psi.grid, sec)
        rep = crosscheck_kg_vs_nlse(psi, p, th0,
                                    t_final=2 * np.pi / (derived["c_ex"] * k),
                                    kxi_limit=sec["kxi_limit"])
        derived["kg_nlse_deviation"] = rep.deviation
        derived["kg_seed_kxi"] = rep.kxi_max
        derived["kg_energy_drift"] = rep.kg_energy_drift
    except PhysicsGateError as exc:
        exc.derived = derived
        raise
    return derived


def _run(runner, cfg: RunConfig, art: Artifacts,
         opts: dict) -> tuple[str, dict]:
    """Run a stage: ("ok", derived), or ("gated", what it derived before
    the gate) with the gate noted."""
    try:
        return "ok", runner(cfg, art, **opts)
    except PhysicsGateError as exc:
        art.notes.append(str(exc))
        return "gated", getattr(exc, "derived", {})


# ---------------------------------------------------------------------------
# entry point

def _sweep_points(spec: str, text: str) -> tuple[str, list]:
    """The swept `section.key` and each point's value and config."""
    try:
        name, lo, hi, num = spec.split(":")
        section, key = name.split(".")
        values = np.linspace(float(lo), float(hi), int(num)).tolist()
        if not values:
            raise ValueError("no points")
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {spec!r}; want "
                          f"section.key:min:max:steps") from exc
    return name, [(v, parse_config(text, override=(section, key, v)))
                  for v in values]


def _sweep_table(name: str, points) -> tuple[list[str], list[list]]:
    """Header and rows of a sweep: per (value, status, derived) point,
    `name`, `status` and every number or bool (as 0/1) in derived, nested
    dicts as `outer.inner`.  A column a point lacks (past its gate, say) is
    empty in its row."""
    def flat(derived, prefix=""):
        for key, val in derived.items():
            if isinstance(val, dict):
                yield from flat(val, f"{prefix}{key}.")
            elif isinstance(val, numbers.Real):
                yield prefix + key, int(val) if isinstance(val, bool) else val

    rows = [{name: value, "status": status, **dict(flat(derived))}
            for value, status, derived in points]
    head = list(dict.fromkeys(col for row in rows for col in row))
    return head, [[row.get(col, "") for col in head] for row in rows]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="photonfluid",
        description="optomechanical photon-fluid pipeline",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, extra=()):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=(name != "kernel"),
                        help="run configuration file")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--sweep", metavar="SECTION.KEY:MIN:MAX:STEPS",
                        help=f"rerun over a linear range of one config key "
                             f"into {name}_sweep.csv")
        for args, kw in extra:
            sp.add_argument(*args, **kw)
        return sp

    force = (("--force",), dict(action="store_true",
                                help="override step-size refusals"))
    add("rdr")
    add("kernel", [(("--params",), dict(help="alias for --config"))])
    add("lattice", [force])
    add("nlse", [force])
    add("metric")
    add("kg", [force])
    add("pipeline")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    status, derived, notes = "ok", {}, []
    outdir = args.out
    cfg = art = None
    try:
        cfg_path = args.config or getattr(args, "params", None)
        if not cfg_path:
            raise ConfigError("a configuration file is required (--config)")
        try:
            with open(cfg_path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {cfg_path}: {exc}") from exc
        cfg = parse_config(text)
        if args.out:
            cfg.out = args.out
        outdir = cfg.out
        if cfg.stage != args.command:
            raise ConfigError(f"config stage '{cfg.stage}' does not match "
                              f"subcommand '{args.command}'")
        # every sweep point is checked before anything runs
        name, points = _sweep_points(args.sweep, text) if args.sweep \
            else ("", [])
        art = Artifacts(outdir)
        notes = art.notes
        opts = {k: v for k, v in vars(args).items() if k == "force"}
        # looked up per call, so a replaced `run_<stage>` is the one run
        runner = globals()[f"run_{args.command}"]
        status, derived = _run(runner, cfg, art, opts)
        code = 4 if status == "gated" else 0
        if args.sweep:
            art.write_csv(f"{args.command}_sweep.csv", *_sweep_table(
                name, [(v, *_run(runner, c, _Discard(), opts))
                       for v, c in points]))
    except ConfigError as exc:
        status, code = "failed", 2
        notes.append(f"config error: {exc}")
    except PhotonFluidError as exc:     # numerical and field-format errors
        status, code = "failed", 3
        notes.append(str(exc))

    if outdir is not None:
        payload = {
            "tool_version": __version__,
            "stage": args.command,
            "status": status,
            "config_sha256": cfg.sha256() if cfg else None,
            "config_echo": cfg.echo() if cfg else None,
            "seed": cfg.seed if cfg else None,
            "started": started,
            "finished": time.time(),
            "derived": derived,
            "notes": notes,
            "artifacts": art.manifest_entries() if art else [],
        }
        os.makedirs(outdir, exist_ok=True)
        write_manifest(outdir, payload)
    for n in notes:
        print(n, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
