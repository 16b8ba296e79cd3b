"""Command-line pipeline runner.

Subcommands mirror the pipeline stages:

    rdr       reservoir-engineering figures of merit (+ parameter sweeps)
    kernel    memory kernel table, Kerr coupling, elimination validation
    lattice   array mean-field evolution and continuum comparison
    nlse      2D photon-fluid evolution with snapshots
    metric    acoustic metric, signature census, horizon polylines
    kg        wave propagation on the extracted metric
    pipeline  rdr → kernel → background → metric → horizon → kg crosscheck

Every run writes its artifacts plus a `manifest.json` (config hash, tool
version, timestamps, artifact checksums, derived quantities).  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 physics gate (unstable
operating point or Euclidean signature: the run is valid but gated stages
were skipped).  A config error still writes a `manifest.json` with
status "failed" and the error in its notes when the output directory is
known, i.e. `--out` was given or the config parsed; otherwise (an
unreadable or unparsable config without `--out`) the error goes to stderr
only.

Nothing in the pipeline is random: `--seed` (and `[run] seed`) is
reserved and only recorded in the manifest.  `--threads` (and `[run]
threads`) is likewise only recorded: the NLSE split step sizes its own
thread pool to the CPUs the process may use, on grids of at least 2¹⁶
cells, and every other stage runs in one thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .elimination import KernelParams, kerr_coupling, memory_kernel, \
    memory_kernel_inf, validate_elimination
from .errors import ConfigError, FieldFormatError, NumericalError, \
    PhotonFluidError, PhysicsGateError
from .fieldio import write_field
from .fluid import ComplexField2D, FluidParams, evolve, gp_energy, \
    ground_state, spectral_d, uniform_background, wavenumbers
from .geometry import DEGENERATE, EUCLIDEAN, LORENTZIAN, HydroFields, \
    build_metric, find_horizon
from .kgwave import center_of_energy, crosscheck_kg_vs_nlse, kg_evolve
from .lattice import LatticeParams, LatticeState, continuum_error, \
    continuum_params, lattice_dispersion, step_lattice
from .rdr import OptomechParams, rdr_report, thermal_occupancy

__all__ = ["main", "entry", "run_pipeline"]


# ---------------------------------------------------------------------------
# small artifact helpers

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Artifacts:
    """Tracks emitted files so the manifest can checksum them."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.paths: list[str] = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.outdir, name)
        self.paths.append(p)
        return p

    def write_csv(self, name: str, header, rows) -> str:
        p = self.path(name)
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return p

    def write_json(self, name: str, payload) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        return p

    def write_field(self, name: str, field: ComplexField2D, sidecar=None) -> str:
        p = self.path(name)
        write_field(p, field, sidecar)
        if sidecar is not None:
            self.paths.append(p + ".json")
        return p

    def manifest_entries(self):
        return [
            {"path": os.path.relpath(p, self.outdir),
             "sha256": _sha256(p),
             "bytes": os.path.getsize(p)}
            for p in self.paths
        ]


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


def write_manifest(outdir: str, payload: dict) -> str:
    path = os.path.join(outdir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
    os.replace(tmp, path)
    return path


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


def run_rdr(cfg: RunConfig, art: Artifacts, sweep: str | None = None) -> dict:
    p, G, Delta_bar = _rdr_params(cfg)
    omega = cfg["rdr"]["omega_eval"] or p.omega_i
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

    if sweep:
        param, values = _parse_sweep(sweep)
        if param not in ("omega", "G", "Delta_bar", *_asdict(p)):
            raise ConfigError(f"cannot sweep {param!r}")

        def point(v):
            kw = {"omega": omega, "G": rep.G, "Delta_bar": rep.Delta_bar}
            pp = p
            if param == "omega":
                kw["omega"] = v
            elif param in ("G", "Delta_bar"):
                kw[param] = v
            else:
                pp = _from_config(OptomechParams, **{**_asdict(p), param: v})
            r = rdr_report(pp, **kw)
            return [kw["omega"] if param == "omega" else v,
                    r.gamma_opt, r.omega_opt, r.n_f, int(r.stable)]

        rows = [point(v) for v in values]
        head = ["omega" if param == "omega" else param,
                "gamma_opt", "omega_opt", "n_f", "stable"]
        art.write_csv("rdr_sweep.csv", head, rows)
    return summary


def _asdict(p: OptomechParams) -> dict:
    return {k: getattr(p, k) for k in
            ("omega_i", "gamma_i", "kappa_prime", "kappa", "G0", "eps",
             "Delta", "T_bath", "n_th")}


def _parse_sweep(spec: str):
    try:
        param, lo, hi, num = spec.split(":")
        return param, np.linspace(float(lo), float(hi), int(num))
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {spec!r}; want param:min:max:steps") from exc


def _kernel_params(cfg: RunConfig, derived: dict | None = None) -> KernelParams:
    k = cfg["kernel"]
    omega_m = k["omega_m"]
    gamma = k["gamma"]
    if derived is not None:
        omega_m = derived.get("omega_m", omega_m)
        gamma = derived.get("gamma_total", gamma)
    if omega_m is None or gamma is None:
        raise ConfigError("kernel stage needs omega_m and gamma")
    return KernelParams(omega_m=omega_m, gamma=gamma, g=k["g"])


def run_kernel(cfg: RunConfig, art: Artifacts,
               sweep_gamma: str | None = None) -> dict:
    kp = _kernel_params(cfg)
    sec = cfg["kernel"]
    t_max = sec["t_table"] or 40.0 / kp.gamma
    ts = np.linspace(0.0, t_max, 400)
    art.write_csv("kernel.csv", ["t", "T"],
                  [[t, memory_kernel(t, kp)] for t in ts])
    G = kerr_coupling(kp)
    summary = {"G_kerr": G, "T_inf": memory_kernel_inf(kp),
               "omega_m": kp.omega_m, "gamma": kp.gamma, "g": kp.g}
    if sweep_gamma:
        _, gammas = _parse_sweep(f"gamma:{sweep_gamma}")
        rows = []
        for gam in gammas:
            chk = validate_elimination(
                KernelParams(kp.omega_m, float(gam), kp.g),
                n_photon=sec["n_photon"], t_final=sec["t_final"],
                dt=sec["dt"],
            )
            rows.append([gam, chk.err_norm])
        art.write_csv("elimination_error.csv", ["gamma", "err_norm"], rows)
    art.write_json("kernel_summary.json", summary)
    return summary


def run_lattice(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    sec = cfg["lattice"]
    p = _from_config(
        LatticeParams,
        Nx=sec["nx"], Ny=sec["ny"], h=sec["h"], omega_c=sec["omega_c"],
        omega_m=sec["omega_m"], gamma=sec["gamma"], kappa=sec["kappa"],
        g_prime=sec["g_prime"], J=sec["J"], damping_convention=sec["damping"],
    )
    if sec["init"] == "bloch":
        state = LatticeState.bloch(p, sec["mode_i"], sec["mode_j"],
                                   sec["amplitude"])
    else:
        state = LatticeState.zeros(p)
        state.a[:] = sec["amplitude"]
    rate = max(abs(p.omega_c) + 4 * abs(p.J), abs(p.omega_m), 1e-12)
    dt = sec["dt"] or 0.05 / rate
    steps = max(1, int(np.ceil(sec["t_final"] / dt)))
    state = step_lattice(state, p, sec["t_final"] / steps, steps=steps,
                         force=force)

    fld = ComplexField2D(p.Nx, p.Ny, p.h, p.h, state.a.copy(),
                         {"units": "natural"})
    art.write_field("lattice_final.pfld", fld, sidecar={"t": state.t})

    rows = []
    for mode in (1, 2, 4, 8):
        kh = 2 * np.pi * mode / p.Nx
        psi = ComplexField2D(p.Nx, p.Ny, p.h, p.h,
                             LatticeState.bloch(p, mode, 0).a)
        lat0 = LatticeState(psi.data.copy(), np.zeros_like(psi.data))
        # bias the on-site frequency so the k=0 edge sits at zero: a pure
        # Bloch state then only sees its own (small) eigenfrequency
        p0 = LatticeParams(p.Nx, p.Ny, p.h, -4.0 * p.J, p.omega_m, p.gamma,
                           0.0, 0.0, p.J, p.damping_convention)
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


def _background(cfg: RunConfig) -> tuple[ComplexField2D, FluidParams]:
    g = cfg["grid"]
    sec = cfg["nlse"]
    nx, ny, dx, dy = g["nx"], g["ny"], g["dx"], g["dy"]
    if sec["background"] == "uniform":
        psi = uniform_background(nx, ny, dx, dy, density=sec["density"],
                                 flow_mode=(sec["flow_mx"], sec["flow_my"]))
        p = _from_config(FluidParams, m=sec["m"], G_kerr=sec["G_kerr"], V=0.0)
    else:
        probe = ComplexField2D.filled(nx, ny, dx, dy, 1.0)
        X, Y = probe.xy()
        V = 0.5 * sec["m"] * sec["trap_omega"] ** 2 * (X**2 + Y**2)
        p = _from_config(FluidParams, m=sec["m"], G_kerr=sec["G_kerr"], V=V)
        n_total = sec["n_total"] or sec["density"] * nx * dx * ny * dy
        psi = ground_state(p, n_total, (nx, ny, dx, dy))
    psi.meta["units"] = "natural"
    return psi, p


def run_nlse(cfg: RunConfig, art: Artifacts,
             snapshot_every: int | None = None, force: bool = False) -> dict:
    sec = cfg["nlse"]
    every = snapshot_every if snapshot_every is not None else sec["snapshot_every"]
    if every < 0:
        raise ConfigError(f"--snapshot-every must be >= 0, got {every}")
    psi, p = _background(cfg)
    dt = sec["dt"] or 0.08 / max(
        float(np.max(psi.k_squared())) / (2 * abs(p.m)),
        abs(p.G_kerr) * float(np.max(np.abs(psi.data)) ** 2) + 1e-12,
    )
    steps = sec["steps"]
    snaps = []

    def record(step, fld):
        name = f"nlse_{step:06d}.pfld"
        art.write_field(name, fld, sidecar={"t": step * dt})
        snaps.append(name)

    out = psi
    if steps > 0:
        out = evolve(psi, p, dt, steps, force=force,
                     record=record if every else None,
                     record_every=every or 0)
    art.write_field("nlse_final.pfld", out, sidecar={"t": steps * dt})
    summary = {
        "steps": steps, "dt": dt, "norm": out.norm_sq(),
        "energy": gp_energy(out, p), "snapshots": snaps,
    }
    art.write_json("nlse_summary.json", summary)
    return summary


def _hydro_fields(cfg: RunConfig) -> HydroFields:
    msec = cfg["metric"]
    g = cfg["grid"]
    nsec = cfg["nlse"]
    nx, ny, dx, dy = g["nx"], g["ny"], g["dx"], g["dy"]
    m, G = nsec["m"], nsec["G_kerr"]
    if msec["source"] == "nlse":
        psi, p = _background(cfg)
        return HydroFields.from_field(psi, p)
    x = (np.arange(nx) - nx // 2) * dx
    y = (np.arange(ny) - ny // 2) * dy
    if msec["source"] == "uniform":
        return HydroFields.uniform(nx, ny, dx, dy, m, G,
                                   density=nsec["density"],
                                   vx=msec["vx"], vy=msec["vy"])
    if msec["source"] == "radial_sink":
        X, Y = np.meshgrid(x, y, indexing="ij")
        r = np.hypot(X, Y)
        r = np.maximum(r, 0.25 * min(dx, dy))
        speed = msec["sink_strength"] / r
        c = msec["c_ex"]
        return HydroFields.from_profiles(
            x, y, m, G, n=np.ones_like(X),
            vx=-speed * X / r, vy=-speed * Y / r,
            c2=np.full_like(X, c * c),
        )
    # tanh1d: leftward flow with a supersonic well between x1 and x2
    prof = 0.5 * (np.tanh((x - msec["x1"]) / msec["width"])
                  - np.tanh((x - msec["x2"]) / msec["width"]))
    v = -(msec["v_out"] + (msec["v_in"] - msec["v_out"]) * prof)
    c = msec["c_ex"]
    return HydroFields.from_profiles(
        x, y, m, G, n=np.ones((nx, ny)),
        vx=v[:, None] * np.ones((1, ny)), vy=0.0,
        c2=np.full((nx, ny), c * c),
    )


def run_metric(cfg: RunConfig, art: Artifacts) -> dict:
    fields = _hydro_fields(cfg)
    metric = build_metric(fields)
    census = {
        "lorentzian": int(np.sum(metric.signature == LORENTZIAN)),
        "euclidean": int(np.sum(metric.signature == EUCLIDEAN)),
        "degenerate": int(np.sum(metric.signature == DEGENERATE)),
    }
    horizons = []
    if census["euclidean"] == 0 and census["degenerate"] == 0:
        horizons = [loop.tolist() for loop in find_horizon(fields)]
    art.write_json("horizons.json", {
        "orientation": "superexcitonic region (|v0| > c_ex) on the left",
        "loops": horizons,
    })
    for name, grid in (("c2", fields.c2), ("vx", fields.vx),
                       ("vy", fields.vy), ("n", fields.n)):
        fld = ComplexField2D(fields.nx, fields.ny, fields.dx, fields.dy,
                             grid.astype(complex), {"units": name})
        art.write_field(f"metric_{name}.pfld", fld)
    summary = {"signature": census, "horizon_count": len(horizons),
               "conformal_mean": float(np.nanmean(metric.conformal))}
    art.write_json("metric_summary.json", summary)
    return summary


def run_kg(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    fields = _hydro_fields(cfg)
    metric = build_metric(fields)
    if np.any(metric.signature != LORENTZIAN):
        raise PhysicsGateError(
            "metric is not Lorentzian everywhere; Klein-Gordon stage gated off"
        )
    sec = cfg["kg"]
    x = metric.x()[:, None]
    if sec["seed"] == "mode":
        k = 2 * np.pi * sec["mode_mx"] / (metric.nx * metric.dx)
        th0 = sec["amplitude"] * np.cos(k * x) * np.ones((1, metric.ny))
    else:
        th0 = sec["amplitude"] * np.exp(
            -((x - sec["x_center"]) ** 2) / (2 * sec["sigma"] ** 2)
        ) * np.ones((1, metric.ny))
    kx, _ = wavenumbers(metric.nx, metric.ny, metric.dx, metric.dy)
    thx = spectral_d(th0, kx)
    u0 = -(fields.vx + np.sqrt(fields.c2)) * thx   # launch on the v+c branch

    speed = float(np.max(np.sqrt(metric.c2) + np.hypot(metric.vx, metric.vy)))
    dt = sec["dt"] or 0.4 * min(metric.dx, metric.dy) / speed
    steps = max(1, int(np.ceil(sec["t_final"] / dt)))
    res = kg_evolve(th0, u0, metric, sec["t_final"] / steps, steps,
                    force=force, sample_every=sec["sample_every"])
    rows = []
    for t, (th, u), en in zip(res.times, res.snapshots, res.energy):
        cx, cy = center_of_energy(th, u, metric)
        rows.append([t, cx, cy, en])
    art.write_csv("kg_trace.csv", ["t", "x_energy", "y_energy", "energy"], rows)
    fld = ComplexField2D(metric.nx, metric.ny, metric.dx, metric.dy,
                         res.dtheta.astype(complex), {"units": "dtheta"})
    art.write_field("kg_final.pfld", fld)
    summary = {"t_final": res.t, "energy_drift":
               float(abs(res.energy[-1] - res.energy[0])
                     / max(abs(res.energy[0]), 1e-300))}
    art.write_json("kg_summary.json", summary)
    return summary


def run_pipeline(cfg: RunConfig, art: Artifacts, force: bool = False) -> dict:
    """The full analogy chain: engineered reservoir → Kerr fluid →
    acoustic metric → wave propagation crosscheck."""
    derived: dict = {}
    notes: list[str] = []

    rsum = run_rdr(cfg, art)
    derived.update({
        "gamma_total": rsum["gamma_total"], "omega_m": rsum["omega_m"],
        "n_f": rsum["n_f"], "ratio_gamma_kappa": rsum["ratio_gamma_kappa"],
    })
    if not rsum["stable"]:
        raise PhysicsGateError("operating point linearly unstable; "
                               "pipeline gated at the rdr stage")

    kp = _kernel_params(cfg, derived)
    G_kerr = kerr_coupling(kp)
    derived["G_kerr"] = G_kerr

    if cfg["pipeline"]["model"] == "array":
        lsec = cfg["lattice"]
        m, v_tilde = continuum_params(lsec["J"], lsec["h"], lsec["omega_c"])
        notes.append(f"array model: m = {m:.6g} from J = {lsec['J']}")
    else:
        m = cfg["nlse"]["m"]
    derived["m"] = m

    density = cfg["nlse"]["density"]
    c2 = density * G_kerr / m
    derived["c_ex_sq"] = c2
    if c2 > 0:
        derived["c_ex"] = float(np.sqrt(c2))
        derived["xi"] = 1.0 / (abs(m) * derived["c_ex"])

    g = cfg["grid"]
    psi = uniform_background(g["nx"], g["ny"], g["dx"], g["dy"],
                             density=density,
                             flow_mode=(cfg["nlse"]["flow_mx"],
                                        cfg["nlse"]["flow_my"]))
    psi.meta["units"] = "natural"
    art.write_field("background.pfld", psi, sidecar={"m": m, "G_kerr": G_kerr})

    p = _from_config(FluidParams, m=m, G_kerr=G_kerr, V=0.0)
    fields = HydroFields.from_field(psi, p)
    metric = build_metric(fields)
    lorentzian = bool(np.all(metric.signature == LORENTZIAN))
    census = {
        "lorentzian": int(np.sum(metric.signature == LORENTZIAN)),
        "euclidean": int(np.sum(metric.signature == EUCLIDEAN)),
    }
    derived["signature"] = census

    if not lorentzian:
        notes.append("metric Euclidean (G_kerr·m < 0): kg stage skipped")
        art.write_json("horizons.json", {"orientation": None, "loops": []})
        raise _GatedButComplete(derived, notes)

    horizons = [loop.tolist() for loop in find_horizon(fields)]
    art.write_json("horizons.json", {
        "orientation": "superexcitonic region (|v0| > c_ex) on the left",
        "loops": horizons,
    })

    sec = cfg["kg"]
    x = psi.x()[:, None]
    k = 2 * np.pi * max(1, sec["mode_mx"]) / (psi.nx * psi.dx)
    th0 = sec["amplitude"] * np.cos(k * x) * np.ones((1, psi.ny))
    rep = crosscheck_kg_vs_nlse(psi, p, th0,
                                t_final=2 * np.pi / (derived["c_ex"] * k),
                                kxi_limit=sec["kxi_limit"])
    derived["kg_nlse_deviation"] = rep.deviation
    derived["kg_seed_kxi"] = rep.kxi_max
    return {"derived": derived, "notes": notes}


class _GatedButComplete(PhysicsGateError):
    """Pipeline finished every reachable stage but hit a physics gate."""

    def __init__(self, derived, notes):
        super().__init__("; ".join(notes) or "physics gate")
        self.derived = derived
        self.notes = notes


# ---------------------------------------------------------------------------
# entry point

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
        sp.add_argument("--threads", type=int,
                        help="reserved: recorded in the manifest only; "
                             "the NLSE split step uses the CPUs it may run "
                             "on, every other stage one thread")
        sp.add_argument("--seed", type=int,
                        help="reserved: recorded in the manifest only; "
                             "no stage draws random numbers")
        sp.add_argument("--force", action="store_true",
                        help="override step-size refusals")
        for args, kw in extra:
            sp.add_argument(*args, **kw)
        return sp

    add("rdr", [(("--sweep",), dict(help="param:min:max:steps"))])
    add("kernel", [(("--params",), dict(help="alias for --config")),
                   (("--sweep-gamma",), dict(help="min:max:steps"))])
    add("lattice")
    add("nlse", [(("--snapshot-every",), dict(type=int))])
    add("metric")
    add("kg")
    add("pipeline")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    status, derived, notes = "ok", {}, []
    code = 0
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
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        outdir = cfg.out
        if cfg.stage != args.command:
            raise ConfigError(
                f"config stage '{cfg.stage}' does not match "
                f"subcommand '{args.command}'"
            )
        art = Artifacts(outdir)

        if args.command == "rdr":
            derived = run_rdr(cfg, art, sweep=args.sweep)
        elif args.command == "kernel":
            derived = run_kernel(cfg, art, sweep_gamma=args.sweep_gamma)
        elif args.command == "lattice":
            derived = run_lattice(cfg, art, force=args.force)
        elif args.command == "nlse":
            derived = run_nlse(cfg, art, snapshot_every=args.snapshot_every,
                               force=args.force)
        elif args.command == "metric":
            derived = run_metric(cfg, art)
        elif args.command == "kg":
            derived = run_kg(cfg, art, force=args.force)
        else:
            out = run_pipeline(cfg, art, force=args.force)
            derived, notes = out["derived"], out["notes"]
    except _GatedButComplete as exc:
        status, code = "gated", 4
        derived, notes = exc.derived, exc.notes
    except PhysicsGateError as exc:
        status, code = "gated", 4
        notes = [str(exc)]
    except ConfigError as exc:
        status, code = "failed", 2
        notes = [f"config error: {exc}"]
    except (NumericalError, FieldFormatError) as exc:
        status, code = "failed", 3
        notes = [str(exc)]
    except PhotonFluidError as exc:
        status, code = "failed", 3
        notes = [str(exc)]

    if outdir is not None:
        payload = {
            "tool_version": __version__,
            "stage": args.command,
            "status": status,
            "config_sha256": cfg.sha256() if cfg else None,
            "config_echo": cfg.echo() if cfg else None,
            "seed": cfg.seed if cfg else args.seed,
            "threads": cfg.threads if cfg else args.threads,
            "started": started,
            "finished": time.time(),
            "derived": derived,
            "notes": notes,
            "artifacts": art.manifest_entries() if art else [],
        }
        os.makedirs(outdir, exist_ok=True)
        write_manifest(outdir, payload)
    if notes:
        for n in notes:
            print(n, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
