"""Workload inputs and per-run output checks for the photonfluid benchmark.

Each workload is one `photonfluid` CLI stage on a fixed problem size.  The
workload seed varies only inputs that leave grid sizes and step counts
unchanged, so traced step, FFT, cell and field-byte counts repeat across
seeds.  `size="tiny"` shrinks each problem for the benchmark's own tests.

Checks read the run's output directory and return a list of failure
strings; an empty list means the run passed.  They re-derive what they can
from the artifacts (PFLD data, CSV tables) instead of trusting the
program's own summaries.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

# documented PFLD layout: 64-byte header (nx, ny as u64 at 16, dx, dy as
# f64 at 32), then nx·ny little-endian complex128 values
_PFLD_HEADER = 64


def read_pfld(path: str) -> tuple[np.ndarray, float, float]:
    with open(path, "rb") as fh:
        header = fh.read(_PFLD_HEADER)
        nx, ny, dx, dy = struct.unpack_from("<QQdd", header, 16)
        data = np.fromfile(fh, dtype="<c16", count=nx * ny)
    return data.reshape(nx, ny), dx, dy


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str
    # (rng, size) -> (config body without [run], expectations for check)
    make: Callable[[random.Random, str], tuple[str, dict]]
    # (outdir, manifest, expectations) -> failures
    check: Callable[[str, dict, dict], list[str]]

    def config(self, seed: int, size: str, out: str) -> tuple[str, dict]:
        body, expect = self.make(random.Random(f"{self.name}:{seed}"), size)
        head = f"[run]\nstage = {self.stage}\nout = {out}\n"
        return head + body, expect


# ---------------------------------------------------------------------------
# nlse-512: split-step spectral evolution of a uniform flowing background

def _nlse(rng: random.Random, size: str):
    n, steps, every = (64, 20, 10) if size == "tiny" else (512, 200, 50)
    dx = 0.25
    flow = rng.randint(1, 4)
    body = f"""
[grid]
nx = {n}
ny = {n}
dx = {dx}
dy = {dx}

[nlse]
m = 1.0
G_kerr = 1.0
density = 1.0
flow_mx = {flow}
steps = {steps}
snapshot_every = {every}
"""
    return body, {"norm": 1.0 * (n * dx) ** 2}


def _check_nlse(outdir: str, man: dict, expect: dict) -> list[str]:
    psi, dx, dy = read_pfld(os.path.join(outdir, "nlse_final.pfld"))
    norm = float(np.sum(psi.real**2 + psi.imag**2)) * dx * dy
    rel = abs(norm - expect["norm"]) / expect["norm"]
    if not rel <= 1e-10:
        return [f"norm {norm!r} deviates from n*L^2 = {expect['norm']!r} "
                f"by {rel:.3g} (relative) > 1e-10"]
    return []


# ---------------------------------------------------------------------------
# horizon-1024: acoustic metric and horizon of a radial sink

def _horizon(rng: random.Random, size: str):
    n = 128 if size == "tiny" else 1024
    dx = 8.0 / n
    sink = rng.uniform(0.9, 1.1)
    c_ex = 0.5
    body = f"""
[grid]
nx = {n}
ny = {n}
dx = {dx!r}
dy = {dx!r}

[nlse]
m = 1.0
G_kerr = 1.0

[metric]
source = radial_sink
sink_strength = {sink!r}
c_ex = {c_ex}
"""
    return body, {"radius": sink / c_ex, "dx": dx}


def _check_horizon(outdir: str, man: dict, expect: dict) -> list[str]:
    fails = []
    euclid = man.get("derived", {}).get("signature", {}).get("euclidean")
    if euclid != 0:
        fails.append(f"signature euclidean = {euclid}, want 0")
    with open(os.path.join(outdir, "horizons.json")) as fh:
        loops = [np.asarray(lp, float) for lp in json.load(fh)["loops"]]
    if not loops:
        return fails + ["no horizon loop found"]
    radii = [np.hypot(lp[:, 0], lp[:, 1]) for lp in loops]
    outer = max(radii, key=np.mean)
    err = float(np.max(np.abs(outer - expect["radius"])))
    if not err <= expect["dx"]:
        fails.append(f"outer horizon radius off D/c = {expect['radius']:.6g} "
                     f"by {err:.3g} > dx = {expect['dx']:.6g}")
    return fails


# ---------------------------------------------------------------------------
# pipeline-array: the whole chain, on the array-model config of the CLI
# tests (PIPELINE_ARRAY_CFG); only rdr.n_th varies, which moves only n_f

PIPELINE_ARRAY_BODY = """
seed = 7

[pipeline]
model = array

[rdr]
gamma_i = 1e-5
kappa_prime = 0.2
G = 0.08
Delta_bar = -1.0
n_th = {n_th}

[kernel]
g = 0.5

[lattice]
J = -0.25
h = 1.0

[grid]
nx = {nx}
ny = 4
dx = {dx}
dy = {dx}

[nlse]
density = 1.0

[kg]
mode_mx = 1
"""


def _pipeline(rng: random.Random, size: str):
    n_th = rng.uniform(5e5, 8e5)
    # tiny keeps the box length, so the seed's k*xi stays inside the window
    nx, dx = (32, 1.0) if size == "tiny" else (64, 0.5)
    return PIPELINE_ARRAY_BODY.format(n_th=repr(n_th), nx=nx, dx=dx), {}


def _check_pipeline(outdir: str, man: dict, expect: dict) -> list[str]:
    d = man.get("derived", {})
    fails = []
    if d.get("m") != -2.0:
        fails.append(f"m = {d.get('m')!r}, want -2")
    dev = d.get("kg_nlse_deviation")
    if dev is None or not dev <= 0.05:
        fails.append(f"kg_nlse_deviation = {dev!r}, want <= 0.05")
    gam = d.get("gamma_total")
    if gam is None or not abs(gam / 0.1277 - 1.0) <= 0.01:
        fails.append(f"gamma_total = {gam!r}, want 0.1277 within 1%")
    return fails


# ---------------------------------------------------------------------------
# lattice-64x16: optomechanical array RK4 and its continuum limit

def _lattice(rng: random.Random, size: str):
    nx, ny, t_final = (32, 4, 1.0) if size == "tiny" else (64, 16, 10.0)
    amp = rng.uniform(0.5, 1.5)
    body = f"""
[lattice]
nx = {nx}
ny = {ny}
g_prime = 0.05
t_final = {t_final}
amplitude = {amp!r}
"""
    return body, {}


def _check_lattice(outdir: str, man: dict, expect: dict) -> list[str]:
    kh, err = np.loadtxt(os.path.join(outdir, "continuum_error.csv"),
                         delimiter=",", skiprows=1, ndmin=2).T
    if not (np.all(np.isfinite(err)) and np.all(err > 0)):
        return [f"continuum errors not finite and positive: {err.tolist()}"]
    slope = float(np.polyfit(np.log(kh), np.log(err), 1)[0])
    if not abs(slope - 2.0) <= 0.2:
        return [f"continuum error log-log slope {slope:.4f}, want 2 +- 0.2"]
    return []


WORKLOADS = {w.name: w for w in (
    Workload("nlse-512", "nlse", _nlse, _check_nlse),
    Workload("horizon-1024", "metric", _horizon, _check_horizon),
    Workload("pipeline-array", "pipeline", _pipeline, _check_pipeline),
    Workload("lattice-64x16", "lattice", _lattice, _check_lattice),
)}


# ---------------------------------------------------------------------------
# checks every run must pass

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_run(workload: Workload, outdir: str, expect: dict) -> list[str]:
    """Every failure of one finished run: manifest status, artifact
    checksums, then the workload's own tolerances."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return ["no manifest.json written"]
    with open(path) as fh:
        man = json.load(fh)
    fails = []
    if man.get("status") != "ok":
        fails.append(f"manifest status {man.get('status')!r}, want 'ok'")
    artifacts = man.get("artifacts") or []
    if not artifacts:
        fails.append("manifest lists no artifacts")
    for art in artifacts:
        p = os.path.join(outdir, art["path"])
        if not os.path.exists(p):
            fails.append(f"artifact {art['path']} missing")
        elif _sha256(p) != art["sha256"]:
            fails.append(f"artifact {art['path']} does not match its sha256")
    if fails:
        return fails
    try:
        return workload.check(outdir, man, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"]


def artifact_bytes(outdir: str) -> int:
    """Bytes the manifest checksummed."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return sum(a["bytes"] for a in json.load(fh)["artifacts"])
