"""End-to-end CLI runs: artifacts, manifests, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import photonfluid
from hypothesis import example, given, settings, strategies as st

from photonfluid import cli
from photonfluid.cli import main
from photonfluid.config import READS, SCHEMA
from photonfluid.fieldio import read_field
from photonfluid.fluid import Grid
from photonfluid.geometry import HydroFields, build_metric

RDR_CFG = """
[run]
stage = rdr
out = {out}

[rdr]
gamma_i = 1e-5
kappa_prime = 0.2
G = 0.08
Delta_bar = -1.0
n_th = 6.3e5
"""

KERNEL_CFG = """
[run]
stage = kernel
out = {out}

[kernel]
g = 0.1
omega_m = 1.0
gamma = 10.0
t_final = 60.0
"""

NLSE_CFG = """
[run]
stage = nlse
out = {out}

[grid]
nx = 32
ny = 32
dx = 0.5
dy = 0.5

[nlse]
m = 1.0
G_kerr = 1.0
density = 1.0
dt = 0.002
steps = 40
snapshot_every = 20
"""

METRIC_CFG = """
[run]
stage = metric
out = {out}

[grid]
nx = 256
ny = 256
dx = 0.03125
dy = 0.03125

[nlse]
m = 1.0
G_kerr = 1.0

[metric]
source = radial_sink
sink_strength = 1.0
c_ex = 0.5
"""

KG_CFG = """
[run]
stage = kg
out = {out}

[grid]
nx = 256
ny = 4
dx = 0.5
dy = 0.5

[nlse]
m = 1.0
G_kerr = 1.0

[metric]
source = tanh1d
c_ex = 1.0
v_out = 0.5
v_in = 1.5
x1 = -30.0
x2 = 30.0
width = 3.0

[kg]
t_final = 12.0
seed = gaussian
x_center = 15.0
sigma = 4.0
sample_every = 20
"""

PIPELINE_ARRAY_CFG = """
[run]
stage = pipeline
out = {out}
seed = 7

[pipeline]
model = array

[rdr]
gamma_i = 1e-5
kappa_prime = 0.2
G = 0.08
Delta_bar = -1.0
n_th = 6.3e5

[kernel]
g = 0.5

[lattice]
J = -0.25
h = 1.0

[grid]
nx = 64
ny = 4
dx = 0.5
dy = 0.5

[nlse]
density = 1.0

[kg]
mode_mx = 1
"""

PIPELINE_MICRO_CFG = PIPELINE_ARRAY_CFG.replace("model = array",
                                                "model = microcavity")

METRIC_TANH_CFG = KG_CFG.split("[kg]")[0].replace("stage = kg", "stage = metric")

LATTICE_CFG = """
[run]
stage = lattice
out = {out}

[lattice]
nx = 8
ny = 4
t_final = 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "out"))
    return p


def manifest(tmp_path):
    with open(tmp_path / "out" / "manifest.json") as fh:
        return json.load(fh)


def test_rdr_stage_and_sweep(tmp_path):
    cfg = write_cfg(tmp_path, RDR_CFG)
    assert main(["rdr", "--config", str(cfg),
                 "--sweep", "rdr.omega_eval:0.5:1.5:21"]) == 0
    man = manifest(tmp_path)
    assert man["status"] == "ok"
    assert man["derived"]["gamma_total"] == pytest.approx(0.1277, rel=1e-2)
    assert man["derived"]["n_f"] == pytest.approx(49, rel=5e-2)
    names = {a["path"] for a in man["artifacts"]}
    assert {"rdr_summary.json", "rdr_sweep.csv"} <= names
    rows = (tmp_path / "out" / "rdr_sweep.csv").read_text().splitlines()
    head = rows[0].split(",")
    assert head[:2] == ["rdr.omega_eval", "status"]
    assert {"gamma_opt", "omega_opt", "n_f", "stable"} <= set(head)
    assert len(rows) == 22


def test_lattice_continuum_table_stops_below_nyquist(tmp_path):
    # on 8 sites mode 4 is Nyquist and mode 8 the k = 0 state, whose step
    # would divide by ω_m = 0: only the modes below Nyquist are tabled
    cfg = write_cfg(tmp_path, LATTICE_CFG.replace("t_final = 1.0",
                                                  "t_final = 1.0\nomega_m = 0.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lattice", "--config", str(cfg)]) == 0
    kh, _ = np.loadtxt(tmp_path / "out" / "continuum_error.csv",
                       delimiter=",", skiprows=1).T
    assert np.array_equal(kh, 2 * np.pi * np.array([1, 2]) / 8)


def test_kernel_stage_with_gamma_sweep(tmp_path):
    cfg = write_cfg(tmp_path, KERNEL_CFG)
    assert main(["kernel", "--config", str(cfg),
                 "--sweep", "kernel.gamma:5.0:40.0:3"]) == 0
    man = manifest(tmp_path)
    assert man["derived"]["G_kerr"] < 0
    with open(tmp_path / "out" / "kernel_sweep.csv") as fh:
        err = [float(row["err_norm"]) for row in csv.DictReader(fh)]
    assert len(err) == 3
    assert np.all(np.diff(err) < 0)      # larger gamma, better elimination


def test_nlse_stage_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, NLSE_CFG)
    assert main(["nlse", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    names = {a["path"] for a in man["artifacts"]}
    assert "nlse_final.pfld" in names
    assert "nlse_000020.pfld" in names and "nlse_000040.pfld" in names
    fld = read_field(tmp_path / "out" / "nlse_final.pfld")
    assert fld.grid.nx == 32
    assert fld.norm_sq() == pytest.approx(32 * 32 * 0.25, rel=1e-9)


def test_metric_stage_finds_sink_horizon(tmp_path):
    cfg = write_cfg(tmp_path, METRIC_CFG)
    assert main(["metric", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    assert man["derived"]["signature"]["euclidean"] == 0
    with open(tmp_path / "out" / "horizons.json") as fh:
        hz = json.load(fh)
    assert "left" in hz["orientation"]
    main_loop = max((np.array(l) for l in hz["loops"]), key=len)
    radii = np.hypot(main_loop[:, 0], main_loop[:, 1])
    assert np.all(np.abs(radii - 2.0) < 0.04)


@pytest.mark.parametrize("bad", ["none", "some", "all"])
def test_conformal_mean_is_nanmean_bit_for_bit(bad):
    # Ω = n/(m c) varies from point to point; the census takes the plain
    # mean when every point is Lorentzian and nanmean otherwise, and
    # either must be nanmean's value to the last bit, NaN included
    rng = np.random.default_rng(21)
    n = rng.uniform(0.5, 2.0, (64, 48))
    c2 = rng.uniform(0.1, 1.0, (64, 48))
    if bad == "some":
        c2[3, 4] = c2[40, 7] = -0.5           # Euclidean
        n[10, 20] = 0.0                       # degenerate
    elif bad == "all":
        c2 = -c2
    f = HydroFields.from_profiles(Grid(64, 48, 0.5, 0.5), 1.3, 1.0, n=n,
                                  vx=0.1, vy=-0.2, c2=c2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # an all-NaN mean
        want = np.float64(np.nanmean(build_metric(f).conformal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the census itself warns of none
        got, census, _ = cli._metric_census(f, cli._Discard())
    assert (census["lorentzian"] == n.size) == (bad == "none")
    assert np.float64(got).tobytes() == want.tobytes()


def test_metric_stage_peak_memory(tmp_path):
    # tracemalloc peak of the 256^2 radial-sink metric stage, in float
    # grids: 15.1 with copied metric inputs, meshgrid set-up and complex
    # casts before each write; 8.7 once each field is held once; 7.38 since
    # the volume weight √−g is built on access, not by build_metric; 4.20
    # since the constant n and c2 are broadcast views, the metric is
    # released before the horizon search and F holds no |v|² temporary;
    # 3.77 (3.61 with one CPU) since marching squares forms its case index
    # in one uint8 buffer and frees its per-cell arrays before chaining,
    # while up to two writer threads each hold a 64 KB conversion buffer;
    # F is now formed a row band at a time, but at 256^2 one band of 2^16
    # floats is the whole grid, so the peak stays near one F: 3.85 (3.68
    # with one CPU) where the whole-grid F read 4.02 (3.86), each measured
    # alone in a fresh process
    cfg = write_cfg(tmp_path, METRIC_CFG)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["metric", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (256 * 256 * 8) <= 4.1


def test_metric_stage_peak_memory_at_1024(tmp_path):
    # tracemalloc peak of the 1024^2 radial-sink metric stage, in float
    # grids: 3.27 while the horizon search formed F = |v|² − c² as a grid;
    # 2.18 since marching squares reads F in row bands of 2^16 floats,
    # each formed when it is read, so the stage holds vx and vy and the
    # buffers of one band
    cfg = write_cfg(tmp_path, METRIC_CFG.replace("= 256", "= 1024")
                    .replace("0.03125", "0.0078125"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["metric", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert manifest(tmp_path)["derived"]["horizon_count"] == 1
    assert peak / (1024 * 1024 * 8) <= 2.3


def test_metric_stage_refuses_a_non_finite_horizon_function(tmp_path,
                                                           monkeypatch):
    # a flow whose square overflows in the last row band of F stops the
    # horizon search: exit 3, and no horizons.json, though the four
    # (finite) fields are written
    from photonfluid import geometry

    build = cli._hydro_fields

    def planted(cfg):
        fields = build(cfg)
        fields.vx[-1, 7] = 1e200
        return fields

    monkeypatch.setattr(cli, "_hydro_fields", planted)
    monkeypatch.setattr(geometry, "_BAND_FLOATS", 8 * 256)
    with np.errstate(over="ignore"):
        assert main(["metric", "--config",
                     str(write_cfg(tmp_path, METRIC_CFG))]) == 3
    man = manifest(tmp_path)
    assert man["status"] == "failed"
    assert man["notes"] == [
        "marching squares: F is not finite in rows 252–255"]
    assert not (tmp_path / "out" / "horizons.json").exists()
    assert sorted(a["path"] for a in man["artifacts"]) == [
        f"metric_{name}.pfld" for name in ("c2", "n", "vx", "vy")]


@pytest.mark.parametrize("loops", [
    [],
    [[[0.1, 2.0]]],
    [[[-0.0, 5e-324], [0.1, 2.0], [1e16, -3.75], [-0.0, 5e-324]],
     [[-1e-300, -2.5e-8], [12345.678, -0.1]],
     [[2.0, 0.1], [-1e16, 1.0], [0.0, -0.0]]],
], ids=["none", "one", "several"])
def test_horizons_text_is_json_text_byte_for_byte(loops):
    want = cli._json_text({"orientation": cli._ORIENTATION, "loops": loops})
    got = cli._horizons_text([np.array(loop) for loop in loops])
    assert got.encode() == want.encode()


def _metric_run(tmp_path, monkeypatch, workers):
    """A 256² (2¹⁶-cell) sink `metric` run on `workers` CPUs: its exit
    code, manifest, and the bytes of each file it left."""
    from photonfluid import fluid

    monkeypatch.setattr(fluid, "_workers", lambda: workers)
    tmp_path.mkdir()
    threads = threading.active_count()
    code = main(["metric", "--config", str(write_cfg(tmp_path, METRIC_CFG))])
    assert threading.active_count() == threads      # every writer joined
    files = {p.name: p.read_bytes()
             for p in sorted((tmp_path / "out").iterdir())}
    return code, manifest(tmp_path), files


@pytest.mark.parametrize("fail_on", [None, "metric_vy.pfld", "find_horizon"])
def test_threaded_metric_stage_writes_what_the_serial_one_does(
        tmp_path, monkeypatch, fail_on):
    # the four field writes run on writer threads from 2¹⁶ cells on 2
    # CPUs, and one after another on 1; a write or a horizon search that
    # raises fails the run only once every write and the census have ended
    from photonfluid.errors import NumericalError

    write, search = cli.write_field, cli.find_horizon

    def failing_search(fields):
        if fail_on == "find_horizon":
            raise NumericalError(f"cannot write {fail_on}")
        return search(fields)

    def failing(path, field, sidecar=None):
        on_main.append(threading.current_thread() is threading.main_thread())
        if os.path.basename(path) == fail_on:
            raise NumericalError(f"cannot write {fail_on}")
        return write(path, field, sidecar)

    monkeypatch.setattr(cli, "write_field", failing)
    monkeypatch.setattr(cli, "find_horizon", failing_search)
    runs = []
    for workers in (1, 2):
        on_main = []
        runs.append(_metric_run(tmp_path / str(workers), monkeypatch, workers))
        assert on_main == [workers == 1] * 4
    for code, man, files in runs:
        assert code == (0 if fail_on is None else 3)
        assert not any(name.endswith(".tmp") for name in files)
        listed = [a["path"] for a in man["artifacts"]]
        assert sorted(listed) == sorted(set(files) - {"manifest.json"})
        for a in man["artifacts"]:
            assert a["sha256"] == hashlib.sha256(files[a["path"]]).hexdigest()
    (_, serial, a), (_, threaded, b) = runs
    assert [x["path"] for x in serial["artifacts"]] == \
        [x["path"] for x in threaded["artifacts"]]
    assert a.keys() == b.keys()
    assert all(a[name] == b[name] for name in a if name != "manifest.json")
    if fail_on is None:
        assert [x["path"] for x in serial["artifacts"]] == [
            "horizons.json", "metric_c2.pfld", "metric_vx.pfld",
            "metric_vy.pfld", "metric_n.pfld", "metric_summary.json"]
    else:
        assert serial["notes"] == threaded["notes"] == \
            [f"cannot write {fail_on}"]
        fields = {f"metric_{name}.pfld" for name in ("c2", "vx", "vy", "n")}
        assert set(a) == {"manifest.json"} | (
            {"horizons.json"} | fields - {fail_on} if fail_on in fields
            else fields)


def test_writer_threads_take_each_field_once(tmp_path, monkeypatch):
    # more writer threads than CPUs share one queue of fields under a
    # short switch interval: each field is written once, by a writer
    # thread, and recorded in the order given
    from photonfluid import fluid

    monkeypatch.setattr(fluid, "_workers", lambda: 8)
    calls = []

    def fake(path, field, sidecar=None):
        calls.append((path, threading.current_thread().name))
        return {path: (os.path.basename(path), 1)}

    monkeypatch.setattr(cli, "write_field", fake)
    grid = Grid(256, 256, 1.0, 1.0)
    fields = [(f"f{k:02d}.pfld", cli._real_field(
        grid, np.broadcast_to(float(k), grid.shape), "x")) for k in range(40)]
    art = cli.Artifacts(str(tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert art.write_fields(fields, lambda: "census") == "census"
    finally:
        sys.setswitchinterval(interval)
    names = [name for name, _ in fields]
    assert sorted(os.path.basename(p) for p, _ in calls) == names
    assert len({thread for _, thread in calls}) <= 8
    assert threading.main_thread().name not in {t for _, t in calls}
    assert [os.path.basename(p) for p in art.written] == names


def test_nlse_stage_peak_memory(tmp_path, monkeypatch):
    # tracemalloc peak of a 256^2 nlse stage on a flowing uniform
    # background, in complex fields: 4.56 with a field-sized kinetic
    # factor, meshgrid set-up and an allocating energy; 2.64 now that the
    # stage holds the background, the evolving field and the kick scratch
    # of 2 blocks (pinned, as the scratch grows with the block count); the
    # second run is counted, after the first has made the lazy imports
    from photonfluid import fluid

    monkeypatch.setattr(fluid, "_workers", lambda: 2)
    cfg = write_cfg(tmp_path, """
[run]
stage = nlse
out = {out}

[grid]
nx = 256
ny = 256
dx = 0.25
dy = 0.25

[nlse]
m = 1.0
G_kerr = 1.0
density = 1.0
flow_mx = 2
steps = 6
snapshot_every = 2
""")
    assert main(["nlse", "--config", str(cfg)]) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["nlse", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(manifest(tmp_path)["derived"]["snapshots"]) == 3
    assert peak / (256 * 256 * 16) <= 2.75


def test_kg_stage_peak_memory(tmp_path):
    # tracemalloc peak of a 128^2 radial-sink kg stage (8 trace rows), in
    # float fields: 50.7 while kg_evolve kept a copy of δθ and u at every
    # sample; 36.7 once each trace row is built as the run records; 33.6
    # now that spectral results own their real buffers instead of keeping
    # the complex transform alive; 28.5 since RK4 sums its stages as they
    # come and drops each once it is used (32.5 before, both measured
    # alone in a fresh process); 27.7 since it steps in three buffers
    # allocated once per call; the second run is counted, after the
    # first has made the lazy imports
    cfg = write_cfg(tmp_path, """
[run]
stage = kg
out = {out}

[grid]
nx = 128
ny = 128
dx = 0.5
dy = 0.5

[nlse]
m = 1.0
G_kerr = 1.0

[metric]
source = radial_sink
sink_strength = 1.0
c_ex = 0.5

[kg]
t_final = 5.0
sample_every = 10
""")
    assert main(["kg", "--config", str(cfg)]) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["kg", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (128 * 128 * 8) <= 31


def test_kg_stage_traces_energy_center(tmp_path):
    cfg = write_cfg(tmp_path, KG_CFG)
    assert main(["kg", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    assert man["derived"]["energy_drift"] < 1e-4
    rows = np.loadtxt(tmp_path / "out" / "kg_trace.csv", delimiter=",",
                      skiprows=1)
    # packet launched inside the supersonic well drifts downstream (left)
    assert rows[-1, 1] < rows[0, 1]


def test_pipeline_array_model_runs_to_crosscheck(tmp_path):
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    d = man["derived"]
    assert d["m"] == pytest.approx(-2.0)
    assert d["G_kerr"] < 0
    assert d["c_ex_sq"] > 0
    assert d["signature"]["euclidean"] == 0
    assert d["kg_nlse_deviation"] <= 0.05
    assert d["gamma_total"] == pytest.approx(0.1277, rel=1e-2)
    assert d["n_f"] == pytest.approx(49, rel=5e-2)


def test_pipeline_steps_each_side_of_the_crosscheck_in_one_call(tmp_path,
                                                                 monkeypatch):
    # the crosscheck samples one kg_evolve run and one linearized_step run
    # instead of calling each once per sample
    from photonfluid import kgwave

    calls = []
    for name in ("kg_evolve", "linearized_step"):
        def spy(*args, _fn=getattr(kgwave, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(kgwave, name, spy)
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert sorted(calls) == ["kg_evolve", "linearized_step"]
    # the sampled KG run's wave energy is recorded: RK4 in closed form
    # conserves it to well below the crosscheck's own tolerance
    assert 0.0 <= manifest(tmp_path)["derived"]["kg_energy_drift"] < 1e-6


def test_pipeline_microcavity_hits_euclidean_gate(tmp_path):
    # attractive coupling with positive mass: Euclidean metric, kg skipped
    cfg = write_cfg(tmp_path, PIPELINE_MICRO_CFG)
    assert main(["pipeline", "--config", str(cfg)]) == 4
    man = manifest(tmp_path)
    assert man["status"] == "gated"
    assert man["derived"]["signature"]["euclidean"] > 0
    assert "degenerate" in man["derived"]["signature"]
    assert any("kg stage skipped" in n for n in man["notes"])
    assert "kg_nlse_deviation" not in man["derived"]
    # the same horizons.json as the metric stage, with no loop traced
    with open(tmp_path / "out" / "horizons.json") as fh:
        hz = json.load(fh)
    assert hz == {"orientation": "superexcitonic region (|v0| > c_ex) on the "
                                 "left", "loops": []}


def test_pipeline_degenerate_metric_hits_the_gate(tmp_path):
    # density 0 leaves no fluid: every point is degenerate, c_ex is unset
    # and the crosscheck is skipped rather than run without a sound speed
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG.replace("density = 1.0",
                                                         "density = 0.0"))
    assert main(["pipeline", "--config", str(cfg)]) == 4
    man = manifest(tmp_path)
    assert man["derived"]["signature"] == {"lorentzian": 0, "euclidean": 0,
                                           "degenerate": 256}
    assert "c_ex" not in man["derived"]
    assert any("metric degenerate" in n and "kg stage skipped" in n
               for n in man["notes"])


def test_every_pipeline_gate_keeps_what_was_derived_before_it(tmp_path):
    # the crosscheck's kξ gate left `derived` empty and dropped the model
    # note, though the chain up to the crosscheck had run
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG.replace("g = 0.5", "g = 0.25"))
    assert main(["pipeline", "--config", str(cfg)]) == 4
    man = manifest(tmp_path)
    d = man["derived"]
    assert man["status"] == "gated"
    assert d["m"] == pytest.approx(-2.0)
    assert d["G_kerr"] < 0 and d["c_ex"] > 0 and d["xi"] > 0
    assert d["gamma_total"] == pytest.approx(0.1277, rel=1e-2)
    assert d["signature"] == {"lorentzian": 256, "euclidean": 0,
                              "degenerate": 0}
    assert "kg_nlse_deviation" not in d
    assert man["notes"][0] == "array model: m = -2 from J = -0.25"
    assert "outside the hydrodynamic window" in man["notes"][1]


def test_pipeline_sweep_tables_every_point_gated_ones_included(tmp_path):
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG)
    assert main(["pipeline", "--config", str(cfg),
                 "--sweep", "kernel.g:-0.5:0.5:5"]) == 0
    with open(tmp_path / "out" / "pipeline_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["kernel.g"] for r in rows] == ["-0.5", "-0.25", "0.0", "0.25",
                                             "0.5"]
    # |g| = 0.25 makes ξ so long that the seed leaves the hydrodynamic
    # window, and g = 0 leaves no Kerr fluid at all
    assert [r["status"] for r in rows] == ["ok", "gated", "gated", "gated",
                                           "ok"]
    assert all(r["signature.lorentzian"] and r["signature.euclidean"]
               and r["signature.degenerate"] for r in rows)
    assert rows[2]["signature.degenerate"] == "256" and rows[2]["c_ex"] == ""
    assert float(rows[1]["c_ex"]) > 0 and rows[1]["kg_nlse_deviation"] == ""
    # the unswept run is g = 0.5: its point derives the same numbers
    man = manifest(tmp_path)
    assert man["status"] == "ok"
    for key in ("G_kerr", "c_ex", "kg_nlse_deviation", "kg_energy_drift"):
        assert float(rows[4][key]) == man["derived"][key]
    # the points write no artifacts of their own
    assert {a["path"] for a in man["artifacts"]} == {
        "rdr_summary.json", "background.pfld", "background.pfld.json",
        "horizons.json", "pipeline_sweep.csv"}


@pytest.mark.parametrize("spec", ["run.seed:1:3:2", "run.stage:0:1:2",
                                  "kg.t_final:1:2:2", "kernel.gamma:1:2:2",
                                  "metric.vx:0:1:2", "grid.nz:4:8:2"])
def test_a_sweep_over_a_key_the_stage_does_not_read_exits_two(
        tmp_path, capsys, spec):
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG)
    assert main(["pipeline", "--config", str(cfg), "--sweep", spec]) == 2
    name = spec.split(":")[0]
    assert f"{name} is not read by stage = pipeline" in capsys.readouterr().err
    man = manifest(tmp_path)
    assert man["status"] == "failed" and man["artifacts"] == []
    assert not (tmp_path / "out" / "pipeline_sweep.csv").exists()


def test_deterministic_rerun_byte_identical(tmp_path):
    cfg1 = tmp_path / "a.cfg"
    cfg1.write_text(PIPELINE_MICRO_CFG.format(out=tmp_path / "o1"))
    cfg2 = tmp_path / "b.cfg"
    cfg2.write_text(PIPELINE_MICRO_CFG.format(out=tmp_path / "o2"))
    assert main(["pipeline", "--config", str(cfg1)]) == 4
    assert main(["pipeline", "--config", str(cfg2)]) == 4
    b1 = (tmp_path / "o1" / "background.pfld").read_bytes()
    b2 = (tmp_path / "o2" / "background.pfld").read_bytes()
    assert b1 == b2


def test_manifest_checksums_verify(tmp_path):
    cfg = write_cfg(tmp_path, RDR_CFG)
    assert main(["rdr", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    for art in man["artifacts"]:
        digest = hashlib.sha256(
            (tmp_path / "out" / art["path"]).read_bytes()).hexdigest()
        assert digest == art["sha256"]


def test_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nstage = rdr\n[rdr]\nnope = 1\n")
    assert main(["rdr", "--config", str(bad)]) == 2
    assert "nope" in capsys.readouterr().err

    ok = write_cfg(tmp_path, RDR_CFG)
    assert main(["nlse", "--config", str(ok)]) == 2   # stage mismatch
    assert main(["rdr", "--config", str(tmp_path / "missing.cfg")]) == 2

    # grid sides the FFT layer cannot take are config errors, not tracebacks
    grid = write_cfg(tmp_path, NLSE_CFG.replace("nx = 32", "nx = 100"))
    assert main(["nlse", "--config", str(grid)]) == 2
    assert "grid.nx = 100" in capsys.readouterr().err
    grid = write_cfg(tmp_path, NLSE_CFG.replace("dx = 0.5", "dx = 0.0"))
    assert main(["nlse", "--config", str(grid)]) == 2
    assert "grid.dx must be positive" in capsys.readouterr().err
    lat = tmp_path / "lattice.cfg"
    lat.write_text("[run]\nstage = lattice\n[lattice]\nnx = 6\n")
    assert main(["lattice", "--config", str(lat)]) == 2
    assert "lattice.nx = 6" in capsys.readouterr().err

    # a zero mass or hopping rate leaves no fluid and no continuum map
    mass = write_cfg(tmp_path, NLSE_CFG.replace("m = 1.0", "m = 0.0"))
    assert main(["nlse", "--config", str(mass)]) == 2
    assert "line 13: nlse.m must be nonzero" in capsys.readouterr().err
    lat.write_text("[run]\nstage = lattice\n[lattice]\nnx = 8\nJ = 0.0\n")
    assert main(["lattice", "--config", str(lat)]) == 2
    assert "line 5: lattice.J must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lattice_final.pfld").exists()

    # negative step counts are refused before anything is evolved or written
    neg = write_cfg(tmp_path, NLSE_CFG.replace("steps = 40", "steps = -3"))
    assert main(["nlse", "--config", str(neg)]) == 2
    assert "line 17: nlse.steps must be >= 0" in capsys.readouterr().err
    neg = write_cfg(tmp_path, NLSE_CFG.replace("snapshot_every = 20",
                                               "snapshot_every = -1"))
    assert main(["nlse", "--config", str(neg)]) == 2
    assert "line 18: nlse.snapshot_every must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "nlse_final.pfld").exists()

    # parameter-object checks on config values are config errors too, and
    # the failed run still leaves its manifest
    for old, new, msg in (("kappa_prime = 0.2", "kappa_prime = 0.0",
                           "kappa_prime must be positive"),
                          ("gamma_i = 1e-5", "gamma_i = -1e-5",
                           "gamma_i must be non-negative")):
        bad = write_cfg(tmp_path, RDR_CFG.replace(old, new))
        assert main(["rdr", "--config", str(bad)]) == 2
        assert msg in capsys.readouterr().err
        man = manifest(tmp_path)
        assert man["status"] == "failed" and man["artifacts"] == []
        assert any("config error" in n and msg in n for n in man["notes"])
    # only [rdr] is rescaled in SI mode: a pipeline would read its kernel,
    # lattice and grid as natural units, so SI is refused at its line
    si = write_cfg(tmp_path, PIPELINE_ARRAY_CFG.replace(
        "seed = 7", "seed = 7\nunits = SI"))
    assert main(["pipeline", "--config", str(si),
                 "--out", str(tmp_path / "out")]) == 2
    assert "line 6: units = SI is supported for stage = rdr only" \
        in capsys.readouterr().err
    man = manifest(tmp_path)
    assert man["status"] == "failed" and man["artifacts"] == []
    # the pipeline crosschecks a uniform background only
    gs = write_cfg(tmp_path, PIPELINE_ARRAY_CFG.replace(
        "density = 1.0", "density = 1.0\nbackground = ground_state"))
    assert main(["pipeline", "--config", str(gs)]) == 2
    assert "line 32: nlse.background = ground_state is not supported" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "background.pfld").exists()
    ok = write_cfg(tmp_path, RDR_CFG)
    assert main(["rdr", "--config", str(ok), "--sweep",
                 "rdr.bogus:0:1:3"]) == 2
    assert "rdr.bogus is not read by stage = rdr" in capsys.readouterr().err
    # sweep points the formulas refuse ended in tracebacks; each point is
    # held to its key's rule
    assert main(["rdr", "--config", str(ok), "--sweep",
                 "rdr.omega_eval:0:1:3"]) == 2
    assert "rdr.omega_eval must be nonzero" in capsys.readouterr().err
    assert manifest(tmp_path)["status"] == "failed"
    ok = write_cfg(tmp_path, KERNEL_CFG)
    assert main(["kernel", "--config", str(ok),
                 "--sweep=kernel.gamma:0:5:3"]) == 2
    assert "kernel.gamma must be positive" in capsys.readouterr().err
    assert manifest(tmp_path)["status"] == "failed"

    # a config path that exists but cannot be read, and a key nothing reads
    unreadable = tmp_path / "undecodable.cfg"
    unreadable.write_bytes(b"\xff\xfe")
    for path in (tmp_path, unreadable):
        out = tmp_path / "unreadable_out"
        assert main(["rdr", "--config", str(path), "--out", str(out)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed" and man["config_sha256"] is None
    kg = write_cfg(tmp_path, RDR_CFG + "[kg]\nmode_my = 1\n")
    assert main(["rdr", "--config", str(kg)]) == 2
    assert "line 13: unknown key kg.mode_my" in capsys.readouterr().err
    # the split step sizes its own thread pool: no key records a count
    threads = write_cfg(tmp_path, RDR_CFG.replace("stage = rdr",
                                                  "stage = rdr\nthreads = 4"))
    assert main(["rdr", "--config", str(threads)]) == 2
    assert "line 4: unknown key run.threads" in capsys.readouterr().err

    # a KG sampling stride that records no trace is refused before anything
    # is evolved
    for every in ("0", "-1"):
        kg = write_cfg(tmp_path, KG_CFG.replace("sample_every = 20",
                                                f"sample_every = {every}"))
        assert main(["kg", "--config", str(kg)]) == 2
        assert "line 30: kg.sample_every must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "kg_trace.csv").exists()

    # values that ended in a traceback (a zero KG seed, a negative density,
    # a zero tanh width, a number that is not finite) or stepped backwards
    # in time (a dt <= 0) are refused at their lines
    kg_mode = KG_CFG.replace("seed = gaussian", "seed = mode")
    for stage, text, old, new, msg in (
        ("kg", kg_mode, "x_center = 15.0", "mode_mx = 0",
         "line 28: kg.mode_mx must be >= 1"),
        ("kg", KG_CFG, "sigma = 4.0", "amplitude = 0.0",
         "line 29: kg.amplitude must be nonzero"),
        ("nlse", NLSE_CFG, "density = 1.0", "density = -1.0",
         "line 15: nlse.density must be >= 0"),
        ("metric", METRIC_TANH_CFG, "width = 3.0", "width = 0.0",
         "line 23: metric.width must be positive"),
        ("kg", KG_CFG, "t_final = 12.0", "t_final = nan",
         "line 26: kg.t_final must be a finite number"),
        ("nlse", NLSE_CFG, "density = 1.0", "density = inf",
         "line 15: nlse.density must be a finite number"),
        ("nlse", NLSE_CFG, "dt = 0.002", "dt = -0.1",
         "line 16: nlse.dt must be positive"),
        ("nlse", NLSE_CFG, "dt = 0.002", "dt = 0.0",
         "line 16: nlse.dt must be positive"),
        ("kg", KG_CFG, "x_center = 15.0", "dt = -0.1",
         "line 28: kg.dt must be positive"),
        ("lattice", LATTICE_CFG, "t_final = 1.0", "t_final = 1.0\ndt = -0.1",
         "line 10: lattice.dt must be positive"),
        ("kernel", KERNEL_CFG, "t_final = 60.0", "t_final = 60.0\ndt = 0.0",
         "line 11: kernel.dt must be positive"),
        # a zero damping divided the table's span, a negative one or a
        # negative span tabled t < 0
        ("kernel", KERNEL_CFG, "gamma = 10.0", "gamma = 0.0",
         "line 9: kernel.gamma must be positive"),
        ("kernel", KERNEL_CFG, "gamma = 10.0", "gamma = -1.0",
         "line 9: kernel.gamma must be positive"),
        ("kernel", KERNEL_CFG, "t_final = 60.0",
         "t_final = 60.0\nt_table = -1.0",
         "line 11: kernel.t_table must be >= 0"),
        # a negative t_final ran backwards in time
        ("kernel", KERNEL_CFG, "t_final = 60.0", "t_final = -1.0",
         "line 10: kernel.t_final must be positive"),
        ("lattice", LATTICE_CFG, "t_final = 1.0", "t_final = -1.0",
         "line 9: lattice.t_final must be positive"),
        ("kg", KG_CFG, "t_final = 12.0", "t_final = -1.0",
         "line 26: kg.t_final must be positive"),
        # omega_eval = 0 was silently evaluated at omega_i
        ("rdr", RDR_CFG, "n_th = 6.3e5", "n_th = 6.3e5\nomega_eval = 0.0",
         "line 12: rdr.omega_eval must be nonzero"),
        # the continuum map divided by h; each read key keeps its rule in
        # every branch of the stage
        ("pipeline", PIPELINE_ARRAY_CFG, "h = 1.0", "h = 0.0",
         "line 22: lattice.h must be positive"),
        ("pipeline", PIPELINE_ARRAY_CFG, "density = 1.0",
         "density = 1.0\nm = 0.0", "line 32: nlse.m must be nonzero"),
        ("pipeline", PIPELINE_MICRO_CFG, "J = -0.25", "J = 0.0",
         "line 21: lattice.J must be nonzero"),
        ("kg", KG_CFG, "sigma = 4.0", "sigma = 4.0\nmode_mx = 0",
         "line 30: kg.mode_mx must be >= 1"),
        # a zero gaussian width put 0/0 at a centre on a grid point, and a
        # negative atom count took a square root of it: both exited 3
        ("kg", KG_CFG, "sigma = 4.0", "sigma = 0.0",
         "line 29: kg.sigma must be positive"),
        ("nlse", NLSE_CFG, "density = 1.0",
         "density = 1.0\nbackground = ground_state\nn_total = -4.0",
         "line 17: nlse.n_total must be >= 0"),
    ):
        bad = write_cfg(tmp_path, text.replace(old, new))
        assert main([stage, "--config", str(bad)]) == 2
        assert msg in capsys.readouterr().err
        assert manifest(tmp_path)["status"] == "failed"

    # a section or key the stage never reads is refused, not ignored
    for stage, text, msg in (
        ("nlse", NLSE_CFG + "[metric]\nsource = uniform\n",
         "line 19: stage 'nlse' does not read a [metric] section"),
        ("pipeline", PIPELINE_ARRAY_CFG + "[metric]\nsource = radial_sink\n",
         "line 35: stage 'pipeline' does not read a [metric] section"),
        ("pipeline", PIPELINE_ARRAY_CFG.replace("mode_mx = 1",
                                                "mode_mx = 1\nseed = gaussian"),
         "line 35: kg.seed is not read by stage = pipeline"),
    ):
        bad = write_cfg(tmp_path, text)
        assert main([stage, "--config", str(bad)]) == 2
        assert msg in capsys.readouterr().err


# the settable values each stage accepted and never read: 6 of the
# pipeline's [kernel], 11 of its [lattice], 6 of its [nlse], the [nlse]
# stepping of metric and kg, kg's kxi_limit, and the pipeline's rdr.T (it
# needs the units = SI that only the rdr stage takes)
_UNREAD = (
    [("pipeline", PIPELINE_ARRAY_CFG, "kernel", key) for key in
     ("omega_m", "gamma", "n_photon", "t_final", "dt", "t_table")]
    + [("pipeline", PIPELINE_ARRAY_CFG, "lattice", key)
       for key in SCHEMA["lattice"] if key not in ("J", "h", "omega_c")]
    + [("pipeline", PIPELINE_ARRAY_CFG, "nlse", key) for key in
       ("G_kerr", "trap_omega", "n_total", "dt", "steps", "snapshot_every")]
    + [(stage, text, "nlse", key)
       for stage, text in (("metric", METRIC_CFG), ("kg", KG_CFG))
       for key in ("dt", "steps", "snapshot_every")]
    + [("kg", KG_CFG, "kg", "kxi_limit"),
       ("pipeline", PIPELINE_ARRAY_CFG, "rdr", "T")])


@pytest.mark.parametrize("stage, text, sec, key", _UNREAD,
                         ids=[f"{u[0]}-{u[2]}.{u[3]}" for u in _UNREAD])
def test_a_key_the_stage_never_reads_is_refused_at_its_line(
        tmp_path, capsys, stage, text, sec, key):
    default = SCHEMA[sec][key].default
    value = 1 if default is None else \
        f'"{default}"' if isinstance(default, str) else default
    before, head, after = text.partition(f"[{sec}]\n")
    cfg = write_cfg(tmp_path, f"{before}{head}{key} = {value}\n{after}")
    assert main([stage, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    line = before.count("\n") + 2
    assert f"line {line}: {sec}.{key} is not read by stage = {stage}" \
        in capsys.readouterr().err
    man = manifest(tmp_path)
    assert man["status"] == "failed" and man["artifacts"] == []


def test_metric_writes_the_configured_spacing(tmp_path):
    # a spacing taken back from the coordinates as x[1] − x[0] was written
    # as 0.09999999999999964 on this 256-point grid
    cfg = write_cfg(tmp_path, METRIC_TANH_CFG.replace("dx = 0.5", "dx = 0.1"))
    assert main(["metric", "--config", str(cfg)]) == 0
    assert read_field(tmp_path / "out" / "metric_vx.pfld").grid.dx == 0.1


# tiny runs of every stage (rdr and kernel with a sweep) for the property
# test below; `metric` puts the tanh edge x1 on a grid point and
# `kg-mode`/`kg-gaussian` launch each seed.  ground_state backgrounds are
# left out only for their run time.
_TINY_GRID = {"nx": 16, "ny": 4, "dx": 1.0, "dy": 1.0}
_TANH = {"source": "tanh1d", "c_ex": 1.0, "x1": -4.0, "x2": 4.0, "width": 1.0}
_TINY_RDR = {"gamma_i": 1e-5, "kappa_prime": 0.2, "G": 0.08,
             "Delta_bar": -1.0, "n_th": 10.0}
_TINY_RUNS = {
    "rdr": ("rdr", {"rdr": _TINY_RDR},
            ["--sweep", "rdr.omega_eval:0.5:1.5:3"]),
    "kernel": ("kernel", {"kernel": {"g": 0.1, "omega_m": 1.0, "gamma": 10.0,
                                     "t_final": 6.0}},
               ["--sweep", "kernel.gamma:5:40:2"]),
    "lattice": ("lattice", {"lattice": {"nx": 8, "ny": 4, "t_final": 1.0}},
                []),
    "nlse": ("nlse", {"grid": {**_TINY_GRID, "ny": 8, "dx": 0.5, "dy": 0.5},
                      "nlse": {"flow_mx": 1, "steps": 4,
                               "snapshot_every": 2}}, []),
    "metric": ("metric", {"grid": _TINY_GRID, "metric": _TANH}, []),
    "kg-mode": ("kg", {"grid": _TINY_GRID,
                       "metric": {"source": "uniform", "vx": 0.3},
                       "kg": {"t_final": 2.0, "sample_every": 4}}, []),
    "kg-gaussian": ("kg", {"grid": _TINY_GRID, "metric": _TANH,
                           "kg": {"seed": "gaussian", "x_center": 0.5,
                                  "sigma": 1.0, "t_final": 2.0,
                                  "sample_every": 4}}, []),
    "pipeline": ("pipeline", {"pipeline": {"model": "array"}, "rdr": _TINY_RDR,
                              "kernel": {"g": 0.5},
                              "lattice": {"J": -0.25, "h": 1.0},
                              "grid": {**_TINY_GRID, "nx": 32},
                              "kg": {"mode_mx": 1}}, []),
}


def _config_text(stage, sections):
    return f"[run]\nstage = {stage}\n" + "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for sec, kv in sections.items())


@st.composite
def _edited_runs(draw):
    """A tiny run, up to three of the numeric keys its stage reads set to
    -1, 0, 0.5 or 2 (an integer key given 0.5 is a type error), and maybe
    a 2- or 3-point sweep of one such key between two of those values."""
    name = draw(st.sampled_from(sorted(_TINY_RUNS)))
    stage = _TINY_RUNS[name][0]
    keys = [(sec, key) for sec, read in READS[stage].items() for key in read
            if SCHEMA[sec][key].type in (int, float, "maybe")]
    values = st.sampled_from((-1, 0, 0.5, 2))
    edits = draw(st.lists(st.tuples(st.sampled_from(keys), values),
                          max_size=3))
    sweep = draw(st.lists(st.tuples(st.sampled_from(keys), values, values,
                                    st.integers(2, 3)), max_size=1))
    return (name, edits, *sweep)


@given(_edited_runs())
# each of these ended in a traceback, exit 1 and no manifest
@example(("kg-mode", [(("kg", "mode_mx"), 0)]))
@example(("kg-mode", [(("kg", "amplitude"), 0)]))
@example(("nlse", [(("nlse", "density"), -1)]))
@example(("metric", [(("metric", "width"), 0)]))
@example(("kg-mode", [(("grid", "nx"), 2)]))      # mode 1 is Nyquist
@example(("kg-gaussian", [(("kg", "sigma"), 0)]))  # no seed on the grid
@example(("kg-mode", [(("kg", "t_final"), "nan")]))
@example(("kernel", [(("kernel", "gamma"), 0)]))     # t_max = 40/γ
@example(("kernel", [(("kernel", "gamma"), -1)]))    # a table at t < 0
@example(("kernel", [(("kernel", "t_table"), -1)]))
@example(("kernel", [(("kernel", "t_final"), 0.5)]))  # no window past 5/γ
@example(("kernel", [(("kernel", "t_final"), -1)]))
@example(("rdr", [(("rdr", "omega_eval"), 0)]))      # was evaluated at ω_i
@example(("pipeline", [(("lattice", "h"), 0)]))      # m = 1/(2Jh²)
# an overflowing background: |v|² − c² in the sink, the tanh1d flow itself
@example(("metric", [(("grid", "ny"), 16), (("grid", "dx"), 0.5),
                     (("grid", "dy"), 0.5), (("metric", "c_ex"), 0.5),
                     (("metric", "source"), "radial_sink"),
                     (("metric", "sink_strength"), 1e306)]))
@example(("metric", [(("grid", "ny"), 16), (("grid", "dx"), 0.5),
                     (("grid", "dy"), 0.5), (("metric", "c_ex"), 0.5),
                     (("metric", "v_in"), 1.7e308),
                     (("metric", "v_out"), -1.7e308)]))
# each of these ran backwards in time
@example(("lattice", [(("lattice", "t_final"), -1)]))
@example(("kg-mode", [(("kg", "t_final"), -1)]))
# a step count t/dt that overflows (an OverflowError at int()) or, with
# no floor of one step, vanishes (a ZeroDivisionError at t/0)
@example(("kernel", [(("kernel", "dt"), 1e-320)]))
@example(("lattice", [(("lattice", "dt"), 1e-320)]))
@example(("kg-mode", [(("kg", "dt"), 1e-320)]))
@example(("kg-mode", [(("grid", "dx"), 1e-320), (("grid", "dy"), 1e-320)]))
# the mode seed's wavenumber 2π·mode_mx/(nx·dx) overflows to inf
@example(("pipeline", [(("grid", "dx"), 1e-320), (("grid", "dy"), 1e-320)]))
@example(("kernel", [(("kernel", "t_final"), 1e-300),
                     (("kernel", "dt"), 1e300)]))
# c² = n𝒢/m overflows: `write_field` refused the non-finite field
@example(("metric", [(("metric", "source"), "nlse"), (("nlse", "m"), 1e-320)]))
# a sweep through the gates of the chain, and one through a rule
@example(("pipeline", [], (("kernel", "g"), -1, 0.5, 3)))
@example(("kernel", [], (("kernel", "gamma"), 2, -1, 3)))
@settings(max_examples=80)
def test_main_ends_with_a_documented_exit_code_and_a_manifest(run):
    name, edits, *sweep = run
    stage, base, flags = _TINY_RUNS[name]
    for (sec, key), lo, hi, num in sweep:
        flags = [*flags, "--sweep", f"{sec}.{key}:{lo}:{hi}:{num}"]
    sections = {sec: dict(kv) for sec, kv in base.items()}
    for (sec, key), value in edits:
        sections.setdefault(sec, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(_config_text(stage, sections))
        # with --out, a config that fails to parse also leaves a manifest
        code = main([stage, "--config", path, "--out", out, *flags])
        assert code in (0, 2, 3, 4)
        assert os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("run", sorted(_TINY_RUNS))
def test_manifest_lists_every_artifact_with_the_bytes_written(
        tmp_path, monkeypatch, run):
    # every stage, nlse with snapshots and their sidecars, rdr and kernel
    # with a sweep: each checksum and size comes from the bytes as they were
    # written, so no artifact is opened for reading while `main` runs
    stage, sections, flags = _TINY_RUNS[run]
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(stage, sections))
    reads = []
    real_open = open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+") \
                and os.path.abspath(file).startswith(f"{out}{os.sep}"):
            reads.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    code = main([stage, "--config", str(cfg), "--out", str(out), *flags])
    monkeypatch.undo()
    assert code == 0 and reads == []
    listed = {a["path"]: a for a in manifest(tmp_path)["artifacts"]}
    assert sorted(listed) == sorted(set(os.listdir(out)) - {"manifest.json"})
    for name, art in listed.items():
        raw = (out / name).read_bytes()
        assert art["bytes"] == len(raw)
        assert art["sha256"] == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("n", [128, 256])
def test_sink_core_is_supersonic_and_leaves_one_horizon(tmp_path, n):
    # r̂ is undefined at the origin grid point; it flows at its nearest
    # neighbours' speed instead of being a subsonic point traced as a loop
    # of its own
    text = METRIC_CFG.replace("256", str(n)).replace("0.03125", repr(8.0 / n))
    assert main(["metric", "--config", str(write_cfg(tmp_path, text))]) == 0
    assert manifest(tmp_path)["derived"]["horizon_count"] == 1
    with open(tmp_path / "out" / "horizons.json") as fh:
        assert len(json.load(fh)["loops"]) == 1
    vx, vy, c2 = (read_field(tmp_path / "out" / f"metric_{name}.pfld").data.real
                  for name in ("vx", "vy", "c2"))
    core = (n // 2, n // 2)
    assert vx[core] ** 2 + vy[core] ** 2 > c2[core]


class _Recorder(Mapping):
    """A config section that notes every key read from it."""

    def __init__(self, section, values, seen):
        self.section, self.values, self.seen = section, values, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return self.values[key]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


# value branches the tiny runs leave out: an SI rdr run (it reads T), a
# driven rdr run that takes (G, Δ̄) from the steady state, the nlse source
# on either background, the uniform and sink sources and the microcavity
_GROUND = {"background": "ground_state", "trap_omega": 1.0, "n_total": 1.0}
_SINK = {"source": "radial_sink", "c_ex": 0.5}
_BRANCHES = [
    ("rdr", {"run": {"units": "SI"},
             "rdr": {**_TINY_RDR, "n_th": "none", "T": 300.0}}),
    ("rdr", {"rdr": {"gamma_i": 1e-5, "kappa_prime": 0.2, "G0": 1e-3,
                     "eps": 10.0, "Delta": -1.0, "n_th": 10.0}}),
    ("nlse", {"grid": _TINY_GRID, "nlse": _GROUND}),
    ("metric", {"grid": _TINY_GRID}),
    ("metric", {"grid": _TINY_GRID, "nlse": _GROUND}),
    ("metric", {"grid": _TINY_GRID, "metric": {"source": "uniform"}}),
    ("metric", {"grid": _TINY_GRID, "metric": _SINK}),
    ("kg", {"grid": _TINY_GRID, "kg": {"t_final": 2.0}}),
    ("kg", {"grid": _TINY_GRID, "nlse": _GROUND, "kg": {"t_final": 2.0}}),
    ("kg", {"grid": _TINY_GRID, "metric": _SINK, "kg": {"t_final": 2.0}}),
    ("pipeline", {**_TINY_RUNS["pipeline"][1],
                  "pipeline": {"model": "microcavity"}}),
]


@pytest.mark.parametrize("stage", list(READS))
def test_each_runner_reads_exactly_the_keys_its_stage_accepts(
        tmp_path, monkeypatch, stage):
    # over the value branches of source, background, seed and model (and
    # the sweeps' flags), the runner reads every key READS lists and no other
    runs = [(sections, flags) for name, (of, sections, flags)
            in _TINY_RUNS.items() if of == stage]
    runs += [(sections, []) for of, sections in _BRANCHES if of == stage]
    runner = getattr(cli, f"run_{stage}")
    seen = set()

    def recording(cfg, art, **kwargs):
        sections = cfg.sections
        cfg.sections = {sec: kv if sec == "run" else _Recorder(sec, kv, seen)
                        for sec, kv in sections.items()}
        try:
            return runner(cfg, art, **kwargs)
        finally:        # the manifest's echo reads every key
            cfg.sections = sections

    monkeypatch.setattr(cli, f"run_{stage}", recording)
    for i, (sections, flags) in enumerate(runs):
        path = tmp_path / f"{i}.cfg"
        path.write_text(_config_text(stage, sections))
        out = tmp_path / f"out{i}"
        # a gate stops a run only after the reads that decide it
        assert main([stage, "--config", str(path), "--out", str(out),
                     *flags]) in (0, 4)
    assert seen == {(sec, key) for sec, keys in READS[stage].items()
                    for key in keys}


def test_config_error_writes_failed_manifest(tmp_path, capsys):
    bad = write_cfg(tmp_path, NLSE_CFG.replace("nx = 32", "nx = 100"))
    # no --out and no parsed config: the error has nowhere to go but stderr
    assert main(["nlse", "--config", str(bad)]) == 2
    assert "grid.nx = 100" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    given = tmp_path / "given"
    assert main(["nlse", "--config", str(bad), "--out", str(given)]) == 2
    assert "grid.nx = 100" in capsys.readouterr().err
    with open(given / "manifest.json") as fh:
        man = json.load(fh)
    assert man["status"] == "failed"
    assert man["artifacts"] == []
    assert man["config_sha256"] is None
    assert any("config error" in n and "grid.nx = 100" in n
               for n in man["notes"])

    # a parsed config names its own output directory
    mismatch = write_cfg(tmp_path, RDR_CFG)
    assert main(["nlse", "--config", str(mismatch)]) == 2
    man = manifest(tmp_path)
    assert man["status"] == "failed" and man["artifacts"] == []
    assert man["stage"] == "nlse" and man["config_sha256"]
    assert any("does not match subcommand 'nlse'" in n for n in man["notes"])


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = write_cfg(tmp_path, RDR_CFG)
    src = os.path.dirname(os.path.dirname(photonfluid.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "photonfluid", "rdr", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert manifest(tmp_path)["status"] == "ok"


def test_pipeline_runs_without_scipy(tmp_path):
    # scipy is a test oracle only; importing it would cost every CLI run
    # about a third of a second of start-up
    cfg = write_cfg(tmp_path, PIPELINE_ARRAY_CFG)
    src = os.path.dirname(os.path.dirname(photonfluid.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys\n"
            "import photonfluid.cli\n"
            f"code = photonfluid.cli.main(['pipeline', '--config', {str(cfg)!r}])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert manifest(tmp_path)["status"] == "ok"


def test_numerical_refusal_exits_three(tmp_path):
    cfg = write_cfg(tmp_path, NLSE_CFG.replace("dt = 0.002", "dt = 0.5"))
    assert main(["nlse", "--config", str(cfg)]) == 3
    man = manifest(tmp_path)
    assert man["status"] == "failed"
    assert any("dt too large" in n for n in man["notes"])


def test_kernel_params_flag_alias(tmp_path):
    cfg = write_cfg(tmp_path, KERNEL_CFG)
    assert main(["kernel", "--params", str(cfg)]) == 0
    assert (tmp_path / "out" / "kernel.csv").exists()


def test_sweep_is_deterministic(tmp_path):
    cfg1 = tmp_path / "a.cfg"
    cfg1.write_text(RDR_CFG.format(out=tmp_path / "o1"))
    cfg2 = tmp_path / "b.cfg"
    cfg2.write_text(RDR_CFG.format(out=tmp_path / "o2"))
    assert main(["rdr", "--config", str(cfg1),
                 "--sweep", "rdr.omega_eval:0.5:1.5:41"]) == 0
    assert main(["rdr", "--config", str(cfg2),
                 "--sweep", "rdr.omega_eval:0.5:1.5:41"]) == 0
    assert (tmp_path / "o1" / "rdr_sweep.csv").read_bytes() == \
        (tmp_path / "o2" / "rdr_sweep.csv").read_bytes()


def test_nlse_ground_state_background(tmp_path):
    text = NLSE_CFG.replace("density = 1.0",
                            "density = 1.0\nbackground = ground_state\n"
                            "trap_omega = 1.0\nn_total = 1.0")
    text = text.replace("dx = 0.5", "dx = 0.25").replace("dy = 0.5",
                                                         "dy = 0.25")
    text = text.replace("steps = 40", "steps = 0")
    text = text.replace("G_kerr = 1.0", "G_kerr = 0.0")
    cfg = write_cfg(tmp_path, text)
    assert main(["nlse", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    # non-interacting (G_kerr = 0) 2D oscillator ground state:
    # E = N·ħΩ·(½ + ½) = 1 with N = m = Ω = 1
    assert man["derived"]["energy"] == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("omega", [1.0, 3.0])
def test_nlse_default_dt_passes_the_step_size_check_under_a_trap(tmp_path,
                                                                 omega):
    # the default dt counts max|V| as the step-size check does; leaving it
    # out made dt·rate 0.148 (Ω = 1) and 1.22 (Ω = 3) and exit 3
    cfg = write_cfg(tmp_path, f"""
[run]
stage = nlse
out = {{out}}

[grid]
nx = 32
ny = 32
dx = 0.5
dy = 0.5

[nlse]
background = ground_state
trap_omega = {omega}
steps = 10
snapshot_every = 0
""")
    assert main(["nlse", "--config", str(cfg)]) == 0
    assert manifest(tmp_path)["status"] == "ok"


class _Entered(Exception):
    """Raised by a spy stage runner; `main` catches no such error."""


@pytest.mark.parametrize("stage, text", [
    ("rdr", RDR_CFG), ("kernel", KERNEL_CFG), ("lattice", LATTICE_CFG),
    ("nlse", NLSE_CFG), ("metric", METRIC_CFG), ("kg", KG_CFG),
    ("pipeline", PIPELINE_ARRAY_CFG),
])
def test_main_enters_the_stage_runner_through_its_module_name(
        tmp_path, monkeypatch, stage, text):
    # the benchmark times set-up up to the moment `main` enters the runner,
    # by replacing `cli.run_<stage>`: `main` must look the name up per call
    entered = []

    def spy(cfg, art, **kwargs):
        entered.append(cfg.stage)
        raise _Entered

    monkeypatch.setattr(cli, f"run_{stage}", spy)
    with pytest.raises(_Entered):
        main([stage, "--config", str(write_cfg(tmp_path, text))])
    assert entered == [stage]


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    # the tracer patches module attributes by name; a renamed or removed
    # function would fail a traced benchmark run, so it fails here first
    import importlib

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracer import COUNTED, SPANNED

    missing = [f"{modname}.{name}"
               for table in (SPANNED, COUNTED)
               for modname, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(modname),
                                       name, None))]
    assert missing == []


def test_pipeline_calls_the_names_the_benchmark_tracer_wraps(tmp_path,
                                                             monkeypatch):
    # the tracer wraps functions at the module attributes the package calls
    # them through; a stage that bypassed one would leave its layer silent
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer(run_id="pipeline")
    tracer.install()
    try:
        code = main(["pipeline", "--config",
                     str(write_cfg(tmp_path, PIPELINE_ARRAY_CFG))])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span["name"] for span in tracer.spans}
    assert {"geometry.build_metric", "geometry.find_horizon",
            "kgwave.crosscheck_kg_vs_nlse", "rdr.rdr_report",
            "elimination.kerr_coupling", "kgwave.kg_evolve"} <= names


def test_traced_horizon_run_counts_the_cells_and_vertices_it_contours(
        tmp_path, monkeypatch):
    # the benchmark's marching-squares counts come from the one span of
    # `geometry.marching_squares`, read from its argument F and the loops it
    # returns; the loops are the ones written to horizons.json
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracer import Tracer
    from workloads import WORKLOADS

    text, _ = WORKLOADS["horizon-1024"].config(1, "tiny", str(tmp_path / "out"))
    tracer = Tracer(run_id="horizon")
    tracer.install()
    try:
        code = main(["metric", "--config", str(write_cfg(tmp_path, text))])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("geometry.marching_squares") == 1
    metrics = tracer.metrics()
    assert metrics["geometry.marching_squares.cells"] == 127 ** 2
    with open(tmp_path / "out" / "horizons.json") as fh:
        loops = json.load(fh)["loops"]
    assert metrics["geometry.marching_squares.vertices"] == \
        sum(len(loop) for loop in loops) > 0


def test_traced_pipeline_counts_each_crosscheck_stepper_in_one_span(
        tmp_path, monkeypatch):
    # the per-layer step metrics of the benchmark come from these spans: a
    # stepper reached some other way would leave them at zero
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer(run_id="pipeline")
    tracer.install()
    try:
        code = main(["pipeline", "--config",
                     str(write_cfg(tmp_path, PIPELINE_ARRAY_CFG))])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("fluid.linearized_step") == 1
    assert names.count("kgwave.kg_evolve") == 1
    metrics = tracer.metrics()
    assert metrics["fluid.linearized_step.steps"] == 15_808
    assert metrics["kgwave.kg_evolve.steps"] == 256
