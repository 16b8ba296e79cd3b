"""End-to-end CLI runs: artifacts, manifests, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import photonfluid
from photonfluid.cli import main
from photonfluid.fieldio import read_field

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
                 "--sweep", "omega:0.5:1.5:21"]) == 0
    man = manifest(tmp_path)
    assert man["status"] == "ok"
    assert man["derived"]["gamma_total"] == pytest.approx(0.1277, rel=1e-2)
    assert man["derived"]["n_f"] == pytest.approx(49, rel=5e-2)
    names = {a["path"] for a in man["artifacts"]}
    assert {"rdr_summary.json", "rdr_sweep.csv"} <= names
    rows = (tmp_path / "out" / "rdr_sweep.csv").read_text().splitlines()
    assert rows[0] == "omega,gamma_opt,omega_opt,n_f,stable"
    assert len(rows) == 22


def test_kernel_stage_with_gamma_sweep(tmp_path):
    cfg = write_cfg(tmp_path, KERNEL_CFG)
    assert main(["kernel", "--config", str(cfg),
                 "--sweep-gamma", "5.0:40.0:3"]) == 0
    man = manifest(tmp_path)
    assert man["derived"]["G_kerr"] < 0
    gam, err = np.loadtxt(tmp_path / "out" / "elimination_error.csv",
                          delimiter=",", skiprows=1).T
    assert np.all(np.diff(err) < 0)      # larger gamma, better elimination


def test_nlse_stage_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, NLSE_CFG)
    assert main(["nlse", "--config", str(cfg)]) == 0
    man = manifest(tmp_path)
    names = {a["path"] for a in man["artifacts"]}
    assert "nlse_final.pfld" in names
    assert "nlse_000020.pfld" in names and "nlse_000040.pfld" in names
    fld = read_field(tmp_path / "out" / "nlse_final.pfld")
    assert fld.nx == 32
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


def test_pipeline_microcavity_hits_euclidean_gate(tmp_path):
    # attractive coupling with positive mass: Euclidean metric, kg skipped
    cfg = write_cfg(tmp_path, PIPELINE_MICRO_CFG)
    assert main(["pipeline", "--config", str(cfg)]) == 4
    man = manifest(tmp_path)
    assert man["status"] == "gated"
    assert man["derived"]["signature"]["euclidean"] > 0
    assert any("kg stage skipped" in n for n in man["notes"])
    assert "kg_nlse_deviation" not in man["derived"]


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
    ok = write_cfg(tmp_path, NLSE_CFG)
    assert main(["nlse", "--config", str(ok), "--snapshot-every", "-5"]) == 2
    assert "--snapshot-every must be >= 0, got -5" in capsys.readouterr().err
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
    ok = write_cfg(tmp_path, RDR_CFG)
    assert main(["rdr", "--config", str(ok), "--sweep", "bogus:0:1:3"]) == 2
    assert "cannot sweep 'bogus'" in capsys.readouterr().err

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

    # a KG sampling stride that records no trace is refused before anything
    # is evolved
    for every in ("0", "-1"):
        kg = write_cfg(tmp_path, KG_CFG.replace("sample_every = 20",
                                                f"sample_every = {every}"))
        assert main(["kg", "--config", str(kg)]) == 2
        assert "line 30: kg.sample_every must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "kg_trace.csv").exists()


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


def test_threaded_sweep_is_deterministic(tmp_path):
    cfg1 = tmp_path / "a.cfg"
    cfg1.write_text(RDR_CFG.format(out=tmp_path / "o1"))
    cfg2 = tmp_path / "b.cfg"
    cfg2.write_text(RDR_CFG.format(out=tmp_path / "o2"))
    assert main(["rdr", "--config", str(cfg1),
                 "--sweep", "omega:0.5:1.5:41"]) == 0
    assert main(["rdr", "--config", str(cfg2), "--threads", "4",
                 "--sweep", "omega:0.5:1.5:41"]) == 0
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
