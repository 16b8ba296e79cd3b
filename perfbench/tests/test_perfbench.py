"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS, check_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = sorted(WORKLOADS)
# counts that must repeat exactly across runs and seeds (vertex counts
# follow the seeded horizon radius, hashed bytes the JSON text)
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] == "count" and not m["name"].endswith(".vertices")]
COUNTS += ["fluid.evolve.fft_pairs_per_step", "geometry.build_metric.mb",
           "fieldio.write_field.mb"]


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--size", "tiny", "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def cli_run(workload, tmp_path, seed=1):
    out = str(tmp_path / "out")
    text, expect = workload.config(seed, "tiny", out)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c",
                    "import sys; from photonfluid.cli import main; "
                    "sys.exit(main(sys.argv[1:]))",
                    workload.stage, "--config", str(cfg)],
                   env=env, check=True, timeout=120)
    return out, expect


def test_spec_and_layer_mapping_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"} == e2e
    with open(os.path.join(BENCH, "layers.json")) as fh:
        mapping = json.load(fh)["per_layer"]
    assert list(mapping) == [m["name"] for m in SPEC["per_layer"]]
    for row in mapping.values():
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) | set(row["flat_on"]) <= set(WORKLOADS)
        assert not set(row["on"]) & set(row["flat_on"])


def test_pipeline_config_is_the_cli_tests_config():
    src = open(os.path.join(ROOT, "tests", "test_cli.py")).read()
    cfg = next(ast.literal_eval(node.value) for node in ast.parse(src).body
               if isinstance(node, ast.Assign)
               and node.targets[0].id == "PIPELINE_ARRAY_CFG")
    text, _ = WORKLOADS["pipeline-array"].config(1, "full", "{out}")
    ours = text.replace(
        [ln for ln in text.splitlines() if ln.startswith("n_th")][0],
        "n_th = 6.3e5")
    assert ours.split() == cfg.split()


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_printed_with_units(name):
    res, stdout = bench("--workload", name, "--seed", "1", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for metric in ("wall_s", "setup_s", "peak_rss_mb", "fail_frac"):
        assert f"  {metric} " in stdout


@pytest.mark.parametrize("name", NAMES)
def test_traced_metrics_printed_and_counts_repeat_across_seeds(name):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for seed in ("1", "2"):
        res, stdout = bench("--workload", name, "--seed", seed, "--trace", "1")
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        for metric in units:
            assert f"  {metric} " in stdout
        counts.append({k: res["metrics"][k]["value"] for k in COUNTS})
    assert counts[0] == counts[1]
    assert os.path.exists(os.path.join(ROOT, ".perfbench_work",
                                       f"{name}.spans.json"))


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_artifact_fails_check(name, tmp_path):
    workload = WORKLOADS[name]
    out, expect = cli_run(workload, tmp_path)
    assert check_run(workload, out, expect) == []
    with open(os.path.join(out, "manifest.json")) as fh:
        victim = os.path.join(out, json.load(fh)["artifacts"][0]["path"])
    with open(victim, "r+b") as fh:
        byte = fh.read(1)
        fh.seek(0)
        fh.write(bytes([byte[0] ^ 1]))
    fails = check_run(workload, out, expect)
    assert len(fails) == 1 and "sha256" in fails[0]


@pytest.mark.parametrize("name, tamper", [
    ("nlse-512", lambda e: {**e, "norm": e["norm"] * (1 + 1e-9)}),
    ("horizon-1024", lambda e: {**e, "radius": e["radius"] + 2 * e["dx"]}),
])
def test_violated_tolerance_fails_check(name, tamper, tmp_path):
    workload = WORKLOADS[name]
    out, expect = cli_run(workload, tmp_path)
    assert check_run(workload, out, expect) == []
    assert check_run(workload, out, tamper(expect))


def test_pipeline_and_lattice_tolerances(tmp_path):
    man = {"derived": {"m": -2.0, "kg_nlse_deviation": 0.051,
                       "gamma_total": 0.1277 * 1.02}}
    assert len(WORKLOADS["pipeline-array"].check("", man, {})) == 2
    (tmp_path / "continuum_error.csv").write_text(
        "kh,error\n0.1,0.01\n0.2,0.02\n0.4,0.04\n")
    fails = WORKLOADS["lattice-64x16"].check(str(tmp_path), {}, {})
    assert fails and "slope 1.0000" in fails[0]


def test_failed_checks_count_into_fail_frac():
    broken = dataclasses.replace(WORKLOADS["nlse-512"],
                                 check=lambda *a: ["tolerance violated"])
    res = run.measure(broken, 1, 0.0, False, "tiny", SPEC)
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["metrics"]["ok_frac"]["value"] == pytest.approx(
        1 - 1 / res["attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    for rel in ("BENCHMARK.json", "perfbench/run.py", "perfbench/child.py",
                "perfbench/tracer.py", "perfbench/workloads.py"):
        os.makedirs(tmp_path / os.path.dirname(rel), exist_ok=True)
        (tmp_path / rel).write_bytes(open(os.path.join(ROOT, rel), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "nlse-512", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
