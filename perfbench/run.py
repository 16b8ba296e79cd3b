"""Benchmark of the photonfluid CLI stages, end to end and per layer.

    python3 perfbench/run.py --workload nlse-512 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client in a closed loop: each run is a fresh single-threaded process
(`child.py`) that calls `photonfluid.cli.main`, and the next starts only
after the previous one has ended and its outputs have been checked.  A
run fails if the process exits non-zero, `main()` returns non-zero, the
manifest status is not `ok`, an artifact does not match its sha256 or a
workload tolerance is violated (`workloads.py`).

With `--trace 0` the runs are uninstrumented and the end-to-end metrics
of BENCHMARK.json are reported as medians:

* `wall_s`: `main()` entry to return (the manifest is its last write), over
  runs that passed their checks;
* `setup_s`: process spawn to stage-runner entry (interpreter start,
  imports, argparse, `parse_config`), over every process, including
  set-up-only probes;
* `peak_rss_mb`: `ru_maxrss` of each run's process;
* `ok_frac`: runs that passed every check over runs attempted, i.e.
  1 - `fail_frac`; the table also prints `fail_frac`.

With `--trace 1` the first run is traced (`tracer.py`) and the rest of the
time goes to uninstrumented runs, which give `trace.overhead_s`.  The
per-layer metrics of BENCHMARK.json are printed and the spans are written
to `.perfbench_work/<workload>.spans.json`.  `--size tiny` shrinks every
workload for the benchmark's tests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, artifact_bytes, check_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 2
# processes still running this long after a workload started are killed,
# so one invocation ends inside three minutes even if the program hangs
LIMIT_S = 160.0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine_info() -> dict:
    """CPU, cache and library versions of the measuring host."""
    import numpy
    import scipy

    info = {"cpu": platform.processor() or platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            if not idx.startswith("index"):
                continue
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                info["caches"][f"L{level}-{kind}"] = fh.read().strip()
    except OSError:
        pass
    return info


def _llc_bytes(caches: dict) -> int | None:
    sizes = []
    for name, size in caches.items():
        unit = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        if name.startswith("L") and size.rstrip("KM").isdigit():
            sizes.append((name[1], int(size.rstrip("KM")) * unit))
    return max(sizes)[1] if sizes else None


class Bench:
    """Runs the processes of one invocation and checks their outputs."""

    def __init__(self, workload, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.count = 0
        self.deadline = time.monotonic() + LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def spawn(self, mode: str) -> dict:
        """One child process; returns its timings and failures."""
        self.count += 1
        rundir = os.path.join(WORK, f"{self.workload.name}-{self.count}")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        out = os.path.join(rundir, "out")
        text, expect = self.workload.config(self.seed, self.size, out)
        cfg = os.path.join(rundir, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        result_path = os.path.join(rundir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               result_path, self.workload.stage, "--config", cfg]
        sample: dict = {"mode": mode, "fails": []}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=rundir,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(0.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            sample["fails"].append(f"killed {LIMIT_S} s after the start")
            shutil.rmtree(rundir, ignore_errors=True)
            return sample
        sample["process_s"] = time.monotonic() - spawned
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-400:]
            sample["fails"].append(f"exit code {proc.returncode}: {tail}")
        if os.path.exists(result_path):
            with open(result_path) as fh:
                res = json.load(fh)
            sample["result"] = res
            if "stage_start" in res:
                sample["setup_s"] = res["stage_start"] - spawned
            else:
                sample["fails"].append("stage runner never entered")
            if mode != "setup":
                sample["wall_s"] = res["main_end"] - res["main_start"]
                sample["rss_mb"] = res["maxrss_kb"] / 1024.0
                if res["rc"] != 0:
                    sample["fails"].append(f"main() returned {res['rc']}")
        elif proc.returncode == 0:
            sample["fails"].append("no result written")
        if mode != "setup" and not sample["fails"]:
            sample["fails"] += check_run(self.workload, out, expect)
            if not sample["fails"]:
                sample["hashed_bytes"] = artifact_bytes(out)
        shutil.rmtree(rundir, ignore_errors=True)
        return sample


def _runs(bench: Bench, first_mode: str, seconds: float,
          min_runs: int) -> list[dict]:
    """A run in `first_mode`, then uninstrumented runs until `min_runs`
    have run and the next one is not expected to end within `seconds`."""
    start = time.monotonic()
    runs = [bench.spawn(first_mode)]
    while time.monotonic() < bench.deadline:
        last = runs[-1].get("process_s", 0.0)
        if (len(runs) >= min_runs
                and time.monotonic() - start + last > seconds):
            break
        runs.append(bench.spawn("run"))
    return runs


def describe(values: list[float], fmt: str = "{:.4f}") -> str:
    """Median and sample count, plus the p90 when ten samples lie beyond it."""
    if not values:
        return "no samples"
    text = f"median {fmt.format(statistics.median(values))} of {len(values)}"
    if len(values) <= 20:
        text += " [" + " ".join(fmt.format(v) for v in values) + "]"
    beyond = len(values) - math.ceil(0.9 * len(values))
    if beyond >= 10:
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
        text += f", p90 {fmt.format(p90)}"
    return text


def measure(workload, seed: int, seconds: float, trace: bool, size: str,
            spec: dict) -> dict:
    bench = Bench(workload, seed, size)
    start = time.monotonic()
    # compiles bytecode and fills the page cache; not measured
    probes = [bench.spawn("setup")]
    probes += [bench.spawn("setup") for _ in range(0 if trace else SETUP_PROBES)]
    runs = _runs(bench, "trace" if trace else "run",
                 seconds - (time.monotonic() - start), 2 if trace else 1)
    attempted = len(probes) + len(runs)
    failed = sum(1 for s in probes + runs if s["fails"])
    for s in probes + runs:
        for f in s["fails"]:
            print(f"FAIL {workload.name} ({s['mode']}): {f}", file=sys.stderr)

    ok_runs = [s for s in runs if not s["fails"]]
    walls = [s["wall_s"] for s in (ok_runs or runs) if "wall_s" in s]
    print(f"== {workload.name}  seed {seed}  size {size}  "
          f"{'traced' if trace else 'untraced'}  closed loop, one client, "
          f"{attempted} processes in {time.monotonic() - start:.1f} s")
    if trace:
        traced, plain = runs[0], runs[1:]
        plain_walls = [s["wall_s"] for s in plain if "wall_s" in s]
        layers = traced.get("result", {}).get("layers")
        if layers is None:      # the traced run failed before reporting
            layers = {m["name"]: 0.0 for m in spec["per_layer"]}
        layers["cli.hashed_mb"] = traced.get("hashed_bytes", 0) / 1e6
        layers["trace.overhead_s"] = (
            traced["wall_s"] - statistics.median(plain_walls)
            if "wall_s" in traced and plain_walls else 0.0)
        spans = traced.get("result", {}).get("spans")
        if spans is not None:
            with open(os.path.join(WORK, f"{workload.name}.spans.json"), "w") as fh:
                json.dump(spans, fh)
        values = layers
        wanted = spec["per_layer"]
        largest = traced.get("result", {}).get("largest_array", 0)
        print(f"  largest traced array {largest / 1e6:.3f} MB")
    else:
        setups = [s["setup_s"] for s in probes[1:] + runs if "setup_s" in s]
        rss = [s["rss_mb"] for s in runs if "rss_mb" in s]
        values = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        print(f"  {'wall_s':<12} s      {describe(walls)} runs")
        print(f"  {'setup_s':<12} s      {describe(setups)} processes")
        print(f"  {'peak_rss_mb':<12} MB     {describe(rss, '{:.2f}')} runs")
        print(f"  {'fail_frac':<12} ratio  {failed / attempted:.4f} "
              f"({failed} of {attempted} failed)")
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if trace:
            print(f"  {m['name']:<36} {m['unit']:<10} {values[m['name']]:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "photonfluid", "cli.py")):
        print("perfbench: no photonfluid source under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    spec = _spec()
    os.makedirs(WORK, exist_ok=True)
    info = machine_info()
    llc = _llc_bytes(info["caches"])
    info["bandwidth"] = (
        f"no array reaches 4x LLC = {4 * llc / 1e6:.0f} MB (see 'largest "
        "traced array'): no bandwidth claims" if llc else
        "LLC size unknown: no bandwidth claims")
    print("machine " + json.dumps(info, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(WORKLOADS[n], args.seed, args.seconds,
                          bool(args.trace), args.size, spec) for n in names}
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": metrics}
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
