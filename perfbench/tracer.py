"""In-memory span tracer for one photonfluid CLI run.

Spans are recorded from the benchmark's side: `install()` replaces the
package functions named in `SPANNED` with wrappers, at the module
attributes through which the package calls them, so `src/` is untouched.
Each span holds (id, name, start, end, parent, run id) plus the counts its
call produced; FFT and DCT calls are counted, not spanned.

Per-layer numbers come from the spans:

* `<layer>.<function>.s`: inclusive time of that function's spans;
* `.ms_per_step` / `.us_per_step`: self time per integrator step, i.e.
  span time minus traced child spans (snapshot writes inside `evolve`);
* `<layer>.self_s`: self time of every span of the layer, so the ten
  `self_s` values add up to the traced `main()` time.  Work in functions
  that are not wrapped counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("cli", "config", "fieldio", "fluid", "lattice", "geometry",
          "unwrap", "kgwave", "rdr", "elimination")

# module -> names patched there; a function reached through several
# modules gets one wrapper, so each call is one span
SPANNED = {
    "photonfluid.cli": ("evolve", "build_metric", "write_field",
                        "parse_config", "find_horizon",
                        "crosscheck_kg_vs_nlse", "rdr_report",
                        "kerr_coupling", "step_lattice", "continuum_error",
                        "kg_evolve"),
    "photonfluid.kgwave": ("linearized_step", "kg_evolve", "build_metric"),
    "photonfluid.lattice": ("step_lattice", "evolve"),
    "photonfluid.geometry": ("madelung", "marching_squares",
                             "unwrap_least_squares"),
}
COUNTED = {
    "numpy.fft": ("fft2", "ifft2"),
    "photonfluid.unwrap": ("dctn", "idctn"),
}
STEPPERS = ("fluid.evolve", "fluid.linearized_step", "kgwave.kg_evolve",
            "lattice.step_lattice")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _arrays(obj) -> dict:
    sizes = [v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)]
    return {"bytes": sum(sizes), "largest": max(sizes, default=0)}


class Tracer:
    """Records spans and counts for one run; not thread-safe (the CLI is
    single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts = {"fft": 0, "dct": 0}
        self.largest_array = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str | None = None):
        name = name or _span_name(fn)
        sig = inspect.signature(fn)
        measure = _MEASURES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "run": tracer.run_id, "fft": tracer.counts["fft"],
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                span["fft"] = tracer.counts["fft"] - span["fft"]
            if measure is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(measure(bound.arguments, out))
                tracer.largest_array = max(tracer.largest_array,
                                           span.pop("largest", 0))
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, key: str):
        tracer = self

        def counted(x, *args, **kwargs):
            tracer.counts[key] += 1
            tracer.largest_array = max(tracer.largest_array, x.nbytes)
            return fn(x, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module, attr: str, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname, attrs in SPANNED.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn)
                self._patch(mod, attr, wrappers[id(fn)])
        for modname, attrs in COUNTED.items():
            mod = importlib.import_module(modname)
            key = "fft" if modname == "numpy.fft" else "dct"
            for attr in attrs:
                self._patch(mod, attr, self._counter(getattr(mod, attr), key))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, old = self._patched.pop()
            setattr(module, attr, old)

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (no yardstick, overhead or hashing,
        which the caller adds)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        by_name: dict[str, dict] = {}
        for s, kids in zip(self.spans, child_time):
            dur = s["end"] - s["start"]
            out[s["name"].split(".")[0] + ".self_s"] += dur - kids
            agg = by_name.setdefault(s["name"], {"calls": 0, "s": 0.0,
                                                 "self": 0.0, "fft": 0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self"] += dur - kids
            agg["fft"] += s["fft"]
            for key in ("steps", "cells", "vertices", "bytes"):
                if key in s:
                    agg[key] = agg.get(key, 0) + s[key]

        def get(name, key):
            return by_name.get(name, {}).get(key, 0)

        for name in STEPPERS:
            steps = get(name, "steps")
            out[f"{name}.steps"] = steps
            out[f"{name}.s"] = get(name, "s")
            per = get(name, "self") / steps if steps else 0.0
            if name == "fluid.evolve":
                out[f"{name}.ms_per_step"] = 1e3 * per
                out[f"{name}.fft_pairs_per_step"] = (
                    get(name, "fft") / 2 / steps if steps else 0.0)
            else:
                out[f"{name}.us_per_step"] = 1e6 * per
        out["fluid.linearized_step.fft_calls"] = get("fluid.linearized_step", "fft")
        for name in ("kgwave.crosscheck_kg_vs_nlse", "lattice.continuum_error",
                     "geometry.madelung", "unwrap.unwrap_least_squares",
                     "rdr.rdr_report", "geometry.marching_squares",
                     "geometry.build_metric", "fieldio.write_field"):
            out[f"{name}.s"] = get(name, "s")
        out["geometry.marching_squares.cells"] = get("geometry.marching_squares", "cells")
        out["geometry.marching_squares.vertices"] = get("geometry.marching_squares", "vertices")
        out["geometry.build_metric.mb"] = get("geometry.build_metric", "bytes") / 1e6
        out["fieldio.write_field.calls"] = get("fieldio.write_field", "calls")
        out["fieldio.write_field.mb"] = get("fieldio.write_field", "bytes") / 1e6
        out["config.parse_s"] = get("config.parse_config", "s")
        out["fft.calls"] = self.counts["fft"]
        out["unwrap.dct_calls"] = self.counts["dct"]
        return out


_MEASURES = {
    **dict.fromkeys(STEPPERS, lambda a, out: {"steps": a["steps"]}),
    "geometry.marching_squares": lambda a, out: {
        "cells": (a["F"].shape[0] - 1) * (a["F"].shape[1] - 1),
        "vertices": sum(len(line) for line in out)},
    "geometry.build_metric": lambda a, out: _arrays(out),
    "fieldio.write_field": lambda a, out: {
        "bytes": os.path.getsize(a["path"]), "largest": a["field"].data.nbytes},
}


def fft_pair_ms(shape: tuple[int, int], min_s: float = 0.3) -> float:
    """Median time of one bare numpy `fft2` + `ifft2` pair on a complex
    array of `shape`, over at least 5 repeats and `min_s` seconds."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.fft.ifft2(np.fft.fft2(a))
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        np.fft.ifft2(np.fft.fft2(a))
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))
