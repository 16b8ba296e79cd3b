"""Run configuration: strict line-based parsing and stage schemas.

Grammar (one statement per line):

    [section]            section header
    key = value          assignment inside the current section
    # comment            full-line or trailing comments (also ';')

Values are booleans (`true`/`false`), integers, floats, or quoted or
bare strings.  Parsing is strict: unknown sections or keys, sections and
keys the selected stage does not read, missing required keys, type
mismatches, out-of-range values and unit inconsistencies all fail with the
offending line number.

`READS` is the one table of what each stage's runner reads (stage →
section → keys; `[run]` is read by every stage).  A stage accepts exactly
those keys: every other key is refused at its line, every other section
at its header, and REQUIRED applies to read keys only.  Each `SCHEMA` row
names the rule its value obeys (`positive`, `nonzero`, `>= 0`, `>= 1`),
checked for every read key that is set.  Every default of a read key is
materialized in the parsed result, and `echo()` renders exactly the read
keys in canonical form (parse(echo(cfg)) is the identity).

Frequencies in SI mode (`units = SI`, rad/s) are rescaled by ω_i into the
internal natural units; `T` (kelvin) is only meaningful there, while
dimensionless runs must give `n_th` directly.  SI mode is accepted for
`stage = rdr` only, the one stage whose inputs are rescaled.
"""

from __future__ import annotations

import hashlib
import sys
from collections import namedtuple
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "READS", "REQUIRED", "SCHEMA",
           "STAGES"]


class _Required:
    def __repr__(self):
        return "REQUIRED"


REQUIRED = _Required()
STAGES = ("rdr", "kernel", "lattice", "nlse", "metric", "kg", "pipeline")

# a key's default, its type (float takes integers too, "maybe" is a float
# that may stay unset), the choices of a string and the rule a number obeys
Key = namedtuple("Key", "default type choices rule", defaults=(None, None))
_RULES = {"positive": lambda v: v > 0, "nonzero": lambda v: v != 0,
          ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}

SCHEMA = {
    "run": {
        "stage": Key(REQUIRED, str, STAGES),
        "units": Key("natural", str, ("natural", "SI")),
        "seed": Key(0, int),
        "out": Key("runs/out", str),
    },
    "rdr": {
        "omega_i": Key(1.0, float),
        "gamma_i": Key(REQUIRED, float),
        "kappa_prime": Key(REQUIRED, float),
        "kappa": Key(0.0, float),
        "G": Key(None, "maybe"),
        "Delta_bar": Key(None, "maybe"),
        "G0": Key(None, "maybe"),
        "eps": Key(None, "maybe"),
        "Delta": Key(None, "maybe"),
        "n_th": Key(None, "maybe"),
        "T": Key(None, "maybe"),
        # the optical damping carries a 1/ω prefactor
        "omega_eval": Key(None, "maybe", rule="nonzero"),
    },
    "kernel": {
        # only the kernel stage reads ω_m and γ: the pipeline takes them
        # from the rdr report
        "omega_m": Key(REQUIRED, float),
        # the elimination needs a damped mode; the table spans 40/γ
        "gamma": Key(REQUIRED, float, rule="positive"),
        "g": Key(REQUIRED, float),
        "n_photon": Key(1.0, float),
        "t_final": Key(100.0, float, rule="positive"),
        "dt": Key(None, "maybe", rule="positive"),
        "t_table": Key(0.0, float, rule=">= 0"),
    },
    "lattice": {
        "nx": Key(32, int),
        "ny": Key(32, int),
        "h": Key(1.0, float, rule="positive"),
        "omega_c": Key(0.0, float),
        "omega_m": Key(1.0, float),
        "gamma": Key(1.0, float),
        "kappa": Key(0.0, float),
        "g_prime": Key(0.0, float),
        # the continuum map m = ħ/(2Jh²) divides by J and h
        "J": Key(-0.25, float, rule="nonzero"),
        "dt": Key(None, "maybe", rule="positive"),
        "t_final": Key(10.0, float, rule="positive"),
        "mode_i": Key(1, int),
        "mode_j": Key(0, int),
        "amplitude": Key(1.0, float),
    },
    "grid": {
        "nx": Key(128, int),
        "ny": Key(128, int),
        "dx": Key(0.5, float, rule="positive"),
        "dy": Key(0.5, float, rule="positive"),
    },
    "nlse": {
        # the photon mass divides the kinetic term and the conformal factor
        "m": Key(1.0, float, rule="nonzero"),
        "G_kerr": Key(1.0, float),
        # the uniform background's amplitude is √density
        "density": Key(1.0, float, rule=">= 0"),
        "background": Key("uniform", str, ("uniform", "ground_state")),
        "trap_omega": Key(0.0, float),
        # 0 takes the count from the density
        "n_total": Key(0.0, float, rule=">= 0"),
        "flow_mx": Key(0, int),
        "flow_my": Key(0, int),
        "dt": Key(None, "maybe", rule="positive"),
        # a negative count would book time and phase for a field never
        # evolved
        "steps": Key(0, int, rule=">= 0"),
        "snapshot_every": Key(0, int, rule=">= 0"),
    },
    "metric": {
        "source": Key("nlse", str, ("nlse", "radial_sink", "tanh1d",
                                    "uniform")),
        "sink_strength": Key(1.0, float),
        "c_ex": Key(0.5, float),
        "v_out": Key(0.5, float),
        "v_in": Key(1.5, float),
        "x1": Key(-20.0, float),
        "x2": Key(20.0, float),
        # the tanh1d profile divides by the width
        "width": Key(2.0, float, rule="positive"),
        "vx": Key(0.0, float),
        "vy": Key(0.0, float),
    },
    "kg": {
        "dt": Key(None, "maybe", rule="positive"),
        "t_final": Key(10.0, float, rule="positive"),
        "seed": Key("mode", str, ("mode", "gaussian")),
        "mode_mx": Key(1, int, rule=">= 1"),
        # a zero seed carries no energy, so its trace has no centre
        "amplitude": Key(1e-3, float, rule="nonzero"),
        "x_center": Key(0.0, float),
        # a zero width puts 0/0 at a seed centre on a grid point
        "sigma": Key(5.0, float, rule="positive"),
        # the trace is the samples: a stride below 1 records none
        "sample_every": Key(8, int, rule=">= 1"),
        "kxi_limit": Key(0.3, float),
    },
    "pipeline": {
        "model": Key("microcavity", str, ("microcavity", "array")),
    },
}


def _all(section, but=()):
    return tuple(key for key in SCHEMA[section] if key not in but)


# what each stage's runner reads, section by section ([run] is read by every
# stage); a stage accepts exactly these keys and refuses any other at its line
_FLUID = {"grid": _all("grid"),
          "nlse": _all("nlse", but=("dt", "steps", "snapshot_every"))}
READS = {
    "rdr": {"rdr": _all("rdr")},
    "kernel": {"kernel": _all("kernel")},
    "lattice": {"lattice": _all("lattice")},
    "nlse": {"grid": _all("grid"), "nlse": _all("nlse")},
    "metric": {**_FLUID, "metric": _all("metric")},
    "kg": {**_FLUID, "metric": _all("metric"),
           "kg": _all("kg", but=("kxi_limit",))},
    # T needs units = SI, which only the rdr stage takes; ω_m and γ come
    # from the rdr report and 𝒢 from the kernel; the mass is nlse.m
    # (microcavity) or the array's continuum map; the background is uniform
    # and the crosscheck seed a cosine of mode_mx
    "pipeline": {
        "pipeline": ("model",), "rdr": _all("rdr", but=("T",)),
        "kernel": ("g",),
        "lattice": ("J", "h", "omega_c"), "grid": _all("grid"),
        "nlse": ("m", "density", "background", "flow_mx", "flow_my"),
        "kg": ("mode_mx", "amplitude", "kxi_limit"),
    },
}

_RDR_FREQ_KEYS = ("gamma_i", "kappa_prime", "kappa", "G", "Delta_bar",
                  "G0", "eps", "Delta", "omega_eval")


@dataclass
class RunConfig:
    stage: str
    units: str
    seed: int
    out: str
    sections: dict
    omega_ref: float = 1.0     # SI rad/s per natural frequency unit

    def __getitem__(self, section):
        return self.sections[section]

    def sha256(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()

    def echo(self) -> str:
        """Canonical rendering of every key the stage reads."""
        lines = []
        for sec in ("run",) + tuple(s for s in SCHEMA if s != "run"):
            if sec not in self.sections:
                continue
            lines.append(f"[{sec}]")
            for key in SCHEMA[sec]:
                if key in self.sections[sec]:
                    lines.append(f"{key} = {_render(self.sections[sec][key])}")
            lines.append("")
        return "\n".join(lines)


def _render(val) -> str:
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, int):
        return str(val)
    return f'"{val}"'


def _parse_value(tok: str, line: int):
    tok = tok.strip()
    if not tok:
        raise ConfigError("empty value", line)
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    if tok.lower() == "none":
        return None
    if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "\"'":
        return tok[1:-1]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if any(ch in tok for ch in " \t"):
        raise ConfigError(f"cannot parse value {tok!r}", line)
    return tok


def _coerce(section, key, value, typ, choices, line):
    if typ == "maybe" and value is None:
        return None
    if typ in (float, "maybe"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number", line)
        # `nan`, `inf` and integers past the float range parse too
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{section}.{key} must be a finite number", line)
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key} must be an integer", line)
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a string", line)
        if choices and value not in choices:
            raise ConfigError(
                f"{section}.{key} must be one of {', '.join(choices)}", line
            )
        return value
    raise AssertionError(typ)


def parse_config(text: str, override: tuple | None = None) -> RunConfig:
    """Parse and validate a configuration; all defaults are materialized.
    `override = (section, key, value)` sets one key as the text would (a
    sweep point); an integer key takes a whole value as an integer."""
    raw: dict[str, dict] = {}
    lines_of: dict[tuple, int] = {}
    section = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        for marker in ("#", ";"):
            pos = stripped.find(marker)
            if pos >= 0:
                stripped = stripped[:pos].rstrip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", ln)
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", ln)
            raw.setdefault(section, {})
            lines_of[(section, None)] = ln
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", ln)
        if section is None:
            raise ConfigError("assignment before any [section]", ln)
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}", ln)
        if key in raw[section]:
            raise ConfigError(f"duplicate key {section}.{key}", ln)
        raw[section][key] = _parse_value(val, ln)
        lines_of[(section, key)] = ln

    if "run" not in raw or "stage" not in raw["run"]:
        raise ConfigError("stage required: set [run] stage = <stage>",
                          lines_of.get(("run", None), 1))
    run = _resolve("run", SCHEMA["run"], raw["run"], lines_of)
    stage = run["stage"]
    if override is not None:
        sec, key, value = override
        if key not in READS[stage].get(sec, ()):
            raise ConfigError(f"{sec}.{key} is not read by stage = {stage}")
        if SCHEMA[sec][key].type is int and float(value).is_integer():
            value = int(value)
        raw.setdefault(sec, {})[key] = value
        lines_of[(sec, key)] = None        # an error in it has no line
    # a section or key the stage never reads would be silently ignored
    for (sec, key), ln in lines_of.items():
        if sec == "run":
            continue
        if sec not in READS[stage]:
            raise ConfigError(
                f"stage '{stage}' does not read a [{sec}] section", ln)
        if key is not None and key not in READS[stage][sec]:
            raise ConfigError(f"{sec}.{key} is not read by stage = {stage}",
                              ln)
    sections = {"run": run}
    for sec, keys in READS[stage].items():
        if sec not in raw and any(SCHEMA[sec][k].default is REQUIRED
                                  for k in keys):
            raise ConfigError(f"stage '{stage}' requires a [{sec}] section", 1)
        sections[sec] = _resolve(sec, keys, raw.get(sec, {}), lines_of)

    cfg = RunConfig(stage=stage, units=run["units"], seed=run["seed"],
                    out=run["out"], sections=sections)
    _validate_stage(cfg, lines_of)
    if cfg.units == "SI":
        _rdr_to_natural(cfg)
    return cfg


def _resolve(sec, keys, given, lines_of) -> dict:
    """The given or default value of each of `keys` in `sec`, coerced to its
    type and held to its rule (an unset `maybe` value has none to keep)."""
    resolved = {}
    for key in keys:
        default, typ, choices, rule = SCHEMA[sec][key]
        line = _line(lines_of, sec, key)
        if key in given:
            value = _coerce(sec, key, given[key], typ, choices, line)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {sec}.{key}", line)
        else:
            value = default
        if rule and value is not None and not _RULES[rule](value):
            raise ConfigError(f"{sec}.{key} must be {rule}", line)
        resolved[key] = value
    return resolved


def _validate_stage(cfg: RunConfig, lines_of) -> None:
    # only [rdr] is rescaled by ω_i; any other stage would read its
    # couplings, rates and grid as natural units without saying so
    if cfg.units == "SI" and cfg.stage != "rdr":
        raise ConfigError(
            f"units = SI is supported for stage = rdr only; stage "
            f"'{cfg.stage}' takes natural units", _line(lines_of, "run", "units")
        )
    # the pipeline's crosscheck compares against a uniform background only
    if cfg.stage == "pipeline" and cfg["nlse"]["background"] != "uniform":
        raise ConfigError(
            "nlse.background = ground_state is not supported for stage = "
            "pipeline", _line(lines_of, "nlse", "background"))
    sec = cfg.sections
    if "rdr" in sec:
        r = sec["rdr"]
        line = lines_of.get(("rdr", None), 1)
        direct = r["G"] is not None and r["Delta_bar"] is not None
        driven = all(r[k] is not None for k in ("G0", "eps", "Delta"))
        if not (direct or driven):
            raise ConfigError(
                "rdr needs either (G, Delta_bar) or (G0, eps, Delta)", line
            )
        if r["n_th"] is None and r.get("T") is None:
            raise ConfigError("rdr needs n_th (natural) or T (SI)", line)
        if r.get("T") is not None and cfg.units != "SI":
            raise ConfigError(
                "T (kelvin) requires units = SI; give n_th directly in "
                "natural units", lines_of.get(("rdr", "T"), line)
            )
    # FFT grids need power-of-two sides; a lattice also needs at least four
    # sites per side for its nearest-neighbour stencil
    for name, least in (("grid", 2), ("lattice", 4)):
        for key in ("nx", "ny"):
            n = sec.get(name, {}).get(key)
            if n is not None and (n < least or n & (n - 1)):
                raise ConfigError(
                    f"{name}.{key} = {n} must be a power of two >= {least}",
                    _line(lines_of, name, key))


def _line(lines_of, section, key) -> int:
    return lines_of.get((section, key), lines_of.get((section, None), 1))


def _rdr_to_natural(cfg: RunConfig) -> None:
    """Rescale SI rad/s inputs by ω_i; record the reference for output."""
    r = cfg.sections["rdr"]
    w = r["omega_i"]
    if not w > 0:
        raise ConfigError("omega_i must be positive for SI conversion")
    cfg.omega_ref = w
    for key in _RDR_FREQ_KEYS:
        if r.get(key) is not None:
            r[key] = r[key] / w
    r["omega_i"] = 1.0
