"""Run configuration: strict line-based parsing and stage schemas.

Grammar (one statement per line):

    [section]            section header
    key = value          assignment inside the current section
    # comment            full-line or trailing comments (also ';')

Values are booleans (`true`/`false`), integers, floats, quoted or bare
strings, or inline arrays `[v1, v2, ...]` of those scalars.  Parsing is
strict: unknown sections or keys, missing required keys, type mismatches
and unit inconsistencies all fail with the offending line number.  Every
default is materialized in the parsed result, and `echo()` renders the
fully resolved configuration in canonical form (parse(echo(cfg)) is the
identity).

Frequencies in SI mode (`units = SI`, rad/s) are rescaled by ω_i into the
internal natural units; `T` (kelvin) is only meaningful there, while
dimensionless runs must give `n_th` directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "REQUIRED", "SCHEMA", "STAGES"]


class _Required:
    def __repr__(self):
        return "REQUIRED"


REQUIRED = _Required()
STAGES = ("rdr", "kernel", "lattice", "nlse", "metric", "kg", "pipeline")

# (default, type, choices); type "number" accepts int-or-float, "maybe"
# floats that may stay unset (None)
SCHEMA = {
    "run": {
        "stage": (REQUIRED, str, STAGES),
        "units": ("natural", str, ("natural", "SI")),
        "seed": (0, int, None),
        "out": ("runs/out", str, None),
        "threads": (1, int, None),
    },
    "rdr": {
        "omega_i": (1.0, float, None),
        "gamma_i": (REQUIRED, float, None),
        "kappa_prime": (REQUIRED, float, None),
        "kappa": (0.0, float, None),
        "G": (None, "maybe", None),
        "Delta_bar": (None, "maybe", None),
        "G0": (None, "maybe", None),
        "eps": (None, "maybe", None),
        "Delta": (None, "maybe", None),
        "n_th": (None, "maybe", None),
        "T": (None, "maybe", None),
        "omega_eval": (None, "maybe", None),
    },
    "kernel": {
        "omega_m": (None, "maybe", None),
        "gamma": (None, "maybe", None),
        "g": (REQUIRED, float, None),
        "n_photon": (1.0, float, None),
        "t_final": (100.0, float, None),
        "dt": (None, "maybe", None),
        "t_table": (0.0, float, None),
    },
    "lattice": {
        "nx": (32, int, None),
        "ny": (32, int, None),
        "h": (1.0, float, None),
        "omega_c": (0.0, float, None),
        "omega_m": (1.0, float, None),
        "gamma": (1.0, float, None),
        "kappa": (0.0, float, None),
        "g_prime": (0.0, float, None),
        "J": (-0.25, float, None),
        "dt": (None, "maybe", None),
        "t_final": (10.0, float, None),
        "init": ("bloch", str, ("bloch", "uniform")),
        "mode_i": (1, int, None),
        "mode_j": (0, int, None),
        "amplitude": (1.0, float, None),
        "damping": ("literal", str, ("literal", "half")),
    },
    "grid": {
        "nx": (128, int, None),
        "ny": (128, int, None),
        "dx": (0.5, float, None),
        "dy": (0.5, float, None),
    },
    "nlse": {
        "m": (1.0, float, None),
        "G_kerr": (1.0, float, None),
        "density": (1.0, float, None),
        "background": ("uniform", str, ("uniform", "ground_state")),
        "trap_omega": (0.0, float, None),
        "n_total": (0.0, float, None),
        "flow_mx": (0, int, None),
        "flow_my": (0, int, None),
        "dt": (None, "maybe", None),
        "steps": (0, int, None),
        "snapshot_every": (0, int, None),
    },
    "metric": {
        "source": ("nlse", str, ("nlse", "radial_sink", "tanh1d", "uniform")),
        "sink_strength": (1.0, float, None),
        "c_ex": (0.5, float, None),
        "v_out": (0.5, float, None),
        "v_in": (1.5, float, None),
        "x1": (-20.0, float, None),
        "x2": (20.0, float, None),
        "width": (2.0, float, None),
        "vx": (0.0, float, None),
        "vy": (0.0, float, None),
    },
    "kg": {
        "dt": (None, "maybe", None),
        "t_final": (10.0, float, None),
        "seed": ("mode", str, ("mode", "gaussian")),
        "mode_mx": (1, int, None),
        "amplitude": (1e-3, float, None),
        "x_center": (0.0, float, None),
        "sigma": (5.0, float, None),
        "sample_every": (8, int, None),
        "kxi_limit": (0.3, float, None),
    },
    "pipeline": {
        "model": ("microcavity", str, ("microcavity", "array")),
    },
}

# sections a stage consumes (beyond [run])
STAGE_SECTIONS = {
    "rdr": ("rdr",),
    "kernel": ("kernel",),
    "lattice": ("lattice",),
    "nlse": ("nlse", "grid"),
    "metric": ("metric", "nlse", "grid"),
    "kg": ("metric", "nlse", "grid", "kg"),
    "pipeline": ("pipeline", "rdr", "kernel", "nlse", "grid", "kg", "lattice",
                 "metric"),
}

_RDR_FREQ_KEYS = ("gamma_i", "kappa_prime", "kappa", "G", "Delta_bar",
                  "G0", "eps", "Delta", "omega_eval")


@dataclass
class RunConfig:
    stage: str
    units: str
    seed: int
    out: str
    threads: int
    sections: dict
    source_text: str = ""
    omega_ref: float = 1.0     # SI rad/s per natural frequency unit

    def __getitem__(self, section):
        return self.sections[section]

    def sha256(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()

    def echo(self) -> str:
        """Canonical rendering with every default materialized."""
        lines = []
        for sec in ("run",) + tuple(s for s in SCHEMA if s != "run"):
            if sec not in self.sections:
                continue
            lines.append(f"[{sec}]")
            for key in SCHEMA[sec]:
                val = self.sections[sec].get(key)
                lines.append(f"{key} = {_render(val)}")
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
    if isinstance(val, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in val) + "]"
    return f'"{val}"'


def _parse_scalar(tok: str, line: int):
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


def _parse_value(tok: str, line: int):
    tok = tok.strip()
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise ConfigError("unterminated array", line)
        inner = tok[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(t, line) for t in inner.split(",")]
    return _parse_scalar(tok, line)


def _coerce(section, key, value, typ, choices, line):
    if typ == "maybe":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number", line)
        return float(value)
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number", line)
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; all defaults are materialized."""
    raw: dict[str, dict] = {}
    lines_of: dict[tuple, int] = {}
    section = None
    section_line = 0
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
            section_line = ln
            lines_of[(section, None)] = section_line
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

    sections: dict[str, dict] = {}
    for sec, keys in SCHEMA.items():
        if sec != "run" and sec not in raw:
            continue
        resolved = {}
        for key, (default, typ, choices) in keys.items():
            if key in raw.get(sec, {}):
                resolved[key] = _coerce(sec, key, raw[sec][key], typ, choices,
                                        lines_of[(sec, key)])
            else:
                if default is REQUIRED:
                    raise ConfigError(
                        f"missing required key {sec}.{key}",
                        lines_of.get((sec, None), 1),
                    )
                resolved[key] = default
        sections[sec] = resolved

    run = sections["run"]
    cfg = RunConfig(
        stage=run["stage"], units=run["units"], seed=run["seed"],
        out=run["out"], threads=run["threads"], sections=sections,
        source_text=text,
    )

    # the selected stage must have all the sections it consumes
    for sec in STAGE_SECTIONS[cfg.stage]:
        needs_required = any(
            spec[0] is REQUIRED for spec in SCHEMA[sec].values()
        )
        if sec not in sections:
            if needs_required:
                raise ConfigError(
                    f"stage '{cfg.stage}' requires a [{sec}] section", 1
                )
            sections[sec] = {k: spec[0] for k, spec in SCHEMA[sec].items()}

    _validate_stage(cfg, lines_of)
    if cfg.units == "SI" and "rdr" in sections:
        _rdr_to_natural(cfg)
    return cfg


def _validate_stage(cfg: RunConfig, lines_of) -> None:
    if "rdr" in cfg.sections and cfg.stage in ("rdr", "pipeline"):
        r = cfg.sections["rdr"]
        line = lines_of.get(("rdr", None), 1)
        direct = r["G"] is not None and r["Delta_bar"] is not None
        driven = all(r[k] is not None for k in ("G0", "eps", "Delta"))
        if not (direct or driven):
            raise ConfigError(
                "rdr needs either (G, Delta_bar) or (G0, eps, Delta)", line
            )
        if r["n_th"] is None and r["T"] is None:
            raise ConfigError("rdr needs n_th (natural) or T (SI)", line)
        if r["T"] is not None and cfg.units != "SI":
            raise ConfigError(
                "T (kelvin) requires units = SI; give n_th directly in "
                "natural units", lines_of.get(("rdr", "T"), line)
            )
    # FFT grids need power-of-two sides; a lattice also needs at least four
    # sites per side for its nearest-neighbour stencil
    if cfg.stage in ("nlse", "metric", "kg", "pipeline"):
        _check_sides(cfg, lines_of, "grid", ("nx", "ny"), ("dx", "dy"))
    if cfg.stage == "lattice":
        _check_sides(cfg, lines_of, "lattice", ("nx", "ny"), ("h",), min_side=4)
    # the photon mass divides the kinetic term and the conformal factor
    # n/(m c); the array's continuum map m = ħ/(2Jh²) divides by J
    model = cfg["pipeline"]["model"] if cfg.stage == "pipeline" else None
    if cfg.stage in ("nlse", "metric", "kg") or model == "microcavity":
        _check_nonzero(cfg, lines_of, "nlse", "m")
    if cfg.stage == "lattice" or model == "array":
        _check_nonzero(cfg, lines_of, "lattice", "J")
    # a negative count would book time and phase for a field never evolved
    if "nlse" in cfg.sections:
        for key in ("steps", "snapshot_every"):
            if cfg.sections["nlse"][key] < 0:
                raise ConfigError(f"nlse.{key} must be >= 0",
                                  _line(lines_of, "nlse", key))
    # the kg stage's trace is its samples: a stride of 0 records none, and
    # a negative one has no next sample
    if "kg" in cfg.sections and cfg.sections["kg"]["sample_every"] < 1:
        raise ConfigError("kg.sample_every must be >= 1",
                          _line(lines_of, "kg", "sample_every"))
    if cfg.stage == "kernel":
        k = cfg.sections["kernel"]
        line = lines_of.get(("kernel", None), 1)
        if k["omega_m"] is None or k["gamma"] is None:
            raise ConfigError(
                "standalone kernel stage needs omega_m and gamma", line
            )


def _line(lines_of, section, key) -> int:
    return lines_of.get((section, key), lines_of.get((section, None), 1))


def _check_sides(cfg: RunConfig, lines_of, section, sides, spacings,
                 min_side=2) -> None:
    sec = cfg.sections[section]
    for key in sides:
        n = sec[key]
        if n < min_side or n & (n - 1):
            raise ConfigError(
                f"{section}.{key} = {n} must be a power of two >= {min_side}",
                _line(lines_of, section, key),
            )
    for key in spacings:
        if not sec[key] > 0:
            raise ConfigError(
                f"{section}.{key} must be positive",
                _line(lines_of, section, key),
            )


def _check_nonzero(cfg: RunConfig, lines_of, section, key) -> None:
    if cfg.sections[section][key] == 0:
        raise ConfigError(f"{section}.{key} must be nonzero",
                          _line(lines_of, section, key))


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
