"""Strict config parsing, defaults echo, unit conversion round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonfluid.config import SCHEMA, STAGE_SECTIONS, STAGES, parse_config
from photonfluid.errors import ConfigError

MINIMAL_RDR = """
[run]
stage = rdr

[rdr]
gamma_i = 1e-5
kappa_prime = 0.2
G = 0.08
Delta_bar = -1.0
n_th = 6.3e5
"""


def test_minimal_rdr_config_with_defaults():
    cfg = parse_config(MINIMAL_RDR)
    assert cfg.stage == "rdr"
    assert cfg.units == "natural"
    assert cfg["rdr"]["omega_i"] == 1.0          # default materialized
    assert cfg["rdr"]["kappa"] == 0.0
    assert cfg["rdr"]["G"] == 0.08
    echo = cfg.echo()
    assert "omega_i = 1.0" in echo
    assert "seed = 0" in echo


def test_stage_required():
    with pytest.raises(ConfigError, match="stage required"):
        parse_config("[run]\nseed = 1\n")
    with pytest.raises(ConfigError, match="stage required"):
        parse_config("")


def test_unknown_key_reports_line_number():
    text = MINIMAL_RDR + "typo_key = 1\n"
    line = len(text.strip().splitlines()) + 1   # leading blank line offset
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "typo_key" in str(err.value)
    assert f"line {line - 1}" in str(err.value) or "line" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config("[run]\nstage = rdr\n[bogus]\nx = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_RDR + "gamma_i = 2e-5\n")


def test_type_errors_carry_lines():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(MINIMAL_RDR.replace("gamma_i = 1e-5", 'gamma_i = "soft"'))
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(MINIMAL_RDR.replace("stage = rdr",
                                         "stage = rdr\nseed = 1.5"))
    # the value grammar has no arrays
    with pytest.raises(ConfigError, match="line 8: cannot parse value"):
        parse_config(MINIMAL_RDR.replace("G = 0.08", "G = [0.08, 0.05]"))


def test_missing_required_parameters():
    with pytest.raises(ConfigError, match="kappa_prime"):
        parse_config("[run]\nstage = rdr\n[rdr]\ngamma_i = 1e-5\n")
    with pytest.raises(ConfigError, match=r"\(G, Delta_bar\) or"):
        parse_config("[run]\nstage = rdr\n"
                     "[rdr]\ngamma_i = 1e-5\nkappa_prime = 0.2\nn_th = 1.0\n")


def test_temperature_requires_si_units():
    text = MINIMAL_RDR.replace("n_th = 6.3e5", "T = 300.0")
    with pytest.raises(ConfigError, match="units = SI"):
        parse_config(text)


def test_si_mode_converts_frequencies():
    w = 2 * np.pi * 1e7
    text = f"""
[run]
stage = rdr
units = SI

[rdr]
omega_i = {w!r}
gamma_i = {1e-5 * w!r}
kappa_prime = {0.2 * w!r}
G = {0.08 * w!r}
Delta_bar = {-w!r}
T = 300.0
"""
    cfg = parse_config(text)
    assert cfg.omega_ref == pytest.approx(w)
    assert cfg["rdr"]["omega_i"] == 1.0
    assert cfg["rdr"]["kappa_prime"] == pytest.approx(0.2, rel=1e-12)
    assert cfg["rdr"]["Delta_bar"] == pytest.approx(-1.0, rel=1e-12)


@given(st.floats(1e3, 1e12), st.floats(1e-6, 10.0))
def test_si_round_trip_lossless(omega_ref, ratio):
    # natural -> SI -> natural reproduces every frequency to 1e-12
    si_value = ratio * omega_ref
    natural = si_value / omega_ref
    back = natural * omega_ref
    assert back == pytest.approx(si_value, rel=1e-12)
    text = f"""
[run]
stage = rdr
units = SI

[rdr]
omega_i = {omega_ref!r}
gamma_i = {si_value!r}
kappa_prime = {si_value!r}
G = {si_value!r}
Delta_bar = {-si_value!r}
n_th = 10.0
"""
    cfg = parse_config(text)
    assert cfg["rdr"]["gamma_i"] * cfg.omega_ref == pytest.approx(
        si_value, rel=1e-12)


def test_echo_round_trip_identity():
    cfg = parse_config(MINIMAL_RDR)
    again = parse_config(cfg.echo())
    assert again.sections == cfg.sections
    assert again.echo() == cfg.echo()


@given(
    gamma_i=st.floats(1e-8, 1e-2),
    kappa_prime=st.floats(1e-3, 2.0),
    G=st.floats(1e-4, 1.0),
    Delta_bar=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**31),
)
def test_echo_round_trip_property(gamma_i, kappa_prime, G, Delta_bar, seed):
    text = f"""
[run]
stage = rdr
seed = {seed}

[rdr]
gamma_i = {gamma_i!r}
kappa_prime = {kappa_prime!r}
G = {G!r}
Delta_bar = {Delta_bar!r}
n_th = 10.0
"""
    cfg = parse_config(text)
    again = parse_config(cfg.echo())
    assert again.sections == cfg.sections


def test_config_hash_is_stable():
    c1 = parse_config(MINIMAL_RDR)
    c2 = parse_config(MINIMAL_RDR + "\n# trailing comment\n")
    assert c1.sha256() == c2.sha256()


def test_stage_needs_its_sections():
    with pytest.raises(ConfigError, match=r"requires a \[rdr\]"):
        parse_config("[run]\nstage = rdr\n")
    with pytest.raises(ConfigError, match=r"requires a \[kernel\]"):
        parse_config("[run]\nstage = kernel\n")
    # kg consumes only sections whose keys all have defaults
    cfg = parse_config("[run]\nstage = kg\n")
    assert cfg["kg"]["t_final"] == 10.0
    assert cfg["grid"]["nx"] == 128


def test_standalone_kernel_needs_mechanics():
    with pytest.raises(ConfigError, match="omega_m and gamma"):
        parse_config("[run]\nstage = kernel\n[kernel]\ng = 0.1\n")
    cfg = parse_config(
        "[run]\nstage = kernel\n[kernel]\ng = 0.1\nomega_m = 1.0\ngamma = 5.0\n")
    assert cfg["kernel"]["gamma"] == 5.0


# text within one line: no control characters or line separators
_WORDS = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")),
                 min_size=1, max_size=12)
# values of every type the grammar knows, in every key's place
_VALUES = st.one_of(
    st.sampled_from(["true", "FALSE", "none", "SI", "natural", '"x"', "'y'",
                     '"', "", "64.0", "3.5", "1e999", "-1e999", "nan", "-0",
                     "0x10", "1_0", "a b", *STAGES]),
    st.integers().map(str), st.floats().map(repr), _WORDS)
_KEYS = sorted({key for keys in SCHEMA.values() for key in keys})
_JUNK = st.one_of(
    st.sampled_from([f"[{sec}]" for sec in SCHEMA]
                    + ["[run", "[]", "[nope]", "=", "# c", "; c", ""]),
    st.builds("{} = {}".format, st.one_of(st.sampled_from(_KEYS), _WORDS),
              _VALUES),
    st.text(max_size=30))
# for each stage, the canonical echo of a valid config: every key of the
# sections the stage reads, the required ones set
_REQUIRED_KEYS = {"rdr": MINIMAL_RDR.split("[rdr]")[1],
                  "kernel": "g = 0.1\nomega_m = 1.0\ngamma = 5.0\n"}
_VALID = {
    stage: parse_config(f"[run]\nstage = {stage}\n" + "".join(
        f"[{sec}]\n{_REQUIRED_KEYS[sec]}" for sec in STAGE_SECTIONS[stage]
        if sec in _REQUIRED_KEYS)).echo().splitlines()
    for stage in STAGES}


@st.composite
def _config_texts(draw):
    # a valid text with up to four edits: a value replaced by anything, a
    # junk line put in, or a line taken out
    lines = list(_VALID[draw(st.sampled_from(STAGES))])
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["value"] * 4 + ["insert", "delete"]))
        if edit == "value":
            i = draw(st.sampled_from([i for i, ln in enumerate(lines)
                                      if " = " in ln] or [0]))
            key = lines[i].partition(" = ")[0]
            comment = draw(st.sampled_from(["", " # note", " ; x"]))
            lines[i] = f"{key} = {draw(_VALUES)}{comment}"
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "insert":
            lines.insert(i, draw(_JUNK))
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(lines)


@given(_config_texts())
@settings(max_examples=200)
def test_config_text_fuzz_raises_only_config_error(text):
    # config text is untrusted input: whatever it holds, parse_config
    # returns a config or raises ConfigError, nothing else
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert cfg.stage in STAGES
    cfg.echo()
