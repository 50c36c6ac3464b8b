"""Flat key-value scenario configuration with strict key checking.

Format: one `key = value` per line, `#` starts a comment line, blank lines
ignored. Unknown keys are rejected so typos in sweep studies fail loudly
instead of silently running the defaults. Missing keys take the default
simulation parameters.
"""

from __future__ import annotations

import dataclasses
import math

from .channel import EnvParams, UpaSpec
from .harness import Scenario, dbm_to_watts


class ConfigError(ValueError):
    """Raised for unknown keys, malformed lines, or values of the wrong type."""


# a config value parses to the type of its default (see _convert). A key named
# like a Scenario or EnvParams field takes that field's default; the keys that
# build_scenario converts are spelled out here.
_CONVERTED_FIELDS = {"p_s_tot", "p_v_tot", "noise1", "noise2", "num_nlos", "sigma_f"}
DEFAULTS: dict = {
    **{
        field.name: field.default
        for cls in (Scenario, EnvParams)
        for field in dataclasses.fields(cls)
        if field.default is not dataclasses.MISSING and field.name not in _CONVERTED_FIELDS
    },
    "p_s_tot_dbm": 20.0,
    "p_v_tot_dbm": 20.0,
    "noise1_dbm": -110.0,
    "noise2_dbm": -110.0,
    "L": 4,
    "sigma_f": None,  # None: use 1/sqrt(L); unused when L = 0
    **{f"{dim}_{panel}": 4 for panel in "srtd" for dim in "mn"},
}


def _convert(key: str, raw: str):
    """Parse a value as the type of its default; sigma_f's None reads as float."""
    default = DEFAULTS[key]
    if isinstance(default, str):
        return raw
    try:
        if isinstance(default, int):
            return int(raw)
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"bad value for {key!r}: {raw!r}")
    return value


def parse_config(text: str) -> dict:
    """Parse config text into a key-value dict (defaults not applied)."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        out[key] = _convert(key, raw)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _by_name(cls, cfg: dict) -> dict:
    """The config entries whose keys are field names of the dataclass ``cls``."""
    names = {field.name for field in dataclasses.fields(cls)}
    return {key: value for key, value in cfg.items() if key in names}


def build_scenario(overrides: dict | None = None) -> Scenario:
    """Turn a parsed config (plus defaults) into a runnable Scenario.

    Keys named like a Scenario or EnvParams field pass through by name.
    """
    cfg = dict(DEFAULTS)
    if overrides:
        for key in overrides:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.update(overrides)

    if cfg["sigma_f"] is None:
        # any positive value passes EnvParams when there are no NLoS rays
        cfg["sigma_f"] = 1.0 / math.sqrt(cfg["L"]) if cfg["L"] > 0 else 1.0

    try:
        env = EnvParams(num_nlos=cfg["L"], **_by_name(EnvParams, cfg))
        return Scenario(
            upa_s=UpaSpec(cfg["m_s"], cfg["n_s"]),
            upa_r=UpaSpec(cfg["m_r"], cfg["n_r"]),
            upa_t=UpaSpec(cfg["m_t"], cfg["n_t"]),
            upa_d=UpaSpec(cfg["m_d"], cfg["n_d"]),
            p_s_tot=dbm_to_watts(cfg["p_s_tot_dbm"]),
            p_v_tot=dbm_to_watts(cfg["p_v_tot_dbm"]),
            noise1=dbm_to_watts(cfg["noise1_dbm"]),
            noise2=dbm_to_watts(cfg["noise2_dbm"]),
            env=env,
            **_by_name(Scenario, cfg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
