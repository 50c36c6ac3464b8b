"""Flat key-value scenario configuration with strict key checking.

Format: one `key = value` per line, `#` starts a comment line, blank lines
ignored. Unknown keys are rejected so typos in sweep studies fail loudly
instead of silently running the defaults. Missing keys take the default
simulation parameters.
"""

from __future__ import annotations

import math

from .channel import EnvParams, UpaSpec
from .harness import Scenario, dbm_to_watts


class ConfigError(ValueError):
    """Raised for unknown keys, malformed lines, or values of the wrong type."""


_INT_KEYS = frozenset(
    {
        "L",
        "trials",
        "master_seed",
        "max_iters",
        "m_s",
        "n_s",
        "m_r",
        "n_r",
        "m_t",
        "n_t",
        "m_d",
        "n_d",
        "workers",
    }
)
_STR_KEYS = frozenset({"dn_rule"})

DEFAULTS: dict = {
    "h_min": 100.0,
    "h_max": 300.0,
    "p_s_tot_dbm": 20.0,
    "p_v_tot_dbm": 20.0,
    "noise1_dbm": -110.0,
    "noise2_dbm": -110.0,
    "fc_hz": 38e9,
    "alpha_los": 1.9,
    "alpha_nlos": 3.3,
    "L": 4,
    "sigma_f": None,  # None: use 1/sqrt(L); unused when L = 0
    "los_a": 11.95,
    "los_b": 0.14,
    "m_s": 4,
    "n_s": 4,
    "m_r": 4,
    "n_r": 4,
    "m_t": 4,
    "n_t": 4,
    "m_d": 4,
    "n_d": 4,
    "eps_x": 1.0,
    "eps_y": 1.0,
    "eps_h": 1.0,
    "kappa": 10.0,
    "eps_r": 0.01,
    "trials": 200,
    "master_seed": 0,
    "delta_m_deg": 0.0,
    "dn_rule": "disk",
    "dn_x": 400.0,
    "dn_y": 300.0,
    "dn_radius_m": 500.0,
    "panel_separation": 10.0,
    "max_iters": 50,
    "workers": 1,
}


def _convert(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
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


def build_scenario(overrides: dict | None = None) -> Scenario:
    """Turn a parsed config (plus defaults) into a runnable Scenario."""
    cfg = dict(DEFAULTS)
    if overrides:
        for key in overrides:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.update(overrides)

    sigma_f = cfg["sigma_f"]
    if sigma_f is None:
        # any positive value passes EnvParams when there are no NLoS rays
        sigma_f = 1.0 / math.sqrt(cfg["L"]) if cfg["L"] > 0 else 1.0

    try:
        env = EnvParams(
            fc_hz=cfg["fc_hz"],
            alpha_los=cfg["alpha_los"],
            alpha_nlos=cfg["alpha_nlos"],
            num_nlos=cfg["L"],
            sigma_f=sigma_f,
            los_a=cfg["los_a"],
            los_b=cfg["los_b"],
            panel_separation=cfg["panel_separation"],
        )
        return Scenario(
            dn_rule=cfg["dn_rule"],
            dn_x=cfg["dn_x"],
            dn_y=cfg["dn_y"],
            dn_radius_m=cfg["dn_radius_m"],
            h_min=cfg["h_min"],
            h_max=cfg["h_max"],
            eps_x=cfg["eps_x"],
            eps_y=cfg["eps_y"],
            eps_h=cfg["eps_h"],
            upa_s=UpaSpec(cfg["m_s"], cfg["n_s"]),
            upa_r=UpaSpec(cfg["m_r"], cfg["n_r"]),
            upa_t=UpaSpec(cfg["m_t"], cfg["n_t"]),
            upa_d=UpaSpec(cfg["m_d"], cfg["n_d"]),
            p_s_tot=dbm_to_watts(cfg["p_s_tot_dbm"]),
            p_v_tot=dbm_to_watts(cfg["p_v_tot_dbm"]),
            noise1=dbm_to_watts(cfg["noise1_dbm"]),
            noise2=dbm_to_watts(cfg["noise2_dbm"]),
            env=env,
            kappa=cfg["kappa"],
            eps_r=cfg["eps_r"],
            max_iters=cfg["max_iters"],
            delta_m_deg=cfg["delta_m_deg"],
            trials=cfg["trials"],
            master_seed=cfg["master_seed"],
            workers=cfg["workers"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
