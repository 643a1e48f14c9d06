"""Run configuration: key = value files, typed schemas, overrides.

A config file is UTF-8 text, one `key = value` per line, `#` comments and
blank lines ignored. Every subcommand declares its full key set with
types and defaults; unknown keys and untypable values are rejected before
any computation starts. The fully resolved mapping is echoed (sorted)
into every output header, and its hash names the run directory when no
explicit name is given, so identical configs land in identical paths
with identical bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .csvio import format_value
from .errors import ConfigError
from .meanfield import _INIT_GUESSES

__all__ = ["Field", "SCHEMAS", "parse_file", "resolve", "echo_lines", "run_name"]


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | floats | ints
    default: object
    choices: tuple | None = None


def _parse_scalar(key: str, raw: str, field: Field):
    text = raw.strip()
    try:
        if field.kind == "int":
            return int(text)
        if field.kind == "float":
            return float(text)
        if field.kind == "floats":
            return tuple(float(t) for t in text.split(",") if t.strip() != "")
        if field.kind == "ints":
            return tuple(int(t) for t in text.split(",") if t.strip() != "")
        value = text
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {field.kind}") from exc
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"key {key!r}: {value!r} not one of {sorted(field.choices)}")
    return value


_STEADY_SOLVE = {
    "tol_fixed_point": Field("float", 1e-8),
    "max_iters": Field("int", 500),
}
_INIT = {"init": Field("str", "ue", tuple(_INIT_GUESSES))}

SCHEMAS: dict[str, dict[str, Field]] = {
    "gamma": {
        "g0": Field("float", 0.01),
        "tau_end": Field("float", 20.0),
        "dtau": Field("float", 0.01),
        "method": Field("str", "ode", ("ode", "closed")),
        "name": Field("str", ""),
    },
    "steady": {
        "u_max": Field("float", 30.0),
        "h": Field("float", 0.01),
        **_STEADY_SOLVE,
        **_INIT,
        "name": Field("str", ""),
    },
    "transient": {
        "u_max": Field("float", 30.0),
        "h": Field("float", 0.02),
        **_INIT,
        "dtau": Field("float", 0.0),  # 0 means: use h
        "tau_end": Field("float", 5.0),
        "g0": Field("float", 0.1),
        "g_mode": Field("str", "closed", ("closed", "const")),
        "snapshot_stride": Field("int", 25),
        "residual_m_max": Field("int", 0),  # 0 skips the residual file
        "name": Field("str", ""),
    },
    "mc-steady": {
        "m_particles": Field("int", 20000),
        "tau_end": Field("float", 30.0),
        "seeds": Field("ints", (1,)),
        "snapshot_taus": Field("floats", ()),
        "hist_u_max": Field("float", 30.0),
        "hist_h": Field("float", 0.1),
        "u_ceiling": Field("float", 1e9),
        "name": Field("str", ""),
    },
    "mc-transient": {
        "m_particles": Field("int", 20000),
        "g0": Field("float", 0.01),
        "tau_end": Field("float", 10.0),
        "seeds": Field("ints", (1,)),
        "snapshot_taus": Field("floats", ()),
        "entrant_rule": Field("str", "adopt", ("adopt", "capped")),
        "entrant_cap": Field("float", 100.0),
        "hist_u_max": Field("float", 30.0),
        "hist_h": Field("float", 0.1),
        "u_ceiling": Field("float", 1e9),
        "name": Field("str", ""),
    },
    "oracle": {
        "xi1_sq": Field("float", 1.0),
        "xi2_sq": Field("float", 1.0),
        "boxes": Field("floats", (0.4, 0.2, 0.1, 0.05)),
        "box_convention": Field("str", "diameter", ("diameter", "radius")),
        "quad_points": Field("int", 256),
        "halfwidth_sigmas": Field("float", 10.0),
        "max_doublings": Field("int", 12),
        "fit_order": Field("str", "yes", ("yes", "no")),
        "name": Field("str", ""),
    },
    "fig1": {
        "g0_list": Field("floats", (0.01, 0.005, 0.0025, 0.0008, 0.0)),
        "tau_end": Field("float", 20.0),
        "dtau": Field("float", 0.01),
        "u_max": Field("float", 30.0),
        "h": Field("float", 0.05),
        **_STEADY_SOLVE,
        "name": Field("str", ""),
    },
}


def parse_file(path) -> dict[str, str]:
    """Raw key -> string mapping from a config file."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def resolve(subcommand: str, file_path=None, overrides: dict[str, str] | None = None) -> dict:
    """Typed config for one subcommand from defaults, file, and --set pairs."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    raw: dict[str, str] = {}
    if file_path is not None:
        raw.update(parse_file(file_path))
    raw.update(overrides or {})
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {', '.join(unknown)}")
    cfg = {}
    for key, field in schema.items():
        cfg[key] = _parse_scalar(key, raw[key], field) if key in raw else field.default
    return cfg


def echo_lines(cfg: dict) -> list[str]:
    """Sorted `key = value` lines; tuples render as comma lists."""
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, tuple):
            text = ",".join(format_value(x) for x in v)
        else:
            text = format_value(v)
        lines.append(f"{key} = {text}")
    return lines


def run_name(cfg: dict) -> str:
    """Explicit name key, or a stable 12-hex digest of the resolved config."""
    if cfg.get("name"):
        return str(cfg["name"])
    digest = hashlib.sha256("\n".join(echo_lines(cfg)).encode()).hexdigest()
    return digest[:12]
