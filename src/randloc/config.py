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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .csvio import format_value
from .errors import ConfigError
from .meanfield import SolverConfig

__all__ = ["Field", "SCHEMAS", "split_pair", "parse_file", "resolve", "echo_lines", "run_name"]


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


# Defaults read from a class are the library's own; the literals are the CLI's.
_MC = {
    "m_particles": Field("int", 20000),
    "seeds": Field("ints", (1,)),
    "snapshot_taus": Field("floats", ()),
    "hist_u_max": Field("float", 30.0),
    "hist_h": Field("float", 0.1),
}

_KEYS: dict[str, dict[str, Field]] = {
    "gamma": {
        "g0": Field("float", 0.01),
        "tau_end": Field("float", 20.0),
        "dtau": Field("float", 0.01),
    },
    "steady": {
        "u_max": Field("float", SolverConfig.u_max),
        "h": Field("float", SolverConfig.h),
    },
    "transient": {
        "u_max": Field("float", SolverConfig.u_max),
        "h": Field("float", 0.02),
        "init": Field("str", "ue", ("ue", "point")),  # the starts with p(0) = 0
        "dtau": Field("float", 0.0),  # 0 means: use h
        "tau_end": Field("float", 5.0),
        "g0": Field("float", 0.1),
        "g_mode": Field("str", "closed", ("closed", "const")),
        "snapshot_stride": Field("int", 25),
        "residual_m_max": Field("int", 0),  # 0 skips the residual file
    },
    "mc-steady": {**_MC, "tau_end": Field("float", 30.0)},
    "mc-transient": {
        **_MC,
        "g0": Field("float", 0.01),
        "tau_end": Field("float", 10.0),
    },
    "oracle": {
        "xi1_sq": Field("float", 1.0),
        "xi2_sq": Field("float", 1.0),
        "boxes": Field("floats", (0.4, 0.2, 0.1, 0.05)),
    },
    "fig1": {
        "g0_list": Field("floats", (0.01, 0.005, 0.0025, 0.0008, 0.0)),
        "tau_end": Field("float", 20.0),
        "dtau": Field("float", 0.01),
        "u_max": Field("float", SolverConfig.u_max),
        "h": Field("float", 0.05),
    },
}
SCHEMAS = {sub: {**keys, "name": Field("str", "")} for sub, keys in _KEYS.items()}


def split_pair(text: str, where: str) -> tuple[str, str]:
    """The stripped key and value of one `key = value` pair; where names
    the pair's source in the ConfigError that refuses a malformed one."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value' (or key=value), got {text!r}")
    if not key.strip():
        raise ConfigError(f"{where}: empty key")
    return key.strip(), value.strip()


def parse_file(path) -> dict[str, str]:
    """Raw key -> string mapping from a config file; a key may appear once."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = split_pair(raw, f"{path}:{lineno}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
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
        if field.kind in ("floats", "ints"):
            # two seeds would write the same files, two snapshot times two
            # blocks of one density, two boxes or g0 values one row or file
            repeated = sorted(v for v, n in Counter(cfg[key]).items() if n > 1)
            if repeated:
                raise ConfigError(f"{key} lists {', '.join(map(str, repeated))} more than once")
    return cfg


def echo_lines(cfg: dict) -> list[str]:
    """Sorted `key = value` lines, each value as ``format_value`` writes it."""
    return [f"{key} = {format_value(cfg[key])}" for key in sorted(cfg)]


def run_name(cfg: dict) -> str:
    """Explicit name key, or a stable 12-hex digest of the resolved config.

    A name must be one path component, so that the run stays inside its
    subcommand's directory: not . or .., no / or NUL, and UTF-8 text of at
    most 255 bytes, the longest file name.
    """
    name = cfg.get("name")
    if name:
        if name in (".", "..") or "/" in name or "\0" in name:
            raise ConfigError(f"name {name!r} is not one path component")
        try:
            size = len(name.encode("utf-8"))
        except UnicodeEncodeError:  # undecodable argv bytes; the headers could not hold them
            raise ConfigError(f"name {name!r} is not UTF-8 text") from None
        if size > 255:
            raise ConfigError(f"name is {size} bytes long, more than the 255 of a file name")
        return name
    digest = hashlib.sha256("\n".join(echo_lines(cfg)).encode()).hexdigest()
    return digest[:12]
