"""Flat key-value experiment config files with dotted sections.

Format: one `section.key = value` per line; `#` starts a comment; values are
plain strings, comma-separated lists, ints, floats or booleans depending on
the accessor used. Chosen for diff-ability in experiment logs.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _get(cfg: Dict[str, str], key: str, default, required: bool):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def cfg_str(cfg, key, default: Optional[str] = None, required: bool = False) -> Optional[str]:
    return _get(cfg, key, default, required)


def cfg_int(cfg, key, default: Optional[int] = None, required: bool = False) -> Optional[int]:
    v = _get(cfg, key, default, required)
    if v is None or isinstance(v, int):
        return v
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {v!r} is not an integer") from None


def cfg_float(cfg, key, default: Optional[float] = None, required: bool = False) -> Optional[float]:
    v = _get(cfg, key, default, required)
    if v is None or isinstance(v, float):
        return v
    try:
        return float(v)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {v!r} is not a number") from None


def cfg_bool(cfg, key, default: Optional[bool] = None, required: bool = False) -> Optional[bool]:
    v = _get(cfg, key, default, required)
    if v is None or isinstance(v, bool):
        return v
    low = v.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r}: {v!r} is not a boolean")


def cfg_int_list(cfg, key, default: Optional[Sequence[int]] = None, required: bool = False) -> Optional[List[int]]:
    v = _get(cfg, key, default, required)
    if v is None or isinstance(v, (list, tuple)):
        return None if v is None else list(v)
    try:
        return [int(x) for x in v.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"config key {key!r}: {v!r} is not a comma-separated int list") from None


def cfg_str_list(cfg, key, default: Optional[Sequence[str]] = None, required: bool = False) -> Optional[List[str]]:
    v = _get(cfg, key, default, required)
    if v is None or isinstance(v, (list, tuple)):
        return None if v is None else list(v)
    return [x.strip() for x in v.split(",") if x.strip()]
