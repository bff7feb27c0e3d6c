"""Flat key-value experiment config files with dotted sections.

Format: one `section.key = value` per line; `#` starts a comment; a value is
a plain string, a comma-separated list, an int, a float or a boolean, as the
kind its `setting` declares says. Chosen for diff-ability in experiment logs.
"""
from __future__ import annotations

from dataclasses import MISSING, field, fields
from typing import Dict


class ConfigError(ValueError):
    pass


def setting(key: str, kind, bound=None, default=MISSING):
    """A dataclass field that config key `key` sets; `experiment.KEYS` is
    read off these fields. The value is read as `kind` (see parse_value) and
    must lie in `bound`, or each of its elements must when `kind` is a list
    kind such as (int,). A bound is an interval written as a string such as
    "(0, 1]", or a tuple of the allowed values; a str key without one is a
    path or a free-form name. A field without `default` must be given."""
    return field(default=default, metadata={"key": key, "kind": kind, "bound": bound})


def _inside(value, interval: str) -> bool:
    """Whether `value` lies in an interval written like "(0, 1]"; NaN never does."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


def check_bounds(section):
    """Raise ConfigError naming the key of the first `setting` field of the
    dataclass `section` whose value (None: unset) lies outside its bound.
    Each config dataclass calls it from __post_init__, so a config built in
    code, or by dataclasses.replace, is held to the bounds as one loaded
    from a file is."""
    for f in fields(section):
        value, bound = getattr(section, f.name), f.metadata.get("bound")
        if bound is None or value is None:
            continue
        key = f.metadata["key"]
        for x in value if isinstance(f.metadata["kind"], tuple) else (value,):
            if isinstance(x, int) and not -(2**63) <= x < 2**63:  # numpy sizes and seeds are int64
                raise ConfigError(f"config key {key!r}: {x} is outside the int64 range")
            if isinstance(bound, tuple) and x not in bound:
                raise ConfigError(f"config key {key!r}: {x!r} is not one of {', '.join(bound)}")
            if isinstance(bound, str) and not _inside(x, bound):
                raise ConfigError(f"config key {key!r}: {x} is outside {bound}")


def parse_config_text(text: str) -> Dict[str, str]:
    """The `key = value` pairs of a config text. Lines end at "\n" (text
    read by open() has "\r\n" and "\r" turned into it), so a form feed or
    another Unicode line break inside a comment or a value stays in its line
    and every error names the line an editor shows."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def parse_value(key: str, text: str, kind):
    """`text` read as `kind`: int, float, bool or str, or a comma-separated
    tuple of one of them when `kind` is a one-element tuple such as (int,)."""
    if isinstance(kind, tuple):
        return tuple(parse_value(key, x.strip(), kind[0]) for x in text.split(",") if x.strip())
    if kind is str:
        return text
    if kind is bool:
        if text.lower() in _BOOLS:
            return _BOOLS[text.lower()]
    else:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ConfigError(f"config key {key!r}: {text!r} is not {_KIND_NAMES[kind]}")
