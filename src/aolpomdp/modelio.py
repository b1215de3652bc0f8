"""Parsing of experiment configuration documents.

Config documents are flat ``dotted.key value`` lines ('#' comments allowed);
list values are comma separated.
"""
from __future__ import annotations


def parse_config(text: str) -> dict:
    """Flat dotted-key document -> dict of str values (lists comma separated)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if " " not in line:
            raise ValueError(f"line {lineno}: expected 'key value'")
        key, value = line.split(None, 1)
        out[key] = value.strip()
    return out


def config_int(config: dict, key: str, default=None) -> int:
    if key not in config:
        if default is None:
            raise KeyError(f"missing config key {key!r}")
        return default
    return int(config[key])


def config_float(config: dict, key: str, default=None) -> float:
    if key not in config:
        if default is None:
            raise KeyError(f"missing config key {key!r}")
        return default
    return float(config[key])


def config_bool(config: dict, key: str, default: bool = False) -> bool:
    if key not in config:
        return default
    value = config[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")


def config_int_list(config: dict, key: str, default=None) -> list:
    if key not in config:
        if default is None:
            raise KeyError(f"missing config key {key!r}")
        return list(default)
    return [int(v) for v in config[key].split(",") if v.strip()]
