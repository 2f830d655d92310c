"""Experiment configs: TOML files read by the standard library's ``tomllib``.

A config is returned as {section: {key: value}}. Every table is a
section; the other keys before the first ``[section]`` header land in
section ``""``, which is left out when empty. Every parse or read error
is a ConfigError.
"""

from __future__ import annotations

import tomllib
from pathlib import Path


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def loads(text: str) -> dict:
    """Parse config text into {section: {key: value}} (top level: '')."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None
    top = {key: value for key, value in doc.items() if not isinstance(value, dict)}
    sections = {key: value for key, value in doc.items() if isinstance(value, dict)}
    return {"": top, **sections} if top else sections


def load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads(text)
