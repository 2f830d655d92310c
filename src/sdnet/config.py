"""Experiment configs: TOML files read by the standard library's ``tomllib``.

A config is returned as {section: {key: value}}: every table is a
section, and a key above the first ``[section]`` header is a
ConfigError. Every parse or read error is a ConfigError.
"""

from __future__ import annotations

import tomllib
from pathlib import Path


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def loads(text: str) -> dict:
    """Parse config text into {section: {key: value}}."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None
    top = [key for key, value in doc.items() if not isinstance(value, dict)]
    if top:
        raise ConfigError(f"key(s) {', '.join(map(repr, top))} must sit in a [section]")
    return doc


def load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads(text)
