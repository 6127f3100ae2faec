"""Shared exception types, and the reader of JSON input files, whose faults
are configuration errors."""

from __future__ import annotations

import json
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration: bad scenario/topology fields, empty hash ring, ..."""


class WarmupError(RuntimeError):
    """Not enough history yet to compute features or forecasts."""


class DivergenceError(RuntimeError):
    """Training produced non-finite losses or activations."""


def read_json(path: str | Path, kind: str):
    """The JSON value in the `kind` file at `path`; a missing file or one that
    is not JSON text is a ConfigError naming the path."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{kind} file not found: {p}")
    try:
        return json.loads(p.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{kind} file {p} is not valid JSON: {exc}") from exc
