"""Shared exception types, and the readers of JSON input files, whose faults
are configuration errors."""

from __future__ import annotations

import functools
import json
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from itertools import repeat
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


def from_json(cls, data, where: str, **given):
    """The dataclass `cls` that the JSON object `data` describes, with the
    fields in `given` set as given. Each value must be what its field's
    annotation takes: `int` an integer (not a bool), `float` a finite number,
    `str` and `bool` their own type, `tuple[X, ...]` a list of X and
    `tuple[X, Y]` a list of two, a dataclass an object of its fields (and no
    other keys), and `X | None` also null. Lists become tuples and objects
    dataclasses; other values pass on as they are. Any fault, the dataclasses'
    own ConfigErrors included, is a ConfigError naming `where` and the key.
    Keys that `cls` does not name are ignored."""
    try:
        return _check(cls)(data, given=given, strict=False)
    except _Mismatch as bad:
        raise bad.error(where) from None
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def json_value(tp, value, where: str):
    """`value` as a field annotated `tp` takes it, or a ConfigError naming `where`."""
    try:
        return _check(tp)(value)
    except _Mismatch as bad:
        raise bad.error(where) from None


class _Mismatch(Exception):
    """A value its annotation does not take, at `loc` within the value checked."""

    loc = ""

    def error(self, where: str) -> ConfigError:
        loc = self.loc.lstrip(".")
        return ConfigError(f"{where}: {loc!r} {self}" if loc else f"{where} {self}")


def _wrong(expected: str, value) -> _Mismatch:
    return _Mismatch(f"must be {expected}, got {json.dumps(value)[:40]}")


@functools.cache
def _check(tp):
    """The check of annotation `tp`: it returns a JSON value as the field takes it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (int, float, str, bool):
        finite = tp is float  # a float field takes an int too
        kinds = (int, float) if finite else (tp,)
        expected = "a finite number" if finite else f"of type {tp.__name__}"

        def check(value):
            if type(value) in kinds and (not finite or abs(value) <= sys.float_info.max):
                return value
            raise _wrong(expected, value)
        return check
    if is_dataclass(tp):
        hints, init = typing.get_type_hints(tp), [f for f in fields(tp) if f.init]
        required = [f.name for f in init if f.default is MISSING and f.default_factory is MISSING]
        annotations = {f.name: hints[f.name] for f in init}
        return functools.partial(_decode, tp, annotations, required, given={})
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = (_check(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    if origin is not tuple:
        raise TypeError(f"no JSON form for annotation {tp!r}")
    size = None if args[1:] == (...,) else len(args)
    items = repeat(_check(args[0])) if size is None else [_check(a) for a in args]

    def check(value):
        if type(value) is not list or size not in (None, len(value)):
            raise _wrong(f"a list of {size}" if size else "a list", value)
        out = []
        for item, v in zip(items, value):
            try:
                out.append(item(v))
            except _Mismatch as bad:
                bad.loc = f"[{len(out)}]{bad.loc}"
                raise
        return tuple(out)
    return check


def _decode(cls, annotations: dict, required: list, data, given: dict, strict=True):
    """`cls(**given, ...)` with its other fields from the object `data`, whose
    keys are checked against `annotations`; `strict` refuses unknown keys."""
    if type(data) is not dict:
        raise _wrong("a JSON object", data)
    if strict and (unknown := sorted(data.keys() - annotations.keys())):
        raise _Mismatch(f"has unknown key(s) {unknown}")
    if missing := [name for name in required if name not in data and name not in given]:
        raise _Mismatch(f"lacks {missing}")
    values = dict(given)
    for name, tp in annotations.items():
        if name in data and name not in given:
            try:
                values[name] = _check(tp)(data[name])
            except _Mismatch as bad:
                bad.loc = f".{name}{bad.loc}"
                raise
    return cls(**values)
