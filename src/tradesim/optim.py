"""Numerics shared by the LSTM and PPO trainers: adaptive-moment gradient
updates, global-norm clipping, the logistic sigmoid and checkpoint files.

Parameters and gradients travel as name -> ndarray dicts.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class AdamSpec:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("decay rates must lie in (0, 1)")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    spec: AdamSpec,
) -> dict[str, np.ndarray]:
    """Bias-corrected first/second moment update; returns new parameter dict."""
    state.t += 1
    t = state.t
    b1, b2 = spec.beta1, spec.beta2
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        out[name] = p - spec.learning_rate * m_hat / (np.sqrt(v_hat) + spec.eps)
    return out


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|.

    With e = exp(-|x|) <= 1, the numerator max(e, x >= 0) is 1 for x >= 0 and
    e below, so one division over the whole array gives each element the same
    bits as 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, with no
    boolean gather/scatter and no second branch. NaN stays NaN. `out` may be
    x itself.
    """
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def save_params(path, params: dict[str, np.ndarray], meta: dict) -> None:
    """One .npz checkpoint at `path`, whatever its suffix: the params by name,
    plus `meta` as JSON bytes in the uint8 array `__meta__`."""
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **params)


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """(params, meta) of a checkpoint written by `save_params`; a missing file
    or one that is not such a checkpoint is a ConfigError naming the path."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"checkpoint not found: {p}")
    try:
        with np.load(p) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            params = {k: data[k] for k in data.files if k != "__meta__"}
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{p} is not a checkpoint: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{p} is not a checkpoint: its meta is not a JSON object")
    return params, meta


def check_layout(params: dict[str, np.ndarray], layout: dict[str, tuple[int, ...]], owner: str) -> None:
    """Refuse `params` unless they are the arrays of `layout`, by name and
    shape, all float32 or all float64; the ConfigError names the first array
    at fault, in `layout`'s order, and `owner`, what the layout is of."""
    if extra := sorted(params.keys() - layout.keys()):
        raise ConfigError(f"array {extra[0]!r} is not a parameter of {owner}")
    first = next(iter(layout))  # checked first, so its dtype is every other's
    for name, shape in layout.items():
        if name not in params:
            raise ConfigError(f"array {name!r} of {owner} is missing")
        array = params[name]
        if array.shape != shape:
            raise ConfigError(f"array {name!r} has shape {array.shape}, {owner} needs {shape}")
        if array.dtype not in (np.float32, np.float64):
            raise ConfigError(f"array {name!r} of {owner} is {array.dtype}, not float32 or float64")
        if array.dtype != params[first].dtype:
            raise ConfigError(f"array {name!r} of {owner} is {array.dtype}, unlike {first!r}")
