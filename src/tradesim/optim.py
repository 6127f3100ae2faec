"""Numerics shared by the LSTM and PPO trainers: adaptive-moment gradient
updates, global-norm clipping and the logistic sigmoid.

Parameters and gradients travel as name -> ndarray dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|.

    Both branches are evaluated on the whole array and `where` picks one per
    element, so there is no boolean gather/scatter; each element gets the same
    bits as 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below. NaN stays NaN.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)
