"""Adam with bias correction, the step-decay learning-rate schedule, and MAE loss.

Defaults follow the training recipe: alpha 2e-4, beta1 0.5, beta2 0.999,
epsilon 1e-8, alpha divided by 10 after every 300 epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import ShapeMismatchError


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or inf; message names the parameter."""


@dataclass
class LrSchedule:
    initial_alpha: float = 2e-4
    decay_factor: float = 10.0
    period: int = 300

    def alpha_for_epoch(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        return self.initial_alpha / self.decay_factor ** (epoch // self.period)


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the shared step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: dict, trainable, alpha=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8) -> AdamState:
    state = AdamState(alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon)
    for name in trainable:
        p = params[name]
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def update_bound(state: AdamState) -> float:
    """Provable cap on any single Adam update magnitude.

    |m_hat| / sqrt(v_hat) <= sqrt((1 - beta1) / (1 - beta2)) by
    Cauchy-Schwarz over the gradient history, so no element ever moves
    further than alpha times that (~22.4 alpha for beta1=0.5, beta2=0.999).
    """
    return state.alpha * math.sqrt((1.0 - state.beta1) / (1.0 - state.beta2))


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over every tracked parameter."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    bound = update_bound(state) * (1.0 + 1e-6)
    for name in sorted(state.m):
        if name not in grads:
            raise KeyError(f"gradient missing for parameter {name!r}")
        g = grads[name]
        if g.shape != params[name].shape:
            raise ShapeMismatchError(f"gradient for {name}", g.shape, params[name].shape)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        peak = float(np.max(np.abs(update))) if update.size else 0.0
        if peak > bound:
            raise FloatingPointError(f"update for {name!r} exceeded its bound ({peak:g} > {bound:g})")
        params[name] -= update


def mae_loss(pred: np.ndarray, target: np.ndarray):
    """Mean absolute error over all entries; returns (loss, dL/dpred).

    The subgradient at zero is taken to be 0.
    """
    if pred.shape != target.shape:
        raise ShapeMismatchError("mae_loss", pred.shape, target.shape)
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(target))):
        raise FloatingPointError("mae_loss requires finite inputs")
    diff = pred - target
    loss = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(pred.dtype, copy=False)
