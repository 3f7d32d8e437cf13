"""Adam with bias correction, and MAE loss.

AdamState's defaults are the training recipe's: alpha 2e-4, beta1 0.5,
beta2 0.999, epsilon 1e-8; every other default of these four is read from
it. The step-decay schedule of alpha is `train.TrainConfig.alpha_for_epoch`.

`adam_step` updates one tensor at a time, so it can take each gradient as
a walk such as `model.backward` hands it over and drop it before the next
is formed. The update's scratch lives in the AdamState beside the moments
and is made with them by `init_adam`, so an update allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import ShapeMismatchError


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or inf; message names the parameter."""


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the shared step count.

    `scratch` holds the update's buffers (`_scratch`), made by init_adam, or
    at the first update for a state built from saved moments; no checkpoint
    keeps it.
    """

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: tuple = field(default=(), init=False, repr=False, compare=False)


# Elements per block of an update. One block of each operand it touches
# (gradient, both moments, the update and the two scratch temporaries: 768 KB
# at float32) stays in a core's L2 cache through the block's 15 elementwise
# passes. On x86 cores with 2 MB of L2, 2**15 was the fastest power of two
# from 2**12 to 2**17 over the 4.2M-parameter recurrent head.
ADAM_BLOCK = 1 << 15


def check_adam_hyperparameters(alpha, beta1=AdamState.beta1, beta2=AdamState.beta2, epsilon=AdamState.epsilon) -> None:
    """Reject a step size, decay or epsilon that would make Adam's updates meaningless."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {beta}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def init_adam(
    params: dict, trainable, alpha=AdamState.alpha, beta1=AdamState.beta1, beta2=AdamState.beta2, epsilon=AdamState.epsilon
) -> AdamState:
    check_adam_hyperparameters(alpha, beta1, beta2, epsilon)
    state = AdamState(alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon)
    for name in trainable:
        p = params[name]
        state.m[name] = np.zeros(p.shape, p.dtype)
        state.v[name] = np.zeros(p.shape, p.dtype)
    # made here, before any step's backward, so that no step's peak is the
    # first to hold it
    _scratch(state)
    return state


def update_bound(state: AdamState) -> float:
    """Provable cap on any single Adam update magnitude.

    |m_hat| / sqrt(v_hat) <= sqrt((1 - beta1) / (1 - beta2)) by
    Cauchy-Schwarz over the gradient history, so no element ever moves
    further than alpha times that (~22.4 alpha for beta1=0.5, beta2=0.999).
    """
    return state.alpha * math.sqrt((1.0 - state.beta1) / (1.0 - state.beta2))


def _flat(moment: np.ndarray, name: str) -> np.ndarray:
    if not moment.flags.c_contiguous:
        raise ValueError(f"Adam moment for {name!r} must be C-contiguous to be updated in place")
    return moment.reshape(-1)


def _scratch(state: AdamState):
    """(update buffer, gradient block, update block) in the moments' dtype,
    sized for the largest tracked tensor and made once."""
    if not state.scratch:
        n = max((m.size for m in state.m.values()), default=0)
        dtype = np.result_type(*{m.dtype for m in state.m.values()}) if state.m else np.float64
        block = min(n, ADAM_BLOCK)
        state.scratch = (np.empty(n, dtype), np.empty(block, dtype), np.empty(block, dtype))
    return state.scratch


def _checked_update(name: str, p: np.ndarray, g: np.ndarray, state: AdamState, bc1: float, bc2: float, bound: float) -> None:
    """Advance one tensor's moments in place, then subtract its update,
    written block by block into the scratch, from p once every block has
    passed the bound check."""
    beta1, beta2, alpha, epsilon = state.beta1, state.beta2, state.alpha, state.epsilon
    m = _flat(state.m[name], name)
    v = _flat(state.v[name], name)
    g = g.reshape(-1)
    u, tg, tu = _scratch(state)
    g_dtype, u_dtype = np.result_type(g, 1.0), np.result_type(m, v)
    if (tg.dtype, u.dtype) != (g_dtype, u_dtype):
        # a tensor unlike the rest computes in its own dtypes, as it would alone
        block = min(m.size, ADAM_BLOCK)
        u, tg, tu = np.empty(m.size, u_dtype), np.empty(block, g_dtype), np.empty(block, u_dtype)
    u = u[: m.size]
    for lo in range(0, g.size, ADAM_BLOCK):
        blk = slice(lo, lo + ADAM_BLOCK)
        gb, mb, vb, ub = g[blk], m[blk], v[blk], u[blk]
        t_g, t_u = tg[: gb.size], tu[: gb.size]
        mb *= beta1
        mb += np.multiply(1.0 - beta1, gb, out=t_g)
        vb *= beta2
        vb += np.multiply(1.0 - beta2, np.multiply(gb, gb, out=t_g), out=t_g)
        np.multiply(alpha, np.divide(mb, bc1, out=ub), out=ub)
        np.divide(ub, np.add(np.sqrt(np.divide(vb, bc2, out=t_u), out=t_u), epsilon, out=t_u), out=ub)
        peak = float(np.abs(ub, out=t_u).max())
        # a NaN or infinite gradient entry makes its update NaN, so only a
        # block that fails the bound can hold one
        if not peak <= bound:
            if not np.all(np.isfinite(gb)):
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
            raise FloatingPointError(f"update for {name!r} exceeded its bound ({peak:g} > {bound:g})")
    p -= u.reshape(p.shape)


def adam_step(params: dict, grads, state: AdamState) -> None:
    """One bias-corrected Adam step, in place, over every tracked parameter.

    `grads` is a mapping {name: gradient}, taken in sorted name order, or a
    walk: a function that calls the `update(name, gradient)` it is given
    once per tracked tensor, such as functools.partial(model.backward, tape,
    dpred). Each tensor is updated when its gradient is handed over. A
    mapping's untracked names are ignored, and one that lacks a tracked
    name raises KeyError before anything changes. A walk's untracked or
    repeated name raises KeyError, as does a tracked tensor that got no
    gradient by the end of the walk. The step count advances once.

    Each tensor goes in blocks of ADAM_BLOCK elements. Every elementwise
    operation has the operands, order and dtypes of the one-expression form
        m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g^2,
        p -= alpha (m / bc1) / (sqrt(v / bc2) + epsilon),
    so the result is bitwise that form's, whatever the order of tensors.

    Failures are per tensor. A tensor whose gradient is not finite, or
    whose update is NaN or beyond the bound, raises an error that names it
    and keeps its parameter unchanged; its moments are not restored.
    Tensors already updated in the step, and the step count, stay advanced.
    """
    pending = set(state.m)
    if not callable(grads) and pending - grads.keys():
        raise _missing(pending - grads.keys())
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    bound = update_bound(state) * (1.0 + 1e-6)

    def update(name: str, g: np.ndarray) -> None:
        if name not in pending:
            raise KeyError(f"gradient for {name!r} is untracked or was already handed over in this step")
        if g.shape != params[name].shape:
            raise ShapeMismatchError(f"gradient for {name}", g.shape, params[name].shape)
        pending.remove(name)
        # inf / inf is how a non-finite gradient shows in its update
        with np.errstate(invalid="ignore"):
            _checked_update(name, params[name], g, state, bc1, bc2, bound)

    if callable(grads):
        grads(update)
    else:
        for name in sorted(pending):
            update(name, grads[name])
    if pending:
        raise _missing(pending)


def _missing(names) -> KeyError:
    return KeyError(f"gradient missing for parameter {', '.join(map(repr, sorted(names)))}")


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
