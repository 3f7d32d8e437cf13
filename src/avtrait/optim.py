"""Adam with bias correction, and MAE loss.

The recipe's decays and epsilon are the constants BETA1 0.5, BETA2 0.999
and EPSILON 1e-8: nothing varies them, so no checkpoint records them. The
step size alpha, 2e-4 by default (AdamState's), is the one setting; its
step-decay schedule is `train.TrainConfig.alpha_for_epoch`.

`adam_step` updates one tensor at a time, so it can take each gradient as
a walk such as `model.backward` or `rnn_head.rnn_backward` hands it over
and drop it before the next is formed. Each update is written over its
gradient, so the only scratch is two blocks, which live in the AdamState
beside the moments and are made with them by `init_adam`: an update
allocates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import ShapeMismatchError


BETA1 = 0.5
BETA2 = 0.999
EPSILON = 1e-8


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or inf; message names the parameter."""


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the shared step count.

    `scratch` holds the update's two block temporaries (`_scratch`), made by
    init_adam, or at the first update for a state built from saved moments;
    no checkpoint keeps it.
    """

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    alpha: float = 2e-4
    scratch: tuple = field(default=(), init=False, repr=False, compare=False)


# Elements per block of an update. One block of each operand it touches
# (gradient, both moments and the two scratch temporaries: 640 KB at
# float32) stays in a core's L2 cache through the block's 16 elementwise
# passes. On x86 cores with 2 MB of L2, 2**15 was the fastest power of two
# from 2**12 to 2**17 over the 4.2M-parameter recurrent head.
ADAM_BLOCK = 1 << 15


def check_alpha(alpha) -> None:
    """Reject a step size that would make Adam's updates meaningless."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def init_adam(params: dict, trainable, alpha=AdamState.alpha) -> AdamState:
    check_alpha(alpha)
    state = AdamState(alpha=alpha)
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

    |m_hat| / sqrt(v_hat) <= sqrt((1 - BETA1) / (1 - BETA2)) by
    Cauchy-Schwarz over the gradient history, so no element ever moves
    further than alpha times that (~22.4 alpha).
    """
    return state.alpha * math.sqrt((1.0 - BETA1) / (1.0 - BETA2))


def _flat(moment: np.ndarray, name: str) -> np.ndarray:
    if not moment.flags.c_contiguous:
        raise ValueError(f"Adam moment for {name!r} must be C-contiguous to be updated in place")
    return moment.reshape(-1)


def _scratch(state: AdamState):
    """Two block temporaries in the moments' dtype, as long as the largest
    tracked tensor up to ADAM_BLOCK, made once."""
    if not state.scratch:
        n = max((m.size for m in state.m.values()), default=0)
        dtype = np.result_type(*{m.dtype for m in state.m.values()}) if state.m else np.float64
        block = min(n, ADAM_BLOCK)
        state.scratch = (np.empty(block, dtype), np.empty(block, dtype))
    return state.scratch


def _checked_update(name: str, p: np.ndarray, g: np.ndarray, state: AdamState, bc1: float, bc2: float, bound: float) -> None:
    """Advance one tensor's moments in place, then subtract its update from
    p once every block has passed the bound check.

    Each block's update is formed in the two block temporaries, checked
    while the gradient block is still intact, and then copied over it, so
    the gradient ends as the update. A gradient that cannot hold it (of
    another dtype than the moments, or read-only) gets an update buffer of
    its own, as does a non-contiguous one through its flattened copy.
    """
    m = _flat(state.m[name], name)
    v = _flat(state.v[name], name)
    g = g.reshape(-1)
    tg, tu = _scratch(state)
    u_dtype = np.result_type(m, v)
    if (tg.dtype, tu.dtype) == (g.dtype, u_dtype) and g.flags.writeable:
        u = g
    else:
        # a tensor unlike the rest computes in its own dtypes, as it would alone
        block = min(m.size, ADAM_BLOCK)
        u, tg, tu = np.empty(m.size, u_dtype), np.empty(block, np.result_type(g, 1.0)), np.empty(block, u_dtype)
    for lo in range(0, g.size, ADAM_BLOCK):
        blk = slice(lo, lo + ADAM_BLOCK)
        gb, mb, vb = g[blk], m[blk], v[blk]
        t_g, t_u = tg[: gb.size], tu[: gb.size]
        mb *= BETA1
        mb += np.multiply(1.0 - BETA1, gb, out=t_g)
        vb *= BETA2
        vb += np.multiply(1.0 - BETA2, np.multiply(gb, gb, out=t_g), out=t_g)
        # the update goes to t_u over the gradient, or straight to its own buffer
        ub, t_d = (t_u, t_g) if u is g else (u[blk], t_u)
        np.multiply(state.alpha, np.divide(mb, bc1, out=ub), out=ub)
        np.divide(ub, np.add(np.sqrt(np.divide(vb, bc2, out=t_d), out=t_d), EPSILON, out=t_d), out=ub)
        peak = float(np.abs(ub, out=t_d).max())
        # a NaN or infinite gradient entry makes its update NaN, so only a
        # block that fails the bound can hold one
        if not peak <= bound:
            if not np.all(np.isfinite(gb)):
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
            raise FloatingPointError(f"update for {name!r} exceeded its bound ({peak:g} > {bound:g})")
        if u is g:
            gb[...] = ub
    p -= u.reshape(p.shape)


def adam_step(params: dict, grads, state: AdamState):
    """One bias-corrected Adam step, in place, over every tracked parameter.

    `grads` is a mapping {name: gradient}, taken in sorted name order, or a
    walk: a function that calls the `update(name, gradient)` it is given
    once per tracked tensor, such as functools.partial(model.backward, tape,
    dpred). Each tensor is updated when its gradient is handed over. A
    mapping's untracked names are ignored, and one that lacks a tracked
    name raises KeyError before anything changes. A walk's untracked or
    repeated name raises KeyError, as does a tracked tensor that got no
    gradient by the end of the walk. The step count advances once. Returns
    what the walk returns, and None for a mapping.

    The gradients are consumed: each one handed over, from a mapping or a
    walk, is overwritten with its tensor's update where it is a writeable
    C-contiguous array of the moments' dtype, whether or not the step
    succeeds. A caller that reads a gradient afterwards passes a copy.

    Each tensor goes in blocks of ADAM_BLOCK elements. Every elementwise
    operation has the operands, order and dtypes of the one-expression form
        m = BETA1 m + (1 - BETA1) g,  v = BETA2 v + (1 - BETA2) g^2,
        p -= alpha (m / bc1) / (sqrt(v / bc2) + EPSILON),
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
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
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

    result = None
    if callable(grads):
        result = grads(update)
    else:
        for name in sorted(pending):
            update(name, grads[name])
    if pending:
        raise _missing(pending)
    return result


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
