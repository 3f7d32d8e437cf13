"""Differentiable layer primitives: forward passes paired with exact adjoints.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache plus the upstream gradient and returns gradients with the exact
shapes of the values they differentiate. All functions are pure given
explicit state arguments, except ``batchnorm_forward`` in train mode,
which updates the running statistics in place (single writer: the
training loop).

1-d layers (audio) and 2-d layers (images) share one N-d windowing core,
``_windows``: it pads the input once and views it as ``(B, C, *out,
*kernel)`` sliding windows. Convolution copies that view into channel-major
columns, ``cols`` of shape ``(B, Cin * prod(kernel), prod(out))``, so one
product with the flattened weight gives ``(B, Cout, *out)`` directly;
pooling takes a running maximum over the kernel offsets.

Both convolution directions work in slices of b batch samples whose
columns take at most ``COLUMN_BYTES`` (``_slice_samples``), or of one
sample; every eval call fits in one slice. A training tape keeps layer
inputs, not columns: the convolution cache is the list ``[x, w, spec]``.
Convolution backward takes one of two forms. With unit strides and padding
below the kernel, the transpose is a full correlation with the flipped
kernel: one build of grad_out's columns, laid out ``(Cout * prod(kernel),
b * prod(x))``, gives dx as one product per sample and ``dw`` as one
product with x per slice. Any other convolution rebuilds x's columns, laid
out ``(Cin * prod(kernel), b * prod(out))``, for one ``dw`` product per
slice and, like max pooling, forms dx by adding window gradients into a
window view of a zero buffer, one kernel offset at a time. In both forms
dx is bitwise equal across slice sizes and ``dw`` is not. Batch norm
caches x-hat, gamma and the batch's inverse deviation, and forms its input
gradient from the two parameter gradients.

A train-mode tape keeps each activation once. Where a rectifier follows a
batch norm, its output relu(gamma * x-hat + beta) is not kept: backward
rebuilds it from the batch norm's cache (``batchnorm_relu``) with the
products the forward used, so the rebuild is bitwise equal, and hands it to
``relu_backward``. gamma and beta must therefore not change between
a forward and its backward, as a convolution's input must not.

Eval mode folds each batch norm into the convolution before it
(``fold_batchnorm``, ``fold_block``). A folded residual block runs in eval
mode, as convolutions and in-place rectifiers only, and keeps no cache; any
other block trains. Every shape check raises ``ShapeMismatchError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatchError(ValueError):
    """Operand shapes do not line up; message reports both shapes."""

    def __init__(self, what: str, a_shape, b_shape):
        self.a_shape = tuple(a_shape)
        self.b_shape = tuple(b_shape)
        super().__init__(f"{what}: shapes {self.a_shape} vs {self.b_shape}")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a convolution or pooling layer.

    `kernel`, `stride` and `padding` hold one extent for 1-d specs and two
    for 2-d specs. Channel counts are ignored by pooling.
    """

    kernel: tuple
    stride: tuple
    padding: tuple
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        k = _as_tuple(self.kernel)
        s = _as_tuple(self.stride)
        p = _as_tuple(self.padding)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "stride", s)
        object.__setattr__(self, "padding", p)
        if not (len(k) == len(s) == len(p)) or len(k) not in (1, 2):
            raise ValueError(f"spec ranks disagree: kernel {k}, stride {s}, padding {p}")
        if any(v < 1 for v in k + s) or any(v < 0 for v in p):
            raise ValueError(f"bad conv spec: kernel {k}, stride {s}, padding {p}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")

    @property
    def ndim(self) -> int:
        return len(self.kernel)


def _as_tuple(v) -> tuple:
    if isinstance(v, (tuple, list)):
        return tuple(int(x) for x in v)
    return (int(v),)


def out_extent(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


def _check_out_extents(spatial, spec: ConvSpec):
    outs = tuple(
        out_extent(L, k, s, p)
        for L, k, s, p in zip(spatial, spec.kernel, spec.stride, spec.padding)
    )
    if any(o < 1 for o in outs):
        raise ValueError(
            f"output extent < 1 for input {tuple(spatial)} with spec "
            f"kernel={spec.kernel} stride={spec.stride} padding={spec.padding}"
        )
    return outs


def _windows(shape, spec: ConvSpec, fill, dtype, x=None):
    """Pad once and view the padded buffer as sliding windows.

    Allocates the input `shape` grown by `spec.padding` on both sides,
    filled with `fill`, and copies `x` into its interior when given.
    Returns (interior, windows), two writeable views of that one buffer:
    `interior` is the unpadded region and `windows` has shape
    (B, C, *out, *kernel) with ``windows[b, c, *o, *k] ==
    padded[b, c, *(o * stride + k)]``. Reading `windows` gathers; adding
    into ``windows[..., *k]`` one kernel offset at a time and reading
    `interior` is its adjoint, since one offset never maps two outputs to
    the same element.
    """
    spatial = shape[2:]
    outs = _check_out_extents(spatial, spec)
    buf = np.full(shape[:2] + tuple(n + 2 * p for n, p in zip(spatial, spec.padding)), fill, dtype=dtype)
    interior = buf[(slice(None), slice(None)) + tuple(slice(p, p + n) for n, p in zip(spatial, spec.padding))]
    if x is not None:
        interior[...] = x
    st = buf.strides
    windows = as_strided(
        buf,
        shape=shape[:2] + outs + spec.kernel,
        strides=st[:2] + tuple(s * t for s, t in zip(spec.stride, st[2:])) + st[2:],
    )
    return interior, windows


def _axes(first: int, n: int) -> tuple:
    return tuple(range(first, first + n))


# ---------------------------------------------------------------------------
# convolution (cross-correlation, zero padding)

# conv_forward and conv_backward build columns for a few batch samples at a
# time: at most this many bytes of them, and at least one sample. glibc
# serves a buffer of this size from its heap again on the next call, where a
# whole-batch one (59 MB for the visual stem at batch 8) is mapped afresh and
# page-faulted every time. On a 2-core x86-64 VM this made the batch-8 stem
# backward about a quarter faster than whole-batch columns, and its forward
# as much (32 -> 25 ms); 4 and 16 MB were no better than 8.
# conv_backward slices by the columns it builds: grad_out's for a unit-stride
# convolution, x's for any other. conv_forward's slices and both forms of
# dx are bitwise equal to one whole-batch pass, since each sample has its
# own product, but conv_backward sums its slices' dw products, which rounds
# differently: with one-sample slices, 1336 of the 4608 elements of one
# mini-network weight gradient moved by up to 4.5e-08. Changing this value
# or the slice rule therefore moves trained parameters in their last bits.
COLUMN_BYTES = 8 << 20


def _slice_samples(sample_bytes: int) -> int:
    """Batch samples per slice when one sample's columns take `sample_bytes`."""
    return max(1, COLUMN_BYTES // sample_bytes)


def _columns(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """x's columns as (C * prod(kernel), B * prod(out)), for conv_backward.

    The strided form multiplies the input's columns by the output gradient
    for dw; the unit-stride form builds the padded output gradient's, whose
    windows cover the input's positions, for both dx and dw.
    """
    nd = spec.ndim
    _, win = _windows(x.shape, spec, 0.0, x.dtype, x)
    # copied in (C, *kernel, B, *out) order, the buffer is the column matrix
    return np.ascontiguousarray(win.transpose((1,) + _axes(2 + nd, nd) + (0,) + _axes(2, nd))).reshape(x.shape[1] * math.prod(spec.kernel), -1)


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec):
    """Cross-correlate x with w and add the per-channel bias.

    x: (B, Cin, L) for 1-d specs or (B, Cin, H, W) for 2-d specs.
    w: (Cout, Cin, *kernel). Returns (y, cache). The columns are built and
    multiplied one batch slice of at most COLUMN_BYTES (or one sample) at a
    time, each slice's product written into its rows of y. The cache is
    the list [x, w, spec]: the columns are a transient of this call, and
    conv_backward reads x again, which must not change before it runs. A
    caller that can rebuild x may drop ``cache[0]`` after this call and
    put x back before conv_backward, passing the same list.
    """
    if x.ndim != spec.ndim + 2:
        raise ShapeMismatchError("conv input rank", x.shape, ("B", spec.in_channels) + spec.kernel)
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatchError("conv input channels", x.shape, (x.shape[0], spec.in_channels) + x.shape[2:])
    if w.shape != (spec.out_channels, spec.in_channels) + spec.kernel:
        raise ShapeMismatchError("conv weight", w.shape, (spec.out_channels, spec.in_channels) + spec.kernel)
    if b.shape != (spec.out_channels,):
        raise ShapeMismatchError("conv bias", b.shape, (spec.out_channels,))

    nd = spec.ndim
    B = x.shape[0]
    _, win = _windows(x.shape, spec, 0.0, x.dtype, x)
    outs = win.shape[2 : 2 + nd]
    wf = w.reshape(spec.out_channels, -1)
    K, P = wf.shape[1], math.prod(outs)
    # Copy kernel-offset-major (b, C, *kernel, *out): that buffer already is
    # cols, one row per (channel, *kernel) and one column per window, and
    # the weight product comes out channel-major with no transpose.
    order = (0, 1) + _axes(2 + nd, nd) + _axes(2, nd)
    step = _slice_samples(K * P * x.itemsize)
    y = np.empty((B, spec.out_channels, P), np.result_type(w, x))
    for lo in range(0, B, step):
        cols = np.ascontiguousarray(win[lo : lo + step].transpose(order)).reshape(-1, K, P)
        np.matmul(wf, cols, out=y[lo : lo + step])
        del cols  # before the next slice's columns are built
    y += b[:, None]
    return y.reshape((B, spec.out_channels) + outs), [x, w, spec]


def conv_backward(cache, grad_out: np.ndarray):
    """Exact adjoint of conv_forward; returns (dw, db, dx).

    Works in batch slices of at most COLUMN_BYTES of columns. A convolution
    whose strides are all 1 and whose padding is below its kernel on every
    axis takes both gradients from one build of grad_out's columns (see
    `_unit_stride_grads`). Any other has a slice's dw as the product of
    the output gradient with x's rebuilt columns, and adds each kernel
    offset's window gradients into a window view of dx's zero buffer.
    dx is bitwise equal across slice sizes; dw, a sum of the slices'
    products, is not.
    """
    x, w, spec = cache
    outs = _check_out_extents(x.shape[2:], spec)
    B, Cin, Cout = x.shape[0], spec.in_channels, spec.out_channels
    expect = (B, Cout) + outs
    if grad_out.shape != expect:
        raise ShapeMismatchError("conv grad_out", grad_out.shape, expect)

    g = grad_out.reshape(B, Cout, -1)
    db = g.sum(axis=(0, 2))
    if all(s == 1 for s in spec.stride) and all(p < k for p, k in zip(spec.padding, spec.kernel)):
        dw, dx = _unit_stride_grads(x, w, grad_out, spec)
        return dw, db, dx
    wf = w.reshape(Cout, -1)
    dw = np.zeros(wf.shape, np.result_type(grad_out, x))
    dx, dx_win = _windows(x.shape, spec, 0.0, np.result_type(w, grad_out))
    step = _slice_samples(wf.shape[1] * g.shape[2] * x.itemsize)
    for lo in range(0, B, step):
        sl = slice(lo, lo + step)
        # One product sums over the slice's samples. The columns are freed
        # with this statement, before the window gradients are allocated:
        # holding both let glibc hand the heap back to the system and fault
        # it in again on every call, which tripled the miniature audio
        # stem's backward time.
        dw += np.matmul(_columns(x[sl], spec), g[sl].transpose(1, 0, 2).reshape(Cout, -1).T).T
        # window gradients as (b, Cin, *kernel, *out): one block per offset
        dwin = np.matmul(wf.T, g[sl]).reshape((-1, Cin) + spec.kernel + outs)
        dxw = dx_win[sl]
        for k in np.ndindex(spec.kernel):
            dxw[(Ellipsis,) + k] += dwin[(slice(None), slice(None)) + k]
    return dw.reshape(w.shape), db, dx


def _unit_stride_grads(x, w, grad_out, spec: ConvSpec):
    """(dw, dx) of a stride-1 convolution with padding below its kernel.

    Such a convolution's transpose is a full correlation with the flipped
    kernel: padded by kernel - 1 - padding on each side, grad_out has
    windows over exactly x's positions, and its columns at position i,
    offset m meet x[i] and w[..., kernel - 1 - m]. So one build of those
    columns per slice, laid out (Cout * prod(kernel), b * prod(x)), gives
    dx as one product per sample with the flipped, channel-transposed
    weight, and dw flipped as their product with x.
    """
    nd, B, Cin, Cout = spec.ndim, x.shape[0], spec.in_channels, spec.out_channels
    flip = (slice(None),) + (slice(None, None, -1),) * nd
    # rows (c), columns (o, *m) holding w[o, c, *(kernel - 1 - m)]
    wt = np.ascontiguousarray(w[(slice(None),) + flip].swapaxes(0, 1)).reshape(Cin, -1)
    gspec = replace(spec, padding=tuple(k - 1 - p for k, p in zip(spec.kernel, spec.padding)),
                    in_channels=Cout, out_channels=Cin)
    P = math.prod(x.shape[2:])
    dx = np.empty((B, Cin, P), np.result_type(w, grad_out))
    dwt = np.zeros((wt.shape[1], Cin), np.result_type(grad_out, x))
    step = _slice_samples(wt.shape[1] * P * grad_out.itemsize)
    for lo in range(0, B, step):
        sl = slice(lo, lo + step)
        xs = x[sl].reshape(-1, Cin, P)
        b = xs.shape[0]
        xs = xs.transpose(1, 0, 2).reshape(Cin, -1)  # (Cin, b * prod(x)), a copy
        cols = _columns(grad_out[sl], gspec)
        dwt += cols @ xs.T
        del xs
        # one product per sample, so dx does not depend on the slice size
        np.matmul(wt, cols.reshape(-1, b, P).transpose(1, 0, 2), out=dx[sl])
        del cols  # before the next slice's columns are built
    # dwt[(o, *m), c] is dw[o, c, *(kernel - 1 - m)]
    dw = np.moveaxis(dwt.reshape((Cout,) + spec.kernel + (Cin,))[flip], -1, 1)
    return np.ascontiguousarray(dw), dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# batch normalization

@dataclass
class BatchNormState:
    """Per-channel affine parameters and running statistics.

    running_* are updated in place during train-mode forwards with
    running <- momentum * running + (1 - momentum) * batch.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    epsilon: float = 1e-5

    def __post_init__(self):
        c = self.gamma.shape
        if not (self.beta.shape == self.running_mean.shape == self.running_var.shape == c) or len(c) != 1:
            raise ShapeMismatchError("batchnorm state extents", self.gamma.shape, self.beta.shape)
        if not 0.0 < self.momentum < 1.0 or self.epsilon <= 0.0:
            raise ValueError("momentum must be in (0,1) and epsilon positive")


def _bn_axes(x):
    return (0,) + tuple(range(2, x.ndim))


def _bn_bcast(v, ndim):
    return v.reshape((1, -1) + (1,) * (ndim - 2))


def batchnorm_forward(x: np.ndarray, state: BatchNormState, mode: str):
    """Normalize per channel over (batch, spatial) axes.

    Train mode uses batch statistics and updates the running ones; eval
    mode reads the running statistics and mutates nothing.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    C = state.gamma.shape[0]
    if x.ndim < 2 or x.shape[1] != C:
        raise ShapeMismatchError("batchnorm channels", x.shape, (C,))
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
        xhat = (x - _bn_bcast(state.running_mean, x.ndim)) * _bn_bcast(inv_std, x.ndim)
        y = _bn_bcast(state.gamma, x.ndim) * xhat + _bn_bcast(state.beta, x.ndim)
        return y.astype(x.dtype, copy=False), None

    n = x.size // C
    if n < 2:
        raise ValueError(f"train-mode batchnorm needs >= 2 elements per channel, got {n}")
    axes = _bn_axes(x)
    mean = x.mean(axis=axes)
    # x.var(axis=axes) is this same subtraction, square and mean; keeping
    # the difference lets it become x-hat in place, and y reuses the squares
    xhat = x - _bn_bcast(mean, x.ndim)
    y = np.square(xhat)
    var = y.mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + state.epsilon)
    xhat *= _bn_bcast(inv_std, x.ndim)
    _scale_shift(xhat, state.gamma, state.beta, y)

    m = state.momentum
    state.running_mean[...] = m * state.running_mean + (1.0 - m) * mean
    state.running_var[...] = m * state.running_var + (1.0 - m) * var
    return y, (xhat, inv_std, state.gamma, n)


def _scale_shift(xhat, gamma, beta, out):
    """gamma * xhat + beta per channel, written into out (xhat's shape and dtype)."""
    np.multiply(xhat, _bn_bcast(gamma, xhat.ndim), out=out)
    out += _bn_bcast(beta, xhat.ndim)
    return out


def batchnorm_relu(cache, beta, out):
    """relu(gamma * xhat + beta) from a train-mode batchnorm cache, written into out.

    Bitwise equal to relu_forward of the batchnorm_forward output that made
    the cache, provided gamma (which the cache holds) and beta have not
    changed since; out has x-hat's shape and dtype and may be a view.
    """
    xhat, _, gamma, _ = cache
    return np.maximum(_scale_shift(xhat, gamma, beta, out), 0, out=out)


def fold_batchnorm(w: np.ndarray, b: np.ndarray, state: BatchNormState):
    """Fold eval-mode batch norm into the convolution before it.

    Returns (w * s, (b - running_mean) * s + beta) with s = gamma /
    sqrt(running_var + epsilon) per output channel, so conv_forward with
    the folded pair equals conv_forward then batchnorm_forward(..., "eval")
    up to rounding.
    """
    if state.gamma.shape != (w.shape[0],):
        raise ShapeMismatchError("folded batchnorm channels", state.gamma.shape, (w.shape[0],))
    s = state.gamma / np.sqrt(state.running_var + state.epsilon)
    return w * s.reshape((-1,) + (1,) * (w.ndim - 1)), (b - state.running_mean) * s + state.beta


def batchnorm_backward(cache, grad_out: np.ndarray):
    """Train-mode adjoint including the batch-statistics dependence.

    Returns (dgamma, dbeta, dx).
    """
    if cache is None:
        raise ValueError("no cache: eval-mode batchnorm has no backward")
    xhat, inv_std, gamma, n = cache
    if grad_out.shape != xhat.shape:
        raise ShapeMismatchError("batchnorm grad_out", grad_out.shape, xhat.shape)
    axes = _bn_axes(grad_out)
    nd = grad_out.ndim
    dbeta = grad_out.sum(axis=axes)
    dx = grad_out * xhat
    dgamma = dx.sum(axis=axes)
    # With dxhat = gamma * g, mean(dxhat) = gamma * dbeta / n and
    # mean(dxhat * xhat) = gamma * dgamma / n, so
    # dx = gamma * inv_std * (g - dbeta / n - xhat * dgamma / n).
    np.multiply(xhat, _bn_bcast(-dgamma / n, nd), out=dx)
    dx += grad_out
    dx -= _bn_bcast(dbeta / n, nd)
    dx *= _bn_bcast(gamma * inv_std, nd)
    return dgamma, dbeta, dx


# ---------------------------------------------------------------------------
# pooling

def maxpool_forward(x: np.ndarray, spec: ConvSpec):
    """Per-window maximum with -inf padding semantics.

    Returns (y, cache). The cache is (windows, y, x.shape, spec): the
    window view of x's -inf padded copy, about x's size, and y itself, so
    the backward pass can find each window's maximum again.
    """
    if x.ndim != spec.ndim + 2:
        raise ShapeMismatchError("maxpool input rank", x.shape, spec.kernel)
    if any(p >= k for p, k in zip(spec.padding, spec.kernel)):
        raise ValueError("maxpool padding must be < kernel so every window sees data")

    _, win = _windows(x.shape, spec, -np.inf, x.dtype, x)
    offsets = list(np.ndindex(spec.kernel))
    y = win[(Ellipsis,) + offsets[0]].copy()
    for k in offsets[1:]:
        np.maximum(y, win[(Ellipsis,) + k], out=y)
    return y, (win, y, x.shape, spec)


def relu_pool_cache(bn_cache, beta, y, spec: ConvSpec):
    """Rebuild the maxpool_forward cache of a pool over relu(gamma * xhat + beta).

    For a tape that kept only the batch norm's cache and the pool output y:
    the rectifier output is written by batchnorm_relu straight into the
    interior of a -inf padded buffer, as maxpool_forward pads its input.
    Returns (that interior, the cache for maxpool_backward).
    """
    xhat = bn_cache[0]
    interior, win = _windows(xhat.shape, spec, -np.inf, xhat.dtype)
    batchnorm_relu(bn_cache, beta, interior)
    return interior, (win, y, xhat.shape, spec)


def maxpool_backward(cache, grad_out: np.ndarray):
    """Route each output gradient to one input element that holds its window's maximum.

    Ties break toward the first kernel offset, i.e. the lowest linear
    index within the window.
    """
    win, y, x_shape, spec = cache
    if grad_out.shape != y.shape:
        raise ShapeMismatchError("maxpool grad_out", grad_out.shape, y.shape)
    dx, dx_win = _windows(x_shape, spec, 0.0, grad_out.dtype)
    pending = np.ones(y.shape, dtype=bool)  # outputs whose gradient is not routed yet
    for k in np.ndindex(spec.kernel):
        hit = win[(Ellipsis,) + k] == y
        hit &= pending
        pending ^= hit
        # a multiply beats add(where=): the mask is too irregular to branch on
        dx_win[(Ellipsis,) + k] += grad_out * hit
    return dx


def global_average_pool(x: np.ndarray):
    """Mean over every non-batch, non-channel axis; output (B, C).

    Defined for any spatial extent, which is what makes whole clips of
    arbitrary size processable.
    """
    if x.ndim < 3:
        raise ShapeMismatchError("global_average_pool input rank", x.shape, ("B", "C", "..."))
    n = int(np.prod(x.shape[2:]))
    if n < 1:
        raise ValueError("global_average_pool needs at least one spatial element")
    y = x.mean(axis=tuple(range(2, x.ndim)))
    return y, (x.shape, n)


def global_average_pool_backward(cache, grad_out: np.ndarray):
    x_shape, n = cache
    if grad_out.shape != x_shape[:2]:
        raise ShapeMismatchError("gap grad_out", grad_out.shape, x_shape[:2])
    g = (grad_out / n).reshape(x_shape[:2] + (1,) * (len(x_shape) - 2))
    return np.broadcast_to(g, x_shape).astype(grad_out.dtype, copy=True)


# ---------------------------------------------------------------------------
# dense head

def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x @ w + b for x (B, D), w (D, K), b (K,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatchError("linear", x.shape, w.shape)
    if b.shape != (w.shape[1],):
        raise ShapeMismatchError("linear bias", b.shape, (w.shape[1],))
    return x @ w + b, (x, w)


def linear_backward(cache, grad_out: np.ndarray):
    x, w = cache
    if grad_out.shape != (x.shape[0], w.shape[1]):
        raise ShapeMismatchError("linear grad_out", grad_out.shape, (x.shape[0], w.shape[1]))
    dw = x.T @ grad_out
    db = grad_out.sum(axis=0)
    dx = grad_out @ w.T
    return dw, db, dx


def scaled_tanh(z: np.ndarray):
    """(tanh(z) + 1) / 2: squashes into (0, 1), 0.5 at the origin.

    Evaluated as the equal logistic 1 / (1 + exp(-2z)) in float64 and
    returned in z's dtype. numpy's float64 tanh is not monotone where its
    kernel changes method at |z| = 8 (tanh(-8) > tanh(nextafter(-8, 0))),
    and float32 exp is not monotone either; float64 exp is. The cache is
    the output itself.
    """
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-2.0 * np.asarray(z, np.float64)))
    y = y.astype(z.dtype, copy=False)
    return y, y


def scaled_tanh_backward(cache, grad_out: np.ndarray):
    y = cache
    return grad_out * (2.0 * y * (1.0 - y))


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0)
    return y, y


def relu_backward(cache, grad_out: np.ndarray, out: Optional[np.ndarray] = None):
    """grad_out where the output y (the cache) is positive, else 0.

    y > 0 exactly where x > 0, NaN included. `out` may be grad_out itself,
    so that a caller still holding y allocates no product next to it.
    """
    return np.multiply(grad_out, cache > 0, out=out)


# ---------------------------------------------------------------------------
# residual block

@dataclass
class ResidualBlockParams:
    """Parameters for conv-BN-ReLU-conv-BN plus an identity or projection shortcut.

    bn1 and bn2 are None in a block from fold_block, whose convolutions
    already hold them; residual_block_forward runs such a block in eval
    mode.
    """

    kind: str  # "identity" | "projection"
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    bn1: Optional[BatchNormState]
    spec1: ConvSpec
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    bn2: Optional[BatchNormState]
    spec2: ConvSpec
    shortcut_w: Optional[np.ndarray] = None
    shortcut_b: Optional[np.ndarray] = None
    shortcut_spec: Optional[ConvSpec] = None

    def __post_init__(self):
        if self.kind not in ("identity", "projection"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "identity":
            s1 = self.spec1
            if s1.in_channels != self.spec2.out_channels or any(s != 1 for s in s1.stride):
                raise ValueError(
                    "identity shortcut requires matching channels and unit stride, got "
                    f"in={s1.in_channels} out={self.spec2.out_channels} stride={s1.stride}"
                )
        elif self.shortcut_w is None or self.shortcut_spec is None:
            raise ValueError("projection block needs shortcut conv parameters")


def fold_block(blk: ResidualBlockParams) -> ResidualBlockParams:
    """The block with eval-mode bn1 and bn2 folded into conv1 and conv2."""
    w1, b1 = fold_batchnorm(blk.conv1_w, blk.conv1_b, blk.bn1)
    w2, b2 = fold_batchnorm(blk.conv2_w, blk.conv2_b, blk.bn2)
    return replace(blk, conv1_w=w1, conv1_b=b1, bn1=None, conv2_w=w2, conv2_b=b2, bn2=None)


def residual_block_forward(x: np.ndarray, blk: ResidualBlockParams):
    """Main path conv-BN-ReLU-conv-BN, add shortcut, final ReLU.

    A block from fold_block runs in eval mode: batch norm is already in its
    convolutions, it rectifies in place and returns no cache. Any other
    block trains on batch statistics and updates its running ones. Its
    cache keeps x, bn1's and bn2's caches (x-hat 1 and x-hat 2) and the
    output y, which the next layer holds anyway; conv2's input relu(bn1) is
    dropped from conv2's cache and rebuilt by residual_block_backward, so
    bn1's gamma and beta must not change before it runs.
    """
    if blk.bn1 is None:
        r1, _ = conv_forward(x, blk.conv1_w, blk.conv1_b, blk.spec1)
        np.maximum(r1, 0, out=r1)
        y, _ = conv_forward(r1, blk.conv2_w, blk.conv2_b, blk.spec2)
        if blk.kind == "projection":
            y += conv_forward(x, blk.shortcut_w, blk.shortcut_b, blk.shortcut_spec)[0]
        else:
            y += x
        return np.maximum(y, 0, out=y), None
    # One name for the main path frees each transient once the next layer
    # has it: fewer heap holes for backward to grow around.
    h, c_conv1 = conv_forward(x, blk.conv1_w, blk.conv1_b, blk.spec1)
    h, c_bn1 = batchnorm_forward(h, blk.bn1, "train")
    h, _ = relu_forward(h)
    h, c_conv2 = conv_forward(h, blk.conv2_w, blk.conv2_b, blk.spec2)
    c_conv2[0] = None
    n2, c_bn2 = batchnorm_forward(h, blk.bn2, "train")
    del h
    if blk.kind == "projection":
        sc, c_sc = conv_forward(x, blk.shortcut_w, blk.shortcut_b, blk.shortcut_spec)
    else:
        sc, c_sc = x, None
    y, _ = relu_forward(n2 + sc)
    return y, (c_conv1, c_bn1, blk.bn1.beta, c_conv2, c_bn2, c_sc, y)


def residual_block_backward(cache, grad_out: np.ndarray):
    """Returns ({param name -> grad}, dx) for a residual block.

    Both rectifiers' backwards read their outputs: the final one reads y,
    and relu1 reads conv2's input, which is rebuilt from bn1's cache into
    conv2's cache for conv_backward and released after it.
    """
    if cache is None:
        raise ValueError("no cache: an eval-mode residual block has no backward")
    c_conv1, c_bn1, beta1, c_conv2, c_bn2, c_sc, y = cache
    g = relu_backward(y, grad_out)
    grads = {}
    # one name for the main path's gradient, as for its activations in forward
    dgamma2, dbeta2, d = batchnorm_backward(c_bn2, g)
    c_conv2[0] = batchnorm_relu(c_bn1, beta1, np.empty_like(c_bn1[0]))
    dw2, db2, d = conv_backward(c_conv2, d)
    relu_backward(c_conv2[0], d, out=d)
    c_conv2[0] = None
    dgamma1, dbeta1, d = batchnorm_backward(c_bn1, d)
    dw1, db1, dx = conv_backward(c_conv1, d)
    del d
    grads.update(
        {
            "conv1.w": dw1,
            "conv1.b": db1,
            "bn1.gamma": dgamma1,
            "bn1.beta": dbeta1,
            "conv2.w": dw2,
            "conv2.b": db2,
            "bn2.gamma": dgamma2,
            "bn2.beta": dbeta2,
        }
    )
    if c_sc is not None:  # projection shortcut
        dwsc, dbsc, dsc = conv_backward(c_sc, g)
        grads["shortcut.w"] = dwsc
        grads["shortcut.b"] = dbsc
        dx = dx + dsc
    else:
        dx = dx + g
    return grads, dx


# ---------------------------------------------------------------------------
# recurrent cell

def _sigmoid(x):
    # tanh form avoids exp overflow for large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_step(x, h_prev, c_prev, wx, wh, b):
    """One LSTM step with gate packing (input, forget, cell, output).

    x (B, D), h_prev/c_prev (B, H), wx (D, 4H), wh (H, 4H), b (4H,).
    Returns (h, c, cache).
    """
    H = h_prev.shape[1]
    if wx.shape != (x.shape[1], 4 * H) or wh.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ShapeMismatchError("lstm parameter extents", wx.shape, (x.shape[1], 4 * H))
    if h_prev.shape != c_prev.shape or x.shape[0] != h_prev.shape[0]:
        raise ShapeMismatchError("lstm state extents", h_prev.shape, c_prev.shape)
    z = x @ wx + h_prev @ wh + b
    zi, zf, zg, zo = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
    i = _sigmoid(zi)
    f = _sigmoid(zf)
    g = np.tanh(zg)
    o = _sigmoid(zo)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (x, h_prev, c_prev, wx, wh, i, f, g, o, tc)
    return h, c, cache


def lstm_step_backward(cache, dh, dc):
    """Adjoint of lstm_step through its state. dh/dc are gradients flowing into h_t and c_t.

    Returns (dz, dh_prev, dc_prev), dz (B, 4H) being the gradient at the
    gate pre-activations. The weight and input gradients are products with
    dz (x.T @ dz, h_prev.T @ dz, dz.sum(0), dz @ wx.T), which a caller
    forms once over the stacked dz of many steps.
    """
    _, _, c_prev, _, wh, i, f, g, o, tc = cache
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    di = dct * g
    df = dct * c_prev
    dg = dct * i
    dc_prev = dct * f
    dzi = di * i * (1.0 - i)
    dzf = df * f * (1.0 - f)
    dzg = dg * (1.0 - g * g)
    dzo = do * o * (1.0 - o)
    dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
    return dz, dz @ wh.T, dc_prev


# ---------------------------------------------------------------------------
# dropout (inverted scaling)

def dropout_forward(x: np.ndarray, rate: float, mode: str, rng: np.random.Generator):
    """Zero units independently with probability `rate`, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if mode != "train" or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(cache, grad_out: np.ndarray):
    if cache is None:
        return grad_out
    return grad_out * cache
