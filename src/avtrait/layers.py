"""Differentiable layer primitives: forward passes paired with exact adjoints.

Every forward returns ``(output, cache)``; the matching backward consumes
the cache plus the upstream gradient and returns gradients with the exact
shapes of the values they differentiate. All functions are pure given
explicit state arguments, except ``batchnorm_forward``, which updates the
running statistics in place (single writer: the training loop).

1-d layers (audio) and 2-d layers (images) share two pieces of window
geometry. Gathers read ``_windows``: it copies the input into a zero
padded buffer and views it as ``(B, C, *out, *kernel)`` sliding windows.
Convolution copies that view into channel-major columns, ``cols`` of shape
``(B, Cin * prod(kernel), prod(out))``, so one product with the flattened
weight gives ``(B, Cout, *out)`` directly. Scatters, and the pool's running
maximum, go through the offset plan (``_axis_plan``, ``_offset_plan``): for
each kernel offset that meets the unpadded input, the outputs whose window
holds it there, paired with their inputs as one strided slice per axis.
``maxpool_forward`` takes its maximum one axis at a time on the unpadded
input and keeps no copy. ``maxpool_backward`` and a strided
``conv_backward``'s dx add into an unpadded zero buffer one kernel offset
at a time, in row-major offset order, so each element receives its
contributions in kernel-offset order.

Both convolution directions build columns for a slice of batch samples at
a time, and at least one sample. Backward slices take at most
``COLUMN_BYTES`` of columns (``_slice_samples``). Forward slices of several
samples take at most ``BAND_BYTES``; a sample larger than that runs alone,
multiplied whole up to ``COLUMN_BYTES``. Above it, as in an eval pass over
a whole canonical frame or a 15 s waveform, a strided convolution (a stem)
multiplies the sample in bands of output rows of at most ``BAND_BYTES``,
and a unit-stride one builds no columns: it lowers the sample once, one
copy of its padded rows per offset of the kernel's trailing extents, and
adds one product per kernel row (``_kernel_row_products``). The window view
is built with the plain ndarray constructor over its padded buffer, which
checks that it stays inside that buffer. A training tape keeps layer
inputs, not columns: the convolution cache is the list ``[x, w, spec]``.
Convolution backward takes one of two forms. With unit strides and padding
below the kernel, the transpose is a full correlation with the flipped
kernel: one build of grad_out's columns, laid out ``(Cout * prod(kernel),
b * prod(x))``, gives dx as one product per sample and ``dw`` as one
product with x per slice. Any other convolution rebuilds x's columns, laid
out ``(Cin * prod(kernel), b * prod(out))``, for one ``dw`` product per
slice and scatters each kernel offset's window gradients into dx through
the offset plan. In both forms dx is bitwise equal across slice sizes and
``dw`` is not. Asked for no input gradient (``input_grad=False``, as at
each stream's stem, whose input is the raw waveform or frames), either
form forms only ``dw``, bitwise equal to the full call's, and returns dx
as None. ``conv_backward`` returns ``(dw, dx)``: a training convolution
carries no bias, since each one feeds a batch norm, whose mean subtraction
cancels a bias, or is a projection shortcut added to a batch norm's
output, whose beta already shifts the sum. Only a folded eval convolution
adds a bias, the folded batch-norm shift. Batch norm caches x-hat, gamma
and the batch's inverse deviation, and forms its input gradient from the
two parameter gradients.

A train-mode tape keeps each activation once. Where a rectifier follows a
batch norm, its output relu(gamma * x-hat + beta) is not kept: backward
rebuilds it from the batch norm's cache (``batchnorm_relu``) with the
products the forward used, so the rebuild is bitwise equal, and hands it to
``relu_backward``. gamma and beta must therefore not change between
a forward and its backward, as a convolution's input must not.

Batch norm runs unfolded only in training. Eval mode folds it into the
convolution before it (``fold_batchnorm``, ``fold_block``), checked against
an unfolded reference in the tests. A folded residual block runs in eval
mode, as convolutions and in-place rectifiers only, and keeps no cache; any
other block trains. Every shape check raises ``ShapeMismatchError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


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


def _padded(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """A copy of x inside a zero buffer grown by `spec.padding` on both sides of each axis."""
    spatial = x.shape[2:]
    buf = np.zeros(x.shape[:2] + tuple(n + 2 * p for n, p in zip(spatial, spec.padding)), x.dtype)
    buf[(Ellipsis,) + tuple(slice(p, p + n) for n, p in zip(spatial, spec.padding))] = x
    return buf


def _windows(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """x's sliding windows for a gather, as a view of a zero padded copy of x.

    Copies x into the interior of a zero buffer grown by `spec.padding` on
    both sides and returns a view of shape (B, C, *out, *kernel) with
    ``windows[b, c, *o, *k] == padded[b, c, *(o * stride + k)]``. The view
    is made with the ndarray constructor, which refuses strides that would
    reach outside the buffer. Scatters do not pad: they add into unpadded
    buffers through the offset plan (_offset_plan).
    """
    outs = _check_out_extents(x.shape[2:], spec)
    buf = _padded(x, spec)
    st = buf.strides
    return np.ndarray(
        x.shape[:2] + outs + spec.kernel,
        buf.dtype,
        buffer=buf,
        strides=st[:2] + tuple(s * t for s, t in zip(spec.stride, st[2:])) + st[2:],
    )


@functools.lru_cache(maxsize=64)
def _axis_plan(n: int, k: int, s: int, p: int):
    """The kernel offsets that meet one axis of extent n, and where.

    Returns (m, plan), m being the output extent. Offset j meets input
    o * s - p + j of output o, which lies inside the axis for the outputs
    lo..hi-1. `plan` holds, in increasing j, one triple per offset that
    meets some input: (j, those outputs as a slice, their inputs as one
    strided slice). The last 64 geometries are cached: an audio stream's
    extent follows its clip's length, so a bounded cache keeps a long
    scoring run bounded.
    """
    m = out_extent(n, k, s, p)
    plan = []
    for j in range(k):
        lo, hi = max(0, -((j - p) // s)), min(m, (n - 1 + p - j) // s + 1)
        if lo < hi:
            plan.append((j, slice(lo, hi), slice(lo * s - p + j, (hi - 1) * s - p + j + 1, s)))
    return m, tuple(plan)


def _offset_plan(spatial, spec: ConvSpec) -> list:
    """(k, out, into) for each kernel offset k that meets an input of extents `spatial`.

    The row-major product of the per-axis plans (_axis_plan), so the
    offsets come in np.ndindex(spec.kernel) order, less those that meet no
    input. `out` indexes the outputs whose window holds offset k inside the
    input and `into` their inputs, as index tuples. One offset never maps
    two outputs to one input, so adding values at `out` into `into` for
    each offset in turn is the adjoint of the gather, with each input's
    contributions in kernel-offset order.
    """
    axes = [_axis_plan(*g)[1] for g in zip(spatial, spec.kernel, spec.stride, spec.padding)]
    return [
        (tuple(j for j, _, _ in e), (Ellipsis,) + tuple(o for _, o, _ in e), (Ellipsis,) + tuple(i for _, _, i in e))
        for e in itertools.product(*axes)
    ]


def _axes(first: int, n: int) -> tuple:
    return tuple(range(first, first + n))


# ---------------------------------------------------------------------------
# convolution (cross-correlation, zero padding)

# COLUMN_BYTES bounds conv_backward's slices, and so the rounding of dw, and
# the largest lone sample conv_forward multiplies whole; above it, a
# unit-stride sample takes kernel-row products (_kernel_row_form).
# conv_backward builds columns for as many batch samples as fit in it, and
# at least one (_slice_samples): grad_out's for a unit-stride convolution,
# x's for any other. glibc serves a buffer of this size from its heap again
# on the next call, where a whole-batch one (59 MB for the visual stem at
# batch 8) is mapped afresh and page-faulted every time; on a 2-core x86-64
# VM this made the batch-8 stem backward about a quarter faster than
# whole-batch columns, and 4 and 16 MB were no better than 8. Both forms of
# dx are bitwise equal to one whole-batch pass, since each sample has its
# own product, but conv_backward sums its slices' dw products, which rounds
# differently: with one-sample slices, 1336 of the 4608 elements of one
# mini-network weight gradient moved by up to 4.5e-08, and 1 MB slices moved
# the miniature desk run's validation accuracy from 0.7397 to 0.7500.
# Changing this value or the slice rule therefore moves trained parameters
# in their last bits.
COLUMN_BYTES = 8 << 20

# BAND_BYTES caps every other piece of conv_forward's columns: a slice of
# several samples, and a row band of a sample whose own columns exceed
# COLUMN_BYTES. Each sample keeps its own product, so neither changes a bit
# of y, and a small sample's product reads its columns from a core's L2
# cache (2 MB on the x86-64 VM measured) just after the copy that wrote
# them. 8 MB slices of miniature samples spilled it: six 64x64 frames hold
# 3.6 MB of stem columns, eight 16000-sample crops 6.3 MB.
# A lone sample between this and COLUMN_BYTES is multiplied whole: banding
# those too (canonical stages 2-4, training samples) cost clip_infer 6.6% of
# its pass time and train_full 4% more peak memory. Above COLUMN_BYTES, a
# strided sample (an eval stem at real sizes: 17.2 MB for a canonical
# 256x456 frame's visual stem, 11.8 MB for a 15 s waveform's auditory stem)
# is built and multiplied in bands of whole output rows (positions, in 1-d):
# as few bands as fit, of equal rows but the last. A unit-stride sample
# above it builds no columns and takes kernel-row products instead
# (_kernel_row_form), so in an eval pass only the stems band.
# With the stems' pool taken before their shift and rectifier, bands took the
# eval tracemalloc peak of a canonical frame from 22.4 to 6.6 MB and of a
# 15 s waveform from 32.6 to 9.6 MB. Bands cost time in a loop on one input
# (on a 2-core x86-64 VM the canonical stem took 6.35 ms at this size,
# 5.72 ms whole and 7.73 ms at 256 KB); 2 MB bands were 3-5% faster than
# these but level end to end (clip_infer pass_norm_s 2.94 vs 2.84 s, lower
# in 4 of 6 pairs) for 1 MB more at every peak.
# A band changes only its product's N, and OpenBLAS does not promise the
# same bits across N: bands of 1-100 positions of the 15 s stem differed
# from one product by up to 1.4e-6, and full bands with a short last one
# did at 4 of 61 waveform lengths. Equal bands were bitwise one product at
# all 64 waveform lengths of 10.7-33 s tried and at every frame of even
# width, canonical included; rows of odd width were not (301x333 and
# 470x393 frames' stems: up to 1.2e-6, with OpenBLAS 0.3.31).
BAND_BYTES = 1 << 20


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
    win = _windows(x, spec)
    # copied in (C, *kernel, B, *out) order, the buffer is the column matrix
    return np.ascontiguousarray(win.transpose((1,) + _axes(2 + nd, nd) + (0,) + _axes(2, nd))).reshape(x.shape[1] * math.prod(spec.kernel), -1)


def conv_forward(x: np.ndarray, w: np.ndarray, spec: ConvSpec, b: Optional[np.ndarray] = None):
    """Cross-correlate x with w and add the per-channel bias b, if given.

    x: (B, Cin, L) for 1-d specs or (B, Cin, H, W) for 2-d specs.
    w: (Cout, Cin, *kernel). b is a folded eval convolution's batch-norm
    shift (fold_batchnorm). Returns (y, cache). The columns are built and
    multiplied one batch slice of at most BAND_BYTES at a time, each
    slice's product written into its rows of y. A sample whose own columns
    exceed BAND_BYTES runs alone: whole up to COLUMN_BYTES. Above it, a
    strided convolution's sample is multiplied in bands of whole output
    rows (positions, in 1-d) of at most BAND_BYTES of columns, each band's
    product written into its columns of y, and a unit-stride one's takes
    kernel-row products instead (`_kernel_row_form`,
    `_kernel_row_products`), which BAND_BYTES does not touch. Every sample
    has its own products, so y does not depend on the slices. The
    cache is the list [x, w, spec]: the columns are a transient of this
    call, and conv_backward reads x again, which must not change before it
    runs. A caller that can rebuild x may drop ``cache[0]`` after this call
    and put x back before conv_backward, passing the same list.
    """
    if x.ndim != spec.ndim + 2:
        raise ShapeMismatchError("conv input rank", x.shape, ("B", spec.in_channels) + spec.kernel)
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatchError("conv input channels", x.shape, (x.shape[0], spec.in_channels) + x.shape[2:])
    if w.shape != (spec.out_channels, spec.in_channels) + spec.kernel:
        raise ShapeMismatchError("conv weight", w.shape, (spec.out_channels, spec.in_channels) + spec.kernel)
    if b is not None and b.shape != (spec.out_channels,):
        raise ShapeMismatchError("conv bias", b.shape, (spec.out_channels,))

    if _kernel_row_form(x.shape[1:], spec, x.itemsize):
        y = _kernel_row_products(x, w, spec)
    else:
        y = _column_products(_windows(x, spec), w)
    if b is not None:
        y += b.reshape((-1,) + (1,) * spec.ndim)
    return y, [x, w, spec]


def _kernel_row_form(sample_shape, spec: ConvSpec, itemsize: int) -> bool:
    """Whether conv_forward multiplies a sample of shape (C, *spatial) by kernel rows.

    It does when the convolution has unit strides and the sample's columns
    would take more than COLUMN_BYTES; it builds columns for any other. On
    a 2-core x86-64 VM (OpenBLAS 0.3.31, minimum of 81 calls) the form took
    a canonical frame's stage-1 conv from 2.51 ms in row bands to 1.72 ms,
    and a 15 s waveform's stage-1 and stage-2 convs from 4.87 to 4.52 ms
    and from 3.00 to 2.63 ms. It is slower on samples under COLUMN_BYTES:
    canonical stage 3 went 1.03 -> 1.23 ms and stage 4 0.94 -> 1.86 ms.
    Its lowered copy, 2.9 MB at canonical stage 1, is larger than a 1 MB
    band, so the eval tracemalloc peak went 6.64 -> 6.71 MB for a
    canonical frame and 9.62 -> 9.64 MB for a 15 s waveform.
    """
    if any(s != 1 for s in spec.stride):
        return False
    outs = _check_out_extents(sample_shape[1:], spec)
    return sample_shape[0] * math.prod(spec.kernel) * math.prod(outs) * itemsize > COLUMN_BYTES


def _column_products(win: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w times the columns of each sample's windows, built a batch slice or a row band at a time."""
    nd = w.ndim - 2
    B, outs = len(win), win.shape[2 : 2 + nd]
    wf = w.reshape(w.shape[0], -1)
    K, P = wf.shape[1], math.prod(outs)
    y = np.empty((B, w.shape[0], P), np.result_type(w, win))
    # Copy kernel-offset-major (b, C, *kernel, *out): that buffer already is
    # cols, one row per (channel, *kernel) and one column per window, and
    # the weight product comes out channel-major with no transpose.
    order = (0, 1) + _axes(2 + nd, nd) + _axes(2, nd)
    sample_bytes = K * P * win.itemsize
    row = P // outs[0]  # windows per output row
    step, rows = max(1, BAND_BYTES // sample_bytes), outs[0]
    if sample_bytes > COLUMN_BYTES:
        # as few bands as BAND_BYTES allows, of equal rows but the last
        cap = max(1, BAND_BYTES // (K * row * win.itemsize))
        rows = -(-outs[0] // -(-outs[0] // cap))
    for lo in range(0, B, step):
        for r in range(0, outs[0], rows):
            cols = np.ascontiguousarray(win[lo : lo + step, :, r : r + rows].transpose(order))
            np.matmul(wf, cols.reshape(len(cols), K, -1), out=y[lo : lo + step, :, r * row : (r + rows) * row])
            del cols  # before the next band's columns are built
    return y.reshape((B, w.shape[0]) + outs)


def _kernel_row_products(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The unit-stride convolution of x, one product per kernel row and sample.

    Each sample is padded and lowered once: for every offset of the
    kernel's trailing extents, the padded rows shifted by it, laid out
    (C * prod(kernel[1:]), padded rows * prod(out[1:])) with rows outermost.
    That is kernel[1:] times the input where columns are prod(kernel) times
    the output. Kernel row a's weights, w[:, :, a] as
    (Cout, C * prod(kernel[1:])), times lowered rows a to a + out[0] - 1, a
    view of the copy, give that row's share of the sample's output; the
    shares are added in increasing a. In 1-d nothing is lowered: the copy
    is the padded input and each product takes one kernel tap.
    """
    outs = _check_out_extents(x.shape[2:], spec)
    kh, rest = spec.kernel[0], math.prod(outs[1:])
    n = outs[0] * rest
    wr = np.ascontiguousarray(np.moveaxis(w, 2, 0)).reshape(kh, w.shape[0], -1)
    y = np.empty((x.shape[0], w.shape[0], n), np.result_type(w, x))
    for i, ys in enumerate(y):
        padded = _padded(x[i : i + 1], spec)
        st = padded.strides
        # shifted[c, *k, r, *o] == padded[0, c, r, *(o + k)]: the ndarray
        # constructor refuses strides that would leave the buffer
        shifted = np.ndarray(
            x.shape[1:2] + spec.kernel[1:] + padded.shape[2:3] + outs[1:],
            padded.dtype,
            buffer=padded,
            strides=st[1:2] + st[3:] + st[2:3] + st[3:],
        )
        low = np.ascontiguousarray(shifted).reshape(wr.shape[2], -1)
        del padded, shifted  # in 2-d, freed before the products
        np.matmul(wr[0], low[:, :n], out=ys)
        for a in range(1, kh):
            ys += np.matmul(wr[a], low[:, a * rest : a * rest + n])
    return y.reshape((x.shape[0], w.shape[0]) + outs)


def conv_backward(cache, grad_out: np.ndarray, input_grad: bool = True):
    """Exact adjoint of conv_forward in x and w; returns (dw, dx).

    Works in batch slices of at most COLUMN_BYTES of columns. A convolution
    whose strides are all 1 and whose padding is below its kernel on every
    axis takes both gradients from one build of grad_out's columns (see
    `_unit_stride_grads`). Any other has a slice's dw as the product of
    the output gradient with x's rebuilt columns (a gather, `_windows`),
    and scatters each kernel offset's window gradients into an unpadded
    zero dx through the offset plan (`_offset_plan`). dx is bitwise equal
    across slice sizes; dw, a sum of the slices' products, is not. With
    `input_grad` False, dx is not formed and is returned as None; dw is
    bitwise that of the full call, for a layer whose input no caller
    differentiates, such as a stem over raw input.
    """
    x, w, spec = cache
    outs = _check_out_extents(x.shape[2:], spec)
    B, Cin, Cout = x.shape[0], spec.in_channels, spec.out_channels
    expect = (B, Cout) + outs
    if grad_out.shape != expect:
        raise ShapeMismatchError("conv grad_out", grad_out.shape, expect)

    if all(s == 1 for s in spec.stride) and all(p < k for p, k in zip(spec.padding, spec.kernel)):
        return _unit_stride_grads(x, w, grad_out, spec, input_grad)
    g = grad_out.reshape(B, Cout, -1)
    wf = w.reshape(Cout, -1)
    dw = np.zeros(wf.shape, np.result_type(grad_out, x))
    dx = None
    if input_grad:
        dx = np.zeros(x.shape, np.result_type(w, grad_out))
        plan = _offset_plan(x.shape[2:], spec)
    step = _slice_samples(wf.shape[1] * g.shape[2] * x.itemsize)
    for lo in range(0, B, step):
        sl = slice(lo, lo + step)
        # One product sums over the slice's samples. The columns are freed
        # with this statement, before the window gradients are allocated:
        # holding both let glibc hand the heap back to the system and fault
        # it in again on every call, which tripled the miniature audio
        # stem's backward time.
        dw += np.matmul(_columns(x[sl], spec), g[sl].transpose(1, 0, 2).reshape(Cout, -1).T).T
        if input_grad:
            # window gradients as (b, Cin, *kernel, *out): one block per offset
            dwin = np.matmul(wf.T, g[sl]).reshape((-1, Cin) + spec.kernel + outs)
            dxs = dx[sl]
            for k, out, into in plan:
                dxs[into] += dwin[(slice(None), slice(None)) + k][out]
    return dw.reshape(w.shape), dx


@functools.cache
def _full_correlation_spec(spec: ConvSpec) -> ConvSpec:
    """The spec whose windows over a stride-1 convolution's grad_out meet exactly its input's positions.

    Cached, as specs are frozen: each geometry is built and checked once.
    """
    padding = tuple(k - 1 - p for k, p in zip(spec.kernel, spec.padding))
    return replace(spec, padding=padding, in_channels=spec.out_channels, out_channels=spec.in_channels)


def _unit_stride_grads(x, w, grad_out, spec: ConvSpec, input_grad: bool):
    """(dw, dx) of a stride-1 convolution with padding below its kernel.

    Such a convolution's transpose is a full correlation with the flipped
    kernel: padded by kernel - 1 - padding on each side, grad_out has
    windows over exactly x's positions, and its columns at position i,
    offset m meet x[i] and w[..., kernel - 1 - m]. So one build of those
    columns per slice, laid out (Cout * prod(kernel), b * prod(x)), gives
    dx as one product per sample with the flipped, channel-transposed
    weight, and dw flipped as their product with x. Without `input_grad`
    the per-sample products are skipped and dx is None.
    """
    nd, B, Cin, Cout = spec.ndim, x.shape[0], spec.in_channels, spec.out_channels
    flip = (slice(None),) + (slice(None, None, -1),) * nd
    gspec = _full_correlation_spec(spec)
    P = math.prod(x.shape[2:])
    K = Cout * math.prod(spec.kernel)
    dx = None
    if input_grad:
        # rows (c), columns (o, *m) holding w[o, c, *(kernel - 1 - m)]
        wt = np.ascontiguousarray(w[(slice(None),) + flip].swapaxes(0, 1)).reshape(Cin, K)
        dx = np.empty((B, Cin, P), np.result_type(w, grad_out))
    dwt = np.zeros((K, Cin), np.result_type(grad_out, x))
    step = _slice_samples(K * P * grad_out.itemsize)
    for lo in range(0, B, step):
        sl = slice(lo, lo + step)
        xs = x[sl].reshape(-1, Cin, P)
        b = xs.shape[0]
        xs = xs.transpose(1, 0, 2).reshape(Cin, -1)  # (Cin, b * prod(x)), a copy
        cols = _columns(grad_out[sl], gspec)
        dwt += cols @ xs.T
        del xs
        if input_grad:
            # one product per sample, so dx does not depend on the slice size
            np.matmul(wt, cols.reshape(-1, b, P).transpose(1, 0, 2), out=dx[sl])
        del cols  # before the next slice's columns are built
    # dwt[(o, *m), c] is dw[o, c, *(kernel - 1 - m)]
    dw = np.moveaxis(dwt.reshape((Cout,) + spec.kernel + (Cin,))[flip], -1, 1)
    return np.ascontiguousarray(dw), None if dx is None else dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# batch normalization

# every batch norm's running-statistics momentum and variance floor
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5


@dataclass
class BatchNormState:
    """Per-channel affine parameters and running statistics.

    running_* are updated in place by each batchnorm_forward with
    running <- BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        c = self.gamma.shape
        if not (self.beta.shape == self.running_mean.shape == self.running_var.shape == c) or len(c) != 1:
            raise ShapeMismatchError("batchnorm state extents", self.gamma.shape, self.beta.shape)


def _bn_axes(x):
    return (0,) + tuple(range(2, x.ndim))


def _bn_bcast(v, ndim):
    return v.reshape((1, -1) + (1,) * (ndim - 2))


def batchnorm_forward(x: np.ndarray, state: BatchNormState):
    """Normalize per channel over (batch, spatial) axes by the batch's
    statistics, and update the running ones; returns (y, cache)."""
    C = state.gamma.shape[0]
    if x.ndim < 2 or x.shape[1] != C:
        raise ShapeMismatchError("batchnorm channels", x.shape, (C,))
    n = x.size // C
    if n < 2:
        raise ValueError(f"batchnorm needs >= 2 elements per channel, got {n}")
    axes = _bn_axes(x)
    mean = x.mean(axis=axes)
    # x.var(axis=axes) is this same subtraction, square and mean; keeping
    # the difference lets it become x-hat in place, and y reuses the squares
    xhat = x - _bn_bcast(mean, x.ndim)
    y = np.square(xhat)
    var = y.mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat *= _bn_bcast(inv_std, x.ndim)
    _scale_shift(xhat, state.gamma, state.beta, y)

    m = BN_MOMENTUM
    state.running_mean[...] = m * state.running_mean + (1.0 - m) * mean
    state.running_var[...] = m * state.running_var + (1.0 - m) * var
    return y, (xhat, inv_std, state.gamma, n)


def _scale_shift(xhat, gamma, beta, out):
    """gamma * xhat + beta per channel, written into out (xhat's shape and dtype)."""
    np.multiply(xhat, _bn_bcast(gamma, xhat.ndim), out=out)
    out += _bn_bcast(beta, xhat.ndim)
    return out


def batchnorm_relu(cache, beta, out):
    """relu(gamma * xhat + beta) from a batchnorm_forward cache, written into out.

    Bitwise equal to relu_forward of the batchnorm_forward output that made
    the cache, provided gamma (which the cache holds) and beta have not
    changed since; out has x-hat's shape and dtype and may be a view.
    """
    xhat, _, gamma, _ = cache
    return np.maximum(_scale_shift(xhat, gamma, beta, out), 0, out=out)


def fold_batchnorm(w: np.ndarray, state: BatchNormState):
    """Fold eval-mode batch norm into the bias-free convolution before it.

    Returns (w * s, beta - running_mean * s) with s = gamma /
    sqrt(running_var + BN_EPSILON) per output channel, so conv_forward with
    the folded weight and bias equals conv_forward then batch norm by the
    running statistics, up to rounding: the only eval-mode batch norm there
    is, checked against an unfolded reference in the tests.
    """
    if state.gamma.shape != (w.shape[0],):
        raise ShapeMismatchError("folded batchnorm channels", state.gamma.shape, (w.shape[0],))
    s = state.gamma / np.sqrt(state.running_var + BN_EPSILON)
    return w * s.reshape((-1,) + (1,) * (w.ndim - 1)), state.beta - state.running_mean * s


def batchnorm_backward(cache, grad_out: np.ndarray):
    """batchnorm_forward's adjoint, including the batch-statistics dependence.

    Returns (dgamma, dbeta, dx).
    """
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

def _check_pool(x: np.ndarray, spec: ConvSpec):
    if x.ndim != spec.ndim + 2:
        raise ShapeMismatchError("maxpool input rank", x.shape, spec.kernel)
    if any(p >= k for p, k in zip(spec.padding, spec.kernel)):
        raise ValueError("maxpool padding must be < kernel so every window sees data")
    _check_out_extents(x.shape[2:], spec)


def maxpool_forward(x: np.ndarray, spec: ConvSpec):
    """Per-window maximum with -inf padding semantics; returns (y, cache).

    Takes a running maximum along one spatial axis at a time, on the
    unpadded input, through that axis's offset plan (`_axis_plan`): it
    copies the inputs of the first kernel offset that meets the axis for
    every output, or starts from -inf where none does (only where 2p >= k),
    and takes the maximum with each other offset's strided slice. A maximum
    is exact, so neither the order of the offsets nor that of the axes
    changes a value. The cache is (x, y, spec), with no copy:
    maxpool_backward finds each window's maximum again in x, which must not
    change before it runs. A caller that differentiates nothing through the
    pool drops the cache at once.
    """
    _check_pool(x, spec)
    y = x
    for axis, geometry in enumerate(zip(x.shape[2:], spec.kernel, spec.stride, spec.padding), start=2):
        m, plan = _axis_plan(*geometry)
        tail = (slice(None),) * (x.ndim - 1 - axis)
        full = next((into for _, out, into in plan if out == slice(0, m)), None)
        if full is None:
            pooled = np.full(y.shape[:axis] + (m,) + y.shape[axis + 1 :], -np.inf, y.dtype)
        else:
            pooled = y[(Ellipsis, full) + tail].copy()
        for _, out, into in plan:
            if into != full:
                out = (Ellipsis, out) + tail
                np.maximum(pooled[out], y[(Ellipsis, into) + tail], out=pooled[out])
        y = pooled
    return y, (x, y, spec)


def maxpool_backward(cache, grad_out: np.ndarray):
    """Route each output gradient to the first element of its window, row-major, that holds the maximum.

    Walks the offset plan (`_offset_plan`) over the unpadded x in row-major
    kernel-offset order. An output's gradient goes to the first offset
    whose input equals its maximum and is added into an unpadded zero dx,
    so ties break toward the lowest linear index within the window and each
    element receives its contributions in kernel-offset order.
    """
    x, y, spec = cache
    if grad_out.shape != y.shape:
        raise ShapeMismatchError("maxpool grad_out", grad_out.shape, y.shape)
    dx = np.zeros(x.shape, grad_out.dtype)
    pending = np.ones(y.shape, dtype=bool)  # outputs whose gradient is not routed yet
    for _, out, into in _offset_plan(x.shape[2:], spec):
        hit = x[into] == y[out]
        hit &= pending[out]
        pending[out] ^= hit
        # a multiply beats add(where=): the mask is too irregular to branch on
        dx[into] += grad_out[out] * hit
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

    The block projects its shortcut exactly when it has `shortcut_w`, which
    then needs `shortcut_spec`; without it the shortcut is the identity,
    which needs conv1's input channels equal to conv2's output channels and
    a unit stride. No convolution of a training block has a bias. bn1 and
    bn2 are None in a block from fold_block, whose convolutions hold them
    instead, as weights and the biases `conv1_b` and `conv2_b`;
    residual_block_forward runs such a block in eval mode.
    """

    conv1_w: np.ndarray
    bn1: Optional[BatchNormState]
    spec1: ConvSpec
    conv2_w: np.ndarray
    bn2: Optional[BatchNormState]
    spec2: ConvSpec
    shortcut_w: Optional[np.ndarray] = None
    shortcut_spec: Optional[ConvSpec] = None
    conv1_b: Optional[np.ndarray] = None
    conv2_b: Optional[np.ndarray] = None

    def __post_init__(self):
        # conv_backward forms no bias gradient, so such a bias would never train
        if (self.bn1 is not None and self.conv1_b is not None) or (self.bn2 is not None and self.conv2_b is not None):
            raise ValueError("a convolution followed by a batch norm carries no bias; fold_block sets the biases")
        if self.shortcut_w is None:
            s1 = self.spec1
            if s1.in_channels != self.spec2.out_channels or any(s != 1 for s in s1.stride):
                raise ValueError(
                    "identity shortcut requires matching channels and unit stride, got "
                    f"in={s1.in_channels} out={self.spec2.out_channels} stride={s1.stride}"
                )
        elif self.shortcut_spec is None:
            raise ValueError("projection block needs shortcut conv parameters")


def fold_block(blk: ResidualBlockParams) -> ResidualBlockParams:
    """The block with eval-mode bn1 and bn2 folded into conv1 and conv2."""
    w1, b1 = fold_batchnorm(blk.conv1_w, blk.bn1)
    w2, b2 = fold_batchnorm(blk.conv2_w, blk.bn2)
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
        r1, _ = conv_forward(x, blk.conv1_w, blk.spec1, blk.conv1_b)
        np.maximum(r1, 0, out=r1)
        y, _ = conv_forward(r1, blk.conv2_w, blk.spec2, blk.conv2_b)
        if blk.shortcut_w is not None:
            y += conv_forward(x, blk.shortcut_w, blk.shortcut_spec)[0]
        else:
            y += x
        return np.maximum(y, 0, out=y), None
    # One name for the main path frees each transient once the next layer
    # has it: fewer heap holes for backward to grow around.
    h, c_conv1 = conv_forward(x, blk.conv1_w, blk.spec1)
    h, c_bn1 = batchnorm_forward(h, blk.bn1)
    h, _ = relu_forward(h)
    h, c_conv2 = conv_forward(h, blk.conv2_w, blk.spec2)
    c_conv2[0] = None
    n2, c_bn2 = batchnorm_forward(h, blk.bn2)
    del h
    if blk.shortcut_w is not None:
        sc, c_sc = conv_forward(x, blk.shortcut_w, blk.shortcut_spec)
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
    grads["bn2.gamma"], grads["bn2.beta"], d = batchnorm_backward(c_bn2, g)
    c_conv2[0] = batchnorm_relu(c_bn1, beta1, np.empty_like(c_bn1[0]))
    grads["conv2.w"], d = conv_backward(c_conv2, d)
    relu_backward(c_conv2[0], d, out=d)
    c_conv2[0] = None
    grads["bn1.gamma"], grads["bn1.beta"], d = batchnorm_backward(c_bn1, d)
    grads["conv1.w"], dx = conv_backward(c_conv1, d)
    del d
    if c_sc is not None:  # projection shortcut
        grads["shortcut.w"], dsc = conv_backward(c_sc, g)
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

def dropout_forward(x: np.ndarray, rate: float, rng: Optional[np.random.Generator] = None):
    """Zero units independently with probability `rate`, scale survivors by 1/(1-rate).

    A rate of 0, as in eval mode, returns x and no mask; a positive rate
    draws the mask from rng, which it needs.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout at a positive rate needs a generator")
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(cache, grad_out: np.ndarray):
    if cache is None:
        return grad_out
    return grad_out * cache
