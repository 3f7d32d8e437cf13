"""Two-stream residual network: assembly, training forward/backward, inference.

Each stream is a 17-conv-layer residual stack (one stem convolution plus
eight two-conv residual blocks in the full configuration) with the halved
channel plan 32; 32,32; 64,64; 128,128; 256,256. The auditory stream uses
1-d geometry, the visual stream 2-d; kernels and strides correspond as
k^2 <-> k x k and s^2 <-> s x s:

    stage        visual k/s/p     auditory k/s/p   channels
    stem conv    7x7 / 2 / 3      49 / 4 / 24      32
    stem pool    3x3 / 2 / 1       9 / 4 / 4       --
    stage 1      3x3 / 1 / 1       9 / 1 / 4       32
    stage 2..4   3x3 / {2,1} / 1   9 / {4,1} / 4   64,128,256

Every convolution and pool is "same"-padded: a kernel extent k gets
(k - 1) // 2 on each side, as the table's p column shows. The first block
of stages 2-4 downsamples and projects its shortcut with a 1-extent-kernel
convolution at the stage stride, unpadded; every other block uses an
identity shortcut. Stream outputs are globally average-pooled, concatenated
(256 + 256 = 512 in the full model) and fed through one fully-connected
layer whose outputs are squashed to (0, 1) by a scaled tanh. No
convolution has a bias: each feeds a batch norm, whose mean subtraction
would cancel it, or, as a projection shortcut, a sum that bn2's beta
already shifts; only the fusion layer has one.

The miniature configuration divides all channel counts by 8 and keeps one
block per stage; it exists for desk-scale runs and shares every code path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import FRAME_PLANES, Clip, ClipFile, unit_frames
from .layers import (
    BatchNormState,
    ConvSpec,
    ResidualBlockParams,
    ShapeMismatchError,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_relu,
    conv_backward,
    conv_forward,
    fold_batchnorm,
    fold_block,
    global_average_pool,
    global_average_pool_backward,
    linear_backward,
    linear_forward,
    maxpool_backward,
    maxpool_forward,
    out_extent,
    relu_backward,
    relu_forward,
    residual_block_backward,
    residual_block_forward,
    scaled_tanh,
    scaled_tanh_backward,
)

MIN_AUDIO_SAMPLES = 1024  # one valid output after the streams' total stride


@dataclass(frozen=True)
class StreamSpec:
    """One stream's layer plan; its paddings follow from its kernels (`_same_spec`)."""

    in_channels: int
    stem_channels: int
    stem_kernel: tuple
    stem_stride: tuple
    pool_kernel: tuple
    pool_stride: tuple
    stage_channels: tuple
    stage_strides: tuple
    blocks_per_stage: int
    block_kernel: tuple

    @property
    def ndim(self) -> int:
        return len(self.stem_kernel)


@dataclass(frozen=True)
class Architecture:
    auditory: StreamSpec
    visual: StreamSpec
    out_dim: int = 5

    @property
    def fusion_in(self) -> int:
        return self.auditory.stage_channels[-1] + self.visual.stage_channels[-1]


def full_architecture(out_dim: int = 5) -> Architecture:
    auditory = StreamSpec(
        in_channels=1,
        stem_channels=32,
        stem_kernel=(49,),
        stem_stride=(4,),
        pool_kernel=(9,),
        pool_stride=(4,),
        stage_channels=(32, 64, 128, 256),
        stage_strides=((1,), (4,), (4,), (4,)),
        blocks_per_stage=2,
        block_kernel=(9,),
    )
    visual = StreamSpec(
        in_channels=FRAME_PLANES,
        stem_channels=32,
        stem_kernel=(7, 7),
        stem_stride=(2, 2),
        pool_kernel=(3, 3),
        pool_stride=(2, 2),
        stage_channels=(32, 64, 128, 256),
        stage_strides=((1, 1), (2, 2), (2, 2), (2, 2)),
        blocks_per_stage=2,
        block_kernel=(3, 3),
    )
    return Architecture(auditory=auditory, visual=visual, out_dim=out_dim)


def mini_architecture(out_dim: int = 5) -> Architecture:
    """Channel plan / 8, one block per stage; strides and kernels unchanged."""
    full = full_architecture(out_dim=out_dim)

    def shrink(stream: StreamSpec) -> StreamSpec:
        return replace(
            stream,
            stem_channels=stream.stem_channels // 8,
            stage_channels=tuple(c // 8 for c in stream.stage_channels),
            blocks_per_stage=1,
        )

    return Architecture(auditory=shrink(full.auditory), visual=shrink(full.visual), out_dim=out_dim)


def with_out_dim(arch: Architecture, out_dim: int) -> Architecture:
    return replace(arch, out_dim=out_dim)


# ---------------------------------------------------------------------------
# parameter naming and construction

def _block_layout(stream: StreamSpec):
    """Yield (name, in_channels, out_channels, stride) per residual block."""
    in_ch = stream.stem_channels
    for si, (ch, first_stride) in enumerate(zip(stream.stage_channels, stream.stage_strides), start=1):
        for bi in range(1, stream.blocks_per_stage + 1):
            stride = tuple(first_stride) if bi == 1 else (1,) * stream.ndim
            yield f"stage{si}.block{bi}", in_ch, ch, stride
            in_ch = ch


def _stream_manifest(stream: StreamSpec, prefix: str):
    entries = []
    c = stream.stem_channels
    entries.append((f"{prefix}.stem.conv.w", (c, stream.in_channels) + stream.stem_kernel))
    for suffix in ("gamma", "beta", "running_mean", "running_var"):
        entries.append((f"{prefix}.stem.bn.{suffix}", (c,)))
    for name, in_ch, out_ch, stride in _block_layout(stream):
        base = f"{prefix}.{name}"
        entries.append((f"{base}.conv1.w", (out_ch, in_ch) + stream.block_kernel))
        for suffix in ("gamma", "beta", "running_mean", "running_var"):
            entries.append((f"{base}.bn1.{suffix}", (out_ch,)))
        entries.append((f"{base}.conv2.w", (out_ch, out_ch) + stream.block_kernel))
        for suffix in ("gamma", "beta", "running_mean", "running_var"):
            entries.append((f"{base}.bn2.{suffix}", (out_ch,)))
        # a block that changes channels or strides projects its shortcut
        if in_ch != out_ch or stride != (1,) * stream.ndim:
            entries.append((f"{base}.shortcut.w", (out_ch, in_ch) + (1,) * stream.ndim))
    return entries


def param_manifest(arch: Architecture) -> dict:
    """Ordered name -> shape map for every tensor the network owns."""
    entries = []
    entries.extend(_stream_manifest(arch.auditory, "auditory"))
    entries.extend(_stream_manifest(arch.visual, "visual"))
    entries.append(("fusion.w", (arch.fusion_in, arch.out_dim)))
    entries.append(("fusion.b", (arch.out_dim,)))
    return dict(entries)


def trainable_names(arch: Architecture) -> list:
    return [n for n in param_manifest(arch) if not n.endswith(("running_mean", "running_var"))]


def he_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    z = rng.standard_normal(shape)
    z *= math.sqrt(2.0 / fan_in)  # in place: no second float64 draw-sized array
    return z.astype(dtype)


def build_network(arch: Architecture, seed, dtype=np.float32) -> dict:
    """Fresh parameters: He-normal weights, a zero fusion bias, unit batch norm."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for name, shape in param_manifest(arch).items():
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[1:])) if name != "fusion.w" else shape[0]
            params[name] = he_normal(rng, shape, fan_in, dtype)
        elif name.endswith((".gamma", ".running_var")):
            params[name] = np.ones(shape, dtype=dtype)
        else:  # fusion.b, beta, running_mean
            params[name] = np.zeros(shape, dtype=dtype)
    return params


def validate_params(arch: Architecture, params: dict) -> None:
    manifest = param_manifest(arch)
    missing = sorted(set(manifest) - set(params))
    extra = sorted(set(params) - set(manifest))
    if missing or extra:
        raise ValueError(f"parameter manifest mismatch: missing={missing[:4]} extra={extra[:4]}")
    for name, shape in manifest.items():
        if params[name].shape != shape:
            raise ShapeMismatchError(f"parameter {name}", params[name].shape, shape)


# ---------------------------------------------------------------------------
# stream execution

def _bn_state(params: dict, prefix: str) -> BatchNormState:
    """The batch norm's four tensors."""
    return BatchNormState(*(params[f"{prefix}.{k}"] for k in ("gamma", "beta", "running_mean", "running_var")))


@functools.cache
def _same_spec(kernel: tuple, stride: tuple, in_channels: int = 1, out_channels: int = 1) -> ConvSpec:
    """A spec padded by (k - 1) // 2 on each side of each kernel extent k: 0 for a 1-extent kernel.

    Cached: a spec is frozen and its arguments are ints and tuples, so each
    geometry is built and checked once, not at every forward pass.
    """
    return ConvSpec(kernel, stride, tuple((k - 1) // 2 for k in kernel), in_channels, out_channels)


def _stem_spec(stream: StreamSpec) -> ConvSpec:
    return _same_spec(stream.stem_kernel, stream.stem_stride, stream.in_channels, stream.stem_channels)


def _pool_spec(stream: StreamSpec) -> ConvSpec:
    return _same_spec(stream.pool_kernel, stream.pool_stride)


def _block_params(stream: StreamSpec, prefix: str, name: str, in_ch, out_ch, stride, params) -> ResidualBlockParams:
    """The block's parameters; it projects its shortcut when `params` holds a shortcut weight for it."""
    base = f"{prefix}.{name}"
    shortcut_w = params.get(f"{base}.shortcut.w")
    return ResidualBlockParams(
        conv1_w=params[f"{base}.conv1.w"],
        bn1=_bn_state(params, f"{base}.bn1"),
        spec1=_same_spec(stream.block_kernel, stride, in_ch, out_ch),
        conv2_w=params[f"{base}.conv2.w"],
        bn2=_bn_state(params, f"{base}.bn2"),
        spec2=_same_spec(stream.block_kernel, (1,) * stream.ndim, out_ch, out_ch),
        shortcut_w=shortcut_w,
        shortcut_spec=None if shortcut_w is None else _same_spec((1,) * stream.ndim, stride, in_ch, out_ch),
    )


@dataclass(frozen=True)
class FoldedStream:
    """One stream's eval-mode weights, every batch norm folded into its conv.

    `stem_b` and each block's conv1_b and conv2_b are the folded batch-norm
    shifts, beta - running_mean * s (fold_batchnorm).
    """

    stem_w: np.ndarray
    stem_b: np.ndarray
    blocks: tuple  # fold_block results, in _block_layout order


def fold_stream(stream: StreamSpec, prefix: str, params: dict) -> FoldedStream:
    """The stream's eval-mode weights, for forward_stream's `params`."""
    w, b = fold_batchnorm(params[f"{prefix}.stem.conv.w"], _bn_state(params, f"{prefix}.stem.bn"))
    blocks = tuple(fold_block(_block_params(stream, prefix, *layout, params)) for layout in _block_layout(stream))
    return FoldedStream(stem_w=w, stem_b=b, blocks=blocks)


class EvalTapeError(ValueError):
    """Backward was asked of a tape with nothing left to differentiate: an
    eval-mode stream tape, which records nothing, or a train-mode stream
    tape or ModelTape that a backward has already consumed."""


def forward_stream(x: np.ndarray, stream: StreamSpec, prefix: str, params: dict, mode: str):
    """Run one stream to its pooled feature vector; returns ((B, C), tape).

    `mode` is "train" or "eval"; any other raises ValueError naming it.
    Eval mode runs the convolutions with batch norm folded in, keeps no
    layer cache and returns an empty tape. Its stem pools the convolution's
    product before adding the folded shift and rectifying, with the bits of
    the other order. Its `params` may be fold_stream's result instead of
    the parameter dict, so that a caller running many inputs folds once.

    Both modes pool with `maxpool_forward`, a running maximum through the
    offset plan on the unpadded input, and drop its cache at once, so the
    pool's input is freed as soon as it is pooled. Train mode's tape is a
    "stem" entry, one "block" entry per residual block and a "gap" entry,
    and keeps each activation once. The stem keeps its convolution's input,
    its batch norm's x-hat and the pool output; not the rectifier's output,
    the pool's input, which backward_stream rebuilds from x-hat. A block
    keeps what residual_block_forward says. Every gamma and beta must stay
    unchanged until its own entry's backward has run.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        folded = params if isinstance(params, FoldedStream) else fold_stream(stream, prefix, params)
        y, _ = conv_forward(x, folded.stem_w, _stem_spec(stream))
        # x + b rounds monotonically in x, and max(x, 0) is monotone, so
        # both commute with the pool's maximum: pooled first, they touch a
        # quarter of the elements and give the same bits
        y = maxpool_forward(y, _pool_spec(stream))[0]
        y += folded.stem_b.reshape((-1,) + (1,) * stream.ndim)
        np.maximum(y, 0, out=y)
        for blk in folded.blocks:
            y, _ = residual_block_forward(y, blk)
        return global_average_pool(y)[0], []
    y, c_conv = conv_forward(x, params[f"{prefix}.stem.conv.w"], _stem_spec(stream))
    bn = _bn_state(params, f"{prefix}.stem.bn")
    y, c_bn = batchnorm_forward(y, bn)
    y, _ = relu_forward(y)
    pool_spec = _pool_spec(stream)
    y = maxpool_forward(y, pool_spec)[0]
    tape = [("stem", f"{prefix}.stem", (c_conv, c_bn, bn.beta, y, pool_spec))]
    for name, in_ch, out_ch, stride in _block_layout(stream):
        blk = _block_params(stream, prefix, name, in_ch, out_ch, stride, params)
        y, cache = residual_block_forward(y, blk)
        tape.append(("block", f"{prefix}.{name}", cache))
    y, cache = global_average_pool(y)
    tape.append(("gap", None, cache))
    return y, tape


def backward_stream(tape, grad_feat: np.ndarray, consume):
    """Walk a stream tape in reverse, handing each (name, gradient) to
    consume(name, gradient) once its entry's backward has returned (a
    block's residual_block_backward, the stem's conv_backward), and keeping
    none. No later entry reads a tensor already handed over, so a consumer
    may update it in place.

    The tape is consumed: each entry is popped before its backward runs,
    so its cache is released once that backward returns and the tape is
    empty afterwards. A tape can therefore be differentiated once. The stem
    rebuilds relu(gamma * x-hat + beta), unpadded (batchnorm_relu), as the
    pool's input; maxpool_backward scatters the pool gradient through the
    offset plan into an unpadded dx, the rectifier's gradient is taken in
    place, and the rebuilt output is released before batch norm's backward.
    The stream's input is raw waveform or frames, which nothing
    differentiates, so the stem convolution forms its weight gradient only
    (conv_backward with input_grad=False) and no input gradient is returned.
    """
    if not tape:
        raise EvalTapeError(
            "the stream tape is empty: an eval-mode forward records none, and a backward consumes a "
            "train-mode one; run the forward again in train mode"
        )
    g = grad_feat
    while tape:
        kind, name, cache = tape.pop()
        if kind == "gap":
            g = global_average_pool_backward(cache, g)
        elif kind == "block":
            bgrads, g = residual_block_backward(cache, g)
            for key in list(bgrads):
                consume(f"{name}.{key}", bgrads.pop(key))
        elif kind == "stem":
            c_conv, c_bn, beta, pooled, pool_spec = cache
            relu_out = batchnorm_relu(c_bn, beta, np.empty_like(c_bn[0]))
            g = maxpool_backward((relu_out, pooled, pool_spec), g)
            relu_backward(relu_out, g, out=g)
            del relu_out  # before the gradients below
            dgamma, dbeta, g = batchnorm_backward(c_bn, g)
            dw, _ = conv_backward(c_conv, g, input_grad=False)
            consume(f"{name}.bn.gamma", dgamma)
            consume(f"{name}.bn.beta", dbeta)
            consume(f"{name}.conv.w", dw)
        else:
            raise ValueError(f"unknown tape entry {kind!r}")


@dataclass
class ModelTape:
    """What forward_train records for `backward`, which consumes it.

    The stream tapes hold each activation once (forward_stream says what
    they keep); backward rebuilds each rectifier output that follows a
    batch norm from that norm's x-hat, gamma and beta, so no parameter may
    change between forward_train and its own entry's backward (backward's
    consumer may change it after that). `tanh_cache` is the
    prediction itself. `backward` takes both stream tapes out of the
    ModelTape, leaving them empty, before it forms any gradient, and
    empties them as it walks them: a ModelTape whose stream tapes are empty
    is consumed, so it can be differentiated once, and a training step that
    keeps no other reference to it frees each layer's cache as soon as that
    layer's backward has run.
    """

    auditory: list
    visual: list
    fusion_cache: tuple
    tanh_cache: np.ndarray
    split: int


def forward_train(
    arch: Architecture,
    params: dict,
    audio: np.ndarray,
    frames: np.ndarray,
    audio_len: Optional[int] = None,
    frame_size: Optional[int] = None,
):
    """Training forward pass on cropped batches; returns (pred, tape).

    audio (B, 1, L) and frames (B, 3, H, W) with matching batch of at
    least 2 (batch-norm needs real statistics). Predictions are (B,
    out_dim), every value in (0, 1).
    """
    if audio.ndim != 3 or frames.ndim != 4:
        raise ShapeMismatchError("forward_train inputs", audio.shape, frames.shape)
    if audio.shape[0] != frames.shape[0]:
        raise ShapeMismatchError("forward_train batch", audio.shape, frames.shape)
    if audio.shape[0] < 2:
        raise ValueError("training batch must have >= 2 samples")
    if audio_len is not None and audio.shape[2] != audio_len:
        raise ShapeMismatchError("audio crop", audio.shape, (audio.shape[0], 1, audio_len))
    if frame_size is not None and frames.shape[2:] != (frame_size, frame_size):
        raise ShapeMismatchError("frame crop", frames.shape, (frames.shape[0], FRAME_PLANES, frame_size, frame_size))

    fa, tape_a = forward_stream(audio, arch.auditory, "auditory", params, "train")
    fv, tape_v = forward_stream(frames, arch.visual, "visual", params, "train")
    feats = np.concatenate([fa, fv], axis=1)
    z, c_lin = linear_forward(feats, params["fusion.w"], params["fusion.b"])
    pred, c_tanh = scaled_tanh(z)
    tape = ModelTape(
        auditory=tape_a,
        visual=tape_v,
        fusion_cache=c_lin,
        tanh_cache=c_tanh,
        split=fa.shape[1],
    )
    return pred, tape


def backward(tape: ModelTape, grad_out: np.ndarray, consume):
    """Hand the gradient of every trainable tensor, given dL/dpred, to
    consume(name, gradient) as it is formed.

    The walk is in tape order: fusion.w and fusion.b once linear_backward
    has formed the features' gradient, then each stream's
    (backward_stream), auditory first. Nothing else keeps a gradient, so a
    consumer that applies and drops it (optim.adam_step's update) holds one
    at a time.

    grad_out is checked before anything is consumed. The tape is then
    consumed: the auditory stream's caches are released as its backward
    runs, before the visual stream's backward starts, and a second call on
    the same tape raises EvalTapeError.
    """
    if grad_out.shape != tape.tanh_cache.shape:
        raise ShapeMismatchError("backward grad_out", grad_out.shape, tape.tanh_cache.shape)
    if not tape.auditory:
        raise EvalTapeError("this ModelTape was already differentiated, which consumed it; run forward_train again")
    auditory, visual = tape.auditory, tape.visual
    tape.auditory, tape.visual = [], []
    dz = scaled_tanh_backward(tape.tanh_cache, grad_out)
    dw, db, dfeats = linear_backward(tape.fusion_cache, dz)
    consume("fusion.w", dw)
    consume("fusion.b", db)
    backward_stream(auditory, np.ascontiguousarray(dfeats[:, : tape.split]), consume)
    backward_stream(visual, np.ascontiguousarray(dfeats[:, tape.split :]), consume)


# ---------------------------------------------------------------------------
# whole-clip inference

def _pad_audio(audio: np.ndarray, minimum: int) -> np.ndarray:
    S = audio.shape[1]
    if S >= minimum:
        return audio
    left = (minimum - S) // 2
    out = np.zeros((1, minimum), dtype=audio.dtype)
    out[:, left : left + S] = audio
    return out


def _fsum_mean(rows: list) -> np.ndarray:
    """Exactly rounded per-channel mean, invariant to row order."""
    stack = np.stack(rows).astype(np.float64)
    return np.array([math.fsum(stack[:, c]) for c in range(stack.shape[1])]) / stack.shape[0]


# clip_features runs a clip's scored frames through the visual stream several
# at a time, across span boundaries: as many as have at most this many bytes
# of stem columns, and at least one frame. conv_forward builds the columns of
# a batch of small frames at most layers.BAND_BYTES at a time, so the budget
# sets the batch size, not the columns held. A miniature 64x64 frame has
# 602 KB of stem columns and runs 27 to a batch; its 17 small convolutions
# are mostly call overhead. On a 2-core x86-64 VM (best of 40 runs of 27
# frames, three processes) it took 0.45 ms alone and 0.19-0.24 ms in a
# batch of 27, against 0.39-0.46 ms when 8 MB column slices held 13 frames,
# and scoring a 3 s 64x64 span peaked at 4.25 MB (tracemalloc), against
# 4.66 MB for batches of 6. A canonical 256x456 frame has 17.2 MB of
# stem columns, so it still runs alone, in bands of at most
# layers.BAND_BYTES, and its eval pass peaks at 6.6 MB.
FRAME_BATCH_BYTES = 16 << 20


def _stem_column_bytes(stream: StreamSpec, frame_shape: tuple, dtype) -> int:
    """Bytes of the stem convolution's columns for one frame of frame_shape (T, C, H, W)."""
    spec = _stem_spec(stream)
    windows = math.prod(out_extent(*dims) for dims in zip(frame_shape[2:], spec.kernel, spec.stride, spec.padding))
    return spec.in_channels * math.prod(spec.kernel) * windows * np.dtype(dtype).itemsize


def clip_features(arch: Architecture, params: dict, clip: Clip | ClipFile, spans) -> np.ndarray:
    """One fused feature row per span of the clip, stacked as (len(spans), fusion_in).

    A span is (first sample, end sample, frame indices). Its row is the
    auditory-stream features of those samples, zero-padded to
    MIN_AUDIO_SAMPLES, then the `_fsum_mean` of the visual-stream features
    of those frames at native resolution. All spans' frames run as one
    sequence, in batches of as many as have FRAME_BATCH_BYTES of stem
    columns, and at least one, so a batch may cross a span boundary; each
    span's mean is then taken over its slice of the per-frame features.
    Eval mode runs each frame of a batch through the same products, and the
    mean is exactly rounded and order-invariant, so the rows are bitwise
    equal to running each frame alone. The clip is read through
    `audio_window` and `frame_rows` only, one span's audio and one frame at
    a time into the batch buffer, so a ClipFile is never held in memory
    whole and gives the same rows as its clip loaded whole. Both streams
    run in eval mode, each folded once per call; the auditory weights are
    dropped before the visual stream is folded, so no pass holds both.
    """
    dtype = params["fusion.w"].dtype
    folded = fold_stream(arch.auditory, "auditory", params)
    audio_rows = []
    for lo, hi, _ in spans:
        audio = _pad_audio(clip.audio_window(lo, hi).astype(dtype, copy=False), MIN_AUDIO_SAMPLES)
        audio_rows.append(forward_stream(audio[None], arch.auditory, "auditory", folded, "eval")[0][0])
    del folded
    folded = fold_stream(arch.visual, "visual", params)
    H = clip.frame_shape[2]
    k = max(1, FRAME_BATCH_BYTES // _stem_column_bytes(arch.visual, clip.frame_shape, dtype))
    batch = np.empty((k,) + clip.frame_shape[1:], dtype)
    frames = [t for _, _, span_frames in spans for t in span_frames]
    fv = []
    for lo in range(0, len(frames), k):
        part = frames[lo : lo + k]
        for i, t in enumerate(part):
            batch[i] = unit_frames(clip.frame_rows(t, 0, H), dtype)
        fv.extend(forward_stream(batch[: len(part)], arch.visual, "visual", folded, "eval")[0])
    rows = []
    lo = 0
    for fa, (_, _, span_frames) in zip(audio_rows, spans):
        hi = lo + len(span_frames)
        rows.append(np.concatenate([fa, _fsum_mean(fv[lo:hi]).astype(dtype)]))
        lo = hi
    return np.stack(rows)


def forward_infer(arch: Architecture, params: dict, clip: Clip | ClipFile, frame_stride: int = 1) -> np.ndarray:
    """Whole-clip prediction per the evaluation protocol.

    `clip_features` over one span: the full waveform, pooled over its whole
    temporal extent, and every frame_stride-th frame, whose pooled vectors
    are averaged. The fusion head maps that row to the prediction. A
    ClipFile is read one scored frame at a time, and each scored frame
    exactly once; no other frame is read. The scored frames run through
    the visual stream in batches (FRAME_BATCH_BYTES), bitwise equal to one
    at a time. Nothing is mutated, so calls are deterministic.
    """
    if frame_stride < 1:
        raise ValueError("frame_stride must be >= 1")
    feats = clip_features(arch, params, clip, [(0, clip.sample_count, range(0, clip.frame_count, frame_stride))])
    z, _ = linear_forward(feats, params["fusion.w"], params["fusion.b"])
    pred, _ = scaled_tanh(z)
    return pred[0]
