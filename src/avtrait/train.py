"""Training loop, evaluation protocol, per-trait fine-tuning, checkpoints.

Checkpoint container (little-endian):

    magic    8 bytes  b"DIChkpt1"
    version  u32
    epoch    u32      index of the last completed epoch
    count    u32      number of tensor records
    records  per tensor: u16 name length, name utf-8, u8 rank,
             rank * u32 extents, f32 row-major payload
    trailer  u32 length + bytes (json-encoded rng state; empty if none)

Network tensors use their manifest names; optimizer moments ride along
under "adam.m."/"adam.v." prefixes plus a scalar "adam.t"; a fine-tuned
single-trait head records its trait index as "meta.trait". Feature caches
reuse the same container with one "feat.<clip_id>" tensor per clip.

Round trips are bitwise lossless, and resuming from a checkpoint written
after epoch e reproduces the uninterrupted run's epoch e+1 exactly (the
data-order generator state is part of the checkpoint).
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (
    ClipFormatError,
    Manifest,
    TRAITS,
    atomic_write_bytes,
    atomic_write_text,
    crop_audio,
    crop_frame,
    index_clip,
    open_clip,
)
from .model import (
    Architecture,
    backward,
    build_network,
    forward_infer,
    forward_train,
    full_architecture,
    mini_architecture,
    param_manifest,
    trainable_names,
    validate_params,
    with_out_dim,
)
from .optim import AdamState, adam_step, check_alpha, init_adam, mae_loss

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"DIChkpt1"
CHECKPOINT_VERSION = 1
_HEAD = struct.Struct("<8sIII")

# Each crop leaves several final positions after the streams' total strides
# of 1024 samples and 32 px: 49 and 7x7 at full size, 8 and 2x2 in miniature.
FULL_AUDIO_CROP = 50176
FULL_FRAME_CROP = 224
MINI_AUDIO_CROP = 8192
MINI_FRAME_CROP = 64


class CheckpointError(ValueError):
    """Base for malformed checkpoint containers."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointManifestError(CheckpointError):
    pass


class CheckpointDecodeError(CheckpointError):
    """A field that does not decode: a non-UTF-8 or repeated name, a trailer
    that is not a JSON object holding a PCG64 state, or a counter that is
    not a whole number."""


# ---------------------------------------------------------------------------
# tensor container

def write_tensor_container(path: str, named: dict, epoch: int = 0, trailer: bytes = b"") -> None:
    """Write `named` (tensors in name order) and `trailer` as one container, atomically.

    The header, each record's head and each tensor's bytes are written
    straight to the temp file, so no copy of the whole container is built;
    only a tensor that is not already C-ordered little-endian float32 is
    converted, one at a time. A tensor that cannot be recorded raises
    CheckpointError and leaves `path` as it was.
    """
    atomic_write_bytes(path, _container_parts(named, epoch, trailer))


def _container_parts(named: dict, epoch: int, trailer: bytes):
    yield _HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, epoch, len(named))
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f4")
        raw = name.encode("utf-8")
        if len(raw) >= 1 << 16 or arr.ndim >= 1 << 8 or arr.ndim < 1:
            raise CheckpointError(f"unserializable tensor {name!r} rank {arr.ndim}")
        yield struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        yield arr
    yield struct.pack("<I", len(trailer)) + trailer


def read_tensor_container(path: str):
    """Returns (epoch, {name: float32 tensor}, trailer bytes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEAD.size:
        raise CheckpointTruncatedError(f"{path}: shorter than the header")
    magic, version, epoch, count = _HEAD.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    named = {}
    off = _HEAD.size
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            try:
                name = blob[off : off + name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointDecodeError(f"{path}: tensor name at byte {off} is not UTF-8") from None
            off += name_len
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            if rank < 1 or 0 in shape:
                raise CheckpointError(f"{path}: tensor {name!r} has rank 0 or a zero extent: {shape}")
            n = math.prod(shape)
            end = off + 4 * n
            if end > len(blob):
                raise CheckpointTruncatedError(f"{path}: tensor {name!r} runs past end of file")
            if name in named:
                raise CheckpointDecodeError(f"{path}: tensor name {name!r} appears twice")
            named[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape).copy()
            off = end
        (trailer_len,) = struct.unpack_from("<I", blob, off)
        off += 4
    except struct.error:
        raise CheckpointTruncatedError(f"{path}: header fields run past end of file") from None
    if off + trailer_len != len(blob):
        raise CheckpointTruncatedError(f"{path}: length {len(blob)} != implied {off + trailer_len}")
    return epoch, named, blob[off : off + trailer_len]


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    epoch: int
    params: dict
    adam: Optional[AdamState]
    rng_state: Optional[dict]
    arch: Architecture
    mini: bool
    trait: Optional[int] = None


def save_checkpoint(
    path: str,
    epoch: int,
    params: dict,
    adam: Optional[AdamState] = None,
    rng: Optional[np.random.Generator] = None,
    trait: Optional[int] = None,
) -> None:
    named = dict(params)
    if adam is not None:
        for name, m in adam.m.items():
            named[f"adam.m.{name}"] = m
            named[f"adam.v.{name}"] = adam.v[name]
        named["adam.t"] = np.array([adam.t], dtype=np.float32)
    if trait is not None:
        named["meta.trait"] = np.array([trait], dtype=np.float32)
    trailer = b""
    if rng is not None:
        trailer = json.dumps(rng.bit_generator.state).encode("utf-8")
    write_tensor_container(path, named, epoch=epoch, trailer=trailer)


def _infer_architecture(path: str, params: dict):
    """The known architecture the tensors fit; if none, the error names the
    mismatch against the one whose tensor names differ least."""
    mismatches = []
    for mini in (False, True):
        for out_dim in (5, 1):
            arch = (mini_architecture if mini else full_architecture)(out_dim=out_dim)
            try:
                validate_params(arch, params)
            except ValueError as exc:
                mismatches.append((len(set(params) ^ set(param_manifest(arch))), str(exc)))
                continue
            return arch, mini
    nearest = min(mismatches, key=lambda m: m[0])[1]
    raise CheckpointManifestError(f"{path}: tensor names/shapes match no known architecture; nearest: {nearest}")


def _counter(path: str, name: str, arr: np.ndarray, end: float = math.inf) -> int:
    """The whole number in [0, end) that a one-element tensor holds."""
    value = float(arr.flat[0])
    if arr.size != 1 or not value.is_integer() or not 0 <= value < end:
        raise CheckpointDecodeError(f"{path}: {name} = {arr.tolist()} is not a whole number in [0, {end})")
    return int(value)


def load_checkpoint(path: str) -> Checkpoint:
    epoch, named, trailer = read_tensor_container(path)
    params = {}
    moments_m = {}
    moments_v = {}
    t = 0
    trait = None
    for name, arr in named.items():
        if name.startswith("adam.m."):
            moments_m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            moments_v[name[len("adam.v.") :]] = arr
        elif name == "adam.t":
            t = _counter(path, name, arr)
        elif name == "meta.trait":
            trait = _counter(path, name, arr, len(TRAITS))
        else:
            params[name] = arr
    arch, mini = _infer_architecture(path, params)
    adam = None
    if moments_m or moments_v or "adam.t" in named:
        trainable = set(trainable_names(arch))
        if set(moments_m) != trainable or set(moments_v) != trainable:
            raise CheckpointManifestError(f"{path}: optimizer moments do not cover the trainable set")
        adam = AdamState(m=moments_m, v=moments_v, t=t)
    rng_state = None
    if trailer:
        try:
            rng_state = json.loads(trailer.decode("utf-8"))
        except ValueError:  # a UnicodeDecodeError or a JSONDecodeError
            raise CheckpointDecodeError(f"{path}: trailer is not UTF-8 JSON") from None
        if not isinstance(rng_state, dict):
            raise CheckpointDecodeError(f"{path}: trailer is not a JSON object")
        try:  # numpy's setter raises any of these for a malformed state
            np.random.PCG64().state = rng_state
        except (KeyError, TypeError, ValueError, OverflowError):
            raise CheckpointDecodeError(f"{path}: trailer is not a PCG64 state") from None
        # the setter truncates a float or a bool to an int without a word
        numbers = (rng_state["state"]["state"], rng_state["state"]["inc"], rng_state["has_uint32"], rng_state["uinteger"])
        if any(type(v) is not int for v in numbers):
            raise CheckpointDecodeError(f"{path}: trailer holds a PCG64 state with a non-integer value")
    return Checkpoint(epoch=epoch, params=params, adam=adam, rng_state=rng_state, arch=arch, mini=mini, trait=trait)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class TrainConfig:
    epochs: int = 900
    batch_size: int = 32
    seed: int = 0
    checkpoint_every: int = 100
    out_dir: str = "run"
    mini: bool = False
    audio_crop: Optional[int] = None
    frame_crop: Optional[int] = None
    initial_alpha: float = AdamState.alpha
    lr_period: int = 300

    def __post_init__(self):
        for name in ("epochs", "checkpoint_every", "lr_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm needs real statistics)")
        for name in ("audio_crop", "frame_crop"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_alpha(self.initial_alpha)

    @property
    def crops(self):
        audio = self.audio_crop if self.audio_crop is not None else (MINI_AUDIO_CROP if self.mini else FULL_AUDIO_CROP)
        frame = self.frame_crop if self.frame_crop is not None else (MINI_FRAME_CROP if self.mini else FULL_FRAME_CROP)
        return audio, frame

    def alpha_for_epoch(self, epoch: int) -> float:
        """Adam's step size in `epoch`: initial_alpha, divided by 10 after every lr_period epochs."""
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        return self.initial_alpha / 10.0 ** (epoch // self.lr_period)


@dataclass
class TrainResult:
    arch: Architecture
    params: dict
    adam: AdamState
    losses: list  # (epoch, alpha, train_mae)
    checkpoint_path: str
    out_dir: str


# ---------------------------------------------------------------------------
# training

def _loss_log_text(losses) -> str:
    lines = ["epoch,alpha,train_mae"]
    lines += [f"{e},{a:.8g},{m:.6f}" for e, a, m in losses]
    return "\n".join(lines) + "\n"


def _read_loss_log(path: str, up_to_epoch: int) -> list:
    if not os.path.exists(path):
        return []
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        next(fh, None)
        for line in fh:
            e, a, m = line.strip().split(",")
            if int(e) <= up_to_epoch:
                out.append((int(e), float(a), float(m)))
    return out


def _fresh_start(arch: Architecture, config: TrainConfig, base: Optional[dict] = None):
    """(params, adam, rng) for a run from epoch 0, drawn from config.seed.

    With `base`, every tensor outside the fusion head is a copy of base's.
    """
    init_ss, data_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = build_network(arch, init_ss)
    if base is not None:
        params.update({n: v.copy() for n, v in base.items() if not n.startswith("fusion.")})
    adam = init_adam(params, trainable_names(arch), config.initial_alpha)
    return params, adam, np.random.Generator(np.random.PCG64(data_ss))


def _crop_batch(clips, rng, audio_crop: int, frame_crop: int):
    """The stacked (audio, frames) crops of `clips`, drawn clip by clip."""
    audios, frames = [], []
    for clip in clips:
        audios.append(crop_audio(clip, rng, audio_crop))
        frames.append(crop_frame(clip, rng, frame_crop))
    return np.stack(audios), np.stack(frames)


def _train_step(arch, params, adam, rng, batch, crops, trait) -> float:
    """One Adam step on a batch of (row, ClipFile); returns the batch's mean absolute error.

    The stacked crops are held only by the local tape, and `backward`
    frees each layer's cache as it goes. adam_step runs `backward` as its
    walk, so each tensor is updated, and its gradient dropped, before the
    next tape entry's backward runs. Only `params` and `adam` outlive it.
    """
    pred, tape = forward_train(arch, params, *_crop_batch([clip for _, clip in batch], rng, *crops), *crops)
    target = np.stack([row.traits if trait is None else row.traits[[trait]] for row, _ in batch]).astype(np.float32)
    loss, dpred = mae_loss(pred, target)
    adam_step(params, functools.partial(backward, tape, dpred), adam)
    return loss


def _run_epochs(
    arch: Architecture,
    params: dict,
    adam: AdamState,
    rng: np.random.Generator,
    config: TrainConfig,
    manifest: Manifest,
    start_epoch: int,
    losses: list,
    trait: Optional[int],
) -> TrainResult:
    rows = manifest.split_rows("train")
    if len(rows) < config.batch_size:
        raise ValueError(f"need >= batch_size ({config.batch_size}) training clips, have {len(rows)}")
    crops = config.crops
    # Every training clip is checked before the first step, so a bad one
    # fails here and not when first drawn. Only its path and extents are
    # kept: a 15 s 256x456 clip is 131 MB even at u8, and each crop reads
    # just its own bytes from the file.
    clips = [index_clip(manifest.clip_path(row), crops[1]) for row in rows]
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "loss_log.csv")

    for epoch in range(start_epoch, config.epochs):
        adam.alpha = config.alpha_for_epoch(epoch)
        order = rng.permutation(len(rows))
        abs_sum = 0.0
        n_seen = 0
        for lo in range(0, len(rows), config.batch_size):
            ids = order[lo : lo + config.batch_size]
            if len(ids) < 2:
                break  # a 1-sample tail has no batch statistics
            batch = [(rows[int(j)], clips[int(j)]) for j in ids]
            n = len(batch) * arch.out_dim
            abs_sum += _train_step(arch, params, adam, rng, batch, crops, trait) * n
            n_seen += n
        losses.append((epoch, adam.alpha, abs_sum / n_seen))
        if (epoch + 1) % config.checkpoint_every == 0 or epoch == config.epochs - 1:
            ckpt_path = os.path.join(out_dir, f"checkpoint_{epoch:05d}.ckpt")
            save_checkpoint(ckpt_path, epoch, params, adam, rng, trait=trait)
            atomic_write_text(log_path, _loss_log_text(losses))
    # start_epoch < config.epochs, so the last epoch has written ckpt_path
    return TrainResult(arch, params, adam, losses, ckpt_path, out_dir)


def train(config: TrainConfig, manifest: Manifest, resume: Optional[str] = None) -> TrainResult:
    """Train the challenge model; fully determined by (seed, config, dataset).

    A resume takes the parameters, Adam's state, the data generator and the
    epoch from the checkpoint. No checkpoint records initial_alpha,
    lr_period, the crops or the batch size: a resume takes them from `config`.
    """
    arch = mini_architecture() if config.mini else full_architecture()
    if resume is None:
        params, adam, rng = _fresh_start(arch, config)
        return _run_epochs(arch, params, adam, rng, config, manifest, 0, [], trait=None)

    ckpt = load_checkpoint(resume)
    if ckpt.mini != config.mini or ckpt.arch.out_dim != 5:
        raise CheckpointManifestError(f"{resume}: checkpoint architecture does not match the run config")
    if ckpt.adam is None or ckpt.rng_state is None:
        raise CheckpointError(f"{resume}: checkpoint lacks optimizer/rng state, cannot resume")
    if ckpt.epoch + 1 >= config.epochs:
        # epochs count from 0, so a run of config.epochs ends at epoch config.epochs - 1
        raise ValueError(
            f"{resume}: checkpoint epoch {ckpt.epoch} leaves no epoch to train (epochs = {config.epochs}, "
            f"so the last is {config.epochs - 1})"
        )
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = ckpt.rng_state
    losses = _read_loss_log(os.path.join(config.out_dir, "loss_log.csv"), ckpt.epoch)
    return _run_epochs(arch, ckpt.params, ckpt.adam, rng, config, manifest, ckpt.epoch + 1, losses, trait=None)


def finetune_per_trait(base: Checkpoint, trait: int, config: TrainConfig, manifest: Manifest) -> TrainResult:
    """Warm-start from a trained challenge model, swap in a fresh 1-output head."""
    if not 0 <= trait < len(TRAITS):
        raise ValueError(f"trait index must be in [0, {len(TRAITS)}), got {trait}")
    if base.arch.out_dim != 5:
        raise ValueError("fine-tuning starts from a 5-trait challenge checkpoint")
    if base.mini != config.mini:
        raise CheckpointManifestError("checkpoint and config disagree about the miniature flag")
    arch = with_out_dim(base.arch, 1)
    params, adam, rng = _fresh_start(arch, config, base.params)
    return _run_epochs(arch, params, adam, rng, config, manifest, 0, [], trait=trait)


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    traits: tuple  # the scored traits' names: all five in manifest order, or a single-trait head's one
    per_trait: np.ndarray  # their accuracies, in that order
    average: float
    clips: int
    excluded: int

    def csv(self) -> str:
        header = "average," + ",".join(self.traits) + ",clips,excluded"
        vals = [f"{self.average:.6f}"] + [f"{v:.6f}" for v in self.per_trait]
        return header + "\n" + ",".join(vals + [str(self.clips), str(self.excluded)]) + "\n"


def aggregate_accuracies(per_trait) -> float:
    """Challenge aggregation rule: the average of the five per-trait accuracies."""
    per_trait = np.asarray(per_trait, dtype=np.float64)
    return float(per_trait.mean())


def map_clips(manifest: Manifest, rows, fn) -> list:
    """[(row, fn(its opened clip))] in row order.

    Each clip is opened with `open_clip`: checked whole, held as a ClipFile,
    and read by `fn` only where it reads. A clip whose opening or `fn`
    raises OSError or ClipFormatError is logged and gets None; any other
    error propagates.
    """

    def one(row):
        try:
            return row, fn(open_clip(manifest.clip_path(row)))
        except (OSError, ClipFormatError) as exc:
            log.warning("skipping clip %s: %s", row.clip_id, exc)
            return row, None

    return [one(row) for row in rows]


def readable(results: list, split) -> list:
    """map_clips' results without the skipped clips; raises if none is left."""
    kept = [(row, out) for row, out in results if out is not None]
    if not kept:
        raise ValueError(f"no readable clips in split {split!r}")
    return kept


def predict_rows(arch, params, manifest: Manifest, rows, frame_stride: int = 1, threads: int = 1):
    """Whole-clip predictions in manifest order; None marks unusable clips.

    `threads` accepts only 1 and changes nothing: clips are scored one at a
    time. It is kept for callers that still pass it, and goes with the next
    benchmark-only change (ROADMAP item 3).
    """
    if threads != 1:
        raise ValueError(f"clips are scored on one worker; threads must be 1, got {threads!r}")
    return map_clips(manifest, rows, lambda clip: forward_infer(arch, params, clip, frame_stride=frame_stride))


def evaluate(
    arch, params, manifest: Manifest, split: str = "validation", frame_stride: int = 1, trait: Optional[int] = None
) -> EvalReport:
    """Full-clip protocol: accuracy_k = 1 - mean |pred_k - target_k|.

    A 5-output head is scored on every trait. A 1-output head, as
    fine-tuned per trait, is scored on `trait` alone, and its report names
    that one trait and holds its one accuracy.
    """
    if arch.out_dim == 5 and trait is None:
        cols = list(range(5))
    elif arch.out_dim == 1 and trait is not None and 0 <= trait < 5:
        cols = [trait]
    else:
        raise ValueError(f"a {arch.out_dim}-output head cannot be scored with trait={trait!r}")
    rows = manifest.split_rows(split)
    if not rows:
        raise ValueError(f"split {split!r} is empty")
    results = predict_rows(arch, params, manifest, rows, frame_stride)
    scored = readable(results, split)
    err = np.zeros(len(cols), dtype=np.float64)
    for row, pred in scored:
        err += np.abs(pred.astype(np.float64) - row.traits[cols])
    n = len(scored)
    per_trait = 1.0 - err / n
    return EvalReport(
        traits=tuple(TRAITS[c] for c in cols),
        per_trait=per_trait,
        average=aggregate_accuracies(per_trait),
        clips=n,
        excluded=len(results) - n,
    )
