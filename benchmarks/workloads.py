"""The benchmark's workloads: inputs made from a seed, one timed pass, and output checks.

Each workload has three sides:

* ``setup`` (parent process) writes the inputs under a directory and keeps
  what the output checks need; it is what ``setup_s`` times.
* ``load`` + ``run_pass`` (child process) read those inputs and run one pass
  of the task through avtrait's public API; only ``run_pass`` is timed.
* ``check`` (parent process) compares every pass's outputs with a reference.

The program only ever sees the generated files and arrays.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import struct
import time
from dataclasses import dataclass

import numpy as np

from avtrait import data, model, rnn_head, train


@dataclass(frozen=True)
class Sizes:
    """Every input and task size of the three workloads."""

    mini: bool  # architecture of clip_infer and train_full
    infer_seconds: float
    infer_height: int
    infer_width: int
    frame_stride: int
    train_clips: int
    train_seconds: float
    train_height: int
    train_width: int
    train_batch: int
    train_epochs: int
    train_audio_crop: int
    train_frame_crop: int
    desk_clips: int
    desk_holdout: int
    desk_seconds: float
    desk_side: int
    desk_batch: int
    desk_epochs: int
    desk_checkpoint_every: int
    desk_audio_crop: int
    desk_frame_crop: int
    desk_rnn_epochs: int
    desk_rnn_hidden: int


# The paper's sizes: 256x456 frames, 15 s clips scored at frame stride 5,
# 224 px / 50176-sample training crops at batch 8, and the desk pipeline's
# 64x64 clips with the production 512-unit recurrent head.
FULL = Sizes(
    mini=False,
    infer_seconds=15.0,
    infer_height=data.CANONICAL_HEIGHT,
    infer_width=data.CANONICAL_WIDTH,
    frame_stride=5,
    train_clips=8,
    train_seconds=3.2,
    train_height=data.CANONICAL_HEIGHT,
    train_width=data.CANONICAL_WIDTH,
    train_batch=8,
    train_epochs=2,
    train_audio_crop=train.FULL_AUDIO_CROP,
    train_frame_crop=train.FULL_FRAME_CROP,
    desk_clips=22,
    desk_holdout=6,
    desk_seconds=3.0,
    desk_side=64,
    desk_batch=8,
    desk_epochs=15,
    desk_checkpoint_every=5,
    desk_audio_crop=16000,
    desk_frame_crop=48,
    desk_rnn_epochs=2,
    desk_rnn_hidden=rnn_head.RNN_HIDDEN,
)

# Fusion pre-activations are scaled to this magnitude so that scaled-tanh
# predictions sit well inside (0, 1) and a wrong feature shows in them.
FUSION_TARGET = 1.0
# Predictions outside this band count as saturated.
UNSATURATED = (0.01, 0.99)
# Whole-clip predictions may differ from the float64-fused reference by this
# much. Today's float32 path is within 1e-7; reordered float32 arithmetic
# (a folded BN, another conv primitive) moves features by about 1e-6
# relative. Leaving out one of the 75 scored frames moves predictions by
# about 4e-4.
PRED_ATOL = 2e-5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _architecture(mini: bool) -> model.Architecture:
    return model.mini_architecture() if mini else model.full_architecture()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _all_finite(arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def write_clip(path: str, rng: np.random.Generator, seconds: float, height: int, width: int):
    """Write one clip container straight from u8 frames; returns (audio, frames_u8, label).

    ``data.synth_clip`` builds a float64 pixel grid, which for a canonical
    15 s clip costs seconds and gigabytes; this writes the documented
    container layout directly. The audio is a sine mixture plus noise. The
    frames are an oriented colour gradient whose colour drifts over the
    clip, plus per-frame noise, so that every frame moves the clip's mean
    features and a frame dropped or repeated changes the prediction.
    """
    S = int(round(seconds * data.SAMPLE_RATE))
    T = int(round(seconds * data.FPS))
    freq = rng.uniform(200.0, 3000.0)
    t = np.arange(S, dtype=np.float64) / data.SAMPLE_RATE
    wave = 0.55 * np.sin(2 * math.pi * freq * t) + 0.3 * np.sin(2 * math.pi * 1.5 * freq * t + rng.uniform(0, 6.28))
    audio = (wave + 0.1 * rng.uniform(-1.0, 1.0, S)).astype(np.float32)

    theta = rng.uniform(0.0, 2 * math.pi)
    gy = np.linspace(-0.5, 0.5, height)[:, None]
    gx = np.linspace(-0.5, 0.5, width)[None, :]
    proj = math.cos(theta) * gx + math.sin(theta) * gy
    base = np.clip(rng.uniform(30.0, 90.0, 3)[:, None, None] + 60.0 * proj[None], 0, 120).astype(np.uint8)
    shift = rng.integers(0, 101, size=(T, 3, 1, 1), dtype=np.uint8)
    frames = np.frombuffer(rng.bytes(T * 3 * height * width), dtype=np.uint8).reshape(T, 3, height, width) >> 3
    frames += base  # gradient <= 120, + noise in [0, 31]
    frames += shift  # + a colour shift in [0, 100] per frame: stays <= 251

    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sIIHH", data.CLIP_MAGIC, S, T, height, width))
        fh.write(audio.astype("<f4").tobytes())
        fh.write(frames.data)
    label = np.round(rng.uniform(0.05, 0.95, 5), 6)
    return audio, frames, label


def write_dataset(directory: str, rng, count: int, split: str, seconds: float, height: int, width: int):
    """Write `count` clips and manifest.csv; returns (manifest, [(audio, frames_u8)])."""
    os.makedirs(directory, exist_ok=True)
    rows, media = [], []
    for i in range(count):
        clip_id = f"clip{i:03d}"
        audio, frames, label = write_clip(os.path.join(directory, f"{clip_id}.clip"), rng, seconds, height, width)
        rows.append(data.ManifestRow(clip_id=clip_id, path=f"{clip_id}.clip", traits=label, split=split))
        media.append((audio, frames))
    manifest = data.Manifest(rows=rows, directory=os.path.abspath(directory))
    data.save_manifest(manifest, os.path.join(directory, "manifest.csv"))
    return manifest, media


def warm_up(arch: model.Architecture, params: dict) -> None:
    """One small eval pass per stream: starts BLAS threads and the allocator."""
    audio = np.zeros((1, 1, model.MIN_AUDIO_SAMPLES), dtype=np.float32)
    frame = np.zeros((1, 3, 64, 64), dtype=np.float32)
    model.forward_stream(audio, arch.auditory, "auditory", params, "eval")
    model.forward_stream(frame, arch.visual, "visual", params, "eval")


@dataclass
class PassResult:
    seconds: float  # wall time of the API calls that make up the pass
    outputs: dict  # what `check` compares
    attempted: int
    failed: int
    work: dict  # rates and quality of this pass, by name


class _Clock:
    def __init__(self):
        self._last = time.perf_counter()
        self.total = 0.0

    def lap(self) -> float:
        now = time.perf_counter()
        lap, self._last = now - self._last, now
        self.total += lap
        return lap


# ---------------------------------------------------------------------------
# clip_infer


class ClipInfer:
    """Whole-clip scoring of canonical clips through ``train.predict_rows``."""

    name = "clip_infer"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.arch = _architecture(sizes.mini)

    def scored_frames(self) -> int:
        frames = int(round(self.sizes.infer_seconds * data.FPS))
        return -(-frames // self.sizes.frame_stride)

    def setup(self, inputs: str, seed: int) -> None:
        s = self.sizes
        manifest, media = write_dataset(inputs, _rng(seed, 1), 1, "validation", s.infer_seconds, s.infer_height, s.infer_width)
        params = model.build_network(self.arch, seed)
        # He-init fusion saturates to exactly 0/1 on canonical clips; scale
        # it from the clip's audio and first and last frames so predictions
        # stay inside (0, 1).
        audio, frames = media[0]
        feats = self._features(params, audio, frames[[0, -1]])
        peak = float(np.max(np.abs(feats @ params["fusion.w"])))
        if peak > 0.0:
            params["fusion.w"] *= np.float32(FUSION_TARGET / peak)
        np.savez(os.path.join(inputs, "params.npz"), **params)
        self.params, self.media, self.manifest = params, media, manifest

    def _features(self, params, audio, frames_u8) -> np.ndarray:
        """Pooled (auditory, mean visual) features of one clip, visual mean in float64."""
        fa, _ = model.forward_stream(audio[None, None, :], self.arch.auditory, "auditory", params, "eval")
        fv = [
            model.forward_stream(f[None].astype(np.float32) / np.float32(255.0), self.arch.visual, "visual", params, "eval")[0][0]
            for f in frames_u8
        ]
        return np.concatenate([fa[0].astype(np.float64), np.mean(np.asarray(fv, dtype=np.float64), axis=0)])

    def load(self, inputs: str, seed: int) -> None:
        self.manifest = data.load_manifest(os.path.join(inputs, "manifest.csv"))
        with np.load(os.path.join(inputs, "params.npz")) as z:
            self.params = {k: z[k] for k in z.files}
        warm_up(self.arch, self.params)

    def run_pass(self, pass_dir: str) -> PassResult:
        rows = self.manifest.split_rows("validation")
        clock = _Clock()
        scored = train.predict_rows(self.arch, self.params, self.manifest, rows, frame_stride=self.sizes.frame_stride, threads=1)
        seconds = clock.lap()
        preds = [None if p is None else p.tolist() for _, p in scored]
        failed = sum(p is None for p in preds)
        work = {"infer_video_s_per_s": self.sizes.infer_seconds * (len(rows) - failed) / seconds}
        return PassResult(seconds, {"preds": preds}, len(rows), failed, work)

    def check(self, outputs: list) -> list:
        """Every pass must match the float64-fused reference and be unsaturated."""
        problems = []
        audio, frames = self.media[0]
        feats = self._features(self.params, audio, frames[:: self.sizes.frame_stride])
        if not np.all(np.isfinite(feats)) or float(np.std(feats)) == 0.0:
            problems.append("reference pooled features are non-finite or constant")
        w = self.params["fusion.w"].astype(np.float64)
        b = self.params["fusion.b"].astype(np.float64)
        ref = (np.tanh(feats @ w + b) + 1.0) / 2.0
        lo, hi = UNSATURATED
        if not np.all((ref > lo) & (ref < hi)):
            problems.append(f"reference predictions saturated: {ref.tolist()}")
        worst = 0.0
        for k, out in enumerate(outputs):
            pred = out["preds"][0]
            if pred is None:
                problems.append(f"pass {k}: clip excluded")
                continue
            err = float(np.max(np.abs(np.asarray(pred) - ref)))
            worst = max(worst, err)
            if not err <= PRED_ATOL:
                problems.append(f"pass {k}: predictions differ from reference by {err:.3g} > {PRED_ATOL}")
        print(f"clip_infer: largest prediction difference from the reference {worst:.3g}")
        return problems


# ---------------------------------------------------------------------------
# train_full


class TrainFull:
    """``train.train`` with the full architecture at the paper's crops."""

    name = "train_full"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def scored_frames(self) -> int:
        return 0

    def setup(self, inputs: str, seed: int) -> None:
        s = self.sizes
        write_dataset(inputs, _rng(seed, 2), s.train_clips, "train", s.train_seconds, s.train_height, s.train_width)
        arch = _architecture(s.mini)
        warm_up(arch, model.build_network(arch, seed))

    def load(self, inputs: str, seed: int) -> None:
        self.seed = seed
        self.manifest = data.load_manifest(os.path.join(inputs, "manifest.csv"))
        arch = _architecture(self.sizes.mini)
        warm_up(arch, model.build_network(arch, seed))

    def run_pass(self, pass_dir: str) -> PassResult:
        s = self.sizes
        config = train.TrainConfig(
            epochs=s.train_epochs,
            batch_size=s.train_batch,
            seed=self.seed,
            checkpoint_every=s.train_epochs,
            out_dir=pass_dir,
            mini=s.mini,
            audio_crop=s.train_audio_crop,
            frame_crop=s.train_frame_crop,
        )
        clock = _Clock()
        result = train.train(config, self.manifest)
        seconds = clock.lap()
        steps = s.train_epochs * (s.train_clips // s.train_batch)
        params = [result.params[k] for k in sorted(result.params)]
        outputs = {
            "losses": [m for _, _, m in result.losses],
            "finite": _all_finite(params),
            "digest": _digest(params),
        }
        return PassResult(seconds, outputs, steps, 0, {"train_samples_per_s": steps * s.train_batch / seconds})

    def check(self, outputs: list) -> list:
        problems = []
        for k, out in enumerate(outputs):
            if not out["finite"] or not all(math.isfinite(v) for v in out["losses"]):
                problems.append(f"pass {k}: non-finite loss or parameter")
        if len({out["digest"] for out in outputs}) > 1:
            problems.append("passes from the same seed trained different parameters")
        return problems


# ---------------------------------------------------------------------------
# desk_mini


class DeskMini:
    """The miniature desk pipeline: train, evaluate, then the recurrent head."""

    name = "desk_mini"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def scored_frames(self) -> int:
        return self.sizes.desk_holdout * int(round(self.sizes.desk_seconds * data.FPS))

    def setup(self, inputs: str, seed: int) -> None:
        s = self.sizes
        data.synth_dataset(
            s.desk_clips, seed, inputs, val_count=s.desk_holdout,
            seconds=s.desk_seconds, height=s.desk_side, width=s.desk_side,
        )
        arch = model.mini_architecture()
        warm_up(arch, model.build_network(arch, seed))

    def load(self, inputs: str, seed: int) -> None:
        self.seed = seed
        self.manifest = data.load_manifest(os.path.join(inputs, "manifest.csv"))
        arch = model.mini_architecture()
        warm_up(arch, model.build_network(arch, seed))

    def run_pass(self, pass_dir: str) -> PassResult:
        s = self.sizes
        manifest = self.manifest
        config = train.TrainConfig(
            epochs=s.desk_epochs,
            batch_size=s.desk_batch,
            seed=self.seed,
            checkpoint_every=s.desk_checkpoint_every,
            out_dir=pass_dir,
            mini=True,
            audio_crop=s.desk_audio_crop,
            frame_crop=s.desk_frame_crop,
            initial_alpha=2e-3,
            lr_period=150,
        )
        clock = _Clock()
        result = train.train(config, manifest)
        t_train = clock.lap()
        report = train.evaluate(result.arch, result.params, manifest, "validation")
        t_eval = clock.lap()

        sequences = []
        for row in manifest.split_rows("train"):
            clip = data.load_clip(manifest.clip_path(row))
            feats = rnn_head.extract_features(clip, result.arch, result.params)
            sequences.append((feats, row.traits.astype(np.float32)))
        t_extract = clock.lap()
        head = rnn_head.build_rnn_head(self.seed, input_dim=sequences[0][0].shape[1], hidden=s.desk_rnn_hidden)
        rnn_losses = rnn_head.train_rnn(sequences, head, rnn_head.RnnTrainConfig(epochs=s.desk_rnn_epochs, seed=self.seed))
        t_rnn = clock.lap()
        holdout = manifest.split_rows("validation")
        rnn_preds = [
            rnn_head.predict_rnn(data.load_clip(manifest.clip_path(row)), result.arch, result.params, head)
            for row in holdout
        ]
        t_predict = clock.lap()

        train_steps = s.desk_epochs * (len(manifest.split_rows("train")) // s.desk_batch)
        rnn_updates = s.desk_rnn_epochs * len(sequences)
        rnn_rows = s.desk_rnn_epochs * sum(len(f) for f, _ in sequences)
        video_s = s.desk_seconds * len(holdout)
        arrays = [result.params[k] for k in sorted(result.params)] + [head[k] for k in sorted(head)]
        outputs = {
            "val_accuracy": report.average,
            "excluded": report.excluded,
            "rnn_preds": np.asarray(rnn_preds, dtype=np.float64).tolist(),
            "finite": _all_finite(arrays),
            "digest": _digest(arrays),
            "losses": [m for _, _, m in result.losses] + list(rnn_losses),
        }
        attempted = train_steps + len(holdout) + len(sequences) + rnn_updates + len(holdout)
        work = {
            "train_samples_per_s": train_steps * s.desk_batch / t_train,
            "infer_video_s_per_s": video_s * (len(holdout) - report.excluded) / len(holdout) / t_eval,
            "extract_video_s_per_s": s.desk_seconds * len(sequences) / t_extract,
            "rnn_train_steps_per_s": rnn_rows / t_rnn,
            "rnn_video_s_per_s": video_s / t_predict,
            "val_accuracy": report.average,
        }
        return PassResult(clock.total, outputs, attempted, report.excluded, work)

    def check(self, outputs: list) -> list:
        problems = []
        for k, out in enumerate(outputs):
            acc = out["val_accuracy"]
            preds = np.asarray(out["rnn_preds"])
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"pass {k}: val_accuracy {acc} outside [0, 1]")
            if not out["finite"] or not all(math.isfinite(v) for v in out["losses"]):
                problems.append(f"pass {k}: non-finite loss or parameter")
            if not np.all((preds > 0.0) & (preds < 1.0)):
                problems.append(f"pass {k}: recurrent predictions outside (0, 1)")
            if out["excluded"]:
                problems.append(f"pass {k}: {out['excluded']} holdout clips excluded")
        if len({(out["digest"], out["val_accuracy"]) for out in outputs}) > 1:
            problems.append("passes from the same seed gave different results")
        return problems


WORKLOADS = {w.name: w for w in (ClipInfer, TrainFull, DeskMini)}


def clear(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
