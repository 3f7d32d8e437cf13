"""Span tracer that wraps avtrait's public functions from outside the program.

``Tracer.install`` replaces each traced function in every loaded avtrait
module that holds it by name (its defining module and each module that
imported it) with one wrapper. The wrapper records a span (name, start, end,
parent) in memory plus a few counts taken from arguments and results.
``Tracer.restore`` puts every original object back. ``per_layer`` turns the
spans into the per-layer table: self times, call counts and computed work.

A span's self time is its duration minus the time its child spans cover.
Work figures marked "computed" come from shapes only (the FLOPs of a direct
convolution and the bytes an im2col lowering materialises), so they repeat
exactly across runs and across implementations.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

TRACED = {
    "data": ("load_clip", "crop_audio", "crop_frame"),
    "layers": (
        "conv_forward", "conv_backward", "batchnorm_forward", "batchnorm_backward",
        "maxpool_forward", "maxpool_backward", "relu_forward", "relu_backward",
        "global_average_pool", "global_average_pool_backward", "linear_forward", "linear_backward",
        "residual_block_forward", "residual_block_backward", "lstm_step", "lstm_step_backward",
    ),
    "model": ("forward_stream", "backward_stream", "forward_train", "backward", "forward_infer"),
    "optim": ("adam_step", "mae_loss"),
    "train": ("train", "evaluate", "predict_rows", "save_checkpoint"),
    "rnn_head": ("extract_features", "rnn_forward", "rnn_backward", "sequence_gradients", "train_rnn", "predict_rnn"),
}

ROOT = "bench.pass"
STREAMS = ("auditory", "visual")
STEM = ("stem.conv", "stem.bn", "stem.relu", "stem.maxpool")
# Tape entries of the full architecture: 4 stages of 2 residual blocks.
BLOCKS = tuple(f"stage{s}.block{b}" for s in range(1, 5) for b in (1, 2))
ENTRIES = STEM + BLOCKS + ("gap",)

# tape-entry kind of each function a stream calls directly, per pass
_FWD_KIND = {
    "layers.conv_forward": "conv", "layers.batchnorm_forward": "bn", "layers.relu_forward": "relu",
    "layers.maxpool_forward": "maxpool", "layers.residual_block_forward": "block",
    "layers.global_average_pool": "gap",
}
_BWD_KIND = {
    "layers.conv_backward": "conv", "layers.batchnorm_backward": "bn", "layers.relu_backward": "relu",
    "layers.maxpool_backward": "maxpool", "layers.residual_block_backward": "block",
    "layers.global_average_pool_backward": "gap",
}

# per-layer self-time metric -> the traced functions whose self times it sums
SELF_TIMES = {
    "data.load_clip.s": ("data.load_clip",),
    "data.crop.s": ("data.crop_audio", "data.crop_frame"),
    "layers.conv_forward.s": ("layers.conv_forward",),
    "layers.conv_backward.s": ("layers.conv_backward",),
    "layers.batchnorm_forward.s": ("layers.batchnorm_forward",),
    "layers.batchnorm_backward.s": ("layers.batchnorm_backward",),
    "layers.maxpool_forward.s": ("layers.maxpool_forward",),
    "layers.maxpool_backward.s": ("layers.maxpool_backward",),
    "layers.relu.s": ("layers.relu_forward", "layers.relu_backward"),
    "layers.gap.s": ("layers.global_average_pool", "layers.global_average_pool_backward"),
    "layers.linear.s": ("layers.linear_forward", "layers.linear_backward"),
    "layers.residual_block.s": ("layers.residual_block_forward", "layers.residual_block_backward"),
    "layers.lstm_step.s": ("layers.lstm_step",),
    "layers.lstm_step_backward.s": ("layers.lstm_step_backward",),
    "model.forward_train.s": ("model.forward_train",),
    "model.backward.s": ("model.backward",),
    "model.forward_infer.s": ("model.forward_infer",),
    "optim.adam_step.s": ("optim.adam_step",),
    "optim.mae_loss.s": ("optim.mae_loss",),
    "train.train.s": ("train.train",),
    "train.evaluate.s": ("train.evaluate",),
    "train.predict_rows.s": ("train.predict_rows",),
    "train.save_checkpoint.s": ("train.save_checkpoint",),
    "rnn_head.extract_features.s": ("rnn_head.extract_features",),
    "rnn_head.rnn_forward.s": ("rnn_head.rnn_forward",),
    "rnn_head.rnn_backward.s": ("rnn_head.rnn_backward",),
    "rnn_head.sequence_gradients.s": ("rnn_head.sequence_gradients",),
    "rnn_head.train_rnn.s": ("rnn_head.train_rnn",),
    "rnn_head.predict_rnn.s": ("rnn_head.predict_rnn",),
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in SELF_TIMES:
        units[name] = "s"
    units.update({
        "data.load_clip.calls": "count",
        "data.load_clip.mb": "MB",
        "data.load_clip.calls_per_clip": "ratio",
        "layers.conv_forward.calls": "count",
        "layers.conv_forward.gflop": "GFLOP",
        "layers.conv_forward.im2col_mb": "MB",
        "layers.conv_backward.gflop": "GFLOP",
        "layers.conv_backward.col2im_mb": "MB",
        "optim.adam_step.calls": "count",
        "train.save_checkpoint.mb": "MB",
        "train.excluded": "count",
    })
    for stream in STREAMS:
        units[f"model.forward_stream.{stream}.s"] = "s"
        units[f"model.backward_stream.{stream}.s"] = "s"
    units["model.visual_frames"] = "count"
    units["model.visual_frames_per_scored_frame"] = "ratio"
    for stream in STREAMS:
        for entry in ENTRIES:
            units[f"{stream}.{entry}.fwd_s"] = "s"
            units[f"{stream}.{entry}.bwd_s"] = "s"
    units.update({
        "trace.pass_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.attributed_frac": "ratio",
        "trace.spans": "count",
    })
    return units


def _block_names(stream_spec) -> list:
    return [
        f"stage{s}.block{b}"
        for s in range(1, len(stream_spec.stage_channels) + 1)
        for b in range(1, stream_spec.blocks_per_stage + 1)
    ]


class Tracer:
    """In-memory spans around avtrait's public functions; one thread only.

    Each span is [name, start, end, parent index or -1, info dict].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._conv_work = {}  # id(conv cache) -> (flop, bytes) of its forward
        self._tapes = {}  # id(stream tape) -> (prefix, block names)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"avtrait.{short}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "avtrait" and not mod_name.startswith("avtrait."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one timed pass."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if parent == name:
                rec[4]["nested"] = True  # 1-d layers re-enter themselves on a lifted 2-d input
            elif hook is not None:
                hook(rec[4], args, kwargs, result)
            return result

        return wrapper

    # -- per-call counts --------------------------------------------------

    def _on_layers_conv_forward(self, info, args, kwargs, result):
        y, cache = result
        w = args[1]
        cout, fan_in = w.shape[0], w.size // w.shape[0]
        windows = y.size // cout
        info["flop"] = 2 * y.size * fan_in
        info["bytes"] = windows * fan_in * y.itemsize
        self._conv_work[id(cache)] = (info["flop"], info["bytes"])

    def _on_layers_conv_backward(self, info, args, kwargs, result):
        flop, nbytes = self._conv_work.pop(id(args[0]), (0, 0))
        info["flop"] = 2 * flop  # dw and dx products
        info["bytes"] = nbytes

    def _on_model_forward_stream(self, info, args, kwargs, result):
        bound = dict(zip(("x", "stream", "prefix", "params", "mode"), args), **kwargs)
        info["prefix"] = bound["prefix"]
        info["batch"] = bound["x"].shape[0]
        info["blocks"] = _block_names(bound["stream"])
        self._tapes[id(result[1])] = (info["prefix"], info["blocks"])

    def _on_model_backward_stream(self, info, args, kwargs, result):
        tape = args[0] if args else kwargs["tape"]
        info["prefix"], info["blocks"] = self._tapes.pop(id(tape), (None, []))

    def _on_data_load_clip(self, info, args, kwargs, result):
        info["path"] = args[0] if args else kwargs["path"]
        info["bytes"] = result.audio.nbytes + result.frames.nbytes

    def _on_train_save_checkpoint(self, info, args, kwargs, result):
        info["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    def _on_train_predict_rows(self, info, args, kwargs, result):
        info["excluded"] = sum(pred is None for _, pred in result)


def self_times(spans) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _entry_times(spans, children, i, kinds, reverse) -> dict:
    """Inclusive time of each tape entry that stream span i ran, by entry name."""
    blocks = list(spans[i][4].get("blocks", []))
    if reverse:
        blocks.reverse()
    out = {}
    for c in children[i]:
        kind = kinds.get(spans[c][0])
        if kind is None:
            continue
        if kind == "block":
            entry = blocks.pop(0) if blocks else "block.extra"
        elif kind == "gap":
            entry = "gap"
        else:
            entry = f"stem.{kind}"
        out[entry] = out.get(entry, 0.0) + spans[c][2] - spans[c][1]
    return out


def per_layer(spans, passes: int, scored_frames: int) -> dict:
    """The per-layer table, each figure per timed pass: name -> value."""
    units = metric_units()
    values = dict.fromkeys(units, 0.0)
    own = self_times(spans)
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    by_fn = {}
    for i, rec in enumerate(spans):
        by_fn.setdefault(rec[0], []).append(i)

    for metric, fns in SELF_TIMES.items():
        values[metric] = sum(own[i] for fn in fns for i in by_fn.get(fn, ()))

    def outer(fn):
        return [i for i in by_fn.get(fn, ()) if not spans[i][4].get("nested")]

    loads = outer("data.load_clip")
    values["data.load_clip.calls"] = len(loads)
    values["data.load_clip.mb"] = sum(spans[i][4]["bytes"] for i in loads) / 1e6
    distinct = len({spans[i][4]["path"] for i in loads})
    values["data.load_clip.calls_per_clip"] = len(loads) / (distinct * passes) if distinct else 0.0
    convs = outer("layers.conv_forward")
    values["layers.conv_forward.calls"] = len(convs)
    values["layers.conv_forward.gflop"] = sum(spans[i][4]["flop"] for i in convs) / 1e9
    values["layers.conv_forward.im2col_mb"] = sum(spans[i][4]["bytes"] for i in convs) / 1e6
    dconvs = outer("layers.conv_backward")
    values["layers.conv_backward.gflop"] = sum(spans[i][4]["flop"] for i in dconvs) / 1e9
    values["layers.conv_backward.col2im_mb"] = sum(spans[i][4]["bytes"] for i in dconvs) / 1e6
    values["optim.adam_step.calls"] = len(by_fn.get("optim.adam_step", ()))
    values["train.save_checkpoint.mb"] = sum(spans[i][4]["bytes"] for i in by_fn.get("train.save_checkpoint", ())) / 1e6
    values["train.excluded"] = sum(spans[i][4]["excluded"] for i in by_fn.get("train.predict_rows", ()))

    scoring = {"train.predict_rows", "rnn_head.predict_rnn"}
    for i in by_fn.get("model.forward_stream", ()):
        info = spans[i][4]
        stream = info["prefix"]
        _add(values, f"model.forward_stream.{stream}.s", own[i])
        for entry, t in _entry_times(spans, children, i, _FWD_KIND, reverse=False).items():
            _add(values, f"{stream}.{entry}.fwd_s", t)
        if stream == "visual":
            values["model.visual_frames"] += info["batch"]
            if _has_ancestor(spans, i, scoring):
                values["model.visual_frames_per_scored_frame"] += info["batch"]
    for i in by_fn.get("model.backward_stream", ()):
        stream = spans[i][4]["prefix"]
        _add(values, f"model.backward_stream.{stream}.s", own[i])
        for entry, t in _entry_times(spans, children, i, _BWD_KIND, reverse=True).items():
            _add(values, f"{stream}.{entry}.bwd_s", t)

    roots = by_fn.get(ROOT, ())
    traced = sum(spans[i][2] - spans[i][1] for i in roots)
    values["trace.attributed_frac"] = 1.0 - sum(own[i] for i in roots) / traced if traced else 0.0
    values["trace.spans"] = len(spans)

    ratios = {"data.load_clip.calls_per_clip", "trace.attributed_frac", "trace.overhead_frac", "trace.pass_s"}
    per_pass = {k: (v if k in ratios else v / passes) for k, v in values.items() if k in units}
    scored = scored_frames * passes
    per_pass["model.visual_frames_per_scored_frame"] = values["model.visual_frames_per_scored_frame"] / scored if scored else 0.0
    return per_pass


def _add(values: dict, key: str, amount: float) -> None:
    """Accumulate; names outside the metric list (a stream or entry the
    full architecture lacks) are dropped when the table is returned."""
    values[key] = values.get(key, 0.0) + amount


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False
