"""Recurrent head over frozen per-second audiovisual features.

The head is two LSTM layers with inverted dropout between them and a
linear readout squashed by the scaled tanh; the production size is
512/512/5 on the 512-d concatenated pooled stream features. Sequences are
one feature row per whole second of the clip: second t pools the auditory
stream over samples [16000t, 16000(t+1)) and the visual stream over that
second's frames, both in eval mode against the frozen base network.

The head runs on batches of equal-length sequences stacked as (B, T, D):
every LSTM step and dropout mask acts on (B, H) rows, and each weight
gradient is one product over the stacked B*T steps (Appleyard et al.,
arXiv 1604.01946). Training takes one Adam step per batch. Each epoch's
permutation is cut into batches of sequences of one length, so a batch
holds no padding; ChaLearn's 15 s clips nearly all give T = 15. The loss
is the per-step MAE averaged over the batch's B*T*K entries, so the
learning rate is independent of sequence length, and the step size is
paired with the batch size (see RnnTrainConfig). Backpropagation is
truncated every `trunc` steps; hidden state crosses truncation boundaries
numerically but carries no gradient.

Training updates each tensor as soon as its gradient exists, as the base
network's step does (LOMO's fused update, Lv et al., arXiv 2306.09782).
rnn_backward runs every segment's recurrences first, which are its only
reads of the weights, and then forms the eight weight gradients one at a
time (readout, layer 2, layer 1), handing each to Adam, which writes the
update over it. So one head gradient is alive at a time.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .data import FPS, SAMPLE_RATE, Clip, ClipFile, ClipTooShortError
from .layers import (
    dropout_backward,
    dropout_forward,
    linear_forward,
    lstm_step,
    lstm_step_backward,
    scaled_tanh,
    scaled_tanh_backward,
)
from .model import Architecture, clip_features, he_normal
from .optim import AdamState, adam_step, check_alpha, init_adam, mae_loss

RNN_HIDDEN = 512

# Sequences per Adam step. The default step size is scaled with the batch
# size, batch_size x AdamState.alpha (the linear scaling rule of Goyal et
# al., arXiv 1706.02677), since a batch learns less per epoch at the
# unscaled step. On the learning gate's
# synthetic split (tests/test_rnn_head.py: T = 3, D = 64, 128 units, 20
# epochs), validation accuracy at seeds 0/1/2 was 0.880/0.884/0.875 at batch
# 8 and 8 x 2e-4, 0.863/0.871/0.855 one sequence a step at 2e-4, and
# 0.844/0.853/0.832 at batch 8 and 2e-4, against 0.835/0.853/0.819 for the
# train-mean predictor; batches of 4 and 16 at their scaled steps gave
# 0.880/0.882/0.871 and 0.878/0.879/0.877. At desk sizes (16 sequences of
# T = 3, 64-d, 512 units, 2 epochs) head training took 0.16-0.19 s at batch
# 8, 0.29-0.32 s at 4 and 0.10 s at 16, against 0.92-1.16 s one sequence a
# step (2-core x86 VM).
RNN_BATCH = 8


@dataclass
class RnnTrainConfig:
    epochs: int = 100
    seed: int = 0
    trunc: int = 15
    dropout: float = 0.5
    batch_size: int = RNN_BATCH
    alpha: float | None = None  # batch_size x AdamState.alpha when not given

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.alpha is None:
            self.alpha = self.batch_size * AdamState.alpha
        if self.trunc < 1:
            raise ValueError(f"truncation length must be >= 1, got {self.trunc}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {self.dropout}")
        check_alpha(self.alpha)


def head_manifest(input_dim: int = 512, hidden: int = RNN_HIDDEN, out_dim: int = 5) -> dict:
    return {
        "rnn.l1.wx": (input_dim, 4 * hidden),
        "rnn.l1.wh": (hidden, 4 * hidden),
        "rnn.l1.b": (4 * hidden,),
        "rnn.l2.wx": (hidden, 4 * hidden),
        "rnn.l2.wh": (hidden, 4 * hidden),
        "rnn.l2.b": (4 * hidden,),
        "rnn.out.w": (hidden, out_dim),
        "rnn.out.b": (out_dim,),
    }


def check_hidden(hidden: int) -> None:
    """The one rule for the recurrent width: at least one unit."""
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")


def build_rnn_head(seed, input_dim: int = 512, hidden: int = RNN_HIDDEN, out_dim: int = 5, dtype=np.float32) -> dict:
    """He-normal weights, zero biases except the forget gate's, set to 1."""
    check_hidden(hidden)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for name, shape in head_manifest(input_dim, hidden, out_dim).items():
        if name.endswith((".wx", ".wh", ".w")):
            params[name] = he_normal(rng, shape, shape[0], dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    for layer in ("l1", "l2"):
        params[f"rnn.{layer}.b"][hidden : 2 * hidden] = 1.0  # forget-gate bias
    return params


def head_dims(params: dict):
    """(input_dim, hidden, out_dim) recovered from tensor shapes."""
    input_dim, four_h = params["rnn.l1.wx"].shape
    hidden = four_h // 4
    out_dim = params["rnn.out.w"].shape[1]
    expect = head_manifest(input_dim, hidden, out_dim)
    for name, shape in expect.items():
        if name not in params or params[name].shape != shape:
            raise ValueError(f"rnn head tensor {name!r} missing or mis-shaped")
    return input_dim, hidden, out_dim


# ---------------------------------------------------------------------------
# feature extraction

def extract_features(clip: Clip | ClipFile, arch: Architecture, base_params: dict) -> np.ndarray:
    """One 512-d pooled feature row per whole second; base net stays frozen."""
    seconds = min(clip.sample_count // SAMPLE_RATE, clip.frame_count // FPS)
    if seconds < 1:
        raise ClipTooShortError("clip must span at least one whole second of audio and video")
    spans = [(t * SAMPLE_RATE, (t + 1) * SAMPLE_RATE, range(t * FPS, (t + 1) * FPS)) for t in range(seconds)]
    return clip_features(arch, base_params, clip, spans)


# ---------------------------------------------------------------------------
# forward / backward

def zero_state(batch: int, hidden: int, dtype=np.float32):
    z = lambda: np.zeros((batch, hidden), dtype=dtype)  # noqa: E731
    return (z(), z(), z(), z())


def rnn_forward(seq: np.ndarray, params: dict, rng=None, dropout: float = 0.0, state=None):
    """Run the head over (B, T, D) features; returns (outputs (B, T, K), tape, state).

    `state` is (h1, c1, h2, c2), each (B, H); zeros when omitted. A positive
    `dropout` rate, as in training, draws one (B, H) mask per step and layer
    from rng, which it needs; the default rate of 0 is eval mode,
    deterministic.
    """
    if seq.ndim != 3 or seq.shape[0] < 1 or seq.shape[1] < 1:
        raise ValueError(f"feature sequences must be (B>=1, T>=1, D), got {seq.shape}")
    _, hidden, _ = head_dims(params)
    h1, c1, h2, c2 = state if state is not None else zero_state(seq.shape[0], hidden, seq.dtype)
    tape = []
    outs = []
    for t in range(seq.shape[1]):
        x = seq[:, t]
        h1, c1, cache1 = lstm_step(x, h1, c1, params["rnn.l1.wx"], params["rnn.l1.wh"], params["rnn.l1.b"])
        d1, mask1 = dropout_forward(h1, dropout, rng)
        h2, c2, cache2 = lstm_step(d1, h2, c2, params["rnn.l2.wx"], params["rnn.l2.wh"], params["rnn.l2.b"])
        d2, mask2 = dropout_forward(h2, dropout, rng)
        z, c_lin = linear_forward(d2, params["rnn.out.w"], params["rnn.out.b"])
        y, c_tanh = scaled_tanh(z)
        outs.append(y)
        tape.append((cache1, mask1, cache2, mask2, c_lin, c_tanh))
    return np.stack(outs, axis=1), tape, (h1, c1, h2, c2)


_GRAD_KEYS = tuple(head_manifest())

# The order rnn_backward hands the weight gradients out: readout, layer 2,
# layer 1. Each is (name, layer, part): the product of the layer's stacked
# step inputs (part 0 of its per-step caches) or previous hidden states
# (part 1) with its pre-activation gradients, or for a bias (None) their sum.
_WALK = (
    ("rnn.out.w", "out", 0),
    ("rnn.out.b", "out", None),
    ("rnn.l2.wx", "l2", 0),
    ("rnn.l2.wh", "l2", 1),
    ("rnn.l2.b", "l2", None),
    ("rnn.l1.wx", "l1", 0),
    ("rnn.l1.wh", "l1", 1),
    ("rnn.l1.b", "l1", None),
)


def _rows(steps):
    """Stack per-step (B, n) arrays into step-major (T*B, n); None when the steps hold None."""
    return None if steps[0] is None else np.concatenate(steps)


def _recurrence(caches, dh_in):
    """BPTT through one LSTM layer's state over a segment.

    dh_in (T*B, H), step-major, is the gradient reaching each step's output
    from above. Only the dh/dc recurrence runs, per step on (B, H) rows.
    Returns the stacked gate gradients dZ (T*B, 4H), from which the weight
    gradients are one product each over the segment's steps.
    """
    B = caches[0][1].shape[0]
    dh = np.zeros_like(dh_in[:B])
    dc = np.zeros_like(dh)
    dz_steps = [None] * len(caches)
    for t in range(len(caches) - 1, -1, -1):
        dz_steps[t], dh, dc = lstm_step_backward(caches[t], dh + dh_in[t * B : (t + 1) * B], dc)
    return np.concatenate(dz_steps)


def _segment_recurrences(tape, grad_out, params) -> dict:
    """One segment's recurrences, layer 2's first, then layer 1's fed by one
    dZ2 @ Wx2ᵀ: {layer: (per-step caches, stacked pre-activation gradients)}."""
    caches1, masks1, caches2, masks2, lins, outs = zip(*tape)
    grad_rows = grad_out.transpose(1, 0, 2).reshape(-1, grad_out.shape[2])  # step-major, as the tape
    dz = scaled_tanh_backward(np.concatenate(outs), grad_rows)
    dZ2 = _recurrence(caches2, dropout_backward(_rows(masks2), dz @ params["rnn.out.w"].T))
    dZ1 = _recurrence(caches1, dropout_backward(_rows(masks1), dZ2 @ params["rnn.l2.wx"].T))
    return {"out": (lins, dz), "l2": (caches2, dZ2), "l1": (caches1, dZ1)}


def _product(segment: dict, layer: str, part) -> np.ndarray:
    caches, dZ = segment[layer]
    if part is None:
        return dZ.sum(axis=0)
    return np.concatenate([cache[part] for cache in caches]).T @ dZ


def rnn_backward(tape, grad_out: np.ndarray, params: dict, trunc=None, consume=None):
    """Truncated backpropagation through the steps covered by `tape`.

    grad_out (B, T, K) is the gradient at rnn_forward's outputs over the
    tape's T steps, which are taken in segments of `trunc` steps (one
    segment when None). Gradients do not flow out of a segment's initial
    state, which is what truncation means.

    Every segment's recurrences run first; they read rnn.out.w, both wh and
    rnn.l2.wx, and nothing after them reads a weight. Then each weight
    gradient is formed in turn, readout, layer 2, layer 1 (_WALK), as one
    product per segment over its B*T' steps: the first segment's plus each
    later one's, in order. Each (name, gradient) goes to consume(name,
    gradient) as soon as it exists and is not kept, so a consumer may update
    the tensor in place. With no `consume`, returns {name: gradient}.
    """
    if grad_out.ndim != 3 or grad_out.shape[1] != len(tape):
        raise ValueError(f"grad_out must be (B, T={len(tape)}, K), got {grad_out.shape}")
    trunc = len(tape) if trunc is None else trunc
    segments = [
        _segment_recurrences(tape[lo : lo + trunc], grad_out[:, lo : lo + trunc], params)
        for lo in range(0, len(tape), trunc)
    ]
    grads = {}
    emit = grads.__setitem__ if consume is None else consume
    for name, layer, part in _WALK:
        emit(name, functools.reduce(operator.iadd, (_product(segment, layer, part) for segment in segments)))
    return grads if consume is None else None


def sequence_gradients(params: dict, seq: np.ndarray, target, trunc: int, rng=None, dropout: float = 0.0, consume=None):
    """Loss and truncated-BPTT gradients for a batch of equal-length sequences.

    seq is (B, T, D) and target (B, T, K), a label for every step. Per-step
    losses are averaged over all B*T*K entries, so the gradients are the
    mean of the sequences' own; each length-`trunc` segment contributes its
    full-BPTT gradient with state carried in numerically. `rng` and
    `dropout` are rnn_forward's, and `consume` is rnn_backward's: with it,
    each gradient goes to consume(name, gradient) and grads is None.
    Returns (loss, grads, outputs (B, T, K)).
    """
    if trunc < 1:
        raise ValueError("truncation length must be >= 1")
    _, hidden, _ = head_dims(params)
    B, T = seq.shape[:2]
    state = zero_state(B, hidden, seq.dtype)
    tape = []
    outs = []
    for lo in range(0, T, trunc):
        out, seg_tape, state = rnn_forward(seq[:, lo : lo + trunc], params, rng, dropout, state=state)
        tape += seg_tape
        outs.append(out)
    outputs = np.concatenate(outs, axis=1)
    loss, dout = mae_loss(outputs, np.asarray(target, dtype=seq.dtype))
    return loss, rnn_backward(tape, dout, params, trunc, consume), outputs


def _length_batches(lengths, order, size: int):
    """Indices of `order` cut into batches of up to `size` sequences of one length.

    Each index joins the open batch of its own length, in order; a batch
    is yielded as it fills. Batches that cannot fill follow, in the order
    they were opened.
    """
    open_batches = {}
    for j in order:
        batch = open_batches.setdefault(lengths[j], [])
        batch.append(int(j))
        if len(batch) == size:
            yield open_batches.pop(lengths[j])
    yield from open_batches.values()


def train_rnn(sequences, params: dict, config: RnnTrainConfig):
    """Adam over truncated-BPTT gradients, one step per batch of sequences.

    sequences: list of (features (T, D), target (K,) or (T, K)). Each epoch
    draws a permutation and cuts it into batches of up to
    `config.batch_size` equal-length sequences (_length_batches), stacked
    as (B, T, D). Returns the per-epoch mean losses; params are updated in
    place. Each step is adam_step over the batch's backward walk
    (sequence_gradients with a consumer), so one weight gradient is held at
    a time.
    """
    if not sequences:
        raise ValueError("no training sequences")
    _, _, out_dim = head_dims(params)
    adam = init_adam(params, _GRAD_KEYS, config.alpha)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lengths = [len(seq) for seq, _ in sequences]
    losses = []
    for _ in range(config.epochs):
        total = 0.0
        for batch in _length_batches(lengths, rng.permutation(len(sequences)), config.batch_size):
            seq = np.stack([sequences[j][0] for j in batch])
            target = np.stack([np.broadcast_to(sequences[j][1], (seq.shape[1], out_dim)) for j in batch])
            loss, _, _ = adam_step(
                params,
                lambda update: sequence_gradients(params, seq, target, config.trunc, rng, config.dropout, consume=update),
                adam,
            )
            total += loss * len(batch)
        losses.append(total / len(sequences))
    return losses


def predict_sequence(seq: np.ndarray, params: dict) -> np.ndarray:
    """Eval-mode per-step predictions averaged over the whole sequence."""
    outputs, _, _ = rnn_forward(seq[None], params)
    return outputs[0].astype(np.float64).mean(axis=0).astype(seq.dtype)


def predict_rnn(clip: Clip | ClipFile, arch: Architecture, base_params: dict, head_params: dict) -> np.ndarray:
    feats = extract_features(clip, arch, base_params)
    return predict_sequence(feats, head_params)
