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
learning rate is independent of sequence length. Gradients flow back
through every step of a sequence.

Training updates each tensor as soon as its gradient exists, as the base
network's step does (LOMO's fused update, Lv et al., arXiv 2306.09782).
rnn_backward runs both layers' recurrences first, which are its only
reads of the weights, and then forms the eight weight gradients one at a
time (readout, layer 2, layer 1), handing each to Adam, which writes the
update over it. So one head gradient is alive at a time.
"""

from __future__ import annotations

import functools
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
from .optim import AdamState, adam_step, init_adam, mae_loss

RNN_HIDDEN = 512

# The training recipe. RNN_DROPOUT is the rate on each LSTM layer's output.
# RNN_BATCH is the sequences per Adam step, and RNN_ALPHA the step size
# scaled with it by the linear scaling rule (Goyal et al., arXiv
# 1706.02677), since a batch learns less per epoch at the unscaled step. On
# the learning gate's split (tests/test_rnn_head.py) batch 8 at 8 x 2e-4
# scored 0.880 at seed 0, against 0.863 one sequence a step at 2e-4 and
# 0.835 for the train-mean predictor; CHANGES.md has the other seeds, batch
# sizes and timings.
RNN_DROPOUT = 0.5
RNN_BATCH = 8
RNN_ALPHA = RNN_BATCH * AdamState.alpha


@dataclass
class RnnTrainConfig:
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


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
    """BPTT through one LSTM layer's state over the whole sequence.

    dh_in (T*B, H), step-major, is the gradient reaching each step's output
    from above. Only the dh/dc recurrence runs, per step on (B, H) rows.
    Returns the stacked gate gradients dZ (T*B, 4H), from which the weight
    gradients are one product each over all the steps.
    """
    B = caches[0][1].shape[0]
    dh = np.zeros_like(dh_in[:B])
    dc = np.zeros_like(dh)
    dz_steps = [None] * len(caches)
    for t in range(len(caches) - 1, -1, -1):
        dz_steps[t], dh, dc = lstm_step_backward(caches[t], dh + dh_in[t * B : (t + 1) * B], dc)
    return np.concatenate(dz_steps)


def rnn_backward(tape, grad_out: np.ndarray, params: dict, consume):
    """Backpropagation through every step covered by `tape`.

    grad_out (B, T, K) is the gradient at rnn_forward's outputs over the
    tape's T steps. The recurrences run first, layer 2's, then layer 1's
    fed by one dZ2 @ Wx2ᵀ; they read rnn.out.w, both wh and rnn.l2.wx, and
    nothing after them reads a weight. Then each weight gradient is formed
    in turn, readout, layer 2, layer 1 (_WALK), as one product over the
    B*T steps. Each (name, gradient) goes to consume(name, gradient) as
    soon as it exists and is not kept, so a consumer may update the tensor
    in place.
    """
    if grad_out.ndim != 3 or grad_out.shape[1] != len(tape):
        raise ValueError(f"grad_out must be (B, T={len(tape)}, K), got {grad_out.shape}")
    caches1, masks1, caches2, masks2, lins, outs = zip(*tape)
    grad_rows = grad_out.transpose(1, 0, 2).reshape(-1, grad_out.shape[2])  # step-major, as the tape
    dz = scaled_tanh_backward(np.concatenate(outs), grad_rows)
    dZ2 = _recurrence(caches2, dropout_backward(_rows(masks2), dz @ params["rnn.out.w"].T))
    dZ1 = _recurrence(caches1, dropout_backward(_rows(masks1), dZ2 @ params["rnn.l2.wx"].T))
    by_layer = {"out": (lins, dz), "l2": (caches2, dZ2), "l1": (caches1, dZ1)}
    for name, layer, part in _WALK:
        caches, dZ = by_layer[layer]
        consume(name, dZ.sum(axis=0) if part is None else np.concatenate([cache[part] for cache in caches]).T @ dZ)


def sequence_gradients(params: dict, seq: np.ndarray, target, consume, rng=None, dropout: float = 0.0):
    """Loss and BPTT gradients for a batch of equal-length sequences.

    seq is (B, T, D) and target (B, T, K), a label for every step. Per-step
    losses are averaged over all B*T*K entries, so the gradients are the
    mean of the sequences' own. `rng` and `dropout` are rnn_forward's, and
    `consume` is rnn_backward's: each gradient goes to consume(name,
    gradient). Returns (loss, outputs (B, T, K)).
    """
    outputs, tape, _ = rnn_forward(seq, params, rng, dropout)
    loss, dout = mae_loss(outputs, np.asarray(target, dtype=seq.dtype))
    rnn_backward(tape, dout, params, consume)
    return loss, outputs


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
    """Adam over BPTT gradients, one step per batch of sequences.

    sequences: list of (features (T, D), target (K,) or (T, K)). Each epoch
    draws a permutation and cuts it into batches of up to RNN_BATCH
    equal-length sequences (_length_batches), stacked as (B, T, D), each
    stepped at RNN_ALPHA with RNN_DROPOUT. Returns the per-epoch mean
    losses; params are updated in place. Each step is adam_step over the
    batch's backward walk (sequence_gradients with a consumer), so one
    weight gradient is held at a time.
    """
    if not sequences:
        raise ValueError("no training sequences")
    _, _, out_dim = head_dims(params)
    adam = init_adam(params, _GRAD_KEYS, RNN_ALPHA)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lengths = [len(seq) for seq, _ in sequences]
    losses = []
    for _ in range(config.epochs):
        total = 0.0
        for batch in _length_batches(lengths, rng.permutation(len(sequences)), RNN_BATCH):
            seq = np.stack([sequences[j][0] for j in batch])
            target = np.stack([np.broadcast_to(sequences[j][1], (seq.shape[1], out_dim)) for j in batch])
            walk = functools.partial(sequence_gradients, params, seq, target, rng=rng, dropout=RNN_DROPOUT)
            loss, _ = adam_step(params, walk, adam)
            total += loss * len(batch)
        losses.append(total / len(sequences))
    return losses


def predict_sequence(seq: np.ndarray, params: dict) -> np.ndarray:
    """Eval-mode per-step predictions averaged over the whole sequence."""
    outputs, _, _ = rnn_forward(seq[None], params)
    return outputs[0].astype(np.float64).mean(axis=0).astype(seq.dtype)


def predict_rnn(clip: Clip | ClipFile, arch: Architecture, base_params: dict, head_params: dict) -> np.ndarray:
    """The head's eval-mode prediction over the clip's per-second features.

    A head whose input width is not the base network's feature width is
    refused before the clip is read.
    """
    input_dim, _, _ = head_dims(head_params)
    if input_dim != arch.fusion_in:
        raise ValueError(f"rnn head takes {input_dim}-wide features but the base network gives {arch.fusion_in}-wide ones")
    feats = extract_features(clip, arch, base_params)
    return predict_sequence(feats, head_params)
