"""Recurrent head over frozen per-second audiovisual features.

The head is two LSTM layers with inverted dropout between them and a
linear readout squashed by the scaled tanh; the production size is
512/512/5 on the 512-d concatenated pooled stream features. Sequences are
one feature row per whole second of the clip: second t pools the auditory
stream over samples [16000t, 16000(t+1)) and the visual stream over that
second's frames, both in eval mode against the frozen base network.

Training minimizes the per-step MAE (averaged over steps, so the learning
rate is sequence-length independent) with backpropagation truncated every
`trunc` steps; hidden state crosses truncation boundaries numerically but
carries no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FPS, SAMPLE_RATE, Clip, ClipFile, ClipTooShortError
from .layers import (
    dropout_backward,
    dropout_forward,
    linear_backward,
    linear_forward,
    lstm_step,
    lstm_step_backward,
    scaled_tanh,
    scaled_tanh_backward,
)
from .model import Architecture, clip_features, he_normal
from .optim import AdamState, adam_step, check_adam_hyperparameters, init_adam, mae_loss

RNN_HIDDEN = 512


@dataclass
class RnnTrainConfig:
    epochs: int = 100
    seed: int = 0
    trunc: int = 15
    dropout: float = 0.5
    alpha: float = AdamState.alpha

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.trunc < 1:
            raise ValueError(f"truncation length must be >= 1, got {self.trunc}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {self.dropout}")
        check_adam_hyperparameters(self.alpha)


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

def zero_state(hidden: int, dtype=np.float32):
    z = lambda: np.zeros((1, hidden), dtype=dtype)  # noqa: E731
    return (z(), z(), z(), z())


def rnn_forward(seq: np.ndarray, params: dict, rng=None, dropout: float = 0.0, state=None):
    """Run the head over (T, D) features; returns (outputs (T, K), tape, state).

    `state` is (h1, c1, h2, c2); zeros when omitted. A positive `dropout`
    rate, as in training, draws one mask per step and layer from rng, which
    it needs; the default rate of 0 is eval mode, deterministic.
    """
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"feature sequence must be (T>=1, D), got {seq.shape}")
    _, hidden, _ = head_dims(params)
    h1, c1, h2, c2 = state if state is not None else zero_state(hidden, seq.dtype)
    tape = []
    outs = []
    for t in range(seq.shape[0]):
        x = seq[t : t + 1]
        h1, c1, cache1 = lstm_step(x, h1, c1, params["rnn.l1.wx"], params["rnn.l1.wh"], params["rnn.l1.b"])
        d1, mask1 = dropout_forward(h1, dropout, rng)
        h2, c2, cache2 = lstm_step(d1, h2, c2, params["rnn.l2.wx"], params["rnn.l2.wh"], params["rnn.l2.b"])
        d2, mask2 = dropout_forward(h2, dropout, rng)
        z, c_lin = linear_forward(d2, params["rnn.out.w"], params["rnn.out.b"])
        y, c_tanh = scaled_tanh(z)
        outs.append(y[0])
        tape.append((cache1, mask1, cache2, mask2, c_lin, c_tanh))
    return np.stack(outs), tape, (h1, c1, h2, c2)


_GRAD_KEYS = tuple(head_manifest())


def _rows(steps):
    """Stack per-step (1, n) arrays into (T, n); None when the steps hold None."""
    return None if steps[0] is None else np.concatenate(steps)


def _layer_backward(caches, dh_in):
    """BPTT through one LSTM layer over a segment.

    dh_in (T, H) is the gradient reaching each step's output from above.
    Only the dh/dc recurrence runs per step; the weight gradients are one
    product each over the segment's stacked gate gradients dZ (T, 4H).
    Returns (dZ, dwx, dwh, db).
    """
    dh = np.zeros_like(dh_in[:1])
    dc = np.zeros_like(dh)
    dz_steps = [None] * len(caches)
    for t in range(len(caches) - 1, -1, -1):
        dz_steps[t], dh, dc = lstm_step_backward(caches[t], dh + dh_in[t : t + 1], dc)
    dZ = np.concatenate(dz_steps)
    x = np.concatenate([cache[0] for cache in caches])
    h_prev = np.concatenate([cache[1] for cache in caches])
    return dZ, x.T @ dZ, h_prev.T @ dZ, dZ.sum(axis=0)


def rnn_backward(tape, grad_out: np.ndarray, params: dict) -> dict:
    """Full backpropagation through the steps covered by `tape`.

    Gradients do not flow out of the segment's initial state, which is what
    truncation means. The readout and each layer's weight gradients are
    formed once per segment; layer 2's recurrence runs first, and one
    product with its input weights gives layer 1 its per-step gradients.
    """
    caches1, masks1, caches2, masks2, lins, outs = zip(*tape)
    dz = scaled_tanh_backward(np.concatenate(outs), grad_out)
    dw_out, db_out, dd2 = linear_backward((np.concatenate([lin[0] for lin in lins]), params["rnn.out.w"]), dz)
    dZ2, dwx2, dwh2, db2 = _layer_backward(caches2, dropout_backward(_rows(masks2), dd2))
    dd1 = dZ2 @ params["rnn.l2.wx"].T
    _, dwx1, dwh1, db1 = _layer_backward(caches1, dropout_backward(_rows(masks1), dd1))
    return dict(zip(_GRAD_KEYS, (dwx1, dwh1, db1, dwx2, dwh2, db2, dw_out, db_out)))


def sequence_gradients(params: dict, seq: np.ndarray, target, trunc: int, rng=None, dropout: float = 0.0):
    """Loss and truncated-BPTT gradients for one sequence.

    target may be (K,) (one label for every step) or (T, K). Per-step
    losses are averaged over all T*K entries; each length-`trunc` segment
    contributes its full-BPTT gradient with state carried in numerically.
    `rng` and `dropout` are rnn_forward's. Returns (loss, grads, outputs).
    """
    if trunc < 1:
        raise ValueError("truncation length must be >= 1")
    _, hidden, out_dim = head_dims(params)
    T = seq.shape[0]
    target = np.asarray(target, dtype=seq.dtype)
    if target.ndim == 1:
        target = np.broadcast_to(target, (T, target.shape[0]))
    state = zero_state(hidden, seq.dtype)
    segments = []
    outs = []
    for lo in range(0, T, trunc):
        seg = slice(lo, min(lo + trunc, T))
        out, tape, state = rnn_forward(seq[seg], params, rng, dropout, state=state)
        segments.append((tape, seg))
        outs.append(out)
    outputs = np.concatenate(outs, axis=0)
    loss, dout = mae_loss(outputs, np.ascontiguousarray(target))
    (tape, seg), *rest = segments
    grads = rnn_backward(tape, dout[seg], params)
    for tape, seg in rest:
        seg_grads = rnn_backward(tape, dout[seg], params)
        for k in _GRAD_KEYS:
            grads[k] += seg_grads[k]
    return loss, grads, outputs


def train_rnn(sequences, params: dict, config: RnnTrainConfig):
    """Adam over per-sequence truncated-BPTT gradients.

    sequences: list of (features (T, D), target). Returns the per-epoch
    mean losses; params are updated in place. One sequence's gradients
    are held at a time.
    """
    if not sequences:
        raise ValueError("no training sequences")
    adam = init_adam(params, _GRAD_KEYS, config.alpha)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(sequences))
        total = 0.0
        for j in order:
            seq, target = sequences[int(j)]
            loss, grads, _ = sequence_gradients(params, seq, target, config.trunc, rng, config.dropout)
            adam_step(params, grads, adam)
            del grads  # so the next sequence's gradients are not formed beside these
            total += loss
        losses.append(total / len(sequences))
    return losses


def predict_sequence(seq: np.ndarray, params: dict) -> np.ndarray:
    """Eval-mode per-step predictions averaged over the whole sequence."""
    outputs, _, _ = rnn_forward(seq, params)
    return outputs.astype(np.float64).mean(axis=0).astype(seq.dtype)


def predict_rnn(clip: Clip | ClipFile, arch: Architecture, base_params: dict, head_params: dict) -> np.ndarray:
    feats = extract_features(clip, arch, base_params)
    return predict_sequence(feats, head_params)
