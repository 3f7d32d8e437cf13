"""Central finite-difference verification of every analytic backward pass.

`LAYER_CASES` is the one per-layer case table. The `gradcheck` command runs
it with `numeric_grad` below, and `tests/test_layers.py` runs the same cases
against the frozen difference loop in `tests/oracles.py`.

All checks run in float64 with step H = 1e-5. Per-layer checks differentiate
every element; the whole-network check on the miniature configuration
samples a few elements per tensor (the full element count would be
needlessly slow without telling us more).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import layers as L
from .model import backward, build_network, forward_train, mini_architecture, trainable_names
from .rnn_head import head_manifest, rnn_backward, rnn_forward

H = 1e-5
LAYER_TOL = 1e-5
NETWORK_TOL = 1e-4
SAMPLES_PER_TENSOR = 4  # elements the network check differentiates in each tensor


@dataclass
class GradCheckRow:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a| + |n|, 1e-4).

    The denominator floor keeps exact-zero gradients comparable: a weight
    behind a rectifier that never fires, or behind a pool offset that never
    wins its window, has a true gradient of 0, and dividing
    finite-difference noise by ~0 would report a spurious failure.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-4)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def collect(walk) -> dict:
    """{name: gradient} from a walk: a function that hands each gradient to
    the consume(name, gradient) it is given, as training's backward does."""
    grads = {}
    walk(grads.__setitem__)
    return grads


def numeric_grad(f, x: np.ndarray, idx=None) -> np.ndarray:
    """Central differences of scalar f with respect to x, flattened, at step H.

    Every element of x is perturbed in place, or only the flat indices idx.
    """
    flat = x.reshape(-1)
    idx = range(flat.size) if idx is None else idx
    out = np.zeros(len(idx), dtype=np.float64)
    for j, i in enumerate(idx):
        orig = flat[i]
        flat[i] = orig + H
        fp = f()
        flat[i] = orig - H
        fm = f()
        flat[i] = orig
        out[j] = (fp - fm) / (2.0 * H)
    return out


# ---------------------------------------------------------------------------
# per-layer cases
#
# A case builds float64 inputs from an rng and returns (run, arrays): arrays
# are the named inputs, perturbed in place by the difference loop, and run()
# gives (loss, {name: analytic gradient}) for loss = <output, R> at a fixed
# random R.

def _projected(rng, arrays: dict, forward, grads):
    """The case for forward() -> (y, cache) and grads(cache, R) -> {name: gradient}."""
    y0, _ = forward()
    R = rng.standard_normal(y0.shape)

    def run():
        y, cache = forward()
        return float(np.sum(y * R)), grads(cache, R)

    return run, arrays


def _conv_case(rng, shape, spec):
    x = rng.standard_normal(shape)
    w = rng.standard_normal((spec.out_channels, spec.in_channels) + spec.kernel) * 0.5
    return _projected(
        rng, {"x": x, "w": w},
        lambda: L.conv_forward(x, w, spec),
        lambda cache, R: dict(zip(("w", "x"), L.conv_backward(cache, R))),
    )


def _batchnorm_case(rng):
    x = rng.standard_normal((4, 3, 5))
    gamma = 1.0 + 0.2 * rng.standard_normal(3)
    beta = 0.1 * rng.standard_normal(3)
    return _projected(
        rng, {"x": x, "gamma": gamma, "beta": beta},
        lambda: L.batchnorm_forward(x, L.BatchNormState(gamma, beta, np.zeros(3), np.ones(3))),
        lambda cache, R: dict(zip(("gamma", "beta", "x"), L.batchnorm_backward(cache, R))),
    )


def _maxpool_case(rng, shape, spec):
    x = rng.standard_normal(shape)
    return _projected(
        rng, {"x": x}, lambda: L.maxpool_forward(x, spec), lambda cache, R: {"x": L.maxpool_backward(cache, R)}
    )


def _gap_case(rng):
    x = rng.standard_normal((2, 3, 4, 5))
    return _projected(
        rng, {"x": x},
        lambda: L.global_average_pool(x),
        lambda cache, R: {"x": L.global_average_pool_backward(cache, R)},
    )


def _linear_case(rng):
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    return _projected(
        rng, {"x": x, "w": w, "b": b},
        lambda: L.linear_forward(x, w, b),
        lambda cache, R: dict(zip(("w", "b", "x"), L.linear_backward(cache, R))),
    )


def _scaled_tanh_case(rng):
    x = rng.standard_normal((3, 4))
    return _projected(rng, {"x": x}, lambda: L.scaled_tanh(x), lambda cache, R: {"x": L.scaled_tanh_backward(cache, R)})


def _block_case(rng, project: bool):
    in_ch, out_ch = (3, 5) if project else (3, 3)
    stride = (2, 2) if project else (1, 1)
    x = rng.standard_normal((2, in_ch, 6, 6))
    spec1 = L.ConvSpec((3, 3), stride, (1, 1), in_ch, out_ch)
    spec2 = L.ConvSpec((3, 3), (1, 1), (1, 1), out_ch, out_ch)
    arrays = {
        "conv1.w": rng.standard_normal((out_ch, in_ch, 3, 3)) * 0.4,
        "bn1.gamma": 1.0 + 0.2 * rng.standard_normal(out_ch),
        "bn1.beta": 0.1 * rng.standard_normal(out_ch),
        "conv2.w": rng.standard_normal((out_ch, out_ch, 3, 3)) * 0.4,
        "bn2.gamma": 1.0 + 0.2 * rng.standard_normal(out_ch),
        "bn2.beta": 0.1 * rng.standard_normal(out_ch),
    }
    if project:
        arrays["shortcut.w"] = rng.standard_normal((out_ch, in_ch, 1, 1)) * 0.4

    def forward():
        block = L.ResidualBlockParams(
            conv1_w=arrays["conv1.w"],
            bn1=L.BatchNormState(arrays["bn1.gamma"], arrays["bn1.beta"], np.zeros(out_ch), np.ones(out_ch)),
            spec1=spec1,
            conv2_w=arrays["conv2.w"],
            bn2=L.BatchNormState(arrays["bn2.gamma"], arrays["bn2.beta"], np.zeros(out_ch), np.ones(out_ch)),
            spec2=spec2,
            shortcut_w=arrays.get("shortcut.w"),
            shortcut_spec=L.ConvSpec((1, 1), stride, (0, 0), in_ch, out_ch) if project else None,
        )
        return L.residual_block_forward(x, block)

    def grads(cache, R):
        named, dx = L.residual_block_backward(cache, R)
        return {**named, "x": dx}

    return _projected(rng, {**arrays, "x": x}, forward, grads)


def _lstm_segment_case(rng):
    """Both LSTM layers and the readout over a batch of two T=4 segments from a nonzero state.

    Every forward reseeds its generator, so the dropout masks, one per row,
    stay fixed while the weights are perturbed.
    """
    B, T, D, Hn, K = 2, 4, 3, 3, 2
    arrays = {name: rng.standard_normal(shape) * 0.5 for name, shape in head_manifest(D, Hn, K).items()}
    seq = rng.standard_normal((B, T, D))
    state = tuple(rng.standard_normal((B, Hn)) for _ in range(4))
    mask_seed = int(rng.integers(2**32))

    def forward():
        out, tape, _ = rnn_forward(seq, arrays, np.random.Generator(np.random.PCG64(mask_seed)), 0.5, state)
        return out, tape

    return _projected(rng, arrays, forward, lambda tape, R: collect(functools.partial(rnn_backward, tape, R, arrays)))


LAYER_CASES = [
    # strided convolutions add window gradients one kernel offset at a time
    ("conv1d", lambda rng: _conv_case(rng, (2, 3, 12), L.ConvSpec((5,), (2,), (2,), 3, 4))),
    # non-square, so swapped extents show
    ("conv2d", lambda rng: _conv_case(rng, (2, 3, 7, 6), L.ConvSpec((3, 3), (2, 2), (1, 1), 3, 4))),
    # padding at or above the stride and a kernel no multiple of it: kernel
    # row 2 meets no input and no kernel column meets it for every output
    ("conv2d_wide_padding", lambda rng: _conv_case(rng, (2, 3, 2, 5), L.ConvSpec((4, 3), (3, 2), (3, 2), 3, 4))),
    # unit-stride ones correlate the padded output gradient with the flipped
    # kernel; even kernels and padding other than (k - 1) / 2 show a wrong flip
    ("conv1d_unit_stride", lambda rng: _conv_case(rng, (2, 3, 11), L.ConvSpec((4,), (1,), (1,), 3, 4))),
    ("conv2d_unit_stride", lambda rng: _conv_case(rng, (2, 3, 5, 6), L.ConvSpec((2, 3), (1, 1), (0, 2), 3, 4))),
    ("batchnorm", _batchnorm_case),
    ("maxpool1d", lambda rng: _maxpool_case(rng, (2, 2, 10), L.ConvSpec((9,), (4,), (4,)))),
    ("maxpool2d", lambda rng: _maxpool_case(rng, (2, 2, 6, 6), L.ConvSpec((3, 3), (2, 2), (1, 1)))),
    # 2 * padding >= kernel on both axes: no kernel offset meets the input
    # for every output, so the running maximum starts from -inf
    ("maxpool2d_wide_padding", lambda rng: _maxpool_case(rng, (2, 2, 4, 7), L.ConvSpec((2, 3), (2, 2), (1, 2)))),
    ("global_average_pool", _gap_case),
    ("linear", _linear_case),
    ("scaled_tanh", _scaled_tanh_case),
    ("residual_block_identity", lambda rng: _block_case(rng, project=False)),
    ("residual_block_projection", lambda rng: _block_case(rng, project=True)),
    ("lstm_segment", _lstm_segment_case),
]


def run_layer_checks(seed: int = 0) -> list:
    rows = []
    for name, build in LAYER_CASES:
        run, arrays = build(np.random.Generator(np.random.PCG64(seed)))
        _, analytic = run()
        worst = max(rel_err(analytic[k], numeric_grad(lambda: run()[0], x)) for k, x in arrays.items())
        rows.append(GradCheckRow(name, worst, LAYER_TOL))
    return rows


def run_network_check(seed: int = 0) -> GradCheckRow:
    """Sampled finite differences through the whole miniature network."""
    arch = mini_architecture()
    params = build_network(arch, seed, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    audio = rng.standard_normal((2, 1, 1024))
    frames = rng.standard_normal((2, 3, 16, 16)) * 0.5
    pred, tape = forward_train(arch, params, audio, frames)
    R = rng.standard_normal(pred.shape)
    analytic = collect(functools.partial(backward, tape, R))

    def loss() -> float:
        pred, _ = forward_train(arch, params, audio, frames)
        return float(np.sum(pred * R))

    pick = np.random.Generator(np.random.PCG64(seed + 2))
    worst = 0.0
    for name in trainable_names(arch):
        x = params[name]
        idx = pick.choice(x.size, size=min(SAMPLES_PER_TENSOR, x.size), replace=False)
        worst = max(worst, rel_err(analytic[name].reshape(-1)[idx], numeric_grad(loss, x, idx)))
    return GradCheckRow("full_miniature_network", worst, NETWORK_TOL)


def run_gradcheck(include_network: bool = True, seed: int = 0):
    rows = run_layer_checks(seed)
    if include_network:
        rows.append(run_network_check(seed))
    return rows, all(r.passed for r in rows)
