"""The miniature base network learns at its default crops, and each stream
carries its own traits.

One mini network is trained at the default crops (`train.MINI_AUDIO_CROP`,
`MINI_FRAME_CROP`) on `synth_dataset`'s default frames: 64 train and 16
validation clips of 1 s, 40 epochs at batch 8, α 2e-3. It is scored whole
clip against the train-label mean predictor, and then with one stream's
features replaced by their train-split mean (an ablation), through the
same fusion layer and squashing.

Synthetic labels take trait 0 from the audio tone's frequency and traits
1-3 from the frames' colour means. Trait 4 mixes the frames' grey level
with their stripe orientation; it is not gated, because on 64 clips the
auditory half adds noise to it, and ablating audio raised it at every
seed measured (CHANGES.md).
"""

import numpy as np
import pytest

from avtrait import data as D
from avtrait import model as M
from avtrait import train as T
from avtrait.layers import linear_forward, scaled_tanh

SEED = 0
FRAME_STRIDE = 5
MARGIN = 0.03  # mean accuracy the network must gain over the train-label mean predictor
AUDIO_TRAITS = (0,)
VISUAL_TRAITS = (1, 2, 3)
CARRIED = 0.03  # accuracy an ablated stream's traits may keep above the train-label mean's
KEPT = 0.04  # accuracy the other stream's traits may lose to an ablation


def accuracy(predictions, labels) -> np.ndarray:
    """Per-trait accuracy, 1 - mean |prediction - label| over the rows."""
    return 1.0 - np.abs(np.asarray(predictions, np.float64) - labels).mean(axis=0)


def feature_rows(arch, params, manifest, split) -> np.ndarray:
    """forward_infer's fused feature row of each clip in `split`, stacked."""
    rows = []
    for row in manifest.split_rows(split):
        clip = D.open_clip(manifest.clip_path(row))
        span = (0, clip.sample_count, range(0, clip.frame_count, FRAME_STRIDE))
        rows.append(M.clip_features(arch, params, clip, [span])[0])
    return np.stack(rows)


def scored(params, rows, labels) -> np.ndarray:
    """Per-trait accuracy of fused feature rows through the fusion layer and scaled tanh."""
    z, _ = linear_forward(rows, params["fusion.w"], params["fusion.b"])
    return accuracy(scaled_tanh(z)[0], labels)


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    root = tmp_path_factory.mktemp("learning")
    manifest = D.synth_dataset(80, SEED, str(root / "data"), val_count=16, seconds=1.0)
    config = T.TrainConfig(
        epochs=40, batch_size=8, seed=SEED, out_dir=str(root / "run"), mini=True, initial_alpha=2e-3, lr_period=300
    )
    result = T.train(config, manifest)
    labels = np.stack([row.traits for row in manifest.split_rows("validation")])
    mean = np.mean([row.traits for row in manifest.split_rows("train")], axis=0)
    return {
        "arch": result.arch,
        "params": result.params,
        "manifest": manifest,
        "labels": labels,
        "baseline": accuracy(np.broadcast_to(mean, labels.shape), labels),
        "rows": feature_rows(result.arch, result.params, manifest, "validation"),
        "train_rows": feature_rows(result.arch, result.params, manifest, "train"),
    }


def test_mini_network_beats_the_train_label_mean(learned):
    params, labels = learned["params"], learned["labels"]
    report = T.evaluate(learned["arch"], params, learned["manifest"], "validation", FRAME_STRIDE)
    baseline = learned["baseline"].mean()
    assert report.excluded == 0
    assert report.average >= baseline + MARGIN, f"accuracy {report.average:.4f}, train-label mean {baseline:.4f}"
    # the ablations score the same rows the same way, up to float32 rounding:
    # the fusion product runs over all 16 rows, not over one row at a time
    np.testing.assert_allclose(scored(params, learned["rows"], labels), report.per_trait, rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "stream, carried, kept", [("audio", AUDIO_TRAITS, VISUAL_TRAITS), ("visual", VISUAL_TRAITS, AUDIO_TRAITS)]
)
def test_ablating_a_stream_loses_its_traits_and_keeps_the_others(learned, stream, carried, kept):
    params, labels, rows, baseline = learned["params"], learned["labels"], learned["rows"], learned["baseline"]
    width = learned["arch"].auditory.stage_channels[-1]
    columns = slice(0, width) if stream == "audio" else slice(width, None)
    ablated = rows.copy()
    ablated[:, columns] = learned["train_rows"][:, columns].astype(np.float64).mean(axis=0)
    full, without = scored(params, rows, labels), scored(params, ablated, labels)
    figures = f"full {np.round(full, 4)}, ablated {np.round(without, 4)}, train-label mean {np.round(baseline, 4)}"
    for t in carried:
        assert without[t] <= baseline[t] + CARRIED, (t, figures)
    for t in kept:
        assert without[t] >= full[t] - KEPT, (t, figures)


@pytest.mark.parametrize("stream", ["auditory", "visual"])
def test_mini_crops_leave_several_final_positions(stream):
    # a crop that the stream's total stride takes to one position trains it
    # on inputs far narrower than the whole clips it scores
    arch = M.mini_architecture()
    audio_crop, frame_crop = T.TrainConfig(mini=True).crops
    shape = (2, 1, audio_crop) if stream == "auditory" else (2, D.FRAME_PLANES, frame_crop, frame_crop)
    x = np.zeros(shape, np.float32)
    _, tape = M.forward_stream(x, getattr(arch, stream), stream, M.build_network(arch, 0), "train")
    kind, _, (gap_input_shape, _) = tape[-1]
    assert kind == "gap" and min(gap_input_shape[2:]) >= 2, gap_input_shape
