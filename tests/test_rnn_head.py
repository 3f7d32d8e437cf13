import functools
import hashlib

import numpy as np
import pytest

from avtrait import data as D
from avtrait import model as M
from avtrait import rnn_head as R
from avtrait import train as T
from avtrait.layers import lstm_step
from avtrait.optim import AdamState, adam_step, init_adam, mae_loss
from oracles import central_difference, fd_rel_err, rnn_backward_per_step
from tracemem import traced


def rng64(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def per_step(target, T):
    """(B, K) labels, one per sequence, repeated over T steps as (B, T, K)."""
    return np.broadcast_to(target[:, None], (target.shape[0], T, target.shape[1]))


def gradients(params, seq, target, rng=None, dropout=0.0):
    """R.sequence_gradients with its walk collected: (loss, grads, outputs)."""
    grads = {}
    loss, outputs = R.sequence_gradients(params, seq, target, grads.__setitem__, rng, dropout)
    return loss, grads, outputs


def toy_head(seed=0, input_dim=6, hidden=5, out_dim=3, dtype=np.float64):
    params = R.build_rnn_head(seed, input_dim=input_dim, hidden=hidden, out_dim=out_dim, dtype=dtype)
    return params


class TestBuildHead:
    def test_default_manifest_is_production_size(self):
        m = R.head_manifest()
        assert m["rnn.l1.wx"] == (512, 2048)
        assert m["rnn.l2.wh"] == (512, 2048)
        assert m["rnn.out.w"] == (512, 5)

    def test_forget_gate_bias_is_one(self):
        params = toy_head(hidden=4)
        b = params["rnn.l1.b"]
        np.testing.assert_array_equal(b[4:8], 1.0)
        assert not b[:4].any() and not b[8:].any()

    def test_deterministic(self):
        p1 = toy_head(3)
        p2 = toy_head(3)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_head_dims_recovery(self):
        params = toy_head(input_dim=7, hidden=4, out_dim=2)
        assert R.head_dims(params) == (7, 4, 2)

    def test_head_dims_rejects_missing_tensor(self):
        params = toy_head()
        del params["rnn.out.b"]
        with pytest.raises(ValueError):
            R.head_dims(params)


class TestRnnForward:
    def test_zero_weights_output_half_everywhere(self):
        params = {k: np.zeros_like(v) for k, v in toy_head().items()}
        seq = rng64(1).standard_normal((2, 9, 6))
        out, _, _ = R.rnn_forward(seq, params)
        np.testing.assert_array_equal(out, np.full((2, 9, 3), 0.5))

    def test_eval_deterministic(self):
        params = toy_head(2)
        seq = rng64(2).standard_normal((1, 6, 6))
        a, _, _ = R.rnn_forward(seq, params)
        b, _, _ = R.rnn_forward(seq, params)
        np.testing.assert_array_equal(a, b)

    def test_single_step_matches_lstm_composition(self):
        params = toy_head(4)
        x = rng64(5).standard_normal((1, 6))
        h1, c1, _ = lstm_step(x, np.zeros((1, 5)), np.zeros((1, 5)),
                              params["rnn.l1.wx"], params["rnn.l1.wh"], params["rnn.l1.b"])
        h2, c2, _ = lstm_step(h1, np.zeros((1, 5)), np.zeros((1, 5)),
                              params["rnn.l2.wx"], params["rnn.l2.wh"], params["rnn.l2.b"])
        z = h2 @ params["rnn.out.w"] + params["rnn.out.b"]
        ref = (np.tanh(z) + 1.0) / 2.0
        out, _, _ = R.rnn_forward(x[None], params)
        np.testing.assert_allclose(out[0], ref, rtol=1e-12)

    def test_state_carries_between_calls(self):
        params = toy_head(6)
        seq = rng64(7).standard_normal((2, 8, 6))
        full, _, _ = R.rnn_forward(seq, params)
        first, _, state = R.rnn_forward(seq[:, :3], params)
        second, _, _ = R.rnn_forward(seq[:, 3:], params, state=state)
        np.testing.assert_allclose(np.concatenate([first, second], axis=1), full, rtol=1e-12)

    def test_train_dropout_needs_rng(self):
        with pytest.raises(ValueError, match="generator"):
            R.rnn_forward(np.zeros((1, 2, 6)), toy_head(), rng=None, dropout=0.5)


class TestBptt:
    def test_four_step_gradients_match_finite_differences(self):
        params = toy_head(17, input_dim=4, hidden=3, out_dim=2)
        seq = rng64(18).standard_normal((1, 4, 4))
        target = per_step(rng64(19).random((1, 2)), 4)

        def loss():
            l, _, _ = gradients(params, seq, target)
            return l

        _, grads, _ = gradients(params, seq, target)
        for name, arr in params.items():
            numeric = central_difference(loss, arr)
            assert fd_rel_err(grads[name], numeric) <= 1e-5, name

    def test_twenty_step_dropout_gradients_match_finite_differences(self):
        # gradients flow back through all 20 steps; every loss reseeds the
        # generator, so the dropout masks stay fixed while a weight moves
        params = toy_head(20, input_dim=4, hidden=3, out_dim=2)
        seq = rng64(21).standard_normal((1, 20, 4))
        target = per_step(rng64(22).random((1, 2)), 20)
        _, grads, _ = gradients(params, seq, target, rng64(23), dropout=0.5)

        def loss():
            out, _, _ = R.rnn_forward(seq, params, rng64(23), 0.5)
            return float(np.abs(out - target).mean())

        for name, arr in params.items():
            numeric = central_difference(loss, arr)
            assert fd_rel_err(grads[name], numeric) <= 1e-5, name


class TestPerStepOracle:
    @pytest.mark.parametrize("steps", [1, 3, 15, 20])
    def test_segment_backward_matches_per_step_bptt(self, steps):
        # float64, dropout 0.5: the gradients differ from the per-step path
        # only in summation order. The error is measured against each
        # tensor's largest entry, since an entry that nearly cancels keeps
        # the absolute rounding of the terms that made it.
        def close(got, ref, name):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name)

        params = toy_head(37, input_dim=6, hidden=8, out_dim=3)
        seq = rng64(38).standard_normal((1, steps, 6))
        target = per_step(rng64(39).random((1, 3)), steps)
        _, grads, outputs = gradients(params, seq, target, rng=rng64(40), dropout=0.5)
        _, dout = mae_loss(outputs, target)
        # the same seed draws the same masks in the same order
        out, tape, _ = R.rnn_forward(seq, params, rng64(40), 0.5)
        np.testing.assert_array_equal(out, outputs)
        ref = rnn_backward_per_step(tape, dout[0], params)
        for k in params:
            close(grads[k], ref[k], k)


class TestDropout:
    def test_train_mode_masks_and_scales(self):
        params = toy_head(23, input_dim=4, hidden=64, out_dim=2)
        seq = rng64(24).standard_normal((1, 2, 4))
        rng = rng64(25)
        out_t, tape, _ = R.rnn_forward(seq, params, rng=rng, dropout=0.5)
        mask1 = tape[0][1]
        vals = np.unique(mask1)
        assert set(vals.tolist()) <= {0.0, 2.0}

    def test_eval_equals_mask_expectation_on_linear_toy(self):
        # with the squashing replaced by its linearization (identity around
        # small z), eval output equals the average of train outputs over
        # masks; verify on the final linear layer directly
        rng = rng64(26)
        h = rng.standard_normal((1, 32)) * 0.01
        w = rng.standard_normal((32, 2))
        eval_z = h @ w
        acc = np.zeros_like(eval_z)
        n = 4000
        mrng = rng64(27)
        from avtrait.layers import dropout_forward

        for _ in range(n):
            d, _ = dropout_forward(h, 0.5, mrng)
            acc += d @ w
        np.testing.assert_allclose(acc / n, eval_z, atol=5e-4)


class TestTrainRnn:
    def test_overfits_four_synthetic_sequences(self, monkeypatch):
        rng = rng64(28)
        sequences = []
        for _ in range(4):
            seq = rng.standard_normal((8, 6)).astype(np.float64)
            target = rng.random(3) * 0.8 + 0.1
            sequences.append((seq, target))
        params = toy_head(29, input_dim=6, hidden=16, out_dim=3)
        monkeypatch.setattr(R, "RNN_DROPOUT", 0.0)
        monkeypatch.setattr(R, "RNN_ALPHA", 5e-3)
        losses = R.train_rnn(sequences, params, R.RnnTrainConfig(epochs=400, seed=1))
        assert losses[-1] < 0.02

    def test_training_is_deterministic(self):
        rng = rng64(30)
        sequences = [(rng.standard_normal((5, 6)), rng.random(3)) for _ in range(2)]
        def run():
            params = toy_head(31, input_dim=6, hidden=8, out_dim=3)
            R.train_rnn(sequences, params, R.RnnTrainConfig(epochs=3, seed=2))
            return params
        p1, p2 = run(), run()
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_holds_one_batch_gradients_at_a_time(self, monkeypatch):
        # a 64-unit head on 16-d features: 216 KB of gradients per batch,
        # which outweigh the tape of a batch of two 4-step sequences
        rng = rng64(8)
        sequences = [(rng.standard_normal((4, 16)).astype(np.float32), np.full(5, 0.5, np.float32)) for _ in range(4)]
        grad_bytes = sum(v.nbytes for v in R.build_rnn_head(0, input_dim=16, hidden=64).values())
        monkeypatch.setattr(R, "RNN_BATCH", 2)
        peaks = []
        for n in (2, 4):
            params = R.build_rnn_head(0, input_dim=16, hidden=64)
            peaks.append(traced(R.train_rnn, sequences[:n], params, R.RnnTrainConfig(epochs=1, seed=0)).peak)
        assert peaks[1] - peaks[0] < grad_bytes / 2, (peaks, grad_bytes)


class TestFusedWalk:
    """rnn_backward's walk: both layers' recurrences, then one weight
    gradient at a time, readout, layer 2, layer 1."""

    ORDER = ["rnn.out.w", "rnn.out.b", "rnn.l2.wx", "rnn.l2.wh", "rnn.l2.b", "rnn.l1.wx", "rnn.l1.wh", "rnn.l1.b"]

    def test_each_tensor_once_in_order_and_no_product_reads_an_updated_weight(self):
        seq = rng64(60).standard_normal((2, 3, 6))
        target = per_step(rng64(61).random((2, 3)), 3)
        _, want, _ = gradients(toy_head(62), seq, target, rng64(63), dropout=0.5)
        params = toy_head(62)
        handed = []

        def overwrite(name, g):
            handed.append((name, g.copy()))
            params[name][...] = np.nan  # as an update in place would, but louder

        loss, _ = R.sequence_gradients(params, seq, target, overwrite, rng64(63), dropout=0.5)
        assert np.isfinite(loss)
        assert [name for name, _ in handed] == self.ORDER
        for name, g in handed:
            assert g.tobytes() == want[name].tobytes(), name

    # One head step at desk sizes (batch 8, T = 3, 64-d features, 512
    # units), tracemalloc peak above its start, with the head and its Adam
    # state made before. Bound fixed between the figures measured first:
    # 14.93 MB with the gradient dict and a tensor-sized update buffer, 5.60
    # MB with the walk and each update written over its gradient (the
    # largest gradient alone is 4.19 MB).
    STEP_BOUND_MB = 8.0

    def test_desk_size_head_step_stays_bounded(self):
        rng = rng64(64)
        seq = rng.standard_normal((8, 3, 64)).astype(np.float32)
        target = rng.random((8, 3, 5), dtype=np.float32)
        params = R.build_rnn_head(0, input_dim=64)
        adam = init_adam(params, list(params), R.RNN_ALPHA)

        walk = functools.partial(R.sequence_gradients, params, seq, target, rng=rng, dropout=R.RNN_DROPOUT)
        peak = traced(adam_step, params, walk, adam).peak
        assert peak < self.STEP_BOUND_MB * 1e6, peak / 1e6


class TestBatchedTraining:
    def test_batch_of_one_is_the_per_sequence_recipe(self, monkeypatch):
        # SHA-256 of the parameters and losses of per-sequence training: one
        # Adam step per sequence at alpha 2e-4, dropout 0.5, whole-sequence
        # gradients. A batch of one at that step size takes the same steps.
        monkeypatch.setattr(R, "RNN_BATCH", 1)
        monkeypatch.setattr(R, "RNN_ALPHA", AdamState.alpha)
        rng = rng64(7)
        sequences = [(rng.standard_normal((T, 8)).astype(np.float32), rng.random(5).astype(np.float32))
                     for T in (3, 4, 3, 2, 4, 3)]
        params = R.build_rnn_head(4, input_dim=8, hidden=16)
        losses = R.train_rnn(sequences, params, R.RnnTrainConfig(epochs=3, seed=4))
        digest = hashlib.sha256()
        for k in sorted(params):
            digest.update(params[k].tobytes())
        digest.update(np.asarray(losses, np.float64).tobytes())
        assert digest.hexdigest() == "74148858f6a0ef3d2d96c87e00c8ca5d5457654a594e801e7517b863829beba0"

    def test_batch_gradients_are_the_mean_of_sequence_gradients(self):
        params = toy_head(50, input_dim=6, hidden=5, out_dim=3)
        seq = rng64(51).standard_normal((3, 5, 6))
        target = per_step(rng64(52).random((3, 3)), 5)
        loss, grads, outputs = gradients(params, seq, target)
        alone = [gradients(params, seq[b : b + 1], target[b : b + 1]) for b in range(3)]
        assert loss == pytest.approx(np.mean([a[0] for a in alone]), rel=1e-12)
        np.testing.assert_allclose(outputs, np.concatenate([a[2] for a in alone]), rtol=1e-12)
        for k in grads:
            np.testing.assert_allclose(grads[k], np.mean([a[1][k] for a in alone], axis=0), rtol=1e-10, atol=1e-14)

    def test_each_row_of_the_gradcheck_case_has_its_own_mask(self, monkeypatch):
        from avtrait import gradcheck as G

        tapes = []

        def spy(*args, **kwargs):
            out = R.rnn_forward(*args, **kwargs)
            tapes.append(out[1])
            return out

        monkeypatch.setattr(G, "rnn_forward", spy)
        run, _ = G._lstm_segment_case(rng64(0))
        run()
        masks = [mask for step in tapes[-1] for mask in (step[1], step[3])]
        assert all(mask.shape[0] == 2 for mask in masks)
        assert all(not np.array_equal(mask[0], mask[1]) for mask in masks)

    def test_mixed_lengths_batch_by_length_in_permutation_order(self, monkeypatch):
        # each sequence's features hold its index, so a batch names its members
        lengths = [2, 3, 2, 4, 3, 2, 2, 3, 4, 2, 2]
        sequences = [(np.full((T, 4), j, np.float64), np.full(3, 0.5)) for j, T in enumerate(lengths)]
        batches = []
        sequence_gradients = R.sequence_gradients

        def spy(params, seq, target, consume, rng=None, dropout=0.0):
            batches.append([int(j) for j in seq[:, 0, 0]])
            assert seq.shape[1] == lengths[batches[-1][0]] and target.shape == (len(seq), seq.shape[1], 3)
            return sequence_gradients(params, seq, target, consume, rng, dropout)

        monkeypatch.setattr(R, "sequence_gradients", spy)
        monkeypatch.setattr(R, "RNN_DROPOUT", 0.0)
        monkeypatch.setattr(R, "RNN_BATCH", 3)
        config = R.RnnTrainConfig(epochs=3, seed=9)
        R.train_rnn(sequences, toy_head(53, input_dim=4, hidden=4, out_dim=3), config)
        # with no dropout the generator draws only each epoch's permutation
        rng = np.random.Generator(np.random.PCG64(config.seed))
        for _ in range(config.epochs):
            order = rng.permutation(len(sequences))
            epoch = []
            while sum(map(len, epoch)) < len(sequences):
                epoch.append(batches.pop(0))
            assert sorted(j for batch in epoch for j in batch) == list(range(len(sequences)))
            for T in set(lengths):
                of_length = [batch for batch in epoch if lengths[batch[0]] == T]
                assert all(lengths[j] == T for batch in of_length for j in batch)
                assert [j for batch in of_length for j in batch] == [j for j in order if lengths[j] == T]
                assert [len(batch) for batch in of_length[:-1]] == [3] * (len(of_length) - 1)
        assert batches == []


def gate_split(seed, train=64, validation=32, T=3, D=64, K=5):
    """Sequences of a per-clip base vector plus per-second noise, labelled by a
    squashed random projection of the base: 0.5 + 0.4 tanh(2 (base - 0.5) A)."""
    rng = rng64(seed)
    A = rng.standard_normal((D, K)) / np.sqrt(D)
    base = rng.random((train + validation, D))
    rows = base[:, None] + 0.1 * rng.standard_normal((train + validation, T, D))
    labels = 0.5 + 0.4 * np.tanh(2.0 * (base - 0.5) @ A)
    split = [(rows[j].astype(np.float32), labels[j].astype(np.float32)) for j in range(train + validation)]
    return split[:train], split[train:]


class TestLearningGate:
    """The head learns: on a fixed synthetic split, the default batched
    recipe beats the train-mean predictor by MARGIN, and at equal epochs it
    is no worse than one sequence a step, within TOLERANCE.

    Over seeds 0-5, after 20 epochs, the default beat the train mean by
    0.025-0.057 in accuracy and was ahead of per-sequence steps on every
    seed. Per-sequence steps (at 2e-4) beat it by 0.016-0.036; they are the
    reference for TOLERANCE and are not held to MARGIN.
    """

    SEEDS = (0, 1, 2)
    EPOCHS = 20
    HIDDEN = 128
    MARGIN = 0.02  # accuracy of the default over the train-mean predictor's
    TOLERANCE = 0.01  # accuracy the default may give up to per-sequence steps

    @staticmethod
    def accuracy(predictions, validation):
        labels = np.stack([label for _, label in validation]).astype(np.float64)
        return 1.0 - float(np.abs(np.asarray(predictions, np.float64) - labels).mean())

    def trained(self, train, validation, seed):
        params = R.build_rnn_head(seed, input_dim=train[0][0].shape[1], hidden=self.HIDDEN)
        R.train_rnn(train, params, R.RnnTrainConfig(epochs=self.EPOCHS, seed=seed))
        return self.accuracy([R.predict_sequence(seq, params) for seq, _ in validation], validation)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_recipe_beats_the_train_mean_and_keeps_up_with_per_sequence_steps(self, seed, monkeypatch):
        train, validation = gate_split(seed)
        mean = np.mean([label for _, label in train], axis=0)
        baseline = self.accuracy([mean] * len(validation), validation)
        with monkeypatch.context() as recipe:
            recipe.setattr(R, "RNN_BATCH", 1)
            recipe.setattr(R, "RNN_ALPHA", AdamState.alpha)
            per_sequence = self.trained(train, validation, seed)
        default = self.trained(train, validation, seed)
        figures = f"train mean {baseline:.4f}, per-sequence {per_sequence:.4f}, default {default:.4f}"
        assert default >= baseline + self.MARGIN, figures
        assert default >= per_sequence - self.TOLERANCE, figures


class TestPredict:
    def test_constant_steps_return_constant(self):
        params = {k: np.zeros_like(v) for k, v in toy_head().items()}
        seq = rng64(32).standard_normal((7, 6))
        pred = R.predict_sequence(seq, params)
        np.testing.assert_allclose(pred, 0.5, atol=1e-12)

    def test_mean_over_steps(self):
        # hand-built head state: verify the average of per-step outputs
        params = toy_head(33)
        seq = rng64(34).standard_normal((5, 6))
        outs, _, _ = R.rnn_forward(seq[None], params)
        np.testing.assert_allclose(R.predict_sequence(seq, params), outs[0].mean(axis=0), rtol=1e-7)

    def test_two_step_hand_mean(self):
        outs = np.array([[0.2, 0.4, 0.6], [0.4, 0.6, 0.8]])
        assert np.allclose(outs.mean(axis=0), [0.3, 0.5, 0.7])

    def test_components_in_unit_interval(self):
        params = toy_head(35)
        seq = rng64(36).standard_normal((6, 6)) * 3.0
        pred = R.predict_sequence(seq, params)
        assert np.all(pred >= 0.0) and np.all(pred <= 1.0)


@pytest.fixture(scope="module")
def base():
    arch = M.mini_architecture()
    params = M.build_network(arch, 40)
    return arch, params


class TestExtractFeatures:

    def synth_clip(self, seconds, seed=41):
        rng = rng64(seed)
        S = int(seconds * D.SAMPLE_RATE)
        T = int(seconds * D.FPS)
        audio = (rng.random((1, S), dtype=np.float32) - 0.5).astype(np.float32)
        frames = rng.integers(0, 256, (T, 3, 32, 32), dtype=np.uint8)
        return D.Clip(audio=audio, frames=frames)

    def test_row_count_is_floor_of_seconds(self, base):
        arch, params = base
        feats = R.extract_features(self.synth_clip(2.0), arch, params)
        assert feats.shape == (2, arch.fusion_in)
        feats = R.extract_features(self.synth_clip(2.96), arch, params)
        assert feats.shape == (2, arch.fusion_in)

    def test_bitwise_equal_to_float_frames(self, base):
        # per-second rows computed by hand on frames converted up front
        arch, params = base
        clip = self.synth_clip(2.0)
        frames = clip.frames.astype(np.float32) / np.float32(255.0)
        rows = []
        for t in range(2):
            audio = clip.audio[None, :, t * D.SAMPLE_RATE : (t + 1) * D.SAMPLE_RATE]
            fa, _ = M.forward_stream(audio, arch.auditory, "auditory", params, "eval")
            fv = [
                M.forward_stream(f[None], arch.visual, "visual", params, "eval")[0][0]
                for f in frames[t * D.FPS : (t + 1) * D.FPS]
            ]
            rows.append(np.concatenate([fa[0], M._fsum_mean(fv).astype(np.float32)]))
        assert R.extract_features(clip, arch, params).tobytes() == np.stack(rows).tobytes()

    def test_sub_second_clip_rejected(self, base):
        arch, params = base
        with pytest.raises(D.ClipTooShortError, match="second"):
            R.extract_features(self.synth_clip(0.6), arch, params)

    @pytest.mark.parametrize("seconds", [1.0, 3.0])
    def test_each_stream_folded_once_per_clip(self, base, monkeypatch, seconds):
        arch, params = base
        folded = []
        fold_stream = M.fold_stream

        def spy(stream, prefix, params_):
            folded.append(prefix)
            return fold_stream(stream, prefix, params_)

        monkeypatch.setattr(M, "fold_stream", spy)
        R.extract_features(self.synth_clip(seconds), arch, params)
        assert folded == ["auditory", "visual"]

    def test_identical_seconds_give_identical_rows(self, base):
        arch, params = base
        clip = self.synth_clip(1.0)
        audio = np.concatenate([clip.audio, clip.audio], axis=1)
        frames = np.concatenate([clip.frames, clip.frames], axis=0)
        two = D.Clip(audio=audio, frames=frames)
        feats = R.extract_features(two, arch, params)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_never_mutates_base_params(self, base):
        arch, params = base
        before = {k: v.copy() for k, v in params.items()}
        R.extract_features(self.synth_clip(1.0), arch, params)
        for k, v in params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_mean_of_identical_second_features_equals_full_clip_audio_pool(self, base):
        # per-second audio features over identical seconds average to the
        # single second's feature exactly (equal window sizes); the
        # full-clip pooled feature sees the same periodic content but with
        # different boundary padding, so it only tracks closely
        arch, params = base
        clip = self.synth_clip(1.0, seed=42)
        audio3 = np.concatenate([clip.audio] * 3, axis=1)
        frames3 = np.concatenate([clip.frames] * 3, axis=0)
        clip3 = D.Clip(audio=audio3, frames=frames3)
        feats = R.extract_features(clip3, arch, params)
        mean_rows = feats.astype(np.float64).mean(axis=0).astype(feats.dtype)
        np.testing.assert_array_equal(mean_rows, feats[0])

        full_audio_feat, _ = M.forward_stream(audio3[None], arch.auditory, "auditory", params, "eval")
        naud = arch.auditory.stage_channels[-1]
        a = feats[0][:naud].astype(np.float64)
        b = full_audio_feat[0].astype(np.float64)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert corr > 0.97


class TestOpenedClipFeatures:
    """extract_features and predict_rnn read an opened clip a second at a
    time, bitwise equal to the same clip loaded whole."""

    def saved(self, tmp_path):
        # 2.5 s: two whole seconds, then a tail that no row reads
        rng = rng64(41)
        audio = (rng.random((1, int(2.5 * D.SAMPLE_RATE)), dtype=np.float32) - 0.5).astype(np.float32)
        frames = rng.integers(0, 256, (int(2.5 * D.FPS), 3, 32, 32), dtype=np.uint8)
        path = str(tmp_path / "c.clip")
        D.save_clip(D.Clip(audio=audio, frames=frames), path)
        return path

    def test_extract_features_equal_to_loaded_clip(self, base, tmp_path):
        arch, params = base
        path = self.saved(tmp_path)
        got = R.extract_features(D.open_clip(path), arch, params)
        expect = R.extract_features(D.load_clip(path), arch, params)
        assert got.shape == (2, arch.fusion_in) and got.tobytes() == expect.tobytes()

    def test_predict_rnn_equal_to_loaded_clip(self, base, tmp_path):
        arch, params = base
        head = R.build_rnn_head(3, input_dim=arch.fusion_in, hidden=8)
        path = self.saved(tmp_path)
        got = R.predict_rnn(D.open_clip(path), arch, params, head)
        expect = R.predict_rnn(D.load_clip(path), arch, params, head)
        assert got.tobytes() == expect.tobytes()

    def test_nan_in_the_unread_tail_is_rejected_on_opening(self, base, tmp_path):
        # the last sample lies after the last whole second, which
        # extract_features never reads; opening the clip checks it
        arch, params = base
        path = self.saved(tmp_path)
        S = int(2.5 * D.SAMPLE_RATE)
        with open(path, "r+b") as fh:
            fh.seek(20 + 4 * (S - 1))
            fh.write(np.array([np.nan], dtype="<f4").tobytes())
        unchecked = D.ClipFile(path, S, (int(2.5 * D.FPS), 3, 32, 32))
        assert np.all(np.isfinite(R.extract_features(unchecked, arch, params)))
        with pytest.raises(D.AudioRangeError):
            D.open_clip(path)
        row = D.ManifestRow("c", "c.clip", np.full(5, 0.5), "test")
        manifest = D.Manifest(rows=[row], directory=str(tmp_path))
        assert T.map_clips(manifest, [row], lambda clip: R.extract_features(clip, arch, params)) == [(row, None)]
