import tracemalloc

import numpy as np
import pytest

from avtrait import data as D
from avtrait import model as M
from avtrait import rnn_head as R
from avtrait import train as T
from avtrait.layers import lstm_step
from avtrait.optim import mae_loss
from oracles import central_difference, fd_rel_err, rnn_backward_per_step


def rng64(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


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
        seq = rng64(1).standard_normal((9, 6))
        out, _, _ = R.rnn_forward(seq, params)
        np.testing.assert_array_equal(out, np.full((9, 3), 0.5))

    def test_eval_deterministic(self):
        params = toy_head(2)
        seq = rng64(2).standard_normal((6, 6))
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
        out, _, _ = R.rnn_forward(x, params)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_state_carries_between_calls(self):
        params = toy_head(6)
        seq = rng64(7).standard_normal((8, 6))
        full, _, _ = R.rnn_forward(seq, params)
        first, _, state = R.rnn_forward(seq[:3], params)
        second, _, _ = R.rnn_forward(seq[3:], params, state=state)
        np.testing.assert_allclose(np.concatenate([first, second]), full, rtol=1e-12)

    def test_train_dropout_needs_rng(self):
        with pytest.raises(ValueError, match="generator"):
            R.rnn_forward(np.zeros((2, 6)), toy_head(), rng=None, dropout=0.5)


class TestTruncatedBptt:
    def test_fifteen_step_clip_truncation_is_noop(self):
        params = toy_head(8)
        seq = rng64(9).standard_normal((15, 6))
        target = rng64(10).random(3)
        loss_t, grads_t, _ = R.sequence_gradients(params, seq, target, trunc=15)
        loss_f, grads_f, _ = R.sequence_gradients(params, seq, target, trunc=10**9)
        assert loss_t == loss_f
        for k in grads_t:
            np.testing.assert_array_equal(grads_t[k], grads_f[k])

    def test_thirty_step_gradient_equals_two_segment_composition(self):
        params = toy_head(11)
        seq = rng64(12).standard_normal((30, 6))
        target = rng64(13).random(3)
        _, grads, outputs = R.sequence_gradients(params, seq, target, trunc=15)

        # manual composition: full BPTT on each 15-step half, state carried
        # across the boundary without gradient
        t_full = np.broadcast_to(target, (30, 3)).astype(seq.dtype)
        from avtrait.optim import mae_loss

        _, dout = mae_loss(outputs, np.ascontiguousarray(t_full))
        out1, tape1, state = R.rnn_forward(seq[:15], params)
        out2, tape2, _ = R.rnn_forward(seq[15:], params, state=state)
        g1 = R.rnn_backward(tape1, dout[:15], params)
        g2 = R.rnn_backward(tape2, dout[15:], params)
        for k in grads:
            np.testing.assert_array_equal(grads[k], g1[k] + g2[k])

    def test_truncation_changes_long_range_gradients(self):
        params = toy_head(14)
        seq = rng64(15).standard_normal((30, 6))
        target = rng64(16).random(3)
        _, g_trunc, _ = R.sequence_gradients(params, seq, target, trunc=15)
        _, g_full, _ = R.sequence_gradients(params, seq, target, trunc=10**9)
        assert any(not np.array_equal(g_trunc[k], g_full[k]) for k in g_trunc)

    def test_four_step_gradients_match_finite_differences(self):
        params = toy_head(17, input_dim=4, hidden=3, out_dim=2)
        seq = rng64(18).standard_normal((4, 4))
        target = rng64(19).random(2)

        def loss():
            l, _, _ = R.sequence_gradients(params, seq, target, trunc=10**9)
            return l

        _, grads, _ = R.sequence_gradients(params, seq, target, trunc=10**9)
        for name, arr in params.items():
            numeric = central_difference(loss, arr)
            assert fd_rel_err(grads[name], numeric) <= 1e-5, name

    def test_truncated_segment_gradients_match_finite_differences(self):
        # FD of a loss that stops gradients at the boundary: recompute the
        # carried state with frozen params so only the segment's dependence
        # is differentiated
        params = toy_head(20, input_dim=4, hidden=3, out_dim=2)
        seq = rng64(21).standard_normal((6, 4))
        target = rng64(22).random(2)
        _, grads, _ = R.sequence_gradients(params, seq, target, trunc=3)
        frozen = {k: v.copy() for k, v in params.items()}

        def loss():
            t_full = np.broadcast_to(target, (6, 2)).astype(seq.dtype)
            _, _, state = R.rnn_forward(seq[:3], frozen)
            out1, _, _ = R.rnn_forward(seq[:3], params)
            out2, _, _ = R.rnn_forward(seq[3:], params, state=state)
            out = np.concatenate([out1, out2])
            return float(np.abs(out - t_full).mean())

        for name, arr in params.items():
            numeric = central_difference(loss, arr)
            assert fd_rel_err(grads[name], numeric) <= 1e-5, name


class TestPerStepOracle:
    @pytest.mark.parametrize("steps", [1, 3, 15, 20])
    def test_segment_backward_matches_per_step_bptt(self, steps):
        # float64, trunc 15, dropout 0.5: the gradients differ from the
        # per-step path only in summation order. The error is measured
        # against each tensor's largest entry, since an entry that nearly
        # cancels keeps the absolute rounding of the terms that made it.
        def close(got, ref, name):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name)

        params = toy_head(37, input_dim=6, hidden=8, out_dim=3)
        seq = rng64(38).standard_normal((steps, 6))
        target = rng64(39).random(3)
        _, grads, outputs = R.sequence_gradients(params, seq, target, 15, rng=rng64(40), dropout=0.5)
        _, dout = mae_loss(outputs, np.ascontiguousarray(np.broadcast_to(target, (steps, 3))))
        rng = rng64(40)  # the same seed draws the same masks in the same order
        state = None
        expect = {k: np.zeros_like(v) for k, v in params.items()}
        for lo in range(0, steps, 15):
            seg = slice(lo, lo + 15)
            out, tape, state = R.rnn_forward(seq[seg], params, rng, 0.5, state=state)
            np.testing.assert_array_equal(out, outputs[seg])
            got = R.rnn_backward(tape, dout[seg], params)
            ref = rnn_backward_per_step(tape, dout[seg], params)
            for k in params:
                close(got[k], ref[k], k)
                expect[k] += ref[k]
        for k in params:
            close(grads[k], expect[k], k)


class TestDropout:
    def test_train_mode_masks_and_scales(self):
        params = toy_head(23, input_dim=4, hidden=64, out_dim=2)
        seq = rng64(24).standard_normal((2, 4))
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
    def test_overfits_four_synthetic_sequences(self):
        rng = rng64(28)
        sequences = []
        for _ in range(4):
            seq = rng.standard_normal((8, 6)).astype(np.float64)
            target = rng.random(3) * 0.8 + 0.1
            sequences.append((seq, target))
        params = toy_head(29, input_dim=6, hidden=16, out_dim=3)
        config = R.RnnTrainConfig(epochs=400, seed=1, trunc=15, dropout=0.0, alpha=5e-3)
        losses = R.train_rnn(sequences, params, config)
        assert losses[-1] < 0.02

    def test_training_is_deterministic(self):
        rng = rng64(30)
        sequences = [(rng.standard_normal((5, 6)), rng.random(3)) for _ in range(2)]
        def run():
            params = toy_head(31, input_dim=6, hidden=8, out_dim=3)
            R.train_rnn(sequences, params, R.RnnTrainConfig(epochs=3, seed=2, dropout=0.5))
            return params
        p1, p2 = run(), run()
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_holds_one_sequence_gradients_at_a_time(self):
        # a 64-unit head on 16-d features: 216 KB of gradients per sequence,
        # which outweigh a 4-step sequence's tape
        rng = rng64(8)
        sequences = [(rng.standard_normal((4, 16)).astype(np.float32), np.full(5, 0.5, np.float32)) for _ in range(2)]
        grad_bytes = sum(v.nbytes for v in R.build_rnn_head(0, input_dim=16, hidden=64).values())
        peaks = []
        for n in (1, 2):
            params = R.build_rnn_head(0, input_dim=16, hidden=64)
            tracemalloc.start()
            try:
                R.train_rnn(sequences[:n], params, R.RnnTrainConfig(epochs=1, seed=0, trunc=2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < grad_bytes / 2, (peaks, grad_bytes)


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
        outs, _, _ = R.rnn_forward(seq, params)
        np.testing.assert_allclose(R.predict_sequence(seq, params), outs.mean(axis=0), rtol=1e-7)

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
