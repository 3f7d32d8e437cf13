import dataclasses
import functools
import hashlib
import math
import os

import numpy as np
import pytest

from avtrait import data as D
from avtrait import model as M
from avtrait import rnn_head as R
from avtrait import train as T
from avtrait import layers as L
from avtrait import optim as O
from avtrait.layers import linear_forward, scaled_tanh
from avtrait.optim import mae_loss
from test_layers import (
    composed_eval_block,
    distinct_buffers,
    keep_all_block_backward,
    keep_all_block_forward,
    random_bn,
    reachable_arrays,
)
from oracles import batchnorm_eval_loops, fd_rel_err, stride_trace
from tracemem import traced

HERE = os.path.dirname(__file__)


def rng64(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestBuildNetwork:
    def test_same_seed_bitwise_identical(self):
        arch = M.mini_architecture()
        p1 = M.build_network(arch, 42)
        p2 = M.build_network(arch, 42)
        assert set(p1) == set(p2)
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_different_seed_differs(self):
        arch = M.mini_architecture()
        p1 = M.build_network(arch, 1)
        p2 = M.build_network(arch, 2)
        assert not np.array_equal(p1["fusion.w"], p2["fusion.w"])

    def test_stem_weight_shapes(self):
        params = M.build_network(M.full_architecture(), 0)
        assert params["visual.stem.conv.w"].shape == (32, 3, 7, 7)
        assert params["auditory.stem.conv.w"].shape == (32, 1, 49)

    @pytest.mark.parametrize("factory", [M.full_architecture, M.mini_architecture])
    def test_visual_stem_takes_every_frame_plane(self, factory):
        arch = factory()
        assert arch.visual.in_channels == D.FRAME_PLANES
        assert M.build_network(arch, 0)["visual.stem.conv.w"].shape[1] == D.FRAME_PLANES

    def test_he_std_within_ten_percent(self):
        # a 256-fan-in draw should land near sqrt(2/256)
        rng = rng64(3)
        w = M.he_normal(rng, (256, 64), fan_in=256, dtype=np.float64)
        expect = math.sqrt(2.0 / 256.0)
        assert abs(float(w.std()) - expect) / expect < 0.10

    def test_constants_and_biases(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 5)
        assert not params["fusion.b"].any()
        assert [n for n in params if n.endswith(".b")] == ["fusion.b"]  # no convolution has a bias
        assert (params["visual.stem.bn.gamma"] == 1).all()
        assert not params["visual.stem.bn.beta"].any()
        assert not params["visual.stem.bn.running_mean"].any()
        assert (params["visual.stem.bn.running_var"] == 1).all()

    def test_dtype_modes(self):
        arch = M.mini_architecture()
        assert M.build_network(arch, 0)["fusion.w"].dtype == np.float32
        assert M.build_network(arch, 0, dtype=np.float64)["fusion.w"].dtype == np.float64


class TestArchitectureManifest:
    @pytest.mark.parametrize("which,builder", [("full", M.full_architecture), ("mini", M.mini_architecture)])
    def test_golden_manifest(self, which, builder):
        golden = {}
        with open(os.path.join(HERE, f"golden_manifest_{which}.txt")) as fh:
            for line in fh:
                name, shape = line.split()
                golden[name] = tuple(int(s) for s in shape.split(","))
        assert param_dict(builder()) == golden

    @pytest.mark.parametrize("builder,tensors,trainable", [(M.full_architecture, 178, 110), (M.mini_architecture, 98, 62)])
    def test_tensor_counts(self, builder, tensors, trainable):
        assert len(param_dict(builder())) == tensors
        assert len(M.trainable_names(builder())) == trainable

    def test_seventeen_conv_layers_per_stream(self):
        m = param_dict(M.full_architecture())
        for stream in ("auditory", "visual"):
            convs = [n for n in m if n.startswith(stream) and n.endswith(".w") and "shortcut" not in n and "fusion" not in n]
            assert len(convs) == 17

    def test_halved_channel_plan(self):
        m = param_dict(M.full_architecture())
        assert m["visual.stem.conv.w"][0] == 32
        plan = [
            m[f"visual.stage{i}.block{j}.conv1.w"][0]
            for i in range(1, 5)
            for j in range(1, 3)
        ]
        assert plan == [32, 32, 64, 64, 128, 128, 256, 256]

    def test_fusion_is_512_to_5(self):
        m = param_dict(M.full_architecture())
        assert m["fusion.w"] == (512, 5)
        assert m["fusion.b"] == (5,)

    def test_projection_blocks_only_at_stage_entries(self):
        m = param_dict(M.full_architecture())
        shortcuts = sorted(n for n in m if "shortcut.w" in n)
        expect = sorted(
            f"{s}.stage{i}.block1.shortcut.w" for s in ("auditory", "visual") for i in (2, 3, 4)
        )
        assert shortcuts == expect

    def test_validate_params_catches_mutations(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        M.validate_params(arch, params)
        bad = dict(params)
        del bad["fusion.b"]
        with pytest.raises(ValueError, match="manifest"):
            M.validate_params(arch, bad)


def param_dict(arch):
    return dict(M.param_manifest(arch))


class TestStrideArithmetic:
    AUDIO_LAYERS = [(49, 4, 24), (9, 4, 4), (9, 4, 4), (9, 4, 4), (9, 4, 4)]
    VISUAL_LAYERS = [(7, 2, 3), (3, 2, 1), (3, 2, 1), (3, 2, 1), (3, 2, 1)]

    def test_canonical_crop_extents_against_oracle(self):
        assert stride_trace(50176, self.AUDIO_LAYERS) == 49
        assert stride_trace(224, self.VISUAL_LAYERS) == 7

    def test_fifteen_second_clip_extent(self):
        assert stride_trace(240000, self.AUDIO_LAYERS) == 235

    def test_forward_pre_gap_extents_match_oracle(self):
        arch = M.full_architecture()
        params = M.build_network(arch, 0)
        audio = np.zeros((2, 1, 50176), np.float32)
        _, tape = M.forward_stream(audio, arch.auditory, "auditory", params, "train")
        pre_gap_shape = tape[-1][2][0]
        assert pre_gap_shape == (2, 256, 49)

        frames = np.zeros((2, 3, 224, 224), np.float32)
        _, tape = M.forward_stream(frames, arch.visual, "visual", params, "train")
        assert tape[-1][2][0] == (2, 256, 7, 7)

    def test_mini_network_keeps_the_strides(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        audio = np.zeros((2, 1, 1024), np.float32)
        _, tape = M.forward_stream(audio, arch.auditory, "auditory", params, "train")
        assert tape[-1][2][0] == (2, 32, 1)


class TestConvSpecs:
    # the module docstring's k/s/p table, per stream: (stem, pool) as
    # (kernel, stride, padding), the blocks' kernel and padding, and the
    # stage strides
    TABLE = {
        "visual": (((7, 7), (2, 2), (3, 3)), ((3, 3), (2, 2), (1, 1)), ((3, 3), (1, 1)), (1, 2, 2, 2)),
        "auditory": (((49,), (4,), (24,)), ((9,), (4,), (4,)), ((9,), (4,)), (1, 4, 4, 4)),
    }

    @pytest.mark.parametrize(
        "architecture, channels, blocks",
        [(M.full_architecture, (32, 64, 128, 256), 2), (M.mini_architecture, (4, 8, 16, 32), 1)],
    )
    @pytest.mark.parametrize("prefix, in_channels", [("auditory", 1), ("visual", 3)])
    def test_every_spec_follows_the_table(self, architecture, channels, blocks, prefix, in_channels):
        (stem_k, stem_s, stem_p), pool, (block_k, block_p), strides = self.TABLE[prefix]
        unit = (1,) * len(stem_k)
        want = [L.ConvSpec(stem_k, stem_s, stem_p, in_channels, channels[0]), L.ConvSpec(*pool)]
        c_in = channels[0]
        for stage, (c, s) in enumerate(zip(channels, strides)):
            for block in range(blocks):
                stride = (s,) * len(unit) if block == 0 else unit
                want.append(L.ConvSpec(block_k, stride, block_p, c_in, c))
                want.append(L.ConvSpec(block_k, unit, block_p, c, c))
                # the first block of stages 2-4 projects, unpadded, at the stage stride
                want.append(L.ConvSpec(unit, stride, (0,) * len(unit), c_in, c) if stage and not block else None)
                c_in = c
        arch = architecture()
        stream = getattr(arch, prefix)
        params = M.build_network(arch, 0)
        got = [M._stem_spec(stream), M._pool_spec(stream)]
        for layout in M._block_layout(stream):
            blk = M._block_params(stream, prefix, *layout, params)
            got += [blk.spec1, blk.spec2, blk.shortcut_spec]
        assert got == want

    def test_a_repeated_pass_builds_no_spec(self, monkeypatch):
        built = []
        check = L.ConvSpec.__post_init__

        def counting(spec):
            built.append(spec)
            check(spec)

        monkeypatch.setattr(L.ConvSpec, "__post_init__", counting)
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        audio = rng64(1).uniform(-1, 1, (2, 1, 2048)).astype(np.float32)
        frames = rng64(2).random((2, 3, 40, 40)).astype(np.float32)
        passes = []
        for _ in range(2):
            M.forward_stream(frames[:1], arch.visual, "visual", params, "eval")
            M.forward_stream(audio[:1], arch.auditory, "auditory", params, "eval")
            eval_specs = len(built)
            pred, tape = M.forward_train(arch, params, audio, frames)
            M.backward(tape, np.ones_like(pred))
            passes.append((eval_specs, len(built)))
            built.clear()
        assert passes[1] == (0, 0)


class TestDimensionalCorrespondence:
    def test_stream_element_counts_match_on_squared_inputs(self):
        # auditory on (1, L^2) vs a one-channel visual stream on (1, L, L):
        # the n^2 <-> n x n mapping is structural, so pre-GAP element
        # counts agree
        L = 224
        arch = M.full_architecture()
        arch = dataclasses.replace(arch, visual=dataclasses.replace(arch.visual, in_channels=1))
        params = M.build_network(arch, 0)
        audio = np.zeros((1, 1, L * L), np.float32)
        _, tape_a = M.forward_stream(audio, arch.auditory, "auditory", params, "train")
        a_shape = tape_a[-1][2][0]

        img = np.zeros((1, 1, L, L), np.float32)
        _, tape_v = M.forward_stream(img, arch.visual, "visual", params, "train")
        v_shape = tape_v[-1][2][0]
        assert int(np.prod(a_shape[2:])) == int(np.prod(v_shape[2:])) == 49


class TestForwardTrain:
    def setup_method(self):
        self.arch = M.mini_architecture()
        self.params = M.build_network(self.arch, 7)
        rng = rng64(1)
        self.audio = rng.standard_normal((3, 1, 1024)).astype(np.float32) * 0.5
        self.frames = rng.random((3, 3, 32, 32), dtype=np.float32)

    def test_output_shape_and_open_interval(self):
        pred, _ = M.forward_train(self.arch, self.params, self.audio, self.frames)
        assert pred.shape == (3, 5)
        assert np.all(pred > 0.0) and np.all(pred < 1.0)

    def test_zero_fusion_weights_give_exactly_half(self):
        params = dict(self.params)
        params["fusion.w"] = np.zeros_like(params["fusion.w"])
        params["fusion.b"] = np.zeros_like(params["fusion.b"])
        pred, _ = M.forward_train(self.arch, params, self.audio, self.frames)
        np.testing.assert_array_equal(pred, np.full((3, 5), 0.5, np.float32))

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            M.forward_train(self.arch, self.params, self.audio[:1], self.frames[:1])

    def test_wrong_crop_shape_rejected(self):
        with pytest.raises(M.ShapeMismatchError):
            M.forward_train(self.arch, self.params, self.audio, self.frames, audio_len=2048)
        with pytest.raises(M.ShapeMismatchError):
            M.forward_train(self.arch, self.params, self.audio, self.frames, frame_size=48)

    def test_mismatched_batches_rejected(self):
        with pytest.raises(M.ShapeMismatchError):
            M.forward_train(self.arch, self.params, self.audio[:2], self.frames)

    def test_tape_holds_less_than_the_activations(self, monkeypatch):
        # The tape keeps layer inputs, x-hats and pool outputs. Convolution
        # columns (9 times a 3x3 conv's input) would put it several times
        # over the bytes every layer outputs.
        produced = []
        for name in ("conv_forward", "batchnorm_forward", "relu_forward", "maxpool_forward"):
            def counted(*args, _fn=getattr(L, name)):
                out = _fn(*args)
                produced.append((out[0] if isinstance(out, tuple) else out).nbytes)
                return out

            monkeypatch.setattr(L, name, counted)
            monkeypatch.setattr(M, name, counted)
        _, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        params = {id(v) for v in self.params.values()}
        buffers = {id(a): a.nbytes for a in reachable_arrays(tape) if a.base is None and id(a) not in params}
        bound = self.audio.nbytes + self.frames.nbytes + sum(produced)
        assert sum(buffers.values()) <= bound


def keep_all_stream_forward(x, stream, prefix, params):
    """A train-mode stream from the public layer functions with a tape that
    keeps every activation: the stem's rectifier output, which the pool's
    cache holds as its input, and keep_all_block_forward caches."""
    tape = []
    y, c = L.conv_forward(x, params[f"{prefix}.stem.conv.w"], M._stem_spec(stream))
    tape.append(("conv", f"{prefix}.stem.conv", c))
    y, c = L.batchnorm_forward(y, M._bn_state(params, f"{prefix}.stem.bn"))
    tape.append(("bn", f"{prefix}.stem.bn", c))
    y, c = L.relu_forward(y)
    tape.append(("relu", None, c))
    y, c = L.maxpool_forward(y, M._pool_spec(stream))
    tape.append(("maxpool", None, c))
    for layout in M._block_layout(stream):
        y, c = keep_all_block_forward(y, M._block_params(stream, prefix, *layout, params))
        tape.append(("block", f"{prefix}.{layout[0]}", c))
    y, c = L.global_average_pool(y)
    tape.append(("gap", None, c))
    return y, tape


def keep_all_stream_backward(tape, g) -> dict:
    grads = {}
    for kind, name, cache in reversed(tape):
        if kind == "gap":
            g = L.global_average_pool_backward(cache, g)
        elif kind == "block":
            bgrads, g = keep_all_block_backward(cache, g)
            grads.update({f"{name}.{key}": v for key, v in bgrads.items()})
        elif kind == "maxpool":
            g = L.maxpool_backward(cache, g)
        elif kind == "relu":
            g = L.relu_backward(cache, g)
        elif kind == "bn":
            grads[f"{name}.gamma"], grads[f"{name}.beta"], g = L.batchnorm_backward(cache, g)
        else:
            grads[f"{name}.w"], g = L.conv_backward(cache, g)
    return grads


def lean_stream_bytes(tape) -> int:
    """What a lean stream tape should hold, from a keep_all_stream_forward
    tape of the same forward: the stem's input, x-hat and pool output; each
    block's x-hat 1, x-hat 2 and output (the next block's input, or for the
    last one the global pool's input); each batch norm's inverse deviation."""
    (_, _, c_conv), (_, _, c_bn), _, (_, _, c_pool) = tape[:4]
    blocks = [cache for kind, _, cache in tape if kind == "block"]
    gap_shape = tape[-1][2][0]
    total = c_conv[0].nbytes + c_bn[0].nbytes + c_bn[1].nbytes + c_pool[1].nbytes
    for k, (_, c_bn1, _, _, c_bn2, _, _) in enumerate(blocks):
        total += c_bn1[0].nbytes + c_bn1[1].nbytes + c_bn2[0].nbytes + c_bn2[1].nbytes
        total += blocks[k + 1][0][0].nbytes if k + 1 < len(blocks) else math.prod(gap_shape) * c_bn2[0].itemsize
    return total


class TestLeanModelTape:
    """forward_train's tape keeps each activation once, and backward from it
    equals a walk of a tape that keeps them all, bit for bit."""

    def setup_method(self):
        self.arch = M.mini_architecture()

    def inputs(self, dtype):
        """Two equal parameter sets with random gamma and beta, and a batch."""
        params = M.build_network(self.arch, 13, dtype=dtype)
        rng = rng64(14)
        for name in params:
            if name.endswith((".gamma", ".beta")):
                params[name] = (rng.uniform(0.5, 1.5, params[name].shape) if name.endswith(".gamma") else rng.standard_normal(params[name].shape) * 0.3).astype(dtype)
        audio = rng.standard_normal((3, 1, 2048)).astype(dtype)
        frames = rng.random((3, 3, 32, 32)).astype(dtype)
        return params, {k: v.copy() for k, v in params.items()}, audio, frames

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tape_bytes_are_the_documented_sum(self, dtype):
        params, ref, audio, frames = self.inputs(dtype)
        pred, tape = M.forward_train(self.arch, params, audio, frames)
        fa, tape_a = keep_all_stream_forward(audio, self.arch.auditory, "auditory", ref)
        fv, tape_v = keep_all_stream_forward(frames, self.arch.visual, "visual", ref)
        for lean, full in ((tape.auditory, tape_a), (tape.visual, tape_v)):
            assert sum(a.nbytes for a in distinct_buffers(lean, params.values())) == lean_stream_bytes(full)
        head = fa.nbytes + fv.nbytes + pred.nbytes  # the fusion input and the prediction
        kept = sum(a.nbytes for a in distinct_buffers(tape, params.values()))
        assert kept == lean_stream_bytes(tape_a) + lean_stream_bytes(tape_v) + head

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bitwise_equals_a_keep_all_walk(self, dtype):
        params, ref, audio, frames = self.inputs(dtype)
        pred, tape = M.forward_train(self.arch, params, audio, frames)
        g = rng64(15).standard_normal(pred.shape).astype(dtype)
        grads = M.backward(tape, g)

        fa, tape_a = keep_all_stream_forward(audio, self.arch.auditory, "auditory", ref)
        fv, tape_v = keep_all_stream_forward(frames, self.arch.visual, "visual", ref)
        z, c_lin = L.linear_forward(np.concatenate([fa, fv], axis=1), ref["fusion.w"], ref["fusion.b"])
        pred_ref, c_tanh = L.scaled_tanh(z)
        dw, db, dfeats = L.linear_backward(c_lin, L.scaled_tanh_backward(c_tanh, g))
        want = {"fusion.w": dw, "fusion.b": db}
        want.update(keep_all_stream_backward(tape_a, np.ascontiguousarray(dfeats[:, : fa.shape[1]])))
        want.update(keep_all_stream_backward(tape_v, np.ascontiguousarray(dfeats[:, fa.shape[1] :])))

        assert pred.tobytes() == pred_ref.tobytes()
        assert set(grads) == set(want) == set(M.trainable_names(self.arch))
        for name in want:
            assert grads[name].dtype == want[name].dtype and grads[name].tobytes() == want[name].tobytes(), name
        for name in params:  # running statistics included
            assert params[name].tobytes() == ref[name].tobytes(), name


class TestBackward:
    def setup_method(self):
        self.arch = M.mini_architecture()
        self.params = M.build_network(self.arch, 11, dtype=np.float64)
        rng = rng64(2)
        self.audio = rng.standard_normal((2, 1, 1024))
        self.frames = rng.standard_normal((2, 3, 16, 16)) * 0.5

    def test_zero_upstream_gives_zero_gradients(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        grads = M.backward(tape, np.zeros_like(pred))
        assert set(grads) == set(M.trainable_names(self.arch))
        for g in grads.values():
            assert not g.any()

    def test_no_gradient_for_running_stats(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        grads = M.backward(tape, np.ones_like(pred))
        assert not any("running" in n for n in grads)

    def test_fusion_bias_gradient_is_column_sum_through_tanh(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        g = rng64(3).standard_normal(pred.shape)
        grads = M.backward(tape, g)
        # d pred / d z = (1 - tanh(z)^2) / 2 with pred = (tanh(z)+1)/2
        dz = g * (1.0 - (2.0 * pred - 1.0) ** 2) / 2.0
        np.testing.assert_allclose(grads["fusion.b"], dz.sum(axis=0), rtol=1e-9)

    def test_grad_shape_mismatch_rejected(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        with pytest.raises(M.ShapeMismatchError):
            M.backward(tape, np.zeros((2, 4)))

    def test_backward_consumes_the_tape_once(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        g = rng64(5).standard_normal(pred.shape)
        M.backward(tape, g)
        assert tape.auditory == [] and tape.visual == []
        with pytest.raises(M.EvalTapeError, match="already differentiated"):
            M.backward(tape, g)

    def test_backward_that_fails_midway_leaves_the_tape_consumed(self, monkeypatch):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        g = rng64(5).standard_normal(pred.shape)

        def fail(stream_tape, grad_feat, consume):
            raise MemoryError

        monkeypatch.setattr(M, "backward_stream", fail)
        with pytest.raises(MemoryError):
            M.backward(tape, g)
        monkeypatch.undo()
        with pytest.raises(M.EvalTapeError, match="already differentiated"):
            M.backward(tape, g)

    def test_rejected_grad_out_consumes_nothing(self):
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        with pytest.raises(M.ShapeMismatchError):
            M.backward(tape, np.zeros((2, 4)))
        g = rng64(6).standard_normal(pred.shape)
        got = M.backward(tape, g)
        # train-mode outputs do not read the running statistics the first
        # forward moved, so a second forward records the same tape
        _, fresh = M.forward_train(self.arch, self.params, self.audio, self.frames)
        want = M.backward(fresh, g)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_consumed_stream_tape_is_rejected_naming_both_causes(self):
        feats, tape = M.forward_stream(self.audio, self.arch.auditory, "auditory", self.params, "train")
        M.backward_stream(tape, np.ones_like(feats))
        assert tape == []
        with pytest.raises(M.EvalTapeError, match="eval-mode.*consumes"):
            M.backward_stream(tape, np.ones_like(feats))

    @pytest.mark.parametrize("stream", ["auditory", "visual"])
    def test_stream_backward_returns_parameter_gradients_only(self, stream):
        # a stream's input is raw waveform or frames: no input gradient
        x = self.audio if stream == "auditory" else self.frames
        feats, tape = M.forward_stream(x, getattr(self.arch, stream), stream, self.params, "train")
        grads = M.backward_stream(tape, np.ones_like(feats))
        assert type(grads) is dict
        assert sorted(grads) == sorted(n for n in M.trainable_names(self.arch) if n.startswith(f"{stream}."))
        for name, g in grads.items():
            assert g.shape == self.params[name].shape, name

    def test_sampled_finite_differences_through_whole_network(self):
        rng = rng64(4)
        pred, tape = M.forward_train(self.arch, self.params, self.audio, self.frames)
        R = rng.standard_normal(pred.shape)
        grads = M.backward(tape, R)

        def loss():
            p, _ = M.forward_train(self.arch, self.params, self.audio, self.frames)
            return float(np.sum(p * R))

        worst = 0.0
        for name in ("fusion.w", "auditory.stem.conv.w", "visual.stage4.block1.conv2.w",
                     "visual.stage2.block1.shortcut.w", "auditory.stage1.block1.bn1.gamma"):
            x = self.params[name]
            idx = rng.choice(x.size, size=min(4, x.size), replace=False)
            flat = x.reshape(-1)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = loss()
                flat[i] = orig - 1e-5
                fm = loss()
                flat[i] = orig
                numeric = (fp - fm) / 2e-5
                worst = max(worst, fd_rel_err(grads[name].reshape(-1)[i], numeric))
        assert worst <= 1e-4


class TestFirstStepDigest:
    # Computed at commit 57f593a, whose convolutions still carried biases,
    # hashing only the gradients of the tensors that remain. Those biases
    # started at zero and drew no random numbers, so dropping them leaves
    # the first step bitwise unchanged.
    DIGEST = "2d0bf227428c106b593bf101cac922b74ee27b78bb7cedcd8240dc5e873a0236"

    def test_predictions_loss_and_gradients_match_the_pinned_digest(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 21)
        rng = rng64(22)
        audio = rng.standard_normal((4, 1, 1024)).astype(np.float32)
        frames = rng.random((4, 3, 32, 32), dtype=np.float32)
        target = rng.random((4, 5), dtype=np.float32)
        pred, tape = M.forward_train(arch, params, audio, frames)
        loss, dpred = mae_loss(pred, target)
        grads = M.backward(tape, dpred)
        assert set(grads) == set(M.trainable_names(arch))
        h = hashlib.sha256(pred.tobytes())
        h.update(np.float64(loss).tobytes())
        for name in sorted(grads):
            h.update(name.encode())
            h.update(grads[name].tobytes())
        assert h.hexdigest() == self.DIGEST


class TestFusedUpdate:
    """backward hands each gradient to a consumer as it is formed, and
    adam_step takes that walk as its gradients: the training step."""

    def mini_step(self):
        # TestFirstStepDigest's step
        arch = M.mini_architecture()
        params = M.build_network(arch, 21)
        rng = rng64(22)
        audio = rng.standard_normal((4, 1, 1024)).astype(np.float32)
        frames = rng.random((4, 3, 32, 32), dtype=np.float32)
        target = rng.random((4, 5), dtype=np.float32)
        pred, tape = M.forward_train(arch, params, audio, frames)
        loss, dpred = mae_loss(pred, target)
        return arch, params, pred, loss, tape, dpred

    def test_walk_hands_each_name_once_in_tape_order(self):
        arch, _, pred, loss, tape, dpred = self.mini_step()
        handed = []
        assert M.backward(tape, dpred, lambda name, g: handed.append((name, g))) is None
        names = [name for name, _ in handed]
        assert len(names) == len(set(names)) and set(names) == set(M.trainable_names(arch))
        entries = []
        for name in names:
            parts = name.split(".")
            entry = parts[0] if parts[0] == "fusion" else ".".join(parts[:2] if parts[1] == "stem" else parts[:3])
            if not entries or entries[-1] != entry:
                entries.append(entry)
        want = ["fusion"]
        for prefix in ("auditory", "visual"):
            blocks = [f"{prefix}.{layout[0]}" for layout in M._block_layout(getattr(arch, prefix))]
            want += blocks[::-1] + [f"{prefix}.stem"]
        assert entries == want
        # the dict built from the walk is the pinned first step's, bit for bit
        grads = dict(handed)
        h = hashlib.sha256(pred.tobytes())
        h.update(np.float64(loss).tobytes())
        for name in sorted(grads):
            h.update(name.encode())
            h.update(grads[name].tobytes())
        assert h.hexdigest() == TestFirstStepDigest.DIGEST

    def test_fused_step_equals_a_step_over_the_gradient_dict(self):
        arch, params, _, _, tape, dpred = self.mini_step()
        _, ref, _, _, ref_tape, _ = self.mini_step()
        adam, ref_adam = O.init_adam(params, M.trainable_names(arch)), O.init_adam(ref, M.trainable_names(arch))
        O.adam_step(params, functools.partial(M.backward, tape, dpred), adam)
        O.adam_step(ref, M.backward(ref_tape, dpred), ref_adam)
        assert adam.t == ref_adam.t == 1
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes(), name

    def test_late_non_finite_gradient_names_its_tensor_and_keeps_earlier_updates(self):
        arch, params, _, _, tape, dpred = self.mini_step()
        before = {name: v.copy() for name, v in params.items()}
        adam = O.init_adam(params, M.trainable_names(arch))
        late = "visual.stem.conv.w"

        def poisoned(update):
            def consume(name, g):
                if name == late:
                    g = g.copy()
                    g.reshape(-1)[7] = np.nan
                update(name, g)

            M.backward(tape, dpred, consume)

        with pytest.raises(O.NonFiniteGradientError, match=repr(late)):
            O.adam_step(params, poisoned, adam)
        assert adam.t == 1
        assert params[late].tobytes() == before[late].tobytes()
        # handed out first, so already stepped
        assert params["fusion.w"].tobytes() != before["fusion.w"].tobytes()
        assert params["auditory.stem.conv.w"].tobytes() != before["auditory.stem.conv.w"].tobytes()

    def test_walk_that_misses_a_tensor_or_repeats_one_is_refused(self):
        arch, params, _, _, tape, dpred = self.mini_step()
        adam = O.init_adam(params, M.trainable_names(arch))

        def skip_one(update):
            M.backward(tape, dpred, lambda name, g: name == "visual.stem.bn.beta" or update(name, g))

        with pytest.raises(KeyError, match="visual.stem.bn.beta"):
            O.adam_step(params, skip_one, adam)
        g = np.zeros_like(params["fusion.b"])
        with pytest.raises(KeyError, match="already handed over"):
            O.adam_step(params, lambda update: [update("fusion.b", g), update("fusion.b", g)], adam)

    # A training step at the paper's crops and batch 8, tracemalloc peak
    # above its start. Bound fixed between the figures measured before and
    # after the update moved into backward's walk: 124.9 MB when every
    # gradient was held until adam_step, 123.1 MB fused (forward's peak;
    # backward and update read 119.6 MB).
    STEP_BOUND_MB = 124.0

    def test_full_architecture_training_step_stays_bounded(self):
        arch = M.full_architecture()
        params = M.build_network(arch, 0)
        adam = O.init_adam(params, M.trainable_names(arch))
        rng = rng64(0)
        audio = rng.standard_normal((8, 1, T.FULL_AUDIO_CROP)).astype(np.float32)
        frames = rng.standard_normal((8, 3, T.FULL_FRAME_CROP, T.FULL_FRAME_CROP)).astype(np.float32)
        target = rng.random((8, 5), dtype=np.float32)

        def step():
            pred, tape = M.forward_train(arch, params, audio, frames)
            _, dpred = mae_loss(pred, target)
            O.adam_step(params, functools.partial(M.backward, tape, dpred), adam)

        peak = traced(step).peak
        assert peak < self.STEP_BOUND_MB * 1e6, peak / 1e6


class TestForwardInfer:
    def setup_method(self):
        self.arch = M.mini_architecture()
        self.params = M.build_network(self.arch, 13)

    def clip_of_identical_frames(self, T):
        rng = rng64(5)
        frame = rng.integers(0, 256, (3, 48, 48), dtype=np.uint8)
        frames = np.broadcast_to(frame, (T, 3, 48, 48)).copy()
        audio = (rng.random((1, 16000), dtype=np.float32) - 0.5).astype(np.float32)
        return D.Clip(audio=audio, frames=frames)

    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_identical_frames_equal_single_frame(self, T):
        single = self.clip_of_identical_frames(1)
        multi = D.Clip(audio=single.audio, frames=np.broadcast_to(single.frames[0], (T, 3, 48, 48)).copy())
        np.testing.assert_array_equal(
            M.forward_infer(self.arch, self.params, multi),
            M.forward_infer(self.arch, self.params, single),
        )

    def test_frame_order_invariance(self):
        rng = rng64(6)
        frames = rng.integers(0, 256, (6, 3, 48, 48), dtype=np.uint8)
        audio = (rng.random((1, 8000), dtype=np.float32) - 0.5).astype(np.float32)
        clip = D.Clip(audio=audio, frames=frames)
        perm = rng.permutation(6)
        shuffled = D.Clip(audio=audio, frames=frames[perm].copy())
        np.testing.assert_array_equal(
            M.forward_infer(self.arch, self.params, clip),
            M.forward_infer(self.arch, self.params, shuffled),
        )

    def test_deterministic(self):
        clip = self.clip_of_identical_frames(3)
        a = M.forward_infer(self.arch, self.params, clip)
        b = M.forward_infer(self.arch, self.params, clip)
        np.testing.assert_array_equal(a, b)

    def test_short_audio_padded_to_minimum(self):
        rng = rng64(7)
        clip = D.Clip(
            audio=(rng.random((1, 300), dtype=np.float32) - 0.5).astype(np.float32),
            frames=rng.integers(0, 256, (2, 3, 48, 48), dtype=np.uint8),
        )
        pred = M.forward_infer(self.arch, self.params, clip)
        assert pred.shape == (5,) and np.all(np.isfinite(pred))

    def test_eval_never_mutates_state(self):
        clip = self.clip_of_identical_frames(2)
        before = {n: v.copy() for n, v in self.params.items()}
        M.forward_infer(self.arch, self.params, clip)
        for n, v in self.params.items():
            np.testing.assert_array_equal(v, before[n])

    def test_frame_stride_subsamples(self):
        rng = rng64(8)
        frames = rng.integers(0, 256, (4, 3, 48, 48), dtype=np.uint8)
        audio = (rng.random((1, 4000), dtype=np.float32) - 0.5).astype(np.float32)
        clip = D.Clip(audio=audio, frames=frames)
        strided = D.Clip(audio=audio, frames=frames[::2].copy())
        np.testing.assert_array_equal(
            M.forward_infer(self.arch, self.params, clip, frame_stride=2),
            M.forward_infer(self.arch, self.params, strided),
        )

    def test_outputs_in_unit_interval(self):
        clip = self.clip_of_identical_frames(2)
        pred = M.forward_infer(self.arch, self.params, clip)
        assert np.all(pred > 0.0) and np.all(pred < 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_float_frames(self, dtype):
        # the same protocol run by hand on frames converted up front
        rng = rng64(9)
        frames_u8 = rng.integers(0, 256, (5, 3, 48, 48), dtype=np.uint8)
        audio = (rng.random((1, 3000), dtype=np.float32) - 0.5).astype(np.float32)
        params = {n: v.astype(dtype) for n, v in self.params.items()}
        frames = frames_u8.astype(np.float32) / np.float32(255.0)
        fa, _ = M.forward_stream(audio.astype(dtype)[None], self.arch.auditory, "auditory", params, "eval")
        fv = [
            M.forward_stream(f.astype(dtype)[None], self.arch.visual, "visual", params, "eval")[0][0]
            for f in frames[::2]
        ]
        feats = np.concatenate([fa[0], M._fsum_mean(fv).astype(dtype)])[None]
        expect, _ = scaled_tanh(linear_forward(feats, params["fusion.w"], params["fusion.b"])[0])
        pred = M.forward_infer(self.arch, params, D.Clip(audio=audio, frames=frames_u8), frame_stride=2)
        assert pred.dtype == dtype and pred.tobytes() == expect[0].tobytes()


class TestOpenedClipInference:
    """A clip opened with open_clip is read one scored frame at a time, each
    into a batch buffer, and scores bitwise equal to the same clip loaded
    whole."""

    def setup_method(self):
        self.arch = M.mini_architecture()
        self.params = M.build_network(self.arch, 13)

    def saved(self, tmp_path, S):
        rng = rng64(S)
        clip = D.Clip(
            audio=(rng.random((1, S), dtype=np.float32) - 0.5).astype(np.float32),
            frames=rng.integers(0, 256, (7, 3, 40, 48), dtype=np.uint8),
        )
        path = str(tmp_path / "c.clip")
        D.save_clip(clip, path)
        return path

    @pytest.mark.parametrize("S", [300, 4000])  # shorter than MIN_AUDIO_SAMPLES, and longer
    @pytest.mark.parametrize("stride", [1, 3, 8])  # 8 scores frame 0 of 7 alone
    def test_forward_infer_equal_to_loaded_clip(self, tmp_path, S, stride):
        assert 300 < M.MIN_AUDIO_SAMPLES < 4000
        path = self.saved(tmp_path, S)
        got = M.forward_infer(self.arch, self.params, D.open_clip(path), frame_stride=stride)
        expect = M.forward_infer(self.arch, self.params, D.load_clip(path), frame_stride=stride)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_each_scored_frame_read_once(self, tmp_path, monkeypatch, stride):
        path = self.saved(tmp_path, 4000)
        reads = []
        frame_rows = D.ClipFile.frame_rows

        def spy(clip, t, top, stop):
            reads.append((t, top, stop))
            return frame_rows(clip, t, top, stop)

        monkeypatch.setattr(D.ClipFile, "frame_rows", spy)
        M.forward_infer(self.arch, self.params, D.open_clip(path), frame_stride=stride)
        assert reads == [(t, 0, 40) for t in range(0, 7, stride)]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_file_resized_after_opening_fails_typed(self, tmp_path, delta):
        path = self.saved(tmp_path, 4000)
        opened = D.open_clip(path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) + delta)
        with pytest.raises(D.TruncatedPayloadError):
            M.forward_infer(self.arch, self.params, opened)


def random_frames(seed, n, h, w):
    return D.unit_frames(rng64(seed).integers(0, 256, (n, 3, h, w), dtype=np.uint8))


class TestFrameBatches:
    """clip_features runs frames through the visual stream in batches that
    give bitwise the rows of one frame at a time."""

    def setup_method(self):
        self.arch = M.mini_architecture()
        self.params = M.build_network(self.arch, 23)

    def column_bytes(self) -> int:
        """A 64x64 frame's stem columns."""
        return M._stem_column_bytes(self.arch.visual, (1, 3, 64, 64), np.float32)

    def clip(self, frames, seconds=1.0):
        rng = rng64(frames)
        return D.Clip(
            audio=(rng.random((1, int(seconds * D.SAMPLE_RATE)), dtype=np.float32) - 0.5).astype(np.float32),
            frames=rng.integers(0, 256, (frames, 3, 64, 64), dtype=np.uint8),
        )

    def visual_batches(self, monkeypatch) -> list:
        """The batch size of each visual-stream call from here on."""
        batches = []
        forward_stream = M.forward_stream

        def spy(x, stream, prefix, params, mode):
            if prefix == "visual":
                batches.append(x.shape[0])
            return forward_stream(x, stream, prefix, params, mode)

        monkeypatch.setattr(M, "forward_stream", spy)
        return batches

    @pytest.mark.parametrize("arch", [M.mini_architecture(), M.full_architecture()], ids=["mini", "full"])
    @pytest.mark.parametrize("h, w", [(64, 64), (37, 53)])
    def test_stream_batch_rows_equal_single_frames(self, arch, h, w):
        params = M.build_network(arch, 21)
        folded = M.fold_stream(arch.visual, "visual", params)
        x = random_frames(h * w, 5, h, w)
        batch, _ = M.forward_stream(x, arch.visual, "visual", folded, "eval")
        for i in range(5):
            alone, _ = M.forward_stream(x[i : i + 1], arch.visual, "visual", folded, "eval")
            assert batch[i].tobytes() == alone[0].tobytes()

    def test_stream_batch_rows_equal_single_frames_at_canonical_size(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 22)
        x = random_frames(22, 2, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH)
        batch, _ = M.forward_stream(x, arch.visual, "visual", params, "eval")
        for i in range(2):
            assert batch[i].tobytes() == M.forward_stream(x[i : i + 1], arch.visual, "visual", params, "eval")[0][0].tobytes()

    @pytest.mark.parametrize("times_k, plus", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_forward_infer_equal_to_one_frame_at_a_time(self, monkeypatch, times_k, plus, stride):
        k = M.FRAME_BATCH_BYTES // self.column_bytes()
        assert k >= 3
        n = times_k * k + plus  # scored frames
        clip = self.clip((n - 1) * stride + 1)
        got = M.forward_infer(self.arch, self.params, clip, frame_stride=stride)
        monkeypatch.setattr(M, "FRAME_BATCH_BYTES", 1)
        expect = M.forward_infer(self.arch, self.params, clip, frame_stride=stride)
        assert got.tobytes() == expect.tobytes()

    # a second's span holds FPS = 25 frames: k + 1, k, k - 1 and 2k + 1 of
    # them at these batch sizes k, so batches end inside a span, at its end
    # or past it
    @pytest.mark.parametrize("k", [26, 25, 24, 12])
    def test_per_second_outputs_equal_to_one_frame_at_a_time(self, monkeypatch, k):
        clip = self.clip(2 * D.FPS, seconds=2.0)
        head = R.build_rnn_head(4, input_dim=self.arch.fusion_in, hidden=6, out_dim=5)
        monkeypatch.setattr(M, "FRAME_BATCH_BYTES", k * self.column_bytes())
        batches = self.visual_batches(monkeypatch)
        got = R.extract_features(clip, self.arch, self.params), R.predict_rnn(clip, self.arch, self.params, head)
        assert max(batches) == k and sum(batches) == 4 * D.FPS
        monkeypatch.setattr(M, "FRAME_BATCH_BYTES", 1)
        expect = R.extract_features(clip, self.arch, self.params), R.predict_rnn(clip, self.arch, self.params, head)
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()

    def test_batches_cross_second_boundaries(self, monkeypatch):
        # a batch size below FPS that does not divide it: the default k of
        # 64x64 frames exceeds FPS
        k = 7
        monkeypatch.setattr(M, "FRAME_BATCH_BYTES", k * self.column_bytes())
        seconds = 3
        assert math.ceil(seconds * D.FPS / k) < seconds * math.ceil(D.FPS / k)  # k does not divide FPS
        clip = self.clip(seconds * D.FPS, seconds=float(seconds))
        batches = self.visual_batches(monkeypatch)
        R.extract_features(clip, self.arch, self.params)
        assert len(batches) == math.ceil(seconds * D.FPS / k)
        assert batches[:-1] == [k] * (len(batches) - 1) and sum(batches) == seconds * D.FPS

    def test_small_frames_run_in_batches(self, monkeypatch):
        batches = self.visual_batches(monkeypatch)
        M.forward_infer(self.arch, self.params, self.clip(13))
        assert sum(batches) == 13 and max(batches) > 1

    def test_canonical_frames_run_alone(self, monkeypatch):
        # a canonical frame's stem columns exceed the budget, so whole-clip
        # inference holds one frame's work at a time, in either architecture
        canonical = (1, D.FRAME_PLANES, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH)
        for arch in (self.arch, M.full_architecture()):
            assert M._stem_column_bytes(arch.visual, canonical, np.float32) > M.FRAME_BATCH_BYTES
        rng = rng64(24)
        clip = D.Clip(
            audio=(rng.random((1, 2000), dtype=np.float32) - 0.5).astype(np.float32),
            frames=rng.integers(0, 256, (3, 3, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH), dtype=np.uint8),
        )
        batches = self.visual_batches(monkeypatch)
        M.forward_infer(self.arch, self.params, clip)
        assert batches == [1, 1, 1]


def unfolded_stream(x, stream, prefix, params):
    """An eval-mode stream from unfolded layers, batch norm as its own pass."""
    y, _ = L.conv_forward(x, params[f"{prefix}.stem.conv.w"], M._stem_spec(stream))
    y, _ = L.relu_forward(batchnorm_eval_loops(y, M._bn_state(params, f"{prefix}.stem.bn")))
    y, _ = L.maxpool_forward(y, M._pool_spec(stream))
    for layout in M._block_layout(stream):
        y = composed_eval_block(y, M._block_params(stream, prefix, *layout, params))
    return L.global_average_pool(y)[0]


class TestBatchNormFold:
    def setup_method(self):
        # the full architecture, every batch norm far from identity
        self.arch = M.full_architecture()
        params = M.build_network(self.arch, 17)
        rng = rng64(17)
        for name in [n for n in params if n.endswith(".gamma")]:
            prefix = name[: -len(".gamma")]
            bn = random_bn(rng, params[name].shape[0])
            for field in ("gamma", "beta", "running_mean", "running_var"):
                params[f"{prefix}.{field}"] = getattr(bn, field).astype(np.float32)
        self.params = params
        self.clip = D.Clip(
            audio=(rng.random((1, 4000), dtype=np.float32) - 0.5).astype(np.float32),
            frames=rng.integers(0, 256, (3, 3, 64, 64), dtype=np.uint8),
        )

    def unfolded_features(self):
        fa = unfolded_stream(self.clip.audio[None], self.arch.auditory, "auditory", self.params)
        fv = [
            unfolded_stream(D.unit_frames(f)[None], self.arch.visual, "visual", self.params)[0] for f in self.clip.frames
        ]
        return np.concatenate([fa[0], M._fsum_mean(fv).astype(np.float32)])

    def test_eval_stream_matches_unfolded_layers(self):
        for stream, x in (("auditory", self.clip.audio[None]), ("visual", D.unit_frames(self.clip.frames[0])[None])):
            spec = getattr(self.arch, stream)
            folded, tape = M.forward_stream(x, spec, stream, self.params, "eval")
            assert tape == []
            ref = unfolded_stream(x, spec, stream, self.params)
            # float32 rounding through 17 convolutions, reordered by the
            # fold: measured at most 8e-7 of the largest feature
            assert float(np.abs(folded - ref).max()) <= 1e-5 * float(np.abs(ref).max()), stream

    def test_forward_infer_matches_unfolded_layers(self):
        feats = self.unfolded_features()
        # scale the fusion so predictions stay clear of tanh saturation
        self.params["fusion.w"] *= np.float32(1.0 / np.abs(feats @ self.params["fusion.w"]).max())
        z = feats.astype(np.float64) @ self.params["fusion.w"] + self.params["fusion.b"]
        ref = (np.tanh(z) + 1.0) / 2.0
        assert np.all((ref > 0.1) & (ref < 0.9))
        pred = M.forward_infer(self.arch, self.params, self.clip)
        # the float32 fold moves predictions by at most 3e-7 here; leaving
        # one of the three frames out moves them by 6e-3 to 1e-2
        np.testing.assert_allclose(pred, ref, rtol=0, atol=2e-6)


def stem_only(stream):
    """The stream's stem alone: no stage, so forward_stream pools the stem output globally."""
    return dataclasses.replace(stream, stage_channels=(), stage_strides=())


class TestEvalStem:
    """The eval stem pools the convolution's product before its shift and rectifier."""

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("shift", ["folded", "zero"])
    def test_bitwise_equal_to_shift_rectifier_then_pool(self, monkeypatch, ndim, shift):
        full = M.full_architecture()
        stream = stem_only(full.auditory if ndim == 1 else full.visual)
        rng = rng64(41)
        C = stream.stem_channels
        w = rng.standard_normal((C, stream.in_channels) + stream.stem_kernel).astype(np.float32)
        w[0] = -np.abs(w[0])  # channel 0 is negative wherever the input is positive
        bn = random_bn(rng, C)
        if shift == "zero":
            bn.beta[...] = 0.0
            bn.running_mean[...] = 0.0
        params = {"s.stem.conv.w": w}
        params.update({f"s.stem.bn.{f}": getattr(bn, f).astype(np.float32) for f in ("gamma", "beta", "running_mean", "running_var")})
        # Odd extents of piecewise-constant input: equal windows give exact
        # ties, and a positive block gives channel 0 all-negative windows.
        if ndim == 1:
            x = np.repeat(rng.integers(-2, 3, (1, 1, 64)), 64, axis=2)[..., :4001]
            x[..., :400] = 1.0
        else:
            x = np.repeat(np.repeat(rng.integers(-2, 3, (1, 3, 6, 8)), 8, axis=2), 8, axis=3)[..., :37, :53]
            x[..., :20, :20] = 1.0
        x = x.astype(np.float32)
        folded = M.fold_stream(stream, "s", params)
        if shift == "zero":
            assert not folded.stem_b.any()
        y, _ = L.conv_forward(x, folded.stem_w, M._stem_spec(stream), folded.stem_b)
        pre, _ = L.maxpool_forward(y, M._pool_spec(stream))
        assert (pre[:, 0] < 0).any()  # windows with no positive element
        assert all(np.unique(pre[0, c]).size < pre[0, c].size for c in range(C))  # tied maxima
        want, _ = L.maxpool_forward(L.relu_forward(y)[0], M._pool_spec(stream))
        monkeypatch.setattr(M, "global_average_pool", lambda y: (y, None))  # the pooled stem itself
        got, _ = M.forward_stream(x, stream, "s", params, "eval")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEvalTape:
    def test_backward_through_eval_tape_is_rejected(self):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        audio = np.zeros((2, 1, 1024), np.float32)
        feats, tape = M.forward_stream(audio, arch.auditory, "auditory", params, "eval")
        with pytest.raises(M.EvalTapeError):
            M.backward_stream(tape, np.ones_like(feats))


class TestStreamMode:
    @pytest.mark.parametrize("mode", ["infer", "Train", None])
    def test_unknown_mode_is_refused_naming_it(self, mode):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        before = {n: v.copy() for n, v in params.items()}
        with pytest.raises(ValueError, match=f"got {mode!r}"):
            M.forward_stream(np.zeros((2, 1, 1024), np.float32), arch.auditory, "auditory", params, mode)
        assert all(params[n].tobytes() == v.tobytes() for n, v in before.items())


class TestClipMemory:
    # Bounds fixed before the stems' columns came in row bands and their pool
    # before the shift and rectifier: whole-sample columns and a pool after
    # the rectifier read 22.4 and 32.6 MB, 17.2 and 11.8 MB of it one stem's
    # columns.
    @pytest.mark.parametrize(
        "name, shape, bound_mb",
        [("visual", (1, 3, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH), 10), ("auditory", (1, 1, 15 * D.SAMPLE_RATE), 12)],
    )
    def test_eval_pass_at_real_size_stays_bounded(self, name, shape, bound_mb):
        arch = M.full_architecture()
        stream = getattr(arch, name)
        folded = M.fold_stream(stream, name, M.build_network(arch, 4))
        x = rng64(12).random(shape, dtype=np.float32)
        peak = traced(M.forward_stream, x, stream, name, folded, "eval").peak
        assert peak < bound_mb * 1e6, f"peak {peak / 1e6:.1f} MB"

    def test_long_clip_peak_stays_near_file_size(self, tmp_path):
        # 1500 frames of 64x64 (18.4 MB of pixels) and 1 s of audio, so the
        # frames dominate the file; a float32 copy of them alone is 4x that.
        # One frame a second is scored: the peak does not depend on the stride.
        rng = rng64(11)
        frames = rng.integers(0, 256, (1500, 3, 64, 64), dtype=np.uint8)
        audio = (rng.random((1, D.SAMPLE_RATE), dtype=np.float32) - 0.5).astype(np.float32)
        path = str(tmp_path / "long.clip")
        D.save_clip(D.Clip(audio=audio, frames=frames), path)
        del frames
        size = os.path.getsize(path)
        arch = M.mini_architecture()
        params = M.build_network(arch, 3)
        pred, peak, _ = traced(lambda: M.forward_infer(arch, params, D.load_clip(path), frame_stride=D.FPS))
        assert np.all(np.isfinite(pred))
        assert peak < 1.5 * size + 4e6, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB clip"

    def test_predict_rows_reads_one_scored_frame_at_a_time(self, tmp_path):
        # the clip above, scored through predict_rows, which opens it: the
        # peak is one frame's work and the audio, far below the file's frames
        rng = rng64(11)
        frames = rng.integers(0, 256, (1500, 3, 64, 64), dtype=np.uint8)
        audio = (rng.random((1, D.SAMPLE_RATE), dtype=np.float32) - 0.5).astype(np.float32)
        D.save_clip(D.Clip(audio=audio, frames=frames), str(tmp_path / "long.clip"))
        del frames
        size = os.path.getsize(str(tmp_path / "long.clip"))
        row = D.ManifestRow("long", "long.clip", np.full(5, 0.5), "test")
        manifest = D.Manifest(rows=[row], directory=str(tmp_path))
        arch = M.mini_architecture()
        params = M.build_network(arch, 3)
        [(_, pred)], peak, _ = traced(T.predict_rows, arch, params, manifest, [row], frame_stride=D.FPS)
        assert pred is not None and np.all(np.isfinite(pred))
        assert peak < size / 4 + 1e6, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB clip"
