import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avtrait import data as D
from avtrait import model as M
from avtrait import rnn_head as R
from avtrait import train as T
from tracemem import traced


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ds"))
    manifest = D.synth_dataset(6, seed=21, out_dir=out, val_count=2, seconds=0.5, height=40, width=40)
    return manifest


def tiny_config(out_dir, **kw):
    defaults = dict(
        epochs=2,
        batch_size=4,
        seed=5,
        checkpoint_every=1,
        out_dir=out_dir,
        mini=True,
        audio_crop=2048,
        frame_crop=32,
    )
    defaults.update(kw)
    return T.TrainConfig(**defaults)


class TestTensorContainer:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(0))
        named = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7).astype(np.float32),
        }
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, named, epoch=9, trailer=b"xyz")
        epoch, back, trailer = T.read_tensor_container(path)
        assert epoch == 9 and trailer == b"xyz"
        assert set(back) == set(named)
        for k in named:
            np.testing.assert_array_equal(back[k], named[k])

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(1, np.float32)})
        blob = bytearray(Path(path).read_bytes())
        blob[0] ^= 1
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(T.CheckpointMagicError):
            T.read_tensor_container(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(1, np.float32)})
        blob = bytearray(Path(path).read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(T.CheckpointVersionError):
            T.read_tensor_container(path)

    def test_truncation(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(5, np.float32)})
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-2])
        with pytest.raises(T.CheckpointTruncatedError):
            T.read_tensor_container(path)

    def test_non_utf8_name_is_decode_error(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(1, np.float32)})
        blob = bytearray(Path(path).read_bytes())
        blob[20 + 2] = 0xFF  # first byte of the first name, after the header and its length
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(T.CheckpointDecodeError, match="UTF-8"):
            T.read_tensor_container(path)

    def test_rank_zero_rejected(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(1, np.float32)})
        blob = bytearray(Path(path).read_bytes())
        blob[20 + 2 + 1] = 0  # the rank byte after the one-byte name
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(T.CheckpointError, match="rank 0"):
            T.read_tensor_container(path)

    def test_repeated_name_is_decode_error(self, tmp_path):
        # two records named w, built by hand as the writer cannot: reading
        # them as one w would silently keep only the second tensor
        blob = struct.pack("<8sIII", b"DIChkpt1", 1, 0, 2)
        for value in (1.0, 2.0):
            blob += struct.pack("<H1sBI", 1, b"w", 1, 1) + np.float32(value).tobytes()
        blob += struct.pack("<I", 0)
        path = tmp_path / "t.ckpt"
        path.write_bytes(blob)
        with pytest.raises(T.CheckpointDecodeError, match="'w' appears twice"):
            T.read_tensor_container(str(path))

    def test_layout_matches_the_documented_format(self, tmp_path):
        # a float64, a transposed and a float32 tensor, written out of name order
        named = {
            "b": np.arange(6, dtype=np.float64).reshape(2, 3).T,
            "a.w": np.array([1.5, -2.0], np.float32),
            "c": np.linspace(0, 1, 4),
        }
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, named, epoch=3, trailer=b"tr")
        want = struct.pack("<8sIII", b"DIChkpt1", 1, 3, 3)
        for name in sorted(named):
            arr = np.ascontiguousarray(named[name], dtype="<f4")
            raw = name.encode("utf-8")
            want += struct.pack(f"<H{len(raw)}sB", len(raw), raw, arr.ndim)
            want += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()
        want += struct.pack("<I", 2) + b"tr"
        assert Path(path).read_bytes() == want

    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        # 8 MB of float32 tensors; building the container in memory first
        # would trace about twice that
        named = {f"t{i}": np.full((256, 1024), i, np.float32) for i in range(8)}
        payload = sum(arr.nbytes for arr in named.values())
        path = str(tmp_path / "t.ckpt")
        peak = traced(T.write_tensor_container, path, named).peak
        assert peak < payload / 16, (peak, payload)
        _, back, _ = T.read_tensor_container(path)
        for name, arr in named.items():
            np.testing.assert_array_equal(back[name], arr)

    def test_unserializable_tensor_leaves_the_old_file(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        T.write_tensor_container(path, {"x": np.ones(1, np.float32)})
        before = Path(path).read_bytes()
        with pytest.raises(T.CheckpointError, match="unserializable"):
            T.write_tensor_container(path, {"a": np.ones(3, np.float32), "n" * (1 << 16): np.ones(1, np.float32)})
        assert Path(path).read_bytes() == before
        assert os.listdir(str(tmp_path)) == ["t.ckpt"]


def with_conv_biases(named: dict) -> dict:
    """`named` plus a zero bias beside every convolution weight, as the
    manifest once had: each stem, conv1, conv2 and shortcut bias."""
    out = dict(named)
    for name, w in named.items():
        if name.endswith(".w") and "fusion" not in name:
            out[name[:-1] + "b"] = np.zeros(w.shape[0], np.float32)
    return out


def _small_checkpoint(path):
    arch = M.mini_architecture()
    params = M.build_network(arch, 0)
    from avtrait.optim import init_adam

    adam = init_adam(params, M.trainable_names(arch))
    adam.t = 3
    T.save_checkpoint(path, 1, params, adam, np.random.Generator(np.random.PCG64(1)), trait=2)


class TestCheckpoint:
    def make_state(self, seed=0):
        arch = M.mini_architecture()
        params = M.build_network(arch, seed)
        from avtrait.optim import init_adam

        adam = init_adam(params, M.trainable_names(arch))
        adam.t = 17
        adam.m["fusion.w"][:] = 0.25
        rng = np.random.Generator(np.random.PCG64(3))
        rng.random(10)
        return arch, params, adam, rng

    def test_round_trip_bitwise(self, tmp_path):
        arch, params, adam, rng = self.make_state()
        path = str(tmp_path / "c.ckpt")
        T.save_checkpoint(path, 4, params, adam, rng)
        ckpt = T.load_checkpoint(path)
        assert ckpt.epoch == 4 and ckpt.mini and ckpt.arch.out_dim == 5 and ckpt.trait is None
        for name, v in params.items():
            np.testing.assert_array_equal(ckpt.params[name], v)
        assert ckpt.adam.t == 17
        np.testing.assert_array_equal(ckpt.adam.m["fusion.w"], adam.m["fusion.w"])
        assert ckpt.rng_state == rng.bit_generator.state

    def test_wrong_architecture_manifest_error(self, tmp_path):
        arch, params, adam, rng = self.make_state()
        del params["fusion.b"]
        path = str(tmp_path / "c.ckpt")
        T.write_tensor_container(path, params)
        with pytest.raises(T.CheckpointManifestError):
            T.load_checkpoint(path)

    def test_convolution_biases_are_named(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        T.save_checkpoint(path, 4, with_conv_biases(self.make_state()[1]))
        with pytest.raises(T.CheckpointManifestError, match=r"extra=\['auditory\.stage1\.block1\.conv1\.b'"):
            T.load_checkpoint(path)

    def test_full_architecture_detected(self, tmp_path):
        arch = M.full_architecture()
        params = M.build_network(arch, 0)
        path = str(tmp_path / "c.ckpt")
        T.save_checkpoint(path, 0, params)
        ckpt = T.load_checkpoint(path)
        assert not ckpt.mini and ckpt.arch.out_dim == 5

    def test_single_trait_head_detected(self, tmp_path):
        arch = M.mini_architecture(out_dim=1)
        params = M.build_network(arch, 0)
        path = str(tmp_path / "c.ckpt")
        T.save_checkpoint(path, 2, params, trait=3)
        ckpt = T.load_checkpoint(path)
        assert ckpt.arch.out_dim == 1 and ckpt.trait == 3

    @pytest.mark.parametrize("name,bad", [
        ("adam.t", np.nan), ("adam.t", np.inf), ("adam.t", -1.0), ("adam.t", 2.5),
        ("meta.trait", np.nan), ("meta.trait", -np.inf), ("meta.trait", 1.5), ("meta.trait", 5.0),
    ])
    def test_counter_not_a_whole_number_is_decode_error(self, tmp_path, name, bad):
        path = str(tmp_path / "c.ckpt")
        _small_checkpoint(path)
        epoch, named, trailer = T.read_tensor_container(path)
        named[name] = np.array([bad], np.float32)
        T.write_tensor_container(path, named, epoch, trailer)
        with pytest.raises(T.CheckpointDecodeError, match=name):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("trailer", [b"\xff" + b"}" * 9, b'{"state": ', b"[1, 2]"] + [
        # JSON objects that numpy's PCG64 state setter rejects with ValueError,
        # KeyError, TypeError or OverflowError
        json.dumps(state).encode("utf-8") for state in [
            {"a": 1},
            {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0},
            {"bit_generator": "PCG64", "state": {"state": 1}, "has_uint32": 0, "uinteger": 0},
            {"bit_generator": "PCG64", "state": [1, 2], "has_uint32": 0, "uinteger": 0},
            {"bit_generator": "PCG64", "state": {"state": 1, "inc": "x"}, "has_uint32": 0, "uinteger": 0},
            {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1}, "has_uint32": 0, "uinteger": 0},
            {"bit_generator": "PCG64", "state": {"state": 2**200, "inc": 1}, "has_uint32": 0, "uinteger": 0},
        ]
    ] + [
        # JSON floats and booleans that numpy's setter would truncate to ints
        json.dumps({"bit_generator": "PCG64", "state": {"state": 1, "inc": 1}, "has_uint32": 0, "uinteger": 0,
                    **override}).encode("utf-8")
        for override in [
            {"state": {"state": 1.5, "inc": 1.0}},
            {"state": {"state": 1, "inc": 1.0}},
            {"state": {"state": True, "inc": 1}},
            {"has_uint32": False},
            {"has_uint32": 0.0},
            {"uinteger": 7.0},
            {"uinteger": True},
        ]
    ])
    def test_corrupt_trailer_is_decode_error(self, tmp_path, trailer):
        path = str(tmp_path / "c.ckpt")
        _small_checkpoint(path)
        epoch, named, _ = T.read_tensor_container(path)
        T.write_tensor_container(path, named, epoch, trailer)
        with pytest.raises(T.CheckpointDecodeError, match="trailer"):
            T.load_checkpoint(path)

    def test_predictions_survive_round_trip(self, tmp_path, dataset):
        arch, params, adam, rng = self.make_state(9)
        path = str(tmp_path / "c.ckpt")
        T.save_checkpoint(path, 0, params, adam, rng)
        ckpt = T.load_checkpoint(path)
        clip = D.load_clip(dataset.clip_path(dataset.rows[0]))
        np.testing.assert_array_equal(
            M.forward_infer(arch, params, clip), M.forward_infer(ckpt.arch, ckpt.params, clip)
        )


def test_every_truncation_is_typed(tmp_path):
    path = str(tmp_path / "t.ckpt")
    named = {"adam.t": np.array([4.0], np.float32), "meta.trait": np.array([1.0], np.float32),
             "w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    T.write_tensor_container(path, named, epoch=2, trailer=b'{"a": 1}')
    blob = Path(path).read_bytes()
    for end in range(len(blob)):
        Path(path).write_bytes(blob[:end])
        with pytest.raises(T.CheckpointTruncatedError):
            T.load_checkpoint(path)


def _structure_offsets(blob):
    """Offsets of the bytes the parser decodes, by region: the file header, the
    record headers (name length, name, rank, extents), the one-element
    counters' values, and the trailer with its length."""
    records, counters = [], []
    off = 20
    for _ in range(int.from_bytes(blob[16:20], "little")):
        name_len = int.from_bytes(blob[off : off + 2], "little")
        rank = blob[off + 2 + name_len]
        head = 2 + name_len + 1 + 4 * rank
        count = int(np.prod(np.frombuffer(blob[off + 3 + name_len : off + head], "<u4")))
        records += range(off, off + head)
        if count == 1:
            counters += range(off + head, off + head + 4)
        off += head + 4 * count
    return [list(range(20)), records, counters, list(range(off, len(blob)))]


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "c.ckpt")
    _small_checkpoint(path)
    blob = Path(path).read_bytes()
    return blob, _structure_offsets(blob)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_or_flipped_checkpoint_loads_or_is_typed(tmp_path_factory, checkpoint_blob, data):
    blob, regions = checkpoint_blob
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="end") :]
    else:
        anywhere = st.integers(0, len(blob) - 1)
        at = data.draw(st.one_of(*map(st.sampled_from, regions), anywhere), label="offset")
        blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = str(tmp_path_factory.getbasetemp() / "flipped.ckpt")
    Path(path).write_bytes(bytes(blob))
    try:
        ckpt = T.load_checkpoint(path)
    except T.CheckpointError:
        return
    assert ckpt.mini and ckpt.trait in range(5)


class TestTrainLoop:
    def test_two_epochs_bitwise_reproducible(self, tmp_path, dataset):
        r1 = T.train(tiny_config(str(tmp_path / "a")), dataset)
        r2 = T.train(tiny_config(str(tmp_path / "b")), dataset)
        assert r1.losses == r2.losses
        b1 = Path(r1.checkpoint_path).read_bytes()
        b2 = Path(r2.checkpoint_path).read_bytes()
        assert b1 == b2

    def test_loss_log_written(self, tmp_path, dataset):
        res = T.train(tiny_config(str(tmp_path / "a")), dataset)
        log = Path(os.path.join(res.out_dir, "loss_log.csv")).read_text().splitlines()
        assert log[0] == "epoch,alpha,train_mae"
        assert len(log) == 3
        assert log[1].startswith("0,")

    def test_initial_loss_matches_fresh_forward_expectation(self, tmp_path, dataset):
        # with one batch per epoch, the epoch-0 loss is measured before any
        # update, so it must equal the fresh network's forward loss on the
        # same seeded crops (recomputed here independently of the loop)
        cfg = tiny_config(str(tmp_path / "a"), epochs=1, batch_size=4)
        res = T.train(cfg, dataset)

        init_ss, data_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        params = M.build_network(M.mini_architecture(), init_ss)
        rng = np.random.Generator(np.random.PCG64(data_ss))
        rows = dataset.split_rows("train")
        order = rng.permutation(len(rows))[:4]
        audios, frames, labels = [], [], []
        for j in order:
            clip = D.load_clip(dataset.clip_path(rows[int(j)]))
            audios.append(D.crop_audio(clip, rng, cfg.crops[0]))
            frames.append(D.crop_frame(clip, rng, cfg.crops[1]))
            labels.append(rows[int(j)].traits)
        pred, _ = M.forward_train(M.mini_architecture(), params, np.stack(audios), np.stack(frames))
        expect = float(np.abs(pred - np.stack(labels).astype(np.float32)).mean())
        assert res.losses[0][2] == pytest.approx(expect, rel=1e-6)

    def test_resume_reproduces_uninterrupted_run_bitwise(self, tmp_path, dataset):
        full = T.train(tiny_config(str(tmp_path / "full"), epochs=4), dataset)

        part = T.train(tiny_config(str(tmp_path / "part"), epochs=2), dataset)
        resumed = T.train(
            tiny_config(str(tmp_path / "part"), epochs=4), dataset, resume=part.checkpoint_path
        )
        # epochs computed after the resume point are bitwise identical;
        # earlier rows round-trip through the textual loss log
        assert [tuple(x) for x in resumed.losses[2:]] == [tuple(x) for x in full.losses[2:]]
        assert Path(resumed.checkpoint_path).read_bytes() == Path(full.checkpoint_path).read_bytes()

    def test_resume_takes_the_schedule_from_its_config(self, tmp_path, dataset):
        # the checkpoint records no step size: the resumed epochs follow the
        # config's initial_alpha and lr_period, each decay a division by 10
        part = T.train(tiny_config(str(tmp_path / "part"), epochs=2), dataset)
        resumed = T.train(
            tiny_config(part.out_dir, epochs=4, initial_alpha=1e-3, lr_period=3), dataset, resume=part.checkpoint_path
        )
        assert [(e, a) for e, a, _ in resumed.losses[2:]] == [(2, 1e-3), (3, 1e-3 / 10.0)]

    def test_resume_past_the_last_epoch_is_refused(self, tmp_path, dataset):
        # epochs count from 0: a 3-epoch run's last checkpoint is epoch 2,
        # which a run of 2 epochs (0 and 1) or of 1 has already passed
        part = T.train(tiny_config(str(tmp_path / "part"), epochs=3), dataset)
        for epochs in (2, 1):
            out = str(tmp_path / f"to{epochs}")
            with pytest.raises(ValueError, match=f"epoch 2 .*epochs = {epochs}"):
                T.train(tiny_config(out, epochs=epochs), dataset, resume=part.checkpoint_path)
            assert not os.path.exists(out)

    def test_resume_at_the_last_epoch_is_refused(self, tmp_path, dataset):
        # a 2-epoch run's last checkpoint is epoch 1: resuming it with
        # epochs = 2 leaves nothing to train, in a new directory or its own
        part = T.train(tiny_config(str(tmp_path / "part"), epochs=2), dataset)
        before = sorted(os.listdir(part.out_dir))
        for out in (str(tmp_path / "next"), part.out_dir):
            with pytest.raises(ValueError, match="epoch 1 leaves no epoch to train .*epochs = 2"):
                T.train(tiny_config(out, epochs=2), dataset, resume=part.checkpoint_path)
        assert not os.path.exists(str(tmp_path / "next"))
        assert sorted(os.listdir(part.out_dir)) == before

    def test_insufficient_clips_rejected(self, tmp_path, dataset):
        with pytest.raises(ValueError, match="batch_size"):
            T.train(tiny_config(str(tmp_path / "a"), batch_size=32), dataset)

    def test_epoch0_alpha_matches_schedule(self, tmp_path, dataset):
        res = T.train(tiny_config(str(tmp_path / "a"), epochs=1, initial_alpha=3e-4), dataset)
        assert res.losses[0][1] == pytest.approx(3e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            T.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            T.TrainConfig(batch_size=1)
        with pytest.raises(ValueError, match="checkpoint_every"):
            T.TrainConfig(checkpoint_every=0)
        with pytest.raises(ValueError, match="lr_period"):
            T.TrainConfig(lr_period=0)
        with pytest.raises(ValueError, match="epochs"):
            R.RnnTrainConfig(epochs=0)
        with pytest.raises(ValueError, match="hidden"):
            R.build_rnn_head(0, input_dim=4, hidden=0)


class TestTrainConfigSchedule:
    def test_paper_constants(self):
        s = T.TrainConfig()
        assert s.alpha_for_epoch(0) == pytest.approx(2e-4)
        assert s.alpha_for_epoch(300) == pytest.approx(2e-5)
        assert s.alpha_for_epoch(600) == pytest.approx(2e-6)
        assert s.alpha_for_epoch(899) == pytest.approx(2e-6)

    def test_constant_within_period(self):
        s = T.TrainConfig()
        for k in range(3):
            vals = {s.alpha_for_epoch(e) for e in (300 * k, 300 * k + 150, 300 * k + 299)}
            assert len(vals) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_non_increasing(self, e1, e2):
        s = T.TrainConfig()
        lo, hi = sorted((e1, e2))
        assert s.alpha_for_epoch(hi) <= s.alpha_for_epoch(lo)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            T.TrainConfig().alpha_for_epoch(-1)

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            T.TrainConfig(lr_period=0)


class TestTrainClipIndex:
    @pytest.fixture
    def five(self, tmp_path):
        # five train rows at batch 4: epoch 0 leaves one row undrawn, so in a
        # one-epoch run only the up-front check reaches that clip
        manifest = D.synth_dataset(5, seed=21, out_dir=str(tmp_path / "ds"), seconds=0.5, height=40, width=40)
        cfg = tiny_config(str(tmp_path / "run"), epochs=1)
        _, data_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        undrawn = np.random.Generator(np.random.PCG64(data_ss)).permutation(5)[-1]
        return manifest, cfg, manifest.clip_path(manifest.rows[int(undrawn)])

    def test_truncated_train_clip_fails_before_any_step(self, five):
        manifest, cfg, bad = five
        with open(bad, "rb") as fh:
            blob = fh.read()
        with open(bad, "wb") as fh:
            fh.write(blob[:-1])
        with pytest.raises(D.TruncatedPayloadError, match=re.escape(bad)):
            T.train(cfg, manifest)
        assert not os.path.exists(cfg.out_dir)

    def test_too_small_train_clip_fails_before_any_step(self, five):
        manifest, cfg, bad = five
        D.save_clip(D.synth_clip(np.random.Generator(np.random.PCG64(0)), seconds=0.5, height=24, width=40), bad)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: frame 24x40 smaller than crop 32")):
            T.train(cfg, manifest)
        assert not os.path.exists(cfg.out_dir)

    def test_peak_memory_does_not_grow_with_clip_count(self, tmp_path):
        # 2 s clips at 96x128 are about 2 MB each; a loop that kept every
        # clip it drew would peak about 8 clips higher on 12 clips than on 4
        manifest = D.synth_dataset(12, seed=3, out_dir=str(tmp_path / "ds"), seconds=2.0, height=96, width=128)
        clip_bytes = os.path.getsize(manifest.clip_path(manifest.rows[0]))
        peaks = []
        for n in (4, 12):
            subset = D.Manifest(rows=manifest.rows[:n], directory=manifest.directory)
            peaks.append(traced(T.train, tiny_config(str(tmp_path / f"run{n}"), epochs=1), subset).peak)
        assert abs(peaks[1] - peaks[0]) < clip_bytes / 4, (peaks, clip_bytes)


class TestStepMemory:
    def test_peak_does_not_grow_with_steps(self, tmp_path):
        # 1024-sample and 48 px crops at batch 2 make the tape, not the
        # im2col columns, what sets a step's peak. A loop that kept a step's
        # tape and gradients into the next step's forward peaks about one
        # tape higher over 3 steps than over 1.
        manifest = D.synth_dataset(2, seed=3, out_dir=str(tmp_path / "ds"), seconds=0.5, height=48, width=48)
        crops = dict(batch_size=2, audio_crop=1024, frame_crop=48, checkpoint_every=1000)
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        rng = np.random.Generator(np.random.PCG64(0))
        audio = rng.standard_normal((2, 1, 1024)).astype(np.float32)
        frames = rng.random((2, 3, 48, 48), dtype=np.float32)
        M.forward_train(arch, params, audio, frames)  # one-time allocations are not the tape's
        tape_bytes = traced(M.forward_train, arch, params, audio, frames).held
        peaks = []
        for epochs in (1, 3):  # one step per epoch
            peaks.append(traced(T.train, tiny_config(str(tmp_path / f"run{epochs}"), epochs=epochs, **crops), manifest).peak)
        assert peaks[1] - peaks[0] < tape_bytes / 2, (peaks, tape_bytes)


class TestMapClips:
    def test_rows_keep_their_order(self, dataset):
        rows = dataset.rows
        results = T.map_clips(dataset, rows, lambda clip: clip.audio_window(0, 8)[0])
        assert [row for row, _ in results] == rows
        for row, head in results:
            assert head.tobytes() == D.load_clip(dataset.clip_path(row)).audio[0, :8].tobytes()

    def test_other_errors_propagate(self, dataset):
        def fn(clip):
            raise ValueError("not a clip defect")

        with pytest.raises(ValueError, match="not a clip defect"):
            T.map_clips(dataset, dataset.rows, fn)

    def test_clip_too_short_is_skipped(self, dataset):
        def fn(clip):
            raise D.ClipTooShortError("under one second")

        results = T.map_clips(dataset, dataset.rows, fn)
        assert results == [(row, None) for row in dataset.rows]


class TestEvaluate:
    def test_perfect_predictor_scores_one(self, dataset, monkeypatch):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        rows = dataset.split_rows("validation")
        truth = {r.clip_id: r.traits for r in rows}

        def fake_predict(arch_, params_, manifest_, rows_, stride_=1):
            return [(r, truth[r.clip_id].astype(np.float32)) for r in rows_]

        monkeypatch.setattr(T, "predict_rows", fake_predict)
        report = T.evaluate(arch, params, dataset, "validation")
        np.testing.assert_allclose(report.per_trait, 1.0, atol=1e-7)
        assert report.average == pytest.approx(1.0, abs=1e-7)
        assert report.clips == len(rows) and report.excluded == 0

    def test_epoch900_trait_accuracies_aggregate_exactly(self):
        # injected per-trait accuracies must reproduce the published
        # average within a double-precision ulp and print as 0.912132
        per_trait = np.array([0.911983, 0.915466, 0.913077, 0.909705, 0.910429])
        avg = T.aggregate_accuracies(per_trait)
        assert abs(avg - 0.912132) <= np.spacing(0.912132)
        report = T.EvalReport(traits=D.TRAITS, per_trait=per_trait, average=avg, clips=2000, excluded=0)
        line = report.csv().splitlines()[1]
        assert line.split(",")[0] == "0.912132"

    def test_constant_half_predictor_cross_checked(self, dataset, monkeypatch):
        rows = dataset.split_rows("validation")

        def fake_predict(arch_, params_, manifest_, rows_, stride_=1):
            return [(r, np.full(5, 0.5, np.float32)) for r in rows_]

        monkeypatch.setattr(T, "predict_rows", fake_predict)
        report = T.evaluate(M.mini_architecture(), {}, dataset, "validation")
        # one-line oracle: accuracy = 1 - mean|0.5 - label| per trait
        labels = np.stack([r.traits for r in rows])
        expect = 1.0 - np.abs(0.5 - labels).mean(axis=0)
        np.testing.assert_allclose(report.per_trait, expect, atol=1e-7)

    def test_average_equals_mean_of_traits_to_one_ulp(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            vals = rng.random(5)
            avg = T.aggregate_accuracies(vals)
            assert abs(avg - float(np.mean(vals))) <= np.spacing(max(avg, 1e-12))

    def test_missing_clip_excluded_and_counted(self, dataset, tmp_path):
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        rows = [
            D.ManifestRow(r.clip_id, r.path, r.traits, r.split) for r in dataset.rows
        ]
        rows.append(D.ManifestRow("ghost", "missing.clip", np.full(5, 0.5), "validation"))
        manifest = D.Manifest(rows=rows, directory=dataset.directory)
        report = T.evaluate(arch, params, manifest, "validation")
        assert report.excluded == 1
        assert report.clips == len(dataset.split_rows("validation"))

    def test_nan_audio_clip_excluded_not_scored(self, dataset, tmp_path):
        # a NaN sample must stop when map_clips opens the clip: scored, it
        # turns every trait's accuracy into nan
        bad = dataset.split_rows("validation")[0]
        blob = bytearray(Path(dataset.clip_path(bad)).read_bytes())
        blob[20:24] = np.array([np.nan], dtype="<f4").tobytes()  # first audio sample
        path = str(tmp_path / "nan.clip")
        Path(path).write_bytes(bytes(blob))
        rows = [D.ManifestRow(r.clip_id, path if r is bad else r.path, r.traits, r.split) for r in dataset.rows]
        manifest = D.Manifest(rows=rows, directory=dataset.directory)
        arch = M.mini_architecture()
        report = T.evaluate(arch, M.build_network(arch, 0), manifest, "validation")
        assert report.excluded == 1
        assert report.clips == len(dataset.split_rows("validation")) - 1
        assert np.all(np.isfinite(report.per_trait)) and np.isfinite(report.average)

    @pytest.mark.parametrize("change", [lambda b: b[:-1], lambda b: b + b"\0"])
    def test_clip_resized_after_opening_is_skipped(self, dataset, tmp_path, monkeypatch, change):
        # the file changes between map_clips' open_clip and the first frame
        # read: the read fails typed inside forward_infer, and only that clip
        # is left out
        bad = dataset.split_rows("validation")[0]
        path = str(tmp_path / "resized.clip")
        with open(dataset.clip_path(bad), "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob)
        rows = [D.ManifestRow(r.clip_id, path if r is bad else r.path, r.traits, r.split) for r in dataset.rows]
        manifest = D.Manifest(rows=rows, directory=dataset.directory)
        open_clip = T.open_clip

        def open_then_resize(clip_path):
            opened = open_clip(clip_path)
            if clip_path == path:
                with open(path, "wb") as fh:
                    fh.write(change(blob))
            return opened

        monkeypatch.setattr(T, "open_clip", open_then_resize)
        arch = M.mini_architecture()
        params = M.build_network(arch, 0)
        report = T.evaluate(arch, params, manifest, "validation")
        rest = D.Manifest(rows=[r for r in dataset.rows if r is not bad], directory=dataset.directory)
        expect = T.evaluate(arch, params, rest, "validation")
        assert (report.clips, report.excluded) == (expect.clips, 1)
        assert report.per_trait.tobytes() == expect.per_trait.tobytes()

    def test_eval_accuracy_in_unit_interval(self, dataset):
        arch = M.mini_architecture()
        params = M.build_network(arch, 2)
        report = T.evaluate(arch, params, dataset, "validation")
        assert np.all(report.per_trait >= 0.0) and np.all(report.per_trait <= 1.0)

    def test_predict_rows_refuses_a_second_worker(self, dataset):
        with pytest.raises(ValueError, match="threads must be 1"):
            T.predict_rows(M.mini_architecture(), {}, dataset, dataset.rows, threads=2)

    def test_csv_shape(self, dataset):
        report = T.EvalReport(traits=D.TRAITS, per_trait=np.full(5, 0.9), average=0.9, clips=4, excluded=1)
        lines = report.csv().splitlines()
        assert lines[0] == "average,openness,agreeableness,conscientiousness,neuroticism,extraversion,clips,excluded"
        assert lines[1].endswith(",4,1")

    def test_single_trait_csv_names_the_scored_trait(self, dataset):
        arch = M.mini_architecture(out_dim=1)
        report = T.evaluate(arch, M.build_network(arch, 0), dataset, "validation", trait=3)
        assert report.traits == ("neuroticism",)
        header, row = report.csv().splitlines()
        assert header == "average,neuroticism,clips,excluded"
        assert row == f"{report.average:.6f},{report.per_trait[0]:.6f},{report.clips},{report.excluded}"


class TestFinetune:
    def base_checkpoint(self, tmp_path, dataset):
        res = T.train(tiny_config(str(tmp_path / "base"), epochs=1), dataset)
        return T.load_checkpoint(res.checkpoint_path)

    def test_head_replaced_body_warm_started(self, tmp_path, dataset):
        base = self.base_checkpoint(tmp_path, dataset)
        cfg = tiny_config(str(tmp_path / "ft"), epochs=1)
        res = T.finetune_per_trait(base, 2, cfg, dataset)
        assert res.params["fusion.w"].shape == (64, 1)
        assert res.params["fusion.b"].shape == (1,)
        ckpt = T.load_checkpoint(res.checkpoint_path)
        assert ckpt.trait == 2 and ckpt.arch.out_dim == 1

    def test_non_head_weights_bitwise_at_step_zero(self, tmp_path, dataset):
        base = self.base_checkpoint(tmp_path, dataset)
        before = {n: v.copy() for n, v in base.params.items()}
        arch = M.with_out_dim(base.arch, 1)
        cfg = tiny_config(str(tmp_path / "ft"))
        params, _, _ = T._fresh_start(arch, cfg, base.params)
        assert list(params) == list(M.param_manifest(arch))
        for name, v in base.params.items():
            if not name.startswith("fusion."):
                np.testing.assert_array_equal(params[name], v)
                params[name] += 1.0  # training writes into its own copy, never the base
        for name, v in before.items():
            np.testing.assert_array_equal(base.params[name], v)
        # the head is the fresh network's, drawn from the run's seed
        head = M.build_network(arch, np.random.SeedSequence(cfg.seed).spawn(2)[0])
        for name in ("fusion.w", "fusion.b"):
            np.testing.assert_array_equal(params[name], head[name])

    def test_bad_trait_index_rejected(self, tmp_path, dataset):
        base = self.base_checkpoint(tmp_path, dataset)
        with pytest.raises(ValueError, match="trait"):
            T.finetune_per_trait(base, 5, tiny_config(str(tmp_path / "ft")), dataset)

    def test_single_trait_training_loss_uses_one_column(self, tmp_path, dataset):
        base = self.base_checkpoint(tmp_path, dataset)
        res = T.finetune_per_trait(base, 0, tiny_config(str(tmp_path / "ft"), epochs=2), dataset)
        assert len(res.losses) == 2
        assert all(np.isfinite(m) for _, _, m in res.losses)

    def test_evaluate_single_trait(self, tmp_path, dataset):
        base = self.base_checkpoint(tmp_path, dataset)
        res = T.finetune_per_trait(base, 1, tiny_config(str(tmp_path / "ft"), epochs=1), dataset)
        report = T.evaluate(res.arch, res.params, dataset, "train", trait=1)
        assert report.per_trait.shape == (1,) and report.average == report.per_trait[0]
        assert 0.0 <= report.average <= 1.0
        assert report.clips == len(dataset.split_rows("train")) and report.excluded == 0
        with pytest.raises(ValueError, match="trait"):
            T.evaluate(res.arch, res.params, dataset, "train")
