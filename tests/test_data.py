import hashlib
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avtrait import data as D
from oracles import channel_means_whole_grid, synth_audio, synth_frames_whole_grid
from tracemem import traced


def tiny_clip(rng=None, S=2000, T=3, H=40, W=52, label=None):
    rng = rng or np.random.Generator(np.random.PCG64(0))
    audio = (rng.random((1, S), dtype=np.float32) * 1.6 - 0.8).astype(np.float32)
    frames = rng.integers(0, 256, size=(T, 3, H, W), dtype=np.uint8)
    return D.Clip(audio=audio, frames=frames, label=label)


class TestClipContainer:
    def test_round_trip_is_bitwise(self, tmp_path):
        clip = tiny_clip()
        path = str(tmp_path / "a.clip")
        D.save_clip(clip, path)
        back = D.load_clip(path)
        np.testing.assert_array_equal(back.audio, clip.audio)
        assert back.frames.dtype == np.uint8 and not back.frames.flags.writeable
        np.testing.assert_array_equal(back.frames, clip.frames)

    def test_float_frames_rejected(self):
        clip = tiny_clip()
        with pytest.raises(ValueError, match="uint8"):
            D.Clip(audio=clip.audio, frames=D.unit_frames(clip.frames))

    @pytest.mark.parametrize("planes", [1, 4])
    def test_frame_plane_count_other_than_frame_planes_rejected(self, planes):
        clip = tiny_clip()
        frames = np.zeros((clip.frame_count, planes) + clip.frames.shape[2:], np.uint8)
        with pytest.raises(ValueError, match=rf"frames must be \(T>=1, {D.FRAME_PLANES}, H, W\)"):
            D.Clip(audio=clip.audio, frames=frames)

    def test_file_layout_matches_contract(self, tmp_path):
        clip = tiny_clip(S=5, T=1, H=2, W=3)
        path = str(tmp_path / "a.clip")
        D.save_clip(clip, path)
        blob = Path(path).read_bytes()
        assert blob[:8] == b"DIClip1\x00"
        assert len(blob) == 20 + 4 * 5 + 1 * 3 * 2 * 3
        S = int.from_bytes(blob[8:12], "little")
        T = int.from_bytes(blob[12:16], "little")
        H = int.from_bytes(blob[16:18], "little")
        W = int.from_bytes(blob[18:20], "little")
        assert (S, T, H, W) == (5, 1, 2, 3)

    def test_corrupt_magic(self, tmp_path):
        path = str(tmp_path / "a.clip")
        D.save_clip(tiny_clip(), path)
        blob = bytearray(Path(path).read_bytes())
        blob[0] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(D.BadMagicError):
            D.load_clip(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "a.clip")
        D.save_clip(tiny_clip(), path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-3])
        with pytest.raises(D.TruncatedPayloadError):
            D.load_clip(path)

    def test_overlong_file_also_truncation_error(self, tmp_path):
        path = str(tmp_path / "a.clip")
        D.save_clip(tiny_clip(), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(D.TruncatedPayloadError):
            D.load_clip(path)

    def test_zero_extent_rejected(self, tmp_path):
        path = str(tmp_path / "a.clip")
        D.save_clip(tiny_clip(S=4, T=1, H=2, W=2), path)
        blob = bytearray(Path(path).read_bytes())
        blob[12:16] = (0).to_bytes(4, "little")  # frame count 0
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(D.ExtentOverflowError):
            D.load_clip(path)

    def test_audio_range_enforced_on_save(self, tmp_path):
        for bad in (1.5, np.nan, np.inf, -np.inf):
            clip = tiny_clip()
            clip.audio[0, 0] = bad
            with pytest.raises(D.AudioRangeError, match="audio"):
                D.save_clip(clip, str(tmp_path / "a.clip"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_bad_audio_rejected_on_load(self, tmp_path, bad):
        path = str(tmp_path / "a.clip")
        D.save_clip(tiny_clip(S=8), path)
        blob = bytearray(Path(path).read_bytes())
        blob[20 + 4 * 3 : 20 + 4 * 4] = np.array([bad], dtype="<f4").tobytes()
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(D.AudioRangeError):
            D.load_clip(path)

    def test_pixels_map_by_255(self, tmp_path):
        frames = np.zeros((1, 3, 2, 2), np.uint8)
        frames[0, 0, 0, 0] = 255
        frames[0, 1, 1, 1] = 128
        clip = D.Clip(audio=np.zeros((1, 4), np.float32), frames=frames)
        path = str(tmp_path / "a.clip")
        D.save_clip(clip, path)
        blob = Path(path).read_bytes()
        pixels = np.frombuffer(blob[20 + 16 :], dtype=np.uint8).reshape(1, 3, 2, 2)
        np.testing.assert_array_equal(pixels, frames)
        unit = D.unit_frames(D.load_clip(path).frames)
        assert unit.dtype == np.float32
        assert unit[0, 0, 0, 0] == 1.0 and unit[0, 1, 1, 1] == np.float32(128) / np.float32(255)
        assert unit[0, 2, 0, 0] == 0.0

    def test_unit_frames_bitwise_for_every_pixel_value(self):
        pixels = np.arange(256, dtype=np.uint8)
        expect = pixels.astype(np.float32) / np.float32(255.0)
        assert D.unit_frames(pixels).tobytes() == expect.tobytes()
        assert D.unit_frames(pixels, np.float64).tobytes() == expect.astype(np.float64).tobytes()


class TestManifest:
    def write(self, tmp_path, rows_text):
        path = str(tmp_path / "m.csv")
        header = "clip_id,path,openness,agreeableness,conscientiousness,neuroticism,extraversion,split\n"
        with open(path, "w") as fh:
            fh.write(header + rows_text)
        return path

    def test_round_trip(self, tmp_path):
        rows = [
            D.ManifestRow("a", "a.clip", np.array([0.1, 0.2, 0.3, 0.4, 0.5]), "train"),
            D.ManifestRow("b", "b.clip", np.array([0.9, 0.8, 0.7, 0.6, 0.5]), "validation"),
        ]
        path = str(tmp_path / "m.csv")
        D.save_manifest(D.Manifest(rows=rows), path)
        back = D.load_manifest(path)
        assert [r.clip_id for r in back.rows] == ["a", "b"]
        assert back.split_rows("validation")[0].clip_id == "b"
        np.testing.assert_allclose(back.rows[0].traits, rows[0].traits, atol=1e-6)

    def test_trait_out_of_range_reports_row(self, tmp_path):
        # a NaN label passes both `< 0` and `> 1`, so it needs its own case
        for value in ("1.2", "-0.1", "nan", "inf", "-inf"):
            path = self.write(tmp_path, f"a,a.clip,0.5,0.5,{value},0.5,0.5,train\n")
            with pytest.raises(D.ManifestError, match=":2"):
                D.load_manifest(path)

    def test_unparseable_trait_reports_row(self, tmp_path):
        path = self.write(tmp_path, "a,a.clip,x,0.5,0.5,0.5,0.5,train\n")
        with pytest.raises(D.ManifestError, match=":2"):
            D.load_manifest(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,a.clip,0.5,0.5,0.5,0.5,0.5,train\na,b.clip,0.5,0.5,0.5,0.5,0.5,train\n")
        with pytest.raises(D.ManifestError, match="duplicate"):
            D.load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "m.csv")
        Path(path).write_text("id,file\n")
        with pytest.raises(D.ManifestError, match="header"):
            D.load_manifest(path)

    def test_bad_split_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,a.clip,0.5,0.5,0.5,0.5,0.5,holdout\n")
        with pytest.raises(D.ManifestError, match="split"):
            D.load_manifest(path)


class TestCropAudio:
    def test_exact_length_is_whole_waveform(self):
        clip = tiny_clip(S=600)
        rng = np.random.Generator(np.random.PCG64(1))
        out = D.crop_audio(clip, rng, crop=600)
        np.testing.assert_array_equal(out, clip.audio)

    def test_short_audio_zero_padded_as_prefix(self):
        clip = tiny_clip(S=100)
        rng = np.random.Generator(np.random.PCG64(2))
        out = D.crop_audio(clip, rng, crop=256)
        np.testing.assert_array_equal(out[:, :100], clip.audio)
        assert not out[:, 100:].any()

    def test_uniform_support_with_one_spare_sample(self):
        clip = tiny_clip(S=601)
        rng = np.random.Generator(np.random.PCG64(3))
        starts = set()
        for _ in range(200):
            out = D.crop_audio(clip, rng, crop=600)
            start = 0 if out[0, 0] == clip.audio[0, 0] else 1
            starts.add(start)
        assert starts == {0, 1}

    def test_values_are_selected_not_altered(self):
        clip = tiny_clip(S=900)
        rng = np.random.Generator(np.random.PCG64(4))
        out = D.crop_audio(clip, rng, crop=300)
        hay = clip.audio[0].tobytes()
        assert out[0].tobytes() in hay


class TestCropFrame:
    def test_full_size_crop_identity_or_mirror(self):
        clip = tiny_clip(H=24, W=24)
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(8):
            out = D.crop_frame(clip, rng, crop=24)
            frames = D.unit_frames(clip.frames)
            matches = [
                np.array_equal(out, frames[t]) or np.array_equal(out, frames[t][:, :, ::-1])
                for t in range(clip.frame_count)
            ]
            assert any(matches)

    def test_double_flip_is_identity(self):
        clip = tiny_clip(H=24, W=24)
        frame = clip.frames[0]
        np.testing.assert_array_equal(frame[:, :, ::-1][:, :, ::-1], frame)

    def test_crop_origin_support_on_canonical_frames(self):
        # encode the row in channel 0 and the column in channels 1-2 (high,
        # low byte) so each crop reveals its origin
        H, W = 256, 456
        frames = np.zeros((1, 3, H, W), np.uint8)
        frames[0, 0] = np.arange(H)[:, None]
        frames[0, 1] = np.arange(W)[None, :] >> 8
        frames[0, 2] = np.arange(W)[None, :] & 0xFF
        clip = D.Clip(audio=np.zeros((1, 10), np.float32), frames=frames)
        rng = np.random.Generator(np.random.PCG64(6))
        rows, cols = set(), set()
        for _ in range(400):
            out = D.crop_frame(clip, rng, crop=224)
            assert out.shape == (3, 224, 224)
            pixels = np.round(out * 255.0).astype(int)
            ends = [256 * pixels[1, 0, c] + pixels[2, 0, c] for c in (0, -1)]
            rows.add(pixels[0, 0, 0])
            cols.add(min(ends))  # undo a possible mirror
        assert min(rows) >= 0 and max(rows) <= 256 - 224
        assert min(cols) >= 0 and max(cols) <= 456 - 224
        # empirical support should reach both ends of the valid ranges
        assert max(rows) > 24 and min(rows) < 8
        assert max(cols) > 200 and min(cols) < 30

    def test_bitwise_equal_to_cropping_float_frames(self):
        clip = tiny_clip(T=4, H=40, W=52)
        frames = clip.frames.astype(np.float32) / np.float32(255.0)
        rng = np.random.Generator(np.random.PCG64(9))
        twin = np.random.Generator(np.random.PCG64(9))
        for _ in range(16):
            out = D.crop_frame(clip, rng, crop=32)
            t = int(twin.integers(0, 4))
            top = int(twin.integers(0, 40 - 32 + 1))
            left = int(twin.integers(0, 52 - 32 + 1))
            expect = frames[t, :, top : top + 32, left : left + 32]
            if twin.random() < 0.5:
                expect = expect[:, :, ::-1]
            assert out.flags.c_contiguous and out.dtype == np.float32
            assert out.tobytes() == np.ascontiguousarray(expect).tobytes()

    def test_too_small_frame_rejected(self):
        clip = tiny_clip(H=20, W=64)
        with pytest.raises(ValueError, match="smaller"):
            D.crop_frame(clip, np.random.Generator(np.random.PCG64(7)), crop=32)

    def test_seeded_stream_is_reproducible(self):
        clip = tiny_clip(H=40, W=40)
        a = [D.crop_frame(clip, np.random.Generator(np.random.PCG64(8)), 32) for _ in range(1)]
        b = [D.crop_frame(clip, np.random.Generator(np.random.PCG64(8)), 32) for _ in range(1)]
        np.testing.assert_array_equal(a[0], b[0])


class TestClipFile:
    def indexed(self, tmp_path, **kw):
        path = str(tmp_path / "c.clip")
        D.save_clip(tiny_clip(**kw), path)
        return D.index_clip(path, 8)

    def test_index_keeps_only_path_and_extents(self, tmp_path):
        indexed = self.indexed(tmp_path, S=300, T=2, H=10, W=12)
        assert indexed == D.ClipFile(str(tmp_path / "c.clip"), 300, (2, 3, 10, 12))

    def test_index_makes_load_clip_checks(self, tmp_path):
        path = str(tmp_path / "c.clip")
        D.save_clip(tiny_clip(S=50, T=1, H=8, W=8), path)
        blob = bytearray(_read(path))
        blob[0] ^= 1
        _write(path, bytes(blob))
        with pytest.raises(D.BadMagicError):
            D.index_clip(path, 8)

    def test_frames_smaller_than_crop_rejected_with_path(self, tmp_path):
        path = str(tmp_path / "c.clip")
        D.save_clip(tiny_clip(S=50, T=1, H=20, W=64), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: frame 20x64 smaller than crop 32")):
            D.index_clip(path, 32)

    @pytest.mark.parametrize("change", [lambda b: b[:-1], lambda b: b + b"\0", lambda b: b[:30]])
    def test_file_resized_after_indexing_is_truncation(self, tmp_path, change):
        indexed = self.indexed(tmp_path, S=300, T=2, H=10, W=12)
        _write(indexed.path, change(_read(indexed.path)))
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(D.TruncatedPayloadError, match="indexed"):
            D.crop_audio(indexed, rng, 100)
        with pytest.raises(D.TruncatedPayloadError, match="indexed"):
            D.crop_frame(indexed, rng, 8)

    @pytest.mark.parametrize("crop", [300, 400])  # the whole waveform, and zero-padded
    def test_nan_written_after_indexing_never_reaches_a_crop(self, tmp_path, crop):
        indexed = self.indexed(tmp_path, S=300, T=2, H=10, W=12)
        blob = bytearray(_read(indexed.path))
        blob[20 + 4 * 299 : 20 + 4 * 300] = np.array([np.nan], dtype="<f4").tobytes()  # last sample
        _write(indexed.path, bytes(blob))
        with pytest.raises(D.AudioRangeError):
            D.crop_audio(indexed, np.random.Generator(np.random.PCG64(0)), crop)


class TestReadsOutsideTheClip:
    """A Clip and a ClipFile refuse a window or rows that are empty or reach
    outside the clip, naming what was asked and the clip's extents."""

    S, T, H = 300, 2, 16

    @pytest.fixture(params=["Clip", "ClipFile"])
    def clip(self, request, tmp_path):
        clip = tiny_clip(S=self.S, T=self.T, H=self.H, W=12)
        if request.param == "Clip":
            return clip
        path = str(tmp_path / "c.clip")
        D.save_clip(clip, path)
        return D.open_clip(path)

    # past the end (a ClipFile read frame bytes there), before the start, empty, reversed
    @pytest.mark.parametrize("start, stop", [(S - 4, S + 4), (-1, 4), (5, 5), (6, 5)])
    def test_audio_window_outside_the_samples_refused(self, clip, start, stop):
        want = f"audio window [{start}, {stop}) is not inside the clip's samples [0, {self.S})"
        with pytest.raises(ValueError, match=re.escape(want)):
            clip.audio_window(start, stop)

    # rows past the frame (a ClipFile read the next plane there), before it,
    # empty; frames before the first and past the last
    @pytest.mark.parametrize("t, top, stop", [(0, 10, 20), (1, -1, 3), (0, 3, 3), (-1, 0, 4), (T, 0, 4)])
    def test_frame_rows_outside_the_frames_refused(self, clip, t, top, stop):
        want = f"frame {t} rows [{top}, {stop}) are not inside the clip's frames [0, {self.T}) and rows [0, {self.H})"
        with pytest.raises(ValueError, match=re.escape(want)):
            clip.frame_rows(t, top, stop)

    def test_reads_at_the_edges_are_kept(self, clip):
        assert clip.audio_window(0, self.S).shape == (1, self.S)
        assert clip.frame_rows(self.T - 1, 0, self.H).shape == (3, self.H, 12)


def _outcome(read, path):
    """What reading path gives: the error's type and message, or "ok"."""
    try:
        read(path)
    except D.ClipFormatError as exc:
        return type(exc), str(exc)
    return "ok"


class TestOpenClip:
    def test_open_keeps_only_path_and_extents(self, tmp_path):
        path = str(tmp_path / "c.clip")
        D.save_clip(tiny_clip(S=300, T=2, H=10, W=12), path)
        assert D.open_clip(path) == D.ClipFile(path, 300, (2, 3, 10, 12))
        assert D.open_clip(path).frame_count == D.load_clip(path).frame_count == 2

    @pytest.mark.parametrize(
        "defect",
        [
            lambda b: b[:12],  # shorter than the header
            lambda b: b"X" + b[1:],  # magic
            lambda b: b[:12] + (0).to_bytes(4, "little") + b[16:],  # zero frame count
            lambda b: b[:8] + (2**32 - 1).to_bytes(4, "little") + b"\xff\xff\xff\xff" + b[16:],  # overflow
            lambda b: b[:-1],  # one byte short
            lambda b: b + b"\0",  # one byte long
            lambda b: b[:20] + np.array([np.nan], "<f4").tobytes() + b[24:],  # first sample
            lambda b: b[:20 + 4 * 299] + np.array([1.5], "<f4").tobytes() + b[20 + 4 * 300 :],  # last sample
        ],
    )
    def test_open_raises_what_load_raises(self, tmp_path, defect):
        path = str(tmp_path / "c.clip")
        D.save_clip(tiny_clip(S=300, T=2, H=10, W=12), path)
        _write(path, defect(_read(path)))
        expect = _outcome(D.load_clip, path)
        assert expect != "ok"
        assert _outcome(D.open_clip, path) == expect


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.data())
def test_open_and_load_agree_on_every_corruption(tmp_path_factory, S, T, H, W, data):
    # a cut anywhere, or a flipped byte anywhere: both accept the file, or
    # both reject it with the same typed error and message
    path = str(tmp_path_factory.mktemp("clips") / "c.clip")
    D.save_clip(tiny_clip(S=S, T=T, H=H, W=W), path)
    blob = bytearray(_read(path))
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="end") :]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] ^= data.draw(st.integers(1, 255), label="mask")
    _write(path, bytes(blob))
    assert _outcome(D.open_clip, path) == _outcome(D.load_clip, path)


class TestSynthDataset:
    def test_same_seed_identical_directories(self, tmp_path):
        d1 = str(tmp_path / "one")
        d2 = str(tmp_path / "two")
        D.synth_dataset(4, seed=9, out_dir=d1, seconds=0.5, height=24, width=24)
        D.synth_dataset(4, seed=9, out_dir=d2, seconds=0.5, height=24, width=24)
        for name in sorted(os.listdir(d1)):
            b1 = Path(os.path.join(d1, name)).read_bytes()
            b2 = Path(os.path.join(d2, name)).read_bytes()
            assert b1 == b2, name

    def test_labels_inside_band(self, tmp_path):
        m = D.synth_dataset(12, seed=1, out_dir=str(tmp_path / "d"), seconds=0.5, height=24, width=24)
        for row in m.rows:
            assert np.all(row.traits >= 0.05) and np.all(row.traits <= 0.95)

    def test_audio_label_component_tracks_frequency(self, tmp_path):
        m = D.synth_dataset(24, seed=2, out_dir=str(tmp_path / "d"), seconds=0.5, height=24, width=24)
        # recompute the generator's frequency draw per clip
        rng = np.random.Generator(np.random.PCG64(2))
        freqs = []
        for _ in range(24):
            freqs.append(float(rng.uniform(D._FREQ_LO, D._FREQ_HI)))
            for _ in range(4):
                rng.uniform(0.0, 2.0 * np.pi)  # phases, theta, wobble
            rng.uniform(D._BASE_LO, D._BASE_HI, size=3)
        opennness = np.array([row.traits[0] for row in m.rows])
        corr = np.corrcoef(np.array(freqs), opennness)[0, 1]
        assert corr > 0.99

    def test_split_assignment(self, tmp_path):
        m = D.synth_dataset(10, seed=3, out_dir=str(tmp_path / "d"), val_count=2, test_count=3,
                            seconds=0.5, height=24, width=24)
        assert len(m.split_rows("train")) == 5
        assert len(m.split_rows("validation")) == 2
        assert len(m.split_rows("test")) == 3

    def test_clips_load_and_respect_invariants(self, tmp_path):
        m = D.synth_dataset(2, seed=4, out_dir=str(tmp_path / "d"), seconds=0.75, height=32, width=28)
        for row in m.rows:
            clip = D.load_clip(m.clip_path(row))
            assert clip.sample_count == int(0.75 * D.SAMPLE_RATE)
            assert clip.frame_count == round(0.75 * D.FPS)
            assert clip.frames.shape[2:] == (32, 28)
            assert float(np.max(np.abs(clip.audio))) <= 1.0

    def test_manifest_labels_match_clip_generation(self, tmp_path):
        d = str(tmp_path / "d")
        m = D.synth_dataset(3, seed=5, out_dir=d, seconds=0.5, height=24, width=24)
        rng = np.random.Generator(np.random.PCG64(5))
        for row in m.rows:
            clip = D.synth_clip(rng, seconds=0.5, height=24, width=24)
            np.testing.assert_allclose(row.traits, clip.label, atol=1e-6)

    @pytest.mark.parametrize("theta", np.linspace(0.0, 2.0 * np.pi, 17))
    def test_label_is_mirror_invariant(self, theta):
        # crop_frame's mirror maps the gradient's orientation theta to pi - theta
        means = [0.3, 0.5, 0.7]
        mirrored = D._synth_labels(1000.0, means, np.pi - theta)
        assert D._synth_labels(1000.0, means, theta).tobytes() == mirrored.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirrored_clip_keeps_its_label(self, seed):
        # replay synth_clip's frequency and orientation draws
        replay = np.random.Generator(np.random.PCG64(seed))
        freq = float(replay.uniform(D._FREQ_LO, D._FREQ_HI))
        replay.uniform(0.0, 2.0 * np.pi, size=2)  # phases
        theta = float(replay.uniform(0.0, 2.0 * np.pi))
        clip = D.synth_clip(np.random.Generator(np.random.PCG64(seed)), seconds=0.5, height=24, width=32)
        means = channel_means_whole_grid(clip.frames)
        assert D._synth_labels(freq, means, theta).tobytes() == clip.label.tobytes()
        mirrored = clip.frames[:, :, :, ::-1]
        assert channel_means_whole_grid(mirrored) == means
        mirrored_label = D._synth_labels(freq, channel_means_whole_grid(mirrored), np.pi - theta)
        assert mirrored_label.tobytes() == clip.label.tobytes()

    @pytest.mark.parametrize("counts", [{"val_count": -1}, {"val_count": -2, "test_count": 3}])
    def test_negative_split_count_is_refused_before_the_directory(self, tmp_path, counts):
        out = str(tmp_path / "d")
        with pytest.raises(ValueError, match="count must be >= 0"):
            D.synth_dataset(3, seed=0, out_dir=out, seconds=0.04, height=2, width=2, **counts)
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "seconds, height, width, key",
        [
            (0.04, D.EXTENT_LIMIT, 1, "height"),
            (0.04, 1, D.EXTENT_LIMIT, "width"),
            (D.COUNT_LIMIT / D.SAMPLE_RATE, 1, 1, "seconds"),  # 2^32 samples
        ],
    )
    def test_size_the_container_cannot_hold_is_refused_before_the_directory(
        self, tmp_path, seconds, height, width, key
    ):
        out = str(tmp_path / "d")
        with pytest.raises(ValueError, match=f"{key} must "):
            D.synth_dataset(1, seed=0, out_dir=out, seconds=seconds, height=height, width=width)
        assert not os.path.exists(out)

    def test_non_empty_directory_is_refused_before_writing(self, tmp_path):
        d = str(tmp_path / "d")
        D.synth_dataset(4, seed=9, out_dir=d, seconds=0.5, height=24, width=24)
        before = {name: Path(os.path.join(d, name)).read_bytes() for name in os.listdir(d)}
        with pytest.raises(FileExistsError, match="not empty"):
            D.synth_dataset(2, seed=9, out_dir=d, seconds=0.5, height=24, width=24)
        assert {name: Path(os.path.join(d, name)).read_bytes() for name in os.listdir(d)} == before

    def test_empty_directory_is_written(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        assert len(D.synth_dataset(2, seed=9, out_dir=str(d), seconds=0.5, height=24, width=24).rows) == 2

    def test_dataset_bytes_are_pinned(self, tmp_path):
        # SHA-256 over each file's name and bytes in name order, as the
        # whole-grid synthesis wrote them; 11 frames of 64x64 cross a block
        d = str(tmp_path / "d")
        D.synth_dataset(4, seed=20, out_dir=d, val_count=1, test_count=1, seconds=0.44, height=64, width=64)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(d)):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(d, name), "rb") as fh:
                digest.update(fh.read())
        assert digest.hexdigest() == "8483936bbe656cc236637b9491c3dbfe53b9ecdc496ca26bb53682fcfda93d9f"


def _replay_synth_clip(seed, seconds, height, width):
    """(audio, frames, label, generator state after) of synth_clip on PCG64(seed), from the oracles.

    The draws are replayed in synth_clip's order: frequency, two phases,
    orientation, the three base colours, the wobble phase.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    freq = float(rng.uniform(D._FREQ_LO, D._FREQ_HI))
    phase2 = float(rng.uniform(0.0, 2.0 * math.pi))
    phase3 = float(rng.uniform(0.0, 2.0 * math.pi))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    base = rng.uniform(D._BASE_LO, D._BASE_HI, size=3)
    wobble_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    audio = synth_audio(freq, phase2, phase3, int(round(seconds * D.SAMPLE_RATE)), D.SAMPLE_RATE)
    frame_count = int(round(seconds * D.FPS))
    frames = synth_frames_whole_grid(
        base, theta, wobble_phase, frame_count, height, width, D._GRADIENT_AMPLITUDE, D._WOBBLE_AMPLITUDE
    )
    label = D._synth_labels(freq, channel_means_whole_grid(frames), theta)
    return audio, frames, label, rng.bit_generator.state


def _frame_block_bytes(frames, height, width):
    """A _SYNTH_BLOCK_BYTES that makes blocks of `frames` frames of height x width."""
    return frames * 3 * height * width * 8


class TestSynthClipBlocks:
    """synth_clip forms its frames a block at a time; the whole-grid oracle is the arbiter."""

    @staticmethod
    def assert_equals_oracle(seed, seconds, height, width):
        rng = np.random.Generator(np.random.PCG64(seed))
        clip = D.synth_clip(rng, seconds, height, width)
        audio, frames, label, state = _replay_synth_clip(seed, seconds, height, width)
        assert clip.audio.shape == audio.shape and clip.audio.tobytes() == audio.tobytes()
        assert clip.frames.shape == frames.shape and clip.frames.tobytes() == frames.tobytes()
        assert clip.label.tobytes() == label.tobytes()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "seed, seconds, height, width",
        [
            (0, 0.04, 1, 1),  # one frame of one pixel
            (1, 0.4, 13, 17),  # odd height and width
            (2, 3.0, 64, 64),  # 75 frames in blocks of 10
            (3, 1.0, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH),  # one 2.8 MB frame a block
        ],
    )
    def test_bitwise_equal_to_the_whole_grid(self, seed, seconds, height, width):
        self.assert_equals_oracle(seed, seconds, height, width)

    @pytest.mark.parametrize("block_frames", [1, 2, 5, 12, 13])
    def test_bitwise_equal_across_block_sizes(self, monkeypatch, block_frames):
        # 12 frames of 24x32: blocks that divide them, leave a remainder, or hold them all
        monkeypatch.setattr(D, "_SYNTH_BLOCK_BYTES", _frame_block_bytes(block_frames, 24, 32))
        self.assert_equals_oracle(4, 0.5, 24, 32)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 7),
    )
    def test_label_mean_is_the_exact_mean_of_every_unit_pixel(self, seed, frame_count, height, width, block_frames):
        seen = []
        labels = D._synth_labels

        def capture(freq, means, theta):
            seen.append(means)
            return labels(freq, means, theta)

        with (
            mock.patch.object(D, "_synth_labels", capture),
            mock.patch.object(D, "_SYNTH_BLOCK_BYTES", _frame_block_bytes(block_frames, height, width)),
        ):
            clip = D.synth_clip(np.random.Generator(np.random.PCG64(seed)), frame_count / D.FPS, height, width)
        unit = D.unit_frames(clip.frames)
        assert clip.frame_count == frame_count
        assert seen == [[math.fsum(unit[:, c].ravel().tolist()) / unit[:, c].size for c in range(3)]]

    def test_pixels_lie_inside_the_u8_range_by_the_constants(self):
        # A pixel is base + gradient * proj + wobble, times 255: base lies in
        # [_BASE_LO, _BASE_HI], |proj| <= sqrt(2) / 2 as |gx|, |gy| < 1/2,
        # and |wobble| <= its amplitude. So no pixel needs clipping to u8.
        reach = D._GRADIENT_AMPLITUDE * math.sqrt(0.5) + D._WOBBLE_AMPLITUDE
        lo, hi = 255.0 * (D._BASE_LO - reach), 255.0 * (D._BASE_HI + reach)
        assert 0.0 <= lo and hi <= 255.0
        assert (round(lo, 1), round(hi, 1)) == (35.3, 219.7)
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(40):
            frames = D.synth_clip(rng, 0.2, 9, 11).frames
            assert math.floor(lo) <= frames.min() and frames.max() <= math.ceil(hi)

    def test_peak_memory_is_bounded_by_the_frames(self):
        rng = np.random.Generator(np.random.PCG64(5))
        clip, peak, _ = traced(D.synth_clip, rng, 2.0, D.CANONICAL_HEIGHT, D.CANONICAL_WIDTH)
        assert peak < 2 * clip.frames.nbytes


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "x.bin")
        D.atomic_write_bytes(path, b"hello")
        assert Path(path).read_bytes() == b"hello"
        assert os.listdir(str(tmp_path)) == ["x.bin"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "x.bin")
        D.atomic_write_bytes(path, b"one")
        D.atomic_write_bytes(path, b"two")
        assert Path(path).read_bytes() == b"two"

    def test_parts_are_written_in_order(self, tmp_path):
        path = str(tmp_path / "x.bin")
        tail = np.arange(3, dtype="<u2")
        D.atomic_write_bytes(path, [b"ab", memoryview(b"cd"), tail])
        assert Path(path).read_bytes() == b"abcd" + tail.tobytes()

    def test_failing_parts_leave_the_old_file(self, tmp_path):
        path = str(tmp_path / "x.bin")
        D.atomic_write_bytes(path, b"old")

        def parts():
            yield b"new"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            D.atomic_write_bytes(path, parts())
        assert Path(path).read_bytes() == b"old"
        assert os.listdir(str(tmp_path)) == ["x.bin"]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 500), st.integers(1, 3), st.integers(1, 8), st.integers(1, 8))
def test_container_roundtrip_property(tmp_path_factory, S, T, H, W):
    rng = np.random.Generator(np.random.PCG64(S * 1000 + T * 100 + H * 10 + W))
    clip = tiny_clip(rng, S=S, T=T, H=H, W=W)
    path = str(tmp_path_factory.mktemp("clips") / "c.clip")
    D.save_clip(clip, path)
    back = D.load_clip(path)
    np.testing.assert_array_equal(back.audio, clip.audio)
    np.testing.assert_array_equal(back.frames, clip.frames)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5))
def test_every_truncation_is_typed(tmp_path_factory, S, T, H, W):
    path = str(tmp_path_factory.mktemp("clips") / "c.clip")
    D.save_clip(tiny_clip(S=S, T=T, H=H, W=W), path)
    with open(path, "rb") as fh:
        blob = fh.read()
    for end in range(len(blob)):
        _write(path, blob[:end])
        with pytest.raises(D.TruncatedPayloadError):
            D.load_clip(path)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.data())
def test_flipped_byte_loads_or_is_typed(tmp_path_factory, S, T, H, W, data):
    path = str(tmp_path_factory.mktemp("clips") / "c.clip")
    D.save_clip(tiny_clip(S=S, T=T, H=H, W=W), path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    _write(path, bytes(blob))
    if at < 20:
        # every header field is checked against the file, so a flip there never loads
        with pytest.raises(D.ClipFormatError):
            D.load_clip(path)
        return
    try:
        clip = D.load_clip(path)
    except D.AudioRangeError:
        return
    assert clip.frames.dtype == np.uint8 and clip.frames.shape == (T, 3, H, W)


@settings(max_examples=30, deadline=None)
@given(
    S=st.integers(1, 400), T=st.integers(1, 3), H=st.integers(1, 12), W=st.integers(1, 12),
    audio_crop=st.integers(1, 500), k=st.integers(0, 11), seed=st.integers(0, 2**32 - 1),
)
@example(S=100, T=2, H=9, W=7, audio_crop=300, k=6, seed=0)  # zero-padded audio, full-width frame crops
def test_file_crops_equal_whole_clip_crops(tmp_path_factory, S, T, H, W, audio_crop, k, seed):
    # eight draws of each crop per example, so mirrored and plain frame
    # crops both occur (each draw mirrors with probability 1/2)
    path = str(tmp_path_factory.mktemp("clips") / "c.clip")
    D.save_clip(tiny_clip(np.random.Generator(np.random.PCG64(seed)), S=S, T=T, H=H, W=W), path)
    frame_crop = 1 + k % min(H, W)
    indexed, whole = D.index_clip(path, frame_crop), D.load_clip(path)
    a, b = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for _ in range(8):
        for crop, size in ((D.crop_audio, audio_crop), (D.crop_frame, frame_crop)):
            got, expect = crop(indexed, a, size), crop(whole, b, size)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
