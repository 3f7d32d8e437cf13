"""Clip container format, manifests, training augmentations, synthetic data.

Clip container (little-endian), one preprocessed video sample per file:

    magic   8 bytes  b"DIClip1\\0"
    S       u32      audio sample count
    T       u32      frame count
    H       u16      frame height
    W       u16      frame width
    audio   S * f32  mono samples in [-1, 1] at 16000 Hz
    frames  T*3*H*W * u8, planar: frame-major, channels R,G,B, rows
            row-major; pixel values map to [0, 1] by /255

Inference never holds a clip's frames whole. `open_clip` checks the header,
the file size and the whole waveform, reads no frame bytes and keeps a
`ClipFile`: the path and header extents. Scoring then reads the audio, and
the scored frames one at a time, from the file; `unit_frames` maps each
frame to [0, 1] floats into a batch buffer, and the visual stream runs as
many frames at once as have `model.FRAME_BATCH_BYTES` of stem columns: 27
miniature 64x64 frames, or one canonical frame. Training indexes each clip
through `index_clip`, which loads it whole once (`load_clip`) to check it
and keeps only a `ClipFile`; each crop then reads only the drawn audio
window and the drawn frame's crop rows. A `Clip` in memory (`load_clip`
keeps its frames u8, a read-only view of the file's bytes) and a `ClipFile`
offer the same reads with bitwise-equal results, and both refuse with a
ValueError a read that is empty or reaches outside the clip's samples,
frames or rows.

Manifest: UTF-8 CSV with header
    clip_id,path,openness,agreeableness,conscientiousness,neuroticism,extraversion,split
Trait values must parse into [0, 1]; split is train/validation/test; paths
are resolved relative to the manifest's directory.

Codec decoding is out of scope: a user-supplied converter produces clip
files from source video (stereo audio averaged to mono, audio resampled to
16 kHz, frames at 25 fps).
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

SAMPLE_RATE = 16000
FPS = 25
CANONICAL_HEIGHT = 256
CANONICAL_WIDTH = 456
FRAME_PLANES = 3  # R, G, B: every frame's planes, and so the visual stream's input channels

TRAITS = ("openness", "agreeableness", "conscientiousness", "neuroticism", "extraversion")
SPLITS = ("train", "validation", "test")

CLIP_MAGIC = b"DIClip1\x00"
_HEADER = struct.Struct("<8sIIHH")
# the header's field widths: S and T are u32, H and W u16
COUNT_LIMIT = 1 << 32
EXTENT_LIMIT = 1 << 16
_MAX_PAYLOAD = 1 << 40


class ClipFormatError(ValueError):
    """Base for clips that are malformed or unusable; a multi-clip run skips them."""


class BadMagicError(ClipFormatError):
    pass


class TruncatedPayloadError(ClipFormatError):
    pass


class ExtentOverflowError(ClipFormatError):
    pass


class AudioRangeError(ClipFormatError):
    """Audio samples that are not finite or lie outside [-1, 1]."""


class ClipTooShortError(ClipFormatError):
    """A clip too short for what is asked of it, such as one whole second."""


class ManifestError(ValueError):
    pass


@dataclass
class Clip:
    """One preprocessed sample: waveform, frame stack, optional label.

    audio:  (1, S) float32 in [-1, 1]
    frames: (T, 3, H, W) uint8 pixels as stored; `unit_frames` maps them to [0, 1]
    """

    audio: np.ndarray
    frames: np.ndarray
    label: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.audio.ndim != 2 or self.audio.shape[0] != 1 or self.audio.shape[1] < 1:
            raise ValueError(f"audio must be (1, S>=1), got {self.audio.shape}")
        if self.frames.ndim != 4 or self.frames.shape[1] != FRAME_PLANES or self.frames.shape[0] < 1:
            raise ValueError(f"frames must be (T>=1, {FRAME_PLANES}, H, W), got {self.frames.shape}")
        if self.frames.dtype != np.uint8:
            raise ValueError(f"frames must be uint8 pixels, got {self.frames.dtype}")

    @property
    def sample_count(self) -> int:
        return self.audio.shape[1]

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple:
        return self.frames.shape

    def audio_window(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) as a fresh (1, stop - start) array."""
        _check_audio_window(start, stop, self.sample_count)
        return self.audio[:, start:stop].copy()

    def frame_rows(self, t: int, top: int, stop: int) -> np.ndarray:
        """Rows [top, stop) of each channel of frame t: a (3, stop - top, W) u8 view."""
        _check_frame_rows(t, top, stop, self.frame_shape)
        return self.frames[t, :, top:stop]


def _check_audio_window(start: int, stop: int, sample_count: int) -> None:
    """Refuse a window that is empty or reaches outside the clip's samples."""
    if not 0 <= start < stop <= sample_count:
        raise ValueError(f"audio window [{start}, {stop}) is not inside the clip's samples [0, {sample_count})")


def _check_frame_rows(t: int, top: int, stop: int, frame_shape: tuple) -> None:
    """Refuse a frame outside the clip, or rows that are empty or outside a frame."""
    T, _, H, _ = frame_shape
    if not (0 <= t < T and 0 <= top < stop <= H):
        raise ValueError(f"frame {t} rows [{top}, {stop}) are not inside the clip's frames [0, {T}) and rows [0, {H})")


@dataclass
class ManifestRow:
    clip_id: str
    path: str
    traits: np.ndarray  # (5,) float64 in [0,1]
    split: str


@dataclass
class Manifest:
    rows: list
    directory: str = "."

    def split_rows(self, split: str) -> list:
        if split not in SPLITS:
            raise ManifestError(f"unknown split {split!r}")
        return [r for r in self.rows if r.split == split]

    def clip_path(self, row: ManifestRow) -> str:
        return os.path.join(self.directory, row.path)


# ---------------------------------------------------------------------------
# atomic file output

def atomic_write_bytes(path: str, payload) -> None:
    """Write via temp file + rename so a killed run never leaves a torn file.

    `payload` is one bytes-like object, or an iterable of them (bytes,
    memoryviews, C-contiguous arrays) written in order. Each part goes
    straight to the temp file, so a caller that yields its parts one at a
    time never holds the whole file in memory. If writing fails, or the
    iterable raises, the temp file is removed and `path` is left as it was.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in payload:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# clip container I/O

def _check_audio(audio: np.ndarray, path: str) -> None:
    # a NaN compares False, so this rejects it along with inf and |a| > 1
    if not np.all(np.abs(audio) <= 1.0):
        raise AudioRangeError(f"{path}: audio samples must be finite and lie in [-1, 1]")


def save_clip(clip: Clip, path: str) -> None:
    """Serialize a clip; load_clip gives back the same audio and frames bitwise."""
    audio = np.ascontiguousarray(clip.audio, dtype="<f4")
    _check_audio(audio, path)
    T, _, H, W = clip.frames.shape
    S = clip.sample_count
    if S >= COUNT_LIMIT or T >= COUNT_LIMIT or H >= EXTENT_LIMIT or W >= EXTENT_LIMIT:
        raise ExtentOverflowError(f"extents out of header range: S={S} T={T} H={H} W={W}")
    atomic_write_bytes(path, (_HEADER.pack(CLIP_MAGIC, S, T, H, W), audio, np.ascontiguousarray(clip.frames)))


def _check_container(head: bytes, size: int, path: str) -> tuple:
    """(S, T, H, W) of a clip file from its header bytes and its length,
    after every container check: header length, magic, extents and size."""
    if len(head) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: {size} bytes is shorter than the header")
    magic, S, T, H, W = _HEADER.unpack_from(head, 0)
    if magic != CLIP_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if S < 1 or T < 1 or H < 1 or W < 1:
        raise ExtentOverflowError(f"{path}: zero extent in header (S={S} T={T} H={H} W={W})")
    expected = _HEADER.size + 4 * S + T * FRAME_PLANES * H * W
    if expected > _MAX_PAYLOAD:
        raise ExtentOverflowError(f"{path}: header implies {expected} bytes")
    if size != expected:
        raise TruncatedPayloadError(f"{path}: file length {size} != header-implied {expected}")
    return S, T, H, W


def load_clip(path: str) -> Clip:
    """Parse a clip container; raises distinct errors per defect.

    The returned audio and u8 frames are read-only views of the bytes read,
    so a clip holds the file's size in memory and no more.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    S, T, H, W = _check_container(blob[: _HEADER.size], len(blob), path)
    audio = np.frombuffer(blob, dtype="<f4", count=S, offset=_HEADER.size).reshape(1, S)
    _check_audio(audio, path)
    frames = np.frombuffer(blob, dtype=np.uint8, count=T * FRAME_PLANES * H * W, offset=_HEADER.size + 4 * S)
    return Clip(audio=np.ascontiguousarray(audio, dtype=np.float32), frames=frames.reshape(T, FRAME_PLANES, H, W))


@dataclass(frozen=True)
class ClipFile:
    """A checked clip container on disk, known by its path and header extents.

    It offers Clip's reads (`sample_count`, `frame_count`, `frame_shape`,
    `audio_window`, `frame_rows`) with bitwise-equal results, so training
    crops and inference read either type. Each read opens the file, reads
    only the bytes asked for and closes it again. A file whose size no
    longer matches the extents, or a short read, raises
    TruncatedPayloadError, and each audio window is checked as load_clip
    checks the whole waveform, so a file rewritten after it was opened or
    indexed cannot put NaN into a batch or a score.
    """

    path: str
    sample_count: int
    frame_shape: tuple  # (T, FRAME_PLANES, H, W)

    @property
    def frame_count(self) -> int:
        return self.frame_shape[0]

    def _read(self, offsets, out: np.ndarray) -> np.ndarray:
        """Fill out[i] with the bytes at offsets[i] of the file."""
        expected = _HEADER.size + 4 * self.sample_count + math.prod(self.frame_shape)
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise TruncatedPayloadError(f"{self.path}: file length {size} != indexed {expected}")
            for offset, part in zip(offsets, out):
                fh.seek(offset)
                if fh.readinto(part) != part.nbytes:
                    raise TruncatedPayloadError(f"{self.path}: short read at byte {offset}")
        return out

    def audio_window(self, start: int, stop: int) -> np.ndarray:
        _check_audio_window(start, stop, self.sample_count)
        window = self._read([_HEADER.size + 4 * start], np.empty((1, stop - start), dtype="<f4"))
        _check_audio(window, self.path)
        return window.astype(np.float32, copy=False)

    def frame_rows(self, t: int, top: int, stop: int) -> np.ndarray:
        _check_frame_rows(t, top, stop, self.frame_shape)
        _, _, H, W = self.frame_shape
        first = _HEADER.size + 4 * self.sample_count + (t * FRAME_PLANES * H + top) * W
        rows = np.empty((FRAME_PLANES, stop - top, W), np.uint8)
        return self._read([first + c * H * W for c in range(FRAME_PLANES)], rows)


def open_clip(path: str) -> ClipFile:
    """A ClipFile for path, after every check load_clip makes.

    It reads the header and the whole waveform, to check every sample, and
    no frame bytes; the audio is dropped on return.
    """
    with open(path, "rb") as fh:
        S, T, H, W = _check_container(fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size, path)
    clip = ClipFile(path, S, (T, FRAME_PLANES, H, W))
    clip.audio_window(0, S)
    return clip


def index_clip(path: str, frame_crop: int) -> ClipFile:
    """A ClipFile for path, after every check load_clip makes.

    Its frames must also hold a frame_crop square. The loaded clip is
    dropped on return, so indexing holds one clip in memory at a time.
    """
    clip = load_clip(path)
    _, _, H, W = clip.frame_shape
    if H < frame_crop or W < frame_crop:
        raise ValueError(f"{path}: frame {H}x{W} smaller than crop {frame_crop}")
    return ClipFile(path, clip.sample_count, clip.frame_shape)


def unit_frames(pixels: np.ndarray, dtype=np.float32) -> np.ndarray:
    """u8 pixels mapped to [0, 1] by /255 in float32, then cast to dtype."""
    return np.divide(pixels, np.float32(255.0), dtype=np.float32).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# manifest I/O

_MANIFEST_HEADER = ["clip_id", "path"] + list(TRAITS) + ["split"]


def save_manifest(manifest: Manifest, path: str) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_MANIFEST_HEADER)
    for row in manifest.rows:
        writer.writerow([row.clip_id, row.path] + [f"{v:.6f}" for v in row.traits] + [row.split])
    atomic_write_text(path, out.getvalue())


def load_manifest(path: str) -> Manifest:
    rows = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest") from None
        if header != _MANIFEST_HEADER:
            raise ManifestError(f"{path}: bad header {header!r}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(_MANIFEST_HEADER):
                raise ManifestError(f"{path}:{lineno}: expected {len(_MANIFEST_HEADER)} fields")
            clip_id, clip_path = record[0], record[1]
            if clip_id in seen:
                raise ManifestError(f"{path}:{lineno}: duplicate clip_id {clip_id!r}")
            seen.add(clip_id)
            try:
                traits = np.array([float(v) for v in record[2:7]], dtype=np.float64)
            except ValueError:
                raise ManifestError(f"{path}:{lineno}: unparseable trait value") from None
            # a NaN compares False, so this rejects it along with inf
            if not np.all((traits >= 0.0) & (traits <= 1.0)):
                raise ManifestError(f"{path}:{lineno}: trait is not a finite value in [0, 1]")
            split = record[7]
            if split not in SPLITS:
                raise ManifestError(f"{path}:{lineno}: unknown split {split!r}")
            rows.append(ManifestRow(clip_id=clip_id, path=clip_path, traits=traits, split=split))
    return Manifest(rows=rows, directory=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# training augmentations
#
# Draw order is pinned (audio start; then frame index, crop row, crop col,
# flip) so a fixed generator state fixes the whole sample stream. A crop
# reads from a Clip in memory or from a ClipFile on disk, with the same draws
# and bitwise-equal results.

def crop_audio(clip: Clip | ClipFile, rng: np.random.Generator, crop: int) -> np.ndarray:
    """Contiguous random temporal window; short audio is zero-padded at the end."""
    S = clip.sample_count
    if S < crop:
        window = clip.audio_window(0, S)
        out = np.zeros((1, crop), dtype=window.dtype)
        out[:, :S] = window
        return out
    start = int(rng.integers(0, S - crop + 1))
    return clip.audio_window(start, start + crop)


def crop_frame(clip: Clip | ClipFile, rng: np.random.Generator, crop: int) -> np.ndarray:
    """Random square crop of a random frame, mirrored left/right half the time."""
    T, _, H, W = clip.frame_shape
    if H < crop or W < crop:
        raise ValueError(f"frame {H}x{W} smaller than crop {crop}")
    t = int(rng.integers(0, T))
    top = int(rng.integers(0, H - crop + 1))
    left = int(rng.integers(0, W - crop + 1))
    flip = bool(rng.random() < 0.5)
    out = clip.frame_rows(t, top, top + crop)[:, :, left : left + crop]
    if flip:
        out = out[:, :, ::-1]
    return unit_frames(out)  # a fresh C-ordered array, also for a mirrored view


# ---------------------------------------------------------------------------
# synthetic dataset
#
# Audio is a three-component sine mixture whose fundamental is the dominant
# frequency; frames are oriented color gradients with a small temporal
# brightness wobble. Labels are smooth functions of the dominant frequency,
# the realized mean R/G/B and the gradient orientation, so every trait is
# recoverable from the media, and all sit inside [0.05, 0.95].

_FREQ_LO = 400.0
_FREQ_HI = 3000.0
_BASE_LO = 0.2
_BASE_HI = 0.8
# kept small so random crops/frames barely perturb the label-bearing means
_GRADIENT_AMPLITUDE = 0.08
_WOBBLE_AMPLITUDE = 0.005


def _synth_labels(freq, means, theta):
    u_f = (freq - _FREQ_LO) / (_FREQ_HI - _FREQ_LO)
    m = np.clip((np.asarray(means) - _BASE_LO) / (_BASE_HI - _BASE_LO), 0.0, 1.0)
    u_theta = 0.5 * (1.0 + math.sin(theta))  # crop_frame's mirror maps theta to pi - theta
    gray = float(m.mean())
    raw = np.array(
        [u_f, m[0], m[1], m[2], 0.55 * gray + 0.45 * u_theta],
        dtype=np.float64,
    )
    return np.round(0.05 + 0.9 * raw, 6)


def _synth_counts(seconds: float, height: int, width: int) -> tuple:
    """(S, T), the sample and frame counts of a synthetic clip, after every check of its size.

    A size is rejected if it gives no sample, no frame or an empty frame, or
    if the clip container's header cannot hold it.
    """
    if not math.isfinite(seconds * SAMPLE_RATE):
        raise ValueError(f"seconds must be finite at {SAMPLE_RATE} samples a second, got {seconds}")
    S, T = int(round(seconds * SAMPLE_RATE)), int(round(seconds * FPS))
    if S < 1 or T < 1:
        raise ValueError(
            f"seconds must be long enough for one frame at {FPS} fps and one sample at {SAMPLE_RATE} Hz, got {seconds}"
        )
    if S >= COUNT_LIMIT or T >= COUNT_LIMIT:
        raise ValueError(f"seconds must be short enough for fewer than {COUNT_LIMIT} samples and frames, got {seconds}")
    for name, extent in (("height", height), ("width", width)):
        if not 1 <= extent < EXTENT_LIMIT:
            raise ValueError(f"{name} must be >= 1 and < {EXTENT_LIMIT}, got {extent}")
    return S, T


# synth_clip forms its frames in blocks of whole frames: as many as have at
# most this many bytes of float64 pixels, and at least one. On a 2-core
# x86-64 VM a 3 s 64x64 clip (ten frames a block) took 3.10 ms against
# 3.63 ms one frame at a time (medians of 200 alternating calls; blocks won
# 198). A 256x456 frame holds 2.8 MB, so it runs alone.
_SYNTH_BLOCK_BYTES = 1 << 20


def synth_clip(rng: np.random.Generator, seconds: float, height: int, width: int) -> Clip:
    """One synthetic clip; consumes a fixed number of draws from rng.

    The frames are formed one block of frames at a time, straight into the
    clip's u8 frames, so no float64 grid of the whole clip is ever held.
    Each channel's label mean is the exactly rounded mean of the unit_frames
    values of all its pixels: every value is a multiple of 2^-31 in [0, 1],
    so a block's float64 sum of at most 2^22 of them per channel (any block
    of frames up to 2048x2048) is exact, and math.fsum adds the blocks' sums
    exactly.
    """
    S, T = _synth_counts(seconds, height, width)
    freq = float(rng.uniform(_FREQ_LO, _FREQ_HI))
    phase2 = float(rng.uniform(0.0, 2.0 * math.pi))
    phase3 = float(rng.uniform(0.0, 2.0 * math.pi))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    base = rng.uniform(_BASE_LO, _BASE_HI, size=FRAME_PLANES)
    wobble_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    t = np.arange(S, dtype=np.float64) / SAMPLE_RATE
    wave = (
        0.55 * np.sin(2.0 * math.pi * freq * t)
        + 0.30 * np.sin(2.0 * math.pi * 1.5 * freq * t + phase2)
        + 0.10 * np.sin(2.0 * math.pi * 2.3 * freq * t + phase3)
    )
    audio = wave.astype(np.float32).reshape(1, S)

    gy = (np.arange(height, dtype=np.float64) + 0.5) / height - 0.5
    gx = (np.arange(width, dtype=np.float64) + 0.5) / width - 0.5
    proj = math.cos(theta) * gx[None, :] + math.sin(theta) * gy[:, None]
    still = base[:, None, None] + _GRADIENT_AMPLITUDE * proj  # (3, H, W), every frame before its wobble
    ts = np.arange(T, dtype=np.float64)
    wobble = _WOBBLE_AMPLITUDE * np.sin(2.0 * math.pi * ts / T + wobble_phase)
    frames = np.empty((T, FRAME_PLANES, height, width), np.uint8)
    step = max(1, _SYNTH_BLOCK_BYTES // still.nbytes)
    pix = np.empty((min(step, T),) + still.shape)
    sums = []
    for lo in range(0, T, step):
        block = pix[: min(step, T - lo)]
        np.add(still, wobble[lo : lo + step, None, None, None], out=block)
        block *= 255.0
        np.round(block, out=block)
        frames[lo : lo + step] = block
        sums.append(unit_frames(frames[lo : lo + step]).sum(axis=(0, 2, 3), dtype=np.float64))
    means = [math.fsum(part[c] for part in sums) / (T * height * width) for c in range(FRAME_PLANES)]
    label = _synth_labels(freq, means, theta)
    return Clip(audio=audio, frames=frames, label=label)


def synth_dataset(
    n: int,
    seed: int,
    out_dir: str,
    val_count: int = 0,
    test_count: int = 0,
    seconds: float = 2.0,
    height: int = 48,
    width: int = 48,
) -> Manifest:
    """Write n clips plus manifest.csv under out_dir; fully seed-determined.

    The first n - val_count - test_count clips are tagged train, then
    validation, then test. Every setting is checked before out_dir is
    created. An out_dir that already holds files is refused with
    FileExistsError before anything is written, so no earlier run's clip is
    left beside the new manifest.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, count in (("val_count", val_count), ("test_count", test_count)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if val_count + test_count > n:
        raise ValueError("val_count + test_count exceeds n")
    _synth_counts(seconds, height, width)
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise FileExistsError(f"{out_dir} is not empty; synth writes into a new or empty directory")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    n_train = n - val_count - test_count
    for idx in range(n):
        clip = synth_clip(rng, seconds=seconds, height=height, width=width)
        clip_id = f"clip{idx:04d}"
        rel = f"{clip_id}.clip"
        save_clip(clip, os.path.join(out_dir, rel))
        split = "train" if idx < n_train else ("validation" if idx < n_train + val_count else "test")
        rows.append(ManifestRow(clip_id=clip_id, path=rel, traits=clip.label, split=split))
    manifest = Manifest(rows=rows, directory=os.path.abspath(out_dir))
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest
