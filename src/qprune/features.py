"""Audio front end: log-mel extraction and quaternion feature encoding.

A clip becomes a log-mel spectrogram (Hann window 1024, hop 320, 64 mel
bands spanning 50 Hz to 14 kHz at 32 kHz sample rate), and the quaternion
encoding stacks the mel energy with its first three discrete temporal
derivatives as the four planes of a single quaternion channel:

    Q(f, t) = psi + (d psi/dt) i + (d^2 psi/dt^2) j + (d^3 psi/dt^3) k

Derivatives use central differences on the interior and one-sided stencils
at the clip edges.  The waveform is reflect-padded by (window - hop)
samples so a 10 s / 32 kHz clip yields exactly 1000 frames.
"""

from __future__ import annotations

import os
import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._files import _read_text, _write
from .exceptions import ConfigError, FormatError, ShapeError, TruncationError
from .quaternion import QTensor

SAMPLE_RATE = 32000
WINDOW = 1024
HOP = 320
N_MELS = 64
FMIN = 50.0
FMAX = 14000.0
LOG_FLOOR = 1e-10

# float64 values per synth_dataset chunk array: 128 KB, which stays in cache
# and off the resident-set peak
_CHUNK_VALUES = 16384

FEATURE_MAGIC = b"QFEA"
FEATURE_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class MelSpectrogram:
    """Log mel-band energies, frames x bins, plus extraction metadata."""

    values: np.ndarray  # (frames, bins)
    sample_rate: int = SAMPLE_RATE
    window: int = WINDOW
    hop: int = HOP

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or 0 in self.values.shape:
            raise ShapeError(f"mel values must be (frames, bins), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("mel values must be finite")

    @property
    def frames(self):
        return self.values.shape[0]

    @property
    def bins(self):
        return self.values.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(sample_rate=SAMPLE_RATE):
    """N_MELS triangular mel filters from FMIN to FMAX on the rFFT grid of a
    WINDOW-sample frame; rows are filters.

    Also returns the filter center frequencies in Hz.
    """
    mel_points = np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)
    fft_freqs = np.fft.rfftfreq(WINDOW, d=1.0 / sample_rate)
    fb = np.zeros((N_MELS, fft_freqs.size))
    for m in range(N_MELS):
        lo, center, hi = hz_points[m : m + 3]
        rising = (fft_freqs - lo) / (center - lo)
        falling = (hi - fft_freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb, hz_points[1:-1]


def _frame_signal(x, window, hop):
    n_frames = (x.size - window) // hop + 1
    s = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, window), strides=(hop * s, s), writeable=False)


def stft_magnitude(x):
    """Hann-windowed magnitude STFT (WINDOW samples, HOP apart) with reflect
    padding of WINDOW - HOP samples, giving floor(len(x) / HOP) frames."""
    x = np.asarray(x, dtype=np.float64)
    pad = WINDOW - HOP
    left = pad // 2
    if x.size <= left + (pad - left):
        raise ShapeError(f"clip too short for STFT padding ({x.size} samples)")
    xp = np.pad(x, (left, pad - left), mode="reflect")
    frames = _frame_signal(xp, WINDOW, HOP)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
    return np.abs(np.fft.rfft(frames * hann, axis=1))


def wav_to_mel(pcm, sample_rate=SAMPLE_RATE, allow_other_rate=False):
    """Log mel spectrogram of a mono PCM clip.

    ``pcm`` may be float samples or 16-bit integers (scaled to [-1, 1]).
    The sample rate must be 32 kHz unless ``allow_other_rate`` is set
    (resampling is out of scope).
    """
    pcm = np.asarray(pcm)
    if pcm.size == 0:
        raise ShapeError("empty clip")
    if pcm.ndim != 1:
        raise ShapeError(f"expected mono samples, got shape {pcm.shape}")
    if sample_rate != SAMPLE_RATE and not allow_other_rate:
        raise FormatError(
            f"sample rate {sample_rate} != {SAMPLE_RATE}; "
            "pass allow_other_rate=True (--allow-other-rate) to skip this check"
        )
    if np.issubdtype(pcm.dtype, np.integer):
        pcm = pcm.astype(np.float64) / 32768.0
    spec = stft_magnitude(pcm)
    fb, _ = mel_filterbank(sample_rate)
    mel = spec @ fb.T
    values = np.log(np.maximum(mel, LOG_FLOOR))
    return MelSpectrogram(values, sample_rate)


def read_wav(path):
    """Load a mono 16-bit PCM WAV file; returns (samples, sample_rate)."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise FormatError(f"{path}: only mono WAV is supported")
            if fh.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM WAV is supported")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (EOFError, wave.Error) as exc:
        raise FormatError(f"{path}: not a WAV file ({str(exc) or 'it ends early'})") from None
    return np.frombuffer(raw, dtype="<i2"), rate


def write_wav(path, samples, sample_rate=SAMPLE_RATE):
    samples = np.asarray(samples)
    if np.issubdtype(samples.dtype, np.floating):
        samples = np.clip(samples, -1.0, 1.0)
        samples = (samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(samples.astype("<i2").tobytes())


# ---------------------------------------------------------------------------
# quaternion encoding
# ---------------------------------------------------------------------------

def _temporal_derivative(psi, order):
    """Discrete d^k psi / dt^k, k = 1, 2 or 3, along axis -2 of a
    (..., frames, bins) array (unit frame spacing).

    Central stencils on the interior, one-sided differences at the edges.
    All stencils are evaluated as nested first differences, so constant
    inputs annihilate exactly in floating point, and the k-th stencil kills
    polynomials of degree k-1 on the interior.  Each element sees the same
    operations whatever the leading axes, so a batch equals its samples
    bit for bit.
    """
    out = np.empty_like(psi)
    # frames first, as views: the stencils below index axis 0
    psi, d = np.moveaxis(psi, -2, 0), np.moveaxis(out, -2, 0)
    t = psi.shape[0]
    if order == 1:
        d[1:-1] = 0.5 * (psi[2:] - psi[:-2])
        d[0] = psi[1] - psi[0]
        d[-1] = psi[-1] - psi[-2]
    elif order == 2:
        # (psi[t+1] - psi[t]) - (psi[t] - psi[t-1])
        d[1:-1] = (psi[2:] - psi[1:-1]) - (psi[1:-1] - psi[:-2])
        d[0] = (psi[2] - psi[1]) - (psi[1] - psi[0])
        d[-1] = (psi[-1] - psi[-2]) - (psi[-2] - psi[-3])
    else:  # order 3; central: (a - b + c)/2 with a, b, c successive differences
        a = psi[4:] - psi[3:-1]
        b = psi[3:-1] - psi[1:-3]
        c = psi[1:-3] - psi[:-4]
        d[2:-2] = 0.5 * ((a - b) + c)
        for i in (0, 1):  # forward third difference
            d[i] = ((psi[i + 3] - psi[i + 2]) - 2 * (psi[i + 2] - psi[i + 1])
                    + (psi[i + 1] - psi[i]))
        for i in (t - 2, t - 1):  # backward third difference
            d[i] = ((psi[i] - psi[i - 1]) - 2 * (psi[i - 1] - psi[i - 2])
                    + (psi[i - 2] - psi[i - 3]))
    return out


def _encode_planes(psi, out, rows):
    """Write psi (..., frames, bins) and its 1st/2nd/3rd temporal derivatives
    into out[rows, k, 0] for k = 0..3, casting to out's dtype."""
    out[rows, 0, 0] = psi
    for k in (1, 2, 3):
        out[rows, k, 0] = _temporal_derivative(psi, k)


def encode_quaternion_features(mel) -> QTensor:
    """Stack mel energy and its 1st/2nd/3rd temporal derivatives into a
    single-channel QTensor of shape (4, 1, frames, bins)."""
    psi = mel.values if isinstance(mel, MelSpectrogram) else np.asarray(mel)
    if psi.ndim != 2:
        raise ShapeError(f"expected (frames, bins), got {psi.shape}")
    if psi.shape[0] < 7:
        raise ShapeError(
            f"need at least 7 frames for third differences, got {psi.shape[0]}"
        )
    out = np.empty((4, 1) + psi.shape, dtype=psi.dtype)
    _encode_planes(psi, out[None], 0)
    return QTensor(out)


# ---------------------------------------------------------------------------
# feature file format: magic "QFEA", u32 version, u32 dtype code, u64 rank,
# u64 dims, then the row-major little-endian payload.  Rank 2 arrays load as
# MelSpectrogram (with default extraction metadata), rank 4 as quaternion
# features.
# ---------------------------------------------------------------------------

def save_feature_file(path, obj):
    if isinstance(obj, MelSpectrogram):
        arr = obj.values
    elif isinstance(obj, QTensor):
        arr = obj.data
    else:
        arr = np.asarray(obj)
    code = 1 if arr.dtype == np.float64 else 0
    arr = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
    header = struct.pack(f"<4sIIQ{arr.ndim}Q", FEATURE_MAGIC, FEATURE_VERSION,
                         code, arr.ndim, *arr.shape)
    _write(path, [header, arr])


def _read_feature_array(path):
    """Read and check a QFEA file; returns its read-only payload array,
    (frames, bins) mel values or (4, Q, H, W) quaternion features."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a QFEA feature file")
    version, code, rank = struct.unpack_from("<IIQ", raw, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    need = 20 + 8 * rank
    if len(raw) < need:
        raise TruncationError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{rank}Q", raw, 20)
    dtype = _DTYPE_CODES[code]
    count = 1
    for dim in dims:
        count *= dim
    if len(raw) != need + count * dtype.itemsize:
        raise TruncationError(
            f"{path}: payload is {len(raw) - need} bytes, expected "
            f"{count * dtype.itemsize}"
        )
    if not (rank == 2 or rank == 4 and dims[0] == 4):
        raise FormatError(f"{path}: unsupported tensor rank {rank} (dims {dims})")
    arr = np.frombuffer(raw, dtype, count, need).reshape(dims)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: payload has non-finite values")
    return arr


def load_feature_file(path):
    """Load a QFEA file as MelSpectrogram (rank 2) or QTensor (rank 4)."""
    arr = _read_feature_array(path).copy()
    return MelSpectrogram(arr) if arr.ndim == 2 else QTensor(arr)


# ---------------------------------------------------------------------------
# synthetic labeled datasets (desk-scale stand-in for the audio benchmarks)
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Quaternion features (N, 4, Q, H, W) with single- or multi-label y."""

    features: np.ndarray
    labels: np.ndarray  # (N,) ints for single-label, (N, G) binary otherwise
    num_classes: int
    task: str = "single"
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.features.shape[0]


def _class_templates(num_classes, bins, frames, rng):
    """Smooth per-class spectro-temporal templates with distinct bands."""
    centers = (np.arange(num_classes) + 0.5) * bins / num_classes
    width = max(bins / (2.5 * num_classes), 0.8)
    f = np.arange(bins)
    spectral = np.exp(-0.5 * ((f[None, :] - centers[:, None]) / width) ** 2)
    phases = rng.uniform(0, 2 * np.pi, size=num_classes)
    t = np.arange(frames)
    temporal = 1.0 + 0.5 * np.sin(
        2 * np.pi * t[None, :] * (1 + np.arange(num_classes)[:, None])
        / frames + phases[:, None])
    return spectral, temporal


def synth_dataset(num_classes, num_samples, seed=0, frames=32, bins=16,
                  noise=0.05, multilabel=False) -> LabeledDataset:
    """Deterministic synthetic dataset of quaternion-encoded features.

    Classes are separable by construction: each class owns a spectral band
    and a temporal modulation; samples add scaled noise.  Per-class counts
    differ by at most one.
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if num_samples < num_classes:
        raise ConfigError(f"need at least one sample per class, got {num_samples} "
                          f"for {num_classes} classes")
    if frames < 7:
        raise ConfigError(f"frames must be >= 7 for the quaternion encoding, "
                          f"got {frames}")
    if bins < 1:
        raise ConfigError(f"need at least one mel bin, got {bins}")
    rng = np.random.default_rng(seed)
    spectral, temporal = _class_templates(num_classes, bins, frames, rng)
    outers = temporal[:, :, None] * spectral[:, None, :]  # np.outer per class

    feats = np.empty((num_samples, 4, 1, frames, bins), dtype=np.float32)
    if multilabel:
        labels = np.zeros((num_samples, num_classes), dtype=np.int64)
    else:
        labels = np.empty(num_samples, dtype=np.int64)

    # samples are drawn one at a time, in the RNG's order, into a float64
    # chunk that is encoded as a batch straight into feats
    chunk = np.empty((max(1, _CHUNK_VALUES // (frames * bins)), frames, bins))
    order = rng.permutation(num_samples)
    for start in range(0, num_samples, len(chunk)):
        rows = order[start:start + len(chunk)]
        psi = chunk[:len(rows)]
        for i, n in enumerate(rows):
            g = (start + i) % num_classes  # balanced assignment
            template = outers[g]
            if multilabel:
                labels[n, g] = 1
                if rng.integers(0, 2):  # an extra class
                    g2 = int(rng.integers(num_classes))
                    template = template + outers[g2]
                    labels[n, g2] = 1
            else:
                labels[n] = g
            amp = rng.uniform(0.8, 1.2)
            psi[i] = amp * template + noise * rng.normal(size=(frames, bins))
        _encode_planes(psi, feats, rows)

    return LabeledDataset(feats, labels, num_classes,
                          task="multi" if multilabel else "single",
                          meta={"seed": seed, "frames": frames, "bins": bins})


def split_dataset(ds: LabeledDataset, val_fraction=0.2, seed=0):
    """Deterministic train/validation split preserving the task type."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    n = len(ds)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ConfigError(f"val_fraction {val_fraction} leaves no training "
                          f"samples out of {n}")
    idx = np.random.default_rng(seed).permutation(n)
    val, train = idx[:n_val], idx[n_val:]
    mk = lambda sel: LabeledDataset(ds.features[sel], ds.labels[sel],
                                    ds.num_classes, ds.task, dict(ds.meta))
    return mk(train), mk(val)


# ---------------------------------------------------------------------------
# generic directory + manifest loader
# ---------------------------------------------------------------------------

SAMPLE_FILE = "sample_{:05d}.qfea"  # the n-th sample's QFEA file


def save_manifest(out_dir, labels, num_classes, task):
    """Write manifest.csv, the label of each SAMPLE_FILE n in order, and
    dataset.txt; a multi-label row is a 0/1 vector, written as 'g;h'."""
    out = Path(out_dir)
    lines = ["file,label"]
    for n, label in enumerate(labels):
        if task == "multi":
            label = ";".join(str(g) for g in np.flatnonzero(label))
        else:
            label = int(label)
        lines.append(f"{SAMPLE_FILE.format(n)},{label}")
    _write(out / "manifest.csv", "\n".join(lines) + "\n")
    _write(out / "dataset.txt", f"num_classes={num_classes}\ntask={task}\n")


def save_dataset(ds: LabeledDataset, out_dir):
    """Write one QFEA file per sample plus a manifest.csv of labels."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in range(len(ds)):
        save_feature_file(out / SAMPLE_FILE.format(n), ds.features[n])
    save_manifest(out, ds.labels, ds.num_classes, ds.task)


def load_dataset(data_dir) -> LabeledDataset:
    """Load a manifest-described directory of QFEA feature files."""
    root = Path(data_dir)
    manifest = root / "manifest.csv"
    if not manifest.is_file():
        raise FormatError(f"{data_dir}: missing manifest.csv")
    meta = {}
    meta_file = root / "dataset.txt"
    if meta_file.is_file():
        for line in _read_text(meta_file, "dataset description").splitlines():
            if "=" in line:
                k, v = line.split("=", 1)
                meta[k.strip()] = v.strip()
    lines = _read_text(manifest, "manifest").splitlines()
    if not lines or lines[0].strip() != "file,label":
        raise FormatError(f"{manifest}: expected 'file,label' header")
    entries = []  # (manifest line number, file name, label text)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "," not in line:
            raise FormatError(f"{manifest}:{lineno}: expected 'file,label'")
        fname, label = line.split(",", 1)
        entries.append((lineno, fname.strip(), label.strip()))
    if not entries:
        raise FormatError(f"{manifest}: no samples listed")

    task = meta.get("task", "multi" if ";" in entries[0][2] else "single")
    if task not in ("single", "multi"):
        raise FormatError(f"{meta_file}: task {task!r} is not single or multi")
    class_ids = []
    for lineno, _, label in entries:
        parts = [g for g in label.split(";") if g] if task == "multi" else [label]
        try:
            class_ids.append([int(g) for g in parts])
        except ValueError:
            raise FormatError(f"{manifest}:{lineno}: label {label!r} is not "
                              f"an integer class index") from None
    try:
        num_classes = int(meta.get("num_classes",
                                   1 + max(max(ids, default=0) for ids in class_ids)))
    except ValueError:
        raise FormatError(f"{meta_file}: num_classes {meta['num_classes']!r} "
                          f"is not an integer") from None
    for (lineno, _, label), ids in zip(entries, class_ids):
        if not all(0 <= g < num_classes for g in ids):
            raise FormatError(f"{manifest}:{lineno}: label {label!r} outside "
                              f"[0, {num_classes})")

    feats = None
    for n, (_, fname, _) in enumerate(entries):
        path = os.path.join(root, fname)
        arr = _read_feature_array(path)
        if arr.ndim == 2:
            try:
                arr = encode_quaternion_features(arr).data
            except ShapeError as exc:
                raise FormatError(f"{path}: {exc}") from None
        if feats is None:
            feats = np.empty((len(entries),) + arr.shape, dtype=np.float32)
            first = path
        elif arr.shape != feats.shape[1:]:
            raise FormatError(f"{path}: features of shape {arr.shape}, but "
                              f"{first} has {feats.shape[1:]}")
        feats[n] = arr

    if task == "multi":
        labels = np.zeros((len(entries), num_classes), dtype=np.int64)
        for n, ids in enumerate(class_ids):
            labels[n, ids] = 1
    else:
        labels = np.array([ids[0] for ids in class_ids], dtype=np.int64)
    return LabeledDataset(feats, labels, num_classes, task, meta)
