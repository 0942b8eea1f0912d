"""WAV loading, resampling, and recording manifests.

Recordings arrive as RIFF/WAVE files in whatever encoding the hospital
recorder produced. Everything downstream works on mono float64 at a
single canonical rate, so this module owns the conversion plus the
manifest CSV format that ties recordings to patients, sites and labels.

The conversion works in blocks of WAV_BLOCK samples: load_wav seeks from
chunk header to chunk header, decodes the data chunk block by block and,
when asked for another rate, feeds each block to the one polyphase
resampler that resample also runs. A long recording at 44.1 or 48 kHz is
therefore never held whole at its source rate; a load holds its output
and a few blocks. The resampler is scipy.signal.resample_poly's filter
computed in numpy, as tiles of BLAS products: its output does not
depend on where the blocks end, bit for bit, and agrees with
resample_poly to a few ulp.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import astuple, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class WavFormatError(ValueError):
    """Raised when a file is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(ValueError):
    """Raised when a WAV file uses an encoding this reader does not handle."""


SITES = frozenset({"ESUTH", "LASUTH", "SCDM", "MUHC", "RSUTH", "OTHER"})
PERIODS = frozenset({"birth", "discharge"})
LABELS = frozenset({"normal", "mild", "moderate", "severe", "unlabeled"})


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


MANIFEST_COLUMNS = [f.name for f in fields(ManifestEntry)]


# The lowest and highest rates read or resampled; every common recorder
# rate from 8 to 192 kHz lies between them. The resampler's filter has
# 20 * max(up, down) + 1 taps, so at most about 61 MB here, but its banded
# product tables grow further: co-prime rates such as 44101 or 383999
# into 384000 peak at about 760 MB and take 2-3 s to set up. Under the
# floor, rates of a few Hz would ask for gigabytes of tables.
MIN_SAMPLE_RATE = 1000
MAX_SAMPLE_RATE = 384_000

# A fmt chunk with this tag is 40 bytes long and gives the encoding as
# the GUID {0000000X-0000-0010-8000-00AA00389B71} of the plain tag X; its
# bits per sample is the container's, which holds the valid bits
# left-justified, so a sample decodes at the container's depth.
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
_SUBFORMAT_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")  # the GUID's bytes after X, as stored

# Samples decoded per read of a data chunk, and fed to the resampler per
# push: a load holds its output and a few blocks, whatever the length.
WAV_BLOCK = 1 << 16


def load_wav(path: str, rate: int | None = None) -> AudioClip:
    """Read a RIFF/WAVE file into a mono AudioClip at rate (the file's own when None).

    Handles PCM at 8/16/24/32 bits and IEEE float32, under a plain or a
    WAVE_FORMAT_EXTENSIBLE fmt chunk. Multi-channel audio is averaged
    down to mono, and a trailing partial sample or frame is dropped. The
    data chunk is decoded WAV_BLOCK samples at a time; at another rate
    each block goes straight to the resampler, so the recording never
    exists whole at the file's rate, and the samples equal
    resample(load_wav(path), rate). Raises FileNotFoundError,
    WavFormatError or UnsupportedWavError depending on what is wrong with
    the file; float data holding NaN or inf samples, and an extensible
    fmt chunk under 40 bytes or with a cbSize under 22, is a
    WavFormatError, and a positive rate under MIN_SAMPLE_RATE or above
    MAX_SAMPLE_RATE, whatever rate is asked for, or a SubFormat other
    than PCM's and float's an UnsupportedWavError.
    """
    with open(path, "rb") as fh:
        fmt, data_start, data_size = _find_chunks(fh, path)
        audio_format, num_channels, sample_rate, _, _, bits = fmt
        if num_channels < 1:
            raise WavFormatError(f"{path}: fmt chunk declares {num_channels} channels")
        if sample_rate <= 0:
            raise WavFormatError(f"{path}: fmt chunk declares sample rate {sample_rate}")
        if sample_rate < MIN_SAMPLE_RATE:
            raise UnsupportedWavError(f"{path}: sample rate {sample_rate} is below the {MIN_SAMPLE_RATE} Hz this "
                                      "reader resamples")
        if sample_rate > MAX_SAMPLE_RATE:
            raise UnsupportedWavError(f"{path}: sample rate {sample_rate} is above the {MAX_SAMPLE_RATE} Hz this "
                                      "reader resamples")
        if audio_format == 1 and bits not in (8, 16, 24, 32):
            raise UnsupportedWavError(f"{path}: unsupported PCM bit depth {bits}")
        if audio_format == 3 and bits != 32:
            raise UnsupportedWavError(f"{path}: unsupported float bit depth {bits}")
        if audio_format not in (1, 3):
            raise UnsupportedWavError(f"{path}: unsupported audio format tag {audio_format}")

        # Blocks leave no clip-sized temporary to free, which would lift
        # glibc's mmap threshold to a clip's size before the analysis runs.
        n = data_size // (num_channels * bits // 8)
        fh.seek(data_start)
        blocks = _decode_blocks(fh, path, data_size, audio_format, num_channels, bits)
        if rate is None or rate == sample_rate:
            out = np.empty(n)
            pos = 0
            for x in blocks:
                out[pos : pos + len(x)] = x
                pos += len(x)
            return AudioClip(out, sample_rate)
        resampler = _Resampler(n, sample_rate, rate)
        for x in blocks:
            resampler.push(x)
        return AudioClip(resampler.out, rate)


def _find_chunks(fh, path: str) -> tuple[tuple, int, int]:
    """The fmt chunk's fields and the data chunk's offset and size.

    Reads the 8-byte chunk headers and the fmt fields only, seeking over
    every body. A later fmt or data chunk replaces an earlier one, and
    the RIFF size field is not trusted: the file's length ends the scan.
    """
    head = fh.read(12)
    if len(head) < 12:
        raise WavFormatError(f"{path}: file too short for a RIFF header")
    if head[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: bad chunk id {head[0:4]!r}, expected b'RIFF'")
    if head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: bad RIFF form type {head[8:12]!r}, expected b'WAVE'")

    size = os.fstat(fh.fileno()).st_size
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        body_size = min(chunk_size, size - pos - 8)
        if chunk_id == b"fmt ":
            if body_size < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({body_size} bytes)")
            fmt = struct.unpack("<HHIIHH", fh.read(16))
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                fmt = (_subformat_tag(fh, path, body_size), *fmt[1:])
        elif chunk_id == b"data":
            if body_size < chunk_size:
                raise WavFormatError(f"{path}: data chunk truncated")
            data = (pos + 8, chunk_size)
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    return (fmt, *data)


def _subformat_tag(fh, path: str, body_size: int) -> int:
    """The plain format tag, 1 or 3, of the SubFormat of an extensible fmt chunk whose first 16 bytes are read."""
    if body_size < 40:
        raise WavFormatError(f"{path}: extensible fmt chunk truncated ({body_size} of 40 bytes)")
    cb_size, _, _, guid = struct.unpack("<HHI16s", fh.read(24))
    if cb_size < 22:
        raise WavFormatError(f"{path}: extensible fmt chunk declares cbSize {cb_size} (under 22)")
    tag = int.from_bytes(guid[:4], "little")
    if guid[4:] != _SUBFORMAT_TAIL or tag not in (1, 3):
        parts = (*struct.unpack("<IHH", guid[:8]), guid[8:10].hex().upper(), guid[10:].hex().upper())
        raise UnsupportedWavError(f"{path}: unsupported extensible SubFormat " + "{%08X-%04X-%04X-%s-%s}" % parts)
    return tag


def _decode_blocks(fh, path: str, size: int, audio_format: int, num_channels: int, bits: int):
    """Yield the next size bytes of fh as mono float64 blocks of whole frames.

    Non-finite float samples are counted in every block, a trailing
    partial frame's included, and raise after the last one, so the
    message gives the file's count.
    """
    width = bits // 8
    step = max(1, WAV_BLOCK // num_channels) * num_channels * width
    bad = 0
    for start in range(0, size, step):
        raw = fh.read(min(step, size - start))
        x = _decode(raw[: len(raw) - len(raw) % width], audio_format, bits)
        if audio_format == 3:
            bad += x.size - int(np.count_nonzero(np.isfinite(x)))
        if num_channels > 1:
            x = x[: len(x) - len(x) % num_channels].reshape(-1, num_channels).mean(axis=1)
        yield x
    if bad:
        raise WavFormatError(f"{path}: {bad} non-finite float samples (NaN or inf)")


def _decode(payload: bytes, audio_format: int, bits: int) -> np.ndarray:
    """Float64 samples of little-endian whole samples; integer PCM is scaled to [-1, 1)."""
    if audio_format == 3:
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if bits == 8:
        return (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 24:
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        return np.where(val >= 1 << 23, val - (1 << 24), val).astype(np.float64) / float(1 << 23)
    return np.frombuffer(payload, dtype=f"<i{bits // 8}").astype(np.float64) / float(1 << (bits - 1))


def write_wav(clip: AudioClip, path: str, bit_depth: int = 16) -> None:
    """Write a clip as mono PCM16 or IEEE float32 WAV.

    Raises ValueError, before the file is opened, when a sample is NaN or
    inf: PCM16 would cast it to some sample value with only a warning, and
    load_wav rejects a float file that holds one.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite samples (NaN or inf) to write")
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

    Polyphase filtering with a Kaiser-windowed sinc kernel, so
    frequencies below the smaller Nyquist survive and aliasing components
    are cut. The clip is fed to the resampler WAV_BLOCK samples at a time,
    as load_wav feeds it; the output does not depend on the blocks, bit
    for bit, and agrees with scipy.signal.resample_poly to a few ulp.
    Raises ValueError when either rate is under MIN_SAMPLE_RATE or above
    MAX_SAMPLE_RATE.
    """
    if target_rate == clip.sample_rate:
        return clip
    resampler = _Resampler(len(clip.samples), clip.sample_rate, target_rate)
    for start in range(0, len(clip.samples), WAV_BLOCK):
        resampler.push(clip.samples[start : start + WAV_BLOCK])
    return AudioClip(resampler.out, target_rate)


# The most multiply-adds in one matrix product of the resampler, which
# sets a tile's rows. OpenBLAS runs a product this small on the calling
# thread; a larger one it may split among threads, and the split changes
# results in the last bits with the thread count.
RESAMPLE_TILE = 1 << 18
# One product serves the phases whose newest input samples fall in one
# window of this many samples; each column holds one phase's taps and up
# to this many zeros.
_PHASE_SPREAD = 32


class _Resampler:
    """scipy.signal.resample_poly's filter, padding and trim, fed by blocks.

    Output k of upfirdn reads input (k * down) // up and the samples
    before it, weighted by the taps of phase (k * down) % up. The outputs
    are computed in tiles: a tile is rows of stride // down * up
    consecutive outputs, and each row reads input stride further on than
    the row before. Each run of phases whose newest input samples fall in
    one _PHASE_SPREAD window is one matrix product: a strided view of the
    input, one row per tile row, times the phases' banded taps. Tiles
    start on multiples of their size in the whole output, and a tile is
    computed once its input is in, or at the end with zeros after the
    input; so every output is the same product on the same data wherever
    the blocks end. Only the input the next tile reads is carried.
    """

    def __init__(self, n_in: int, rate_in: int, rate_out: int):
        # before any filter is built: its taps and tables grow with the rates' ratio
        for side, rate in (("source", rate_in), ("target", rate_out)):
            if rate < MIN_SAMPLE_RATE:
                raise ValueError(f"{side} rate {rate} is below the {MIN_SAMPLE_RATE} Hz the resampler takes")
            if rate > MAX_SAMPLE_RATE:
                raise ValueError(f"{side} rate {rate} is above the {MAX_SAMPLE_RATE} Hz the resampler takes")
        g = math.gcd(rate_out, rate_in)
        up, down = rate_out // g, rate_in // g
        half_len = 10 * max(up, down)
        pre_pad = down - half_len % down
        # firwin's low-pass at 1 / max(up, down) of Nyquist, scaled to a DC gain of up
        cutoff = 1.0 / max(up, down)
        h = cutoff * np.sinc(cutoff * np.arange(-half_len, half_len + 1.0)) * np.kaiser(2 * half_len + 1, 5.0)
        h = np.concatenate((np.zeros(pre_pad), h / np.sum(h) * up))
        self.skip = (half_len + pre_pad) // down  # outputs the trim drops in front
        # resample_poly pads zeros after the taps until upfirdn's output, of
        # length ((n_in - 1) * up + len(h) - 1) // down + 1, reaches the
        # trimmed end; with 2 * half_len + 1 >= 20 * up + 1 taps it always
        # does, so that padding is empty
        self.out = np.empty(-(-n_in * up // down))
        self.reach = reach = (len(h) - 1) // up  # samples an output reads before its newest
        # a row holds enough phases that its input steps past every product's view
        self.stride = -(-(reach + _PHASE_SPREAD) // down) * down
        col = np.arange(self.stride // down * up)
        base = col * down // up  # the newest input sample of each output in a row
        self.products = []
        for run in np.split(col, np.flatnonzero(np.diff(base // _PHASE_SPREAD)) + 1):
            first = base[run[0]] - reach
            lag = base[run] - first - np.arange(base[run[-1]] - first + 1)[:, None]
            tap = run * down % up + lag * up
            ok = (lag >= 0) & (tap < len(h))
            self.products.append((run[0], run[-1] + 1, first, np.where(ok, h[np.where(ok, tap, 0)], 0.0)))
        self.rows = max(1, RESAMPLE_TILE // max(taps.size for *_, taps in self.products))
        self.span = self.rows * self.stride  # input per tile
        self.size = self.rows * len(col)  # outputs per tile
        self.n_in = n_in
        self.fed = 0
        self.tile = 0  # the next tile to compute
        self.start = -reach  # input index of blocks[0][0]; zeros before the first sample
        self.blocks = [np.zeros(reach)]

    def push(self, x: np.ndarray) -> None:
        if not len(x):
            return
        self.fed += len(x)
        self.blocks.append(x)
        rows, stride, span, size = self.rows, self.stride, self.span, self.size
        if self.fed < self.n_in and self.fed < (self.tile + 1) * span:
            return  # the next tile's input is not all in
        end = self.skip + len(self.out)
        tiles = -(-end // size)
        if self.fed == self.n_in:
            self.blocks.append(np.zeros(tiles * span - self.fed))
        buf = np.concatenate(self.blocks)
        while self.tile < tiles and (self.tile + 1) * span - self.start <= len(buf):
            y = np.empty((rows, size // rows))
            # a non-finite sample times a zero tap is NaN, as upfirdn's outputs
            # would be; load_wav rejects such files after the last block
            with np.errstate(invalid="ignore"):
                for lo, hi, first, taps in self.products:
                    at = self.tile * span + first - self.start
                    view = sliding_window_view(buf[at : at + (rows - 1) * stride + len(taps)], len(taps))
                    y[:, lo:hi] = view[::stride] @ taps
            k0 = self.tile * size
            lo, hi = max(k0, self.skip), min(k0 + size, end)
            if hi > lo:
                self.out[lo - self.skip : hi - self.skip] = y.ravel()[lo - k0 : hi - k0]
            self.tile += 1
        carry = self.tile * span - self.reach
        self.blocks = [buf[carry - self.start :]]
        self.start = carry


def read_csv_rows(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) of each row of a UTF-8 CSV table whose header is exactly header.

    line is csv's count, which a quoted newline advances. ValueError names
    the file of a wrong header or of bytes that are not UTF-8 (the text
    layer decodes ahead of csv, so a line would be wrong), and the file
    and line of a row that csv rejects (a field too long, say) or whose
    width is not the header's; a blank line is a row of 0 fields. A
    leading UTF-8 byte order mark, which spreadsheets write, is read past.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                raise ValueError(f"{path}: header must be {','.join(header)}")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{reader.line_num}: row has {len(row)} fields where the header has {len(header)}"
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_csv_rows(path: str, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """Write header and rows as a UTF-8 CSV table, each line ending in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a recording manifest: a read_csv_rows table with header MANIFEST_COLUMNS.

    Unknown sites collapse to OTHER; an unknown label or period is an
    error that names the offending line of the file.
    """
    entries = []
    for line, (rec_path, patient_id, site, period, label) in read_csv_rows(path, MANIFEST_COLUMNS):
        check_label_and_period(label, period, path, line)
        entries.append(ManifestEntry(rec_path, patient_id, site if site in SITES else "OTHER", period, label))
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
    write_csv_rows(path, MANIFEST_COLUMNS, map(astuple, entries))


def relative_to_manifest(manifest_path: str, entry_path: str) -> str:
    """Resolve a manifest-relative recording path against the manifest location."""
    if os.path.isabs(entry_path):
        return entry_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), entry_path)
