import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
import uuid

import numpy as np
import pytest
from scipy import signal

from cryscreen import audio_io
from cryscreen.audio_io import (
    MAX_SAMPLE_RATE,
    AudioClip,
    ManifestEntry,
    UnsupportedWavError,
    WavFormatError,
    load_manifest,
    load_wav,
    relative_to_manifest,
    resample,
    save_manifest,
    write_wav,
)


def whole_file_load_wav(path, rate=None):
    """Reference reader: the whole file in memory, decoded in one piece.

    This is load_wav as it was before it decoded by blocks, with one
    change made on purpose since: a trailing partial sample of a PCM16,
    PCM32 or float32 data chunk is dropped, as the 24-bit and
    multichannel branches always did (numpy used to raise "buffer size
    must be a multiple of element size"). A WAVE_FORMAT_EXTENSIBLE fmt
    chunk (tag 0xFFFE) is read since too: its SubFormat GUID
    {0000000X-0000-0010-8000-00AA00389B71} stands for tag X, and its
    samples decode at the container's depth. A rate other than the file's
    is reached by audio_io.resample on the whole clip, whose output does
    not depend on where its blocks end.
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
    view = memoryview(raw)
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == 0xFFFE:
                if len(body) < 40:
                    raise WavFormatError(f"{path}: extensible fmt chunk truncated ({len(body)} of 40 bytes)")
                (cb_size,) = struct.unpack_from("<H", body, 16)
                if cb_size < 22:
                    raise WavFormatError(f"{path}: extensible fmt chunk declares cbSize {cb_size} (under 22)")
                guid = uuid.UUID(bytes_le=bytes(body[24:40]))
                if str(guid) not in ("00000001-0000-0010-8000-00aa00389b71", "00000003-0000-0010-8000-00aa00389b71"):
                    raise UnsupportedWavError(f"{path}: unsupported extensible SubFormat {{{str(guid).upper()}}}")
                fmt = (guid.fields[0], *fmt[1:])
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"{path}: data chunk truncated")
            payload = body
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
    if sample_rate > MAX_SAMPLE_RATE:
        raise UnsupportedWavError(f"{path}: sample rate {sample_rate} is above the {MAX_SAMPLE_RATE} Hz this reader "
                                  "resamples")

    if audio_format == 1:
        if bits == 8:
            x = (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        elif bits == 16:
            x = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            b = np.frombuffer(payload, dtype=np.uint8)
            b = b[: len(b) - len(b) % 3].reshape(-1, 3).astype(np.int64)
            val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            val = np.where(val >= 1 << 23, val - (1 << 24), val)
            x = val.astype(np.float64) / float(1 << 23)
        elif bits == 32:
            x = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<i4").astype(np.float64) / float(1 << 31)
        else:
            raise UnsupportedWavError(f"{path}: unsupported PCM bit depth {bits}")
    elif audio_format == 3:
        if bits != 32:
            raise UnsupportedWavError(f"{path}: unsupported float bit depth {bits}")
        x = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            bad = int(np.count_nonzero(~np.isfinite(x)))
            raise WavFormatError(f"{path}: {bad} non-finite float samples (NaN or inf)")
    else:
        raise UnsupportedWavError(f"{path}: unsupported audio format tag {audio_format}")

    if num_channels > 1:
        x = x[: len(x) - len(x) % num_channels]
        x = x.reshape(-1, num_channels).mean(axis=1)
    return resample(AudioClip(x, sample_rate), rate or sample_rate)


def sine(freq, dur_s=0.5, sr=16000, amp=0.5):
    t = np.arange(int(dur_s * sr)) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr)


def test_pcm16_round_trip(tmp_path):
    clip = sine(440.0)
    path = str(tmp_path / "a.wav")
    write_wav(clip, path)
    back = load_wav(path)
    assert back.sample_rate == 16000
    assert len(back.samples) == len(clip.samples)
    # PCM16 quantizes to 1/32767 steps
    assert np.max(np.abs(back.samples - clip.samples)) < 1.0 / 32000.0


def test_float32_round_trip(tmp_path):
    clip = sine(440.0)
    path = str(tmp_path / "a.wav")
    write_wav(clip, path, bit_depth=32)
    back = load_wav(path)
    assert np.allclose(back.samples, clip.samples, atol=1e-7)


def test_float_non_finite_samples_raise(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        path = tmp_path / "bad.wav"
        write_wav(sine(440.0), str(path), bit_depth=32)
        # write_wav refuses the sample, so it goes in by hand: sample 100 after the 44-byte header
        raw = bytearray(path.read_bytes())
        raw[44 + 4 * 100 : 48 + 4 * 100] = np.array(bad, dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(WavFormatError, match="1 non-finite float samples"):
            load_wav(str(path))


@pytest.mark.parametrize("bit_depth", [16, 32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_write_rejects_non_finite_samples_before_opening_the_file(tmp_path, bit_depth, bad):
    clip = sine(440.0)
    clip.samples[[3, 100]] = bad
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match=re.escape(f"{path}: 2 non-finite samples")):
        write_wav(clip, str(path), bit_depth=bit_depth)
    assert not path.exists()


def test_write_rejects_other_depths(tmp_path):
    with pytest.raises(ValueError, match="bit depth"):
        write_wav(sine(440.0), str(tmp_path / "a.wav"), bit_depth=24)


def _wav_bytes(fmt_tag, channels, sr, bits, payload):
    block = channels * bits // 8
    # the byte rate is read by no one; a header may declare a rate whose byte rate overflows it
    fmt = struct.pack("<IHHIIHH", 16, fmt_tag, channels, sr, sr * block & 0xFFFFFFFF, block, bits)
    data = struct.pack("<I", len(payload)) + payload
    body = b"WAVE" + b"fmt " + fmt + b"data" + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_stereo_averages_to_mono(tmp_path):
    left = (np.full(100, 8000)).astype("<i2")
    right = (np.full(100, -4000)).astype("<i2")
    inter = np.empty(200, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    path = tmp_path / "st.wav"
    path.write_bytes(_wav_bytes(1, 2, 16000, 16, inter.tobytes()))
    clip = load_wav(str(path))
    assert len(clip.samples) == 100
    assert np.allclose(clip.samples, (8000 - 4000) / 2 / 32768.0)


def test_pcm24_decodes(tmp_path):
    # one full-scale positive and one full-scale negative 24-bit sample
    payload = b"\xff\xff\x7f" + b"\x00\x00\x80"
    path = tmp_path / "p24.wav"
    path.write_bytes(_wav_bytes(1, 1, 16000, 24, payload))
    clip = load_wav(str(path))
    assert np.allclose(clip.samples, [(2**23 - 1) / 2**23, -1.0])


@pytest.mark.parametrize("fmt_tag, bits", [(1, 16), (1, 24), (1, 32), (3, 32)])
def test_ragged_data_chunk_drops_the_partial_sample(tmp_path, fmt_tag, bits):
    # a data chunk one byte short of a whole sample more (a 3-byte PCM16
    # chunk, say) keeps its whole samples, as the 24-bit branch always did
    width = bits // 8
    whole = np.array([0.25, -0.5]).astype("<f4").tobytes() if fmt_tag == 3 else bytes(range(1, 2 * width + 1))
    path = tmp_path / "ragged.wav"
    path.write_bytes(_wav_bytes(fmt_tag, 1, 16000, bits, whole + b"\x7f" * (width - 1)))
    clip = load_wav(str(path))
    path.write_bytes(_wav_bytes(fmt_tag, 1, 16000, bits, whole))
    assert len(clip.samples) == 2
    assert np.array_equal(clip.samples, load_wav(str(path)).samples)


def test_not_riff_raises(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(WavFormatError, match="RIFF"):
        load_wav(str(path))


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF\x04\x00")
    with pytest.raises(WavFormatError, match="too short"):
        load_wav(str(path))


def test_missing_data_chunk_raises(tmp_path):
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + fmt
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(WavFormatError, match="missing data chunk"):
        load_wav(str(path))


def test_compressed_format_raises(tmp_path):
    # format tag 7 is mu-law; the loader names the tag it cannot handle
    path = tmp_path / "ulaw.wav"
    path.write_bytes(_wav_bytes(7, 1, 8000, 8, b"\x00" * 16))
    with pytest.raises(UnsupportedWavError, match="format tag 7"):
        load_wav(str(path))


def _extensible_wav_bytes(fmt_tag, channels, sr, bits, payload, valid_bits=None, cb_size=22, guid=None, fmt_size=40):
    """_wav_bytes' file under a WAVE_FORMAT_EXTENSIBLE fmt chunk whose SubFormat is fmt_tag's GUID, or guid."""
    block = channels * bits // 8
    guid = guid or uuid.UUID(f"{fmt_tag:08x}-0000-0010-8000-00aa00389b71").bytes_le
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, sr, sr * block, block, bits, cb_size, valid_bits or bits, 3)
    fmt = (fmt + guid)[:fmt_size]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + bytes(len(fmt) & 1)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("fmt_tag, bits", [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32)])
@pytest.mark.parametrize("channels", [1, 2])
def test_an_extensible_twin_decodes_as_its_plain_file(tmp_path, fmt_tag, bits, channels):
    # the valid bits are left-justified in the container, so a sample
    # decodes at the container's depth whatever their count; a cbSize
    # above 22 is read past
    rng = np.random.default_rng(bits + channels)
    n = 5000 * channels
    if fmt_tag == 3:
        payload = rng.uniform(-1, 1, n).astype("<f4").tobytes()
    else:
        payload = rng.integers(0, 256, n * bits // 8, dtype=np.uint8).tobytes()
    plain = tmp_path / "plain.wav"
    plain.write_bytes(_wav_bytes(fmt_tag, channels, 44100, bits, payload))
    for valid_bits, cb_size in ((bits, 22), (bits - 4, 30)):
        twin = tmp_path / f"twin{valid_bits}.wav"
        twin.write_bytes(_extensible_wav_bytes(fmt_tag, channels, 44100, bits, payload, valid_bits, cb_size))
        for rate in (None, 16000):
            want, got = load_wav(str(plain), rate), load_wav(str(twin), rate)
            assert got.sample_rate == want.sample_rate and got.samples.dtype == np.float64
            assert np.array_equal(got.samples.view(np.int64), want.samples.view(np.int64))


# KSDATAFORMAT_SUBTYPE_AMBISONIC_B_FORMAT_PCM: its first field is 1, the rest is not the plain tags' GUID
B_FORMAT = uuid.UUID("00000001-0721-11d3-8644-c8c1ca000000").bytes_le


@pytest.mark.parametrize("change, error, message", [
    (dict(fmt_size=18), WavFormatError, "extensible fmt chunk truncated (18 of 40 bytes)"),
    (dict(fmt_size=39), WavFormatError, "extensible fmt chunk truncated (39 of 40 bytes)"),
    (dict(cb_size=0), WavFormatError, "extensible fmt chunk declares cbSize 0 (under 22)"),
    (dict(cb_size=21), WavFormatError, "extensible fmt chunk declares cbSize 21 (under 22)"),
    (dict(fmt_tag=2), UnsupportedWavError, "unsupported extensible SubFormat {00000002-0000-0010-8000-00AA00389B71}"),
    (dict(fmt_tag=0xFFFE), UnsupportedWavError,
     "unsupported extensible SubFormat {0000FFFE-0000-0010-8000-00AA00389B71}"),
    (dict(guid=B_FORMAT), UnsupportedWavError, "unsupported extensible SubFormat {00000001-0721-11D3-8644-C8C1CA000000}"),
    (dict(bits=12), UnsupportedWavError, "unsupported PCM bit depth 12"),
    (dict(fmt_tag=3, bits=64), UnsupportedWavError, "unsupported float bit depth 64"),
], ids=["18-bytes", "39-bytes", "cbSize-0", "cbSize-21", "adpcm", "extensible", "b-format", "pcm12", "float64"])
def test_an_extensible_file_of_a_short_fmt_or_another_subformat_is_refused(tmp_path, change, error, message):
    args = dict(fmt_tag=1, channels=1, sr=16000, bits=16, payload=bytes(64)) | change
    path = tmp_path / "ext.wav"
    path.write_bytes(_extensible_wav_bytes(**args))
    with pytest.raises(error) as info:
        load_wav(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_wav("/nonexistent/nope.wav")


def test_resample_preserves_tone():
    clip = sine(440.0, dur_s=1.0, sr=48000)
    out = resample(clip, 16000)
    assert out.sample_rate == 16000
    assert len(out.samples) == 16000
    spec = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spec) * 16000 / len(out.samples)
    assert abs(peak_hz - 440.0) <= 1.0


def test_resample_441k_length():
    clip = sine(440.0, dur_s=1.0, sr=44100)
    out = resample(clip, 16000)
    assert abs(len(out.samples) - 16000) <= 1


RATE_PAIRS = [(44100, 16000), (48000, 16000), (22050, 16000), (11025, 16000), (8000, 16000), (16000, 44100)]

# The resampler sums in another order than scipy's upfirdn and builds its
# Kaiser window with numpy's i0, so on samples in [-1, 1] it agrees with
# resample_poly to within this many ulp of 1.0, not bit for bit.
RESAMPLE_POLY_ULPS = 8


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("rate_in, rate_out", RATE_PAIRS)
def test_block_resampler_equals_resample_poly(monkeypatch, tmp_path, block, rate_in, rate_out):
    # equal to within RESAMPLE_POLY_ULPS, in resample_poly's length.
    # Lengths: none, one sample, fewer than the filter's reach back (20-63
    # input samples at these rates), one block, whole blocks, blocks and a
    # remainder, and several tiles; a small block puts block edges everywhere
    monkeypatch.setattr(audio_io, "WAV_BLOCK", block)
    g = math.gcd(rate_in, rate_out)
    rng = np.random.default_rng(rate_in + block)
    for n in (0, 1, 10, block, 3 * block, 5 * block + 123, 250_000):
        x = rng.uniform(-1.0, 1.0, n).astype(np.float32).astype(np.float64)
        want = signal.resample_poly(x, rate_out // g, rate_in // g)
        got = resample(AudioClip(x, rate_in), rate_out)
        assert got.sample_rate == rate_out
        assert got.samples.shape == want.shape, n
        assert np.abs(got.samples - want).max(initial=0.0) <= RESAMPLE_POLY_ULPS * np.spacing(1.0), n
        path = str(tmp_path / "x.wav")
        write_wav(AudioClip(x, rate_in), path, bit_depth=32)
        loaded = load_wav(path, rate_out)
        assert loaded.sample_rate == rate_out
        assert loaded.samples.shape == want.shape and np.array_equal(loaded.samples, got.samples), n


@pytest.mark.parametrize("rate_in, rate_out", RATE_PAIRS + [(16000, 8000), (96000, 16000)])
def test_resampler_output_does_not_depend_on_blocks(monkeypatch, tmp_path, rate_in, rate_out):
    # each output is one product on the same data however the input is cut:
    # blocks of 7 samples, of 1000 and the whole input give the same bits.
    # Lengths: none, one sample, fewer than the filter's reach back, and
    # one either side of and on a tile edge, in the input (the input of
    # whole tiles) and in the output (kept outputs ending on a tile's end)
    r = audio_io._Resampler(0, rate_in, rate_out)
    assert r.reach > 10
    g = math.gcd(rate_in, rate_out)
    up, down = rate_out // g, rate_in // g
    out_edge = (2 * r.size - r.skip) * down // up  # the most input whose outputs end in two tiles
    lengths = [0, 1, 10, r.span - 1, r.span, r.span + 1, out_edge - 1, out_edge, out_edge + 1]
    rng = np.random.default_rng(rate_in + rate_out)
    path = str(tmp_path / "x.wav")
    for n in lengths:
        x = rng.uniform(-1.0, 1.0, n).astype(np.float32).astype(np.float64)
        outs = []
        for block in (7, 1000, max(n, 1)):
            monkeypatch.setattr(audio_io, "WAV_BLOCK", block)
            outs.append(resample(AudioClip(x, rate_in), rate_out).samples)
        write_wav(AudioClip(x, rate_in), path, bit_depth=32)
        outs.append(load_wav(path, rate_out).samples)
        assert len(outs[0]) == -(-n * up // down)
        for out in outs[1:]:
            assert out.shape == outs[0].shape and np.array_equal(out, outs[0]), n


def test_resampler_output_does_not_depend_on_the_blas_thread_count():
    # each product is small enough for OpenBLAS to run on the calling thread;
    # a larger one may be split among threads, and the split moves the last bits
    code = (
        "import hashlib, json, sys\n"
        "import numpy as np\n"
        "from cryscreen.audio_io import AudioClip, resample\n"
        "x = np.random.default_rng(0).uniform(-1.0, 1.0, 300_000)\n"
        "for rate_in, rate_out in json.loads(sys.argv[1]):\n"
        "    out = resample(AudioClip(x, rate_in), rate_out).samples\n"
        "    print(rate_in, rate_out, hashlib.sha256(out.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(audio_io.__file__))
    pairs = RATE_PAIRS + [(16000, 8000), (96000, 16000)]
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(pairs)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.splitlines())
    assert len(out[0]) == len(pairs)
    assert out[0] == out[1]


def test_resample_identity_and_validation():
    clip = sine(440.0)
    assert resample(clip, 16000) is clip
    with pytest.raises(ValueError, match="target rate must be positive, got 0"):
        resample(clip, 0)


@pytest.mark.parametrize("rate", [0, -8000])
def test_resample_rejects_a_source_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match=f"source rate must be positive, got {rate}$"):
        resample(AudioClip(np.zeros(100), rate), 16000)


@pytest.mark.parametrize("rate", [MAX_SAMPLE_RATE + 1, 2**32 - 1])
def test_a_header_rate_above_the_bound_is_refused_naming_the_file(monkeypatch, tmp_path, rate):
    # a filter for 4294967295 Hz would not fit in memory; none is built
    monkeypatch.setattr(np, "kaiser", lambda *args: pytest.fail("a resampling filter was built"))
    path = tmp_path / "fast.wav"
    path.write_bytes(_wav_bytes(1, 1, rate, 16, bytes(64)))
    for target in (None, 16000):
        with pytest.raises(UnsupportedWavError, match=re.escape(
                f"{path}: sample rate {rate} is above the 384000 Hz this reader resamples")):
            load_wav(str(path), target)


@pytest.mark.parametrize("rate", [MAX_SAMPLE_RATE + 1, 2**32 - 1, 2**62])
def test_the_resampler_refuses_a_rate_above_the_bound_before_building_a_filter(monkeypatch, rate):
    monkeypatch.setattr(np, "kaiser", lambda *args: pytest.fail("a resampling filter was built"))
    with pytest.raises(ValueError, match=f"^source rate {rate} is above the 384000 Hz the resampler takes$"):
        resample(AudioClip(np.zeros(100), rate), 16000)
    with pytest.raises(ValueError, match=f"^target rate {rate} is above the 384000 Hz the resampler takes$"):
        resample(sine(440.0), rate)


@pytest.mark.parametrize("rate_in", [192000, MAX_SAMPLE_RATE])
def test_the_highest_rates_still_resample(tmp_path, rate_in):
    x = np.random.default_rng(rate_in).uniform(-1.0, 1.0, rate_in // 4).astype(np.float32).astype(np.float64)
    want = signal.resample_poly(x, 1, rate_in // 16000)
    path = str(tmp_path / "fast.wav")
    write_wav(AudioClip(x, rate_in), path, bit_depth=32)
    got = load_wav(path, 16000)
    assert got.sample_rate == 16000 and got.samples.shape == want.shape
    assert np.abs(got.samples - want).max() <= RESAMPLE_POLY_ULPS * np.spacing(1.0)
    assert np.array_equal(resample(AudioClip(x, rate_in), 16000).samples, got.samples)


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a.wav", "p1", "ESUTH", "birth", "normal"),
        ManifestEntry("b.wav", "p2", "LASUTH", "discharge", "severe"),
    ]
    path = str(tmp_path / "manifest.csv")
    save_manifest(entries, path)
    assert load_manifest(path) == entries


def test_manifest_unknown_site_becomes_other(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,patient_id,site,period,label\na.wav,p1,ELSEWHERE,birth,mild\n")
    entries = load_manifest(str(path))
    assert entries[0].site == "OTHER"


def test_manifest_unknown_label_names_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "path,patient_id,site,period,label\n"
        "a.wav,p1,ESUTH,birth,normal\n"
        "b.wav,p2,ESUTH,birth,sick\n"
    )
    with pytest.raises(ValueError, match=r"m.csv:3: unknown label 'sick'"):
        load_manifest(str(path))


def test_manifest_field_over_csvs_limit_names_its_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "path,patient_id,site,period,label\n"
        "a.wav,p1,ESUTH,birth,normal\n"
        f"{'b' * 81}.wav,p2,ESUTH,birth,mild\n"
    )
    old = csv.field_size_limit(80)
    try:
        with pytest.raises(ValueError) as info:
            load_manifest(str(path))
    finally:
        csv.field_size_limit(old)
    assert str(info.value) == f"{path}:3: field larger than field limit (80)"


@pytest.mark.parametrize("row, width", [
    ("b.wav,p2,ESUTH,birth,normal,extra", 6),
    ("b.wav,p2,ESUTH,birth", 4),
    ("", 0),
])
def test_manifest_row_of_the_wrong_width_names_its_line(tmp_path, row, width):
    path = tmp_path / "m.csv"
    path.write_text(f"path,patient_id,site,period,label\na.wav,p1,ESUTH,birth,normal\n{row}\nc.wav,p3,SCDM,birth,mild\n")
    with pytest.raises(ValueError) as info:
        load_manifest(str(path))
    assert str(info.value) == f"{path}:3: row has {width} fields where the header has 5"


def test_manifest_is_utf8_under_an_ascii_locale(tmp_path):
    # under the C locale, with neither locale coercion nor UTF-8 mode,
    # open()'s default encoding is ASCII
    path = tmp_path / "m.csv"
    code = (
        "import codecs, locale, sys\n"
        "from cryscreen.audio_io import ManifestEntry, load_manifest, save_manifest\n"
        "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'\n"
        "entries = [ManifestEntry('b\\xe9b\\xe9.wav', 'p1', 'ESUTH', 'birth', 'normal')]\n"
        "save_manifest(entries, sys.argv[1])\n"
        "assert load_manifest(sys.argv[1]) == entries\n"
    )
    src = os.path.dirname(os.path.dirname(audio_io.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == b"path,patient_id,site,period,label\r\nb\xc3\xa9b\xc3\xa9.wav,p1,ESUTH,birth,normal\r\n"


def test_manifest_bad_header_raises(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file,patient,site,period,label\na.wav,p1,ESUTH,birth,normal\n")
    with pytest.raises(ValueError, match="header must be"):
        load_manifest(str(path))


def test_relative_to_manifest(tmp_path):
    m = str(tmp_path / "sub" / "manifest.csv")
    assert relative_to_manifest(m, "rec.wav") == str(tmp_path / "sub" / "rec.wav")
    assert relative_to_manifest(m, "/abs/rec.wav") == "/abs/rec.wav"
