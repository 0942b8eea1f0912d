"""Differential fuzz of the block WAV reader against the whole-file reference."""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_audio_io import whole_file_load_wav  # noqa: E402

from cryscreen import audio_io  # noqa: E402

ENCODINGS = [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32)]
UNSUPPORTED = [(1, 12), (3, 64), (7, 8), (0, 16)]
RATES = [8000, 11025, 16000, 22050, 44100, 48000]
FAST_RATES = [384001, 2**32 - 1]  # above audio_io.MAX_SAMPLE_RATE
SPECIALS = [np.nan, np.inf, -np.inf]
EXTRA_CHUNKS = st.sampled_from([b"LIST", b"fact", b"junk"])
FAULTS = ["riff id", "form type", "truncated", "no fmt", "short fmt", "no channels", "no rate", "fast rate",
          "unsupported", "other subformat", "foreign subformat", "short extensible fmt", "small cbSize"]
EXTENSIBLE_FAULTS = FAULTS[-4:]
# the bytes after the first four of the SubFormat GUID {0000000X-0000-0010-8000-00AA00389B71} of tag X
GUID_TAIL = bytes.fromhex("000010008000" "00aa00389b71")


@st.composite
def payloads(draw, fmt_tag, bits, channels):
    """Sample bytes of 0-200 frames, half the float ones holding NaN or inf, and 0 to width-1 ragged bytes."""
    width = max(1, bits // 8)
    frames = draw(st.integers(0, 200))
    if fmt_tag == 3 and bits == 32:
        n = frames * channels
        x = np.array(draw(st.lists(st.floats(-1.5, 1.5, width=32), min_size=n, max_size=n)))
        if len(x) and draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=3)):
                x[i] = draw(st.sampled_from(SPECIALS))
        body = x.astype("<f4").tobytes()
    else:
        body = draw(st.binary(min_size=frames * channels * width, max_size=frames * channels * width))
    return body + draw(st.binary(max_size=width - 1))


def chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


@st.composite
def wav_files(draw):
    """RIFF bytes: every encoding, 1-3 channels, chunks in any order, extra
    and odd-sized chunks, a second data chunk, fmt chunks of 16, 18 and 40
    bytes, about half of them WAVE_FORMAT_EXTENSIBLE ones of 40 or 48, and
    about half of the files with one fault."""
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    fmt_tag, bits = draw(st.sampled_from(UNSUPPORTED if fault == "unsupported" else ENCODINGS))
    channels = 0 if fault == "no channels" else draw(st.integers(1, 3))
    rate = 0 if fault == "no rate" else draw(st.sampled_from(FAST_RATES if fault == "fast rate" else RATES))
    block = channels * bits // 8
    extensible = fault in EXTENSIBLE_FAULTS or draw(st.booleans())
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else fmt_tag, channels, rate, rate * block & 0xFFFFFFFF, block, bits)
    if not extensible:
        fmt += draw(st.sampled_from([b"", b"\x00\x00", b"\x16\x00" + bytes(22)]))
    else:
        # the GUID of another tag (2 is ADPCM), or the tag's first field before another GUID's tail
        if fault == "other subformat":
            guid = struct.pack("<I", draw(st.sampled_from([2, 0xFFFE]))) + GUID_TAIL
        elif fault == "foreign subformat":
            guid = struct.pack("<I", fmt_tag) + draw(st.binary(min_size=12, max_size=12))
        else:
            guid = struct.pack("<I", fmt_tag) + GUID_TAIL
        cb_size = draw(st.integers(0, 21) if fault == "small cbSize" else st.sampled_from([22, 30]))
        # valid bits and a channel mask, which the reader reads past
        fmt += struct.pack("<HHI", cb_size, draw(st.integers(0, bits)), draw(st.integers(0, 7))) + guid
        fmt += draw(st.sampled_from([b"", bytes(8)]))
        if fault == "short extensible fmt":
            fmt = fmt[: draw(st.integers(16, 39))]
    if fault == "short fmt":
        fmt = fmt[: draw(st.integers(0, 15))]
    chunks = [chunk(b"data", draw(payloads(fmt_tag, bits, max(channels, 1)))) for _ in range(draw(st.integers(1, 2)))]
    chunks += [chunk(chunk_id, draw(st.binary(max_size=9))) for chunk_id in draw(st.lists(EXTRA_CHUNKS, max_size=3))]
    if fault != "no fmt":
        chunks.append(chunk(b"fmt ", fmt))
    body = (b"WAVX" if fault == "form type" else b"WAVE") + b"".join(draw(st.permutations(chunks)))
    data = (b"OggS" if fault == "riff id" else b"RIFF") + struct.pack("<I", len(body)) + body
    if fault == "truncated":
        data = data[: len(data) - draw(st.integers(1, len(data)))]
    return data


def outcome(read, *args):
    try:
        clip = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return clip.sample_rate, clip.samples


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=wav_files(), rate=st.sampled_from([None, 16000, 44100]), block=st.sampled_from([4, 64, 1 << 16]))
def test_block_reader_equals_whole_file_reader(tmp_path_factory, data, rate, block):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.wav")
    with open(path, "wb") as fh:
        fh.write(data)
    want = outcome(whole_file_load_wav, path, rate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio_io, "WAV_BLOCK", block)
        got = outcome(audio_io.load_wav, path, rate)
    assert got[0] == want[0]
    if isinstance(want[1], str):
        assert got[1] == want[1]
    else:
        assert got[1].dtype == np.float64
        assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])
