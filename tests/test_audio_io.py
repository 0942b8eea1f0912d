import struct

import numpy as np
import pytest

from cryscreen.audio_io import (
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
        clip = sine(440.0)
        clip.samples[100] = bad
        path = str(tmp_path / "bad.wav")
        write_wav(clip, path, bit_depth=32)
        with pytest.raises(WavFormatError, match="1 non-finite float samples"):
            load_wav(path)


def test_write_rejects_other_depths(tmp_path):
    with pytest.raises(ValueError, match="bit depth"):
        write_wav(sine(440.0), str(tmp_path / "a.wav"), bit_depth=24)


def _wav_bytes(fmt_tag, channels, sr, bits, payload):
    block = channels * bits // 8
    fmt = struct.pack("<IHHIIHH", 16, fmt_tag, channels, sr, sr * block, block, bits)
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


def test_resample_identity_and_validation():
    clip = sine(440.0)
    assert resample(clip, 16000) is clip
    with pytest.raises(ValueError, match="positive"):
        resample(clip, 0)


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
    assert entries[0].binary_label == 1


def test_manifest_unknown_label_names_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "path,patient_id,site,period,label\n"
        "a.wav,p1,ESUTH,birth,normal\n"
        "b.wav,p2,ESUTH,birth,sick\n"
    )
    with pytest.raises(ValueError, match=r"m.csv:3: unknown label 'sick'"):
        load_manifest(str(path))


def test_manifest_bad_header_raises(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file,patient,site,period,label\na.wav,p1,ESUTH,birth,normal\n")
    with pytest.raises(ValueError, match="header must be"):
        load_manifest(str(path))


def test_binary_label_unlabeled_is_none():
    assert ManifestEntry("a.wav", "p", "ESUTH", "birth", "unlabeled").binary_label is None


def test_relative_to_manifest(tmp_path):
    m = str(tmp_path / "sub" / "manifest.csv")
    assert relative_to_manifest(m, "rec.wav") == str(tmp_path / "sub" / "rec.wav")
    assert relative_to_manifest(m, "/abs/rec.wav") == "/abs/rec.wav"
