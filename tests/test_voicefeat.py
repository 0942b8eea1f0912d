import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cryscreen import dsp, voicefeat
from cryscreen.audio_io import AudioClip
from cryscreen.config import PipelineConfig
from cryscreen.pipeline import analyze_frames, extract_clip, segment_clip
from cryscreen.segmenter import CrySegmentation
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry
from cryscreen.voicefeat import (
    VOICE_FEATURE_NAMES,
    VOICE_FEATURES,
    compute_generic_features,
    concat_expirations,
    masked_moving_average3,
    stddev_falling_slope,
    unit_frames,
)

SR = 16000


def test_concat_expirations():
    clip = AudioClip(np.arange(SR, dtype=np.float64), SR)
    seg = CrySegmentation([(0.1, 0.2), (0.5, 0.8)])
    out = concat_expirations(clip, seg)
    assert len(out.samples) == int(0.4 * SR)
    assert out.samples[0] == 0.1 * SR
    assert out.samples[int(0.1 * SR)] == 0.5 * SR
    with pytest.raises(ValueError, match="zero cry units"):
        concat_expirations(clip, CrySegmentation([]))


def test_moving_average3_edges():
    out = masked_moving_average3(np.array([3.0, 6.0, 9.0, 12.0]), np.ones(4, dtype=bool))
    assert np.allclose(out, [4.5, 6.0, 9.0, 10.5])


@pytest.mark.parametrize("x, valid, want", [
    ([3.0], [True], [3.0]),
    ([3.0], [False], [0.0]),
    ([3.0, 6.0], [True, True], [4.5, 4.5]),
    ([3.0, 6.0], [True, False], [3.0, 0.0]),
    ([3.0, 6.0], [False, True], [0.0, 6.0]),
])
def test_moving_average3_of_one_or_two_frames(x, valid, want):
    # each valid frame is the mean of the valid ones among itself and the
    # neighbours that exist
    out = masked_moving_average3(np.array(x), np.array(valid))
    assert out.shape == (len(x),)
    assert np.array_equal(out, want)


def test_masked_moving_average3():
    x = np.array([2.0, 100.0, 4.0, 6.0])
    valid = np.array([True, False, True, True])
    out = masked_moving_average3(x, valid)
    # invalid neighbors are excluded from the window, invalid frames stay 0
    assert np.allclose(out, [2.0, 0.0, 5.0, 5.0])


def test_stddev_falling_slope_hand_case():
    hop = 0.01
    x = np.array([5.0, 4.0, 3.0, 5.0, 4.0, 2.0, 1.0])
    # runs of 2+ consecutive drops: frames 0..2 and 3..6, end-to-end slopes
    s1 = (3.0 - 5.0) / (2 * hop)
    s2 = (1.0 - 5.0) / (3 * hop)
    expect = np.std([s1, s2])
    assert stddev_falling_slope(x, hop) == pytest.approx(expect)


def test_stddev_falling_slope_ignores_short_drops():
    # single-step drops never form a 3-frame run
    x = np.array([5.0, 4.0, 5.0, 4.0, 5.0])
    assert stddev_falling_slope(x, 0.01) == 0.0


def harmonic_clip(f0=450.0, dur_s=1.0, amp=0.4):
    t = (np.arange(int(dur_s * SR)) + 0.5) / SR
    x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 6))
    return AudioClip(amp * x / np.max(np.abs(x)), SR)


def whole_clip_features(clip):
    """Voice functionals of a clip taken as one cry unit."""
    seg = CrySegmentation([(0.0, clip.duration_seconds)])
    cfg = PipelineConfig()
    return compute_generic_features(analyze_frames(clip, cfg), seg, concat_expirations(clip, seg), cfg)


def test_generic_features_schema_and_finiteness():
    feats = whole_clip_features(harmonic_clip())
    assert list(feats) == VOICE_FEATURE_NAMES
    assert len(feats) == 12
    assert all(np.isfinite(v) for v in feats.values())


def test_generic_features_slope_sign():
    # a 450 Hz fundamental parks all band energy at the top of 0..500 Hz,
    # so the voiced low-band slope must tilt upward
    feats = whole_clip_features(harmonic_clip())
    assert feats["slopeV0_500_amean"] > 0.0


def noisy_harmonic_clip(amp):
    """Harmonic stack plus a noise bed scaled with the signal.

    The bed keeps every Mel band well above the log floor, so doubling
    the amplitude shifts the whole log-Mel plane by one constant.
    """
    base = harmonic_clip(amp=1.0)
    bed = 1e-3 * np.random.default_rng(7).standard_normal(base.samples.size)
    return AudioClip(amp * (base.samples + bed), SR)


def test_mfcc_features_ignore_gain():
    # a pure gain shifts every Mel band by the same constant, which only
    # the discarded DC cepstral term can see
    lo = whole_clip_features(noisy_harmonic_clip(amp=0.2))
    hi = whole_clip_features(noisy_harmonic_clip(amp=0.4))
    assert lo["mfcc3_amean"] == pytest.approx(hi["mfcc3_amean"], abs=1e-6)
    assert lo["mfcc2_stddevNorm"] == pytest.approx(hi["mfcc2_stddevNorm"], abs=1e-6)


def test_generic_features_on_units_off_the_frame_grid():
    # hand-made units that start just after and end just before a frame
    # boundary splice into more frames than the grid gives them
    clip = harmonic_clip(dur_s=2.0)
    seg = CrySegmentation([(0.0101 + 0.4 * k, 0.2099 + 0.4 * k) for k in range(4)])
    cfg = PipelineConfig()
    front = analyze_frames(clip, cfg)
    concat = concat_expirations(clip, seg)
    assert dsp.make_grid(len(concat.samples), SR, 0.025, 0.010).num_frames > len(unit_frames(front.f0.grid, seg))
    feats = compute_generic_features(front, seg, concat, cfg)
    assert all(np.isfinite(v) for v in feats.values())


def test_generic_features_unvoiced_raises():
    clip = AudioClip(np.zeros(SR), SR)
    with pytest.raises(ValueError, match="no voiced frames"):
        whole_clip_features(clip)


def three_unit_clip():
    spec = SynthSpec(
        units=[
            UnitSpec(duration_s=1.3, pause_after_s=0.4, melody="falling", base_f0_hz=430.0),
            UnitSpec(duration_s=1.2, pause_after_s=0.35, melody="rising_falling", base_f0_hz=470.0),
            UnitSpec(duration_s=1.1, pause_after_s=0.0, melody="flat", base_f0_hz=400.0),
        ],
        seed=21,
    )
    return synth_cry(spec)[0]


def test_voice_features_follow_the_config():
    # the front-end F0 range and window reach the voice columns
    clip = three_unit_clip()
    base, _ = extract_clip(clip)
    other, _ = extract_clip(clip, PipelineConfig(f0_min_hz=300.0, window_s=0.03))
    assert any(base[name] != other[name] for name in VOICE_FEATURE_NAMES)


def test_extract_clip_runs_one_front_end(monkeypatch):
    calls = {"estimate_f0": 0, "stft": 0, "log_mel": 0}
    for name in calls:
        original = getattr(dsp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dsp, name, counted)
    extract_clip(three_unit_clip())
    assert calls == {"estimate_f0": 1, "stft": 1, "log_mel": 1}


def test_extract_clip_front_end_in_blocks(monkeypatch):
    # on a clip of several blocks, the sub-clips given to stft hold every
    # frame of the grid once, in order, and pitch is still tracked in one call
    clip = three_unit_clip()
    grid = dsp.make_grid(len(clip.samples), SR, 0.025, 0.010)
    monkeypatch.setattr(dsp, "FRAME_BLOCK", 100)
    parts, f0_calls = [], []
    stft, estimate_f0 = dsp.stft, dsp.estimate_f0

    def recorded_stft(part, *args, **kwargs):
        parts.append(part.samples)
        return stft(part, *args, **kwargs)

    def counted_f0(*args, **kwargs):
        f0_calls.append(args)
        return estimate_f0(*args, **kwargs)

    monkeypatch.setattr(dsp, "stft", recorded_stft)
    monkeypatch.setattr(dsp, "estimate_f0", counted_f0)
    extract_clip(clip)
    assert len(f0_calls) == 1
    assert len(parts) == grid.num_frames // 100 > 1
    hop, win = grid.hop_samples, grid.window_samples
    first = 0
    for samples in parts:
        num = dsp.make_grid(len(samples), SR, 0.025, 0.010).num_frames
        assert len(samples) == (num - 1) * hop + win
        assert np.array_equal(samples, clip.samples[first * hop : first * hop + len(samples)])
        first += num
    assert first == grid.num_frames


def test_concat_frames_start_on_unit_frames():
    clip = three_unit_clip()
    seg, front = segment_clip(clip)
    assert len(seg.expirations) >= 2
    grid = front.f0.grid
    win, hop = grid.window_samples, grid.hop_samples
    concat = concat_expirations(clip, seg)
    idx = unit_frames(grid, seg)
    frames = sliding_window_view(clip.samples, win)[::hop]
    concat_frames = sliding_window_view(concat.samples, win)[::hop]
    assert len(idx) == sum(int(round((b - a) / grid.hop_seconds)) for a, b in seg.expirations)
    assert len(concat_frames) <= len(idx)

    splices = np.cumsum([int(round(b * clip.sample_rate)) - int(round(a * clip.sample_rate)) for a, b in seg.expirations])[:-1]
    starts = np.arange(len(concat_frames)) * hop
    straddling = np.any((starts[:, None] < splices) & (splices < starts[:, None] + win), axis=1)
    assert np.count_nonzero(straddling) == 2 * len(splices)
    for i in np.flatnonzero(~straddling):
        assert np.array_equal(concat_frames[i], frames[idx[i]])


# The voice columns as they were written out by hand, column by column,
# before VOICE_FEATURES declared them: the reference for their names,
# order and bits.
REFERENCE_NAMES = [
    "slopeUV0_500_amean",
    "slopeV0_500_stddevNorm",
    "slopeV0_500_amean",
    "F2_amean",
    "F3_amean",
    "F3_stddevNorm",
    "mfcc3_amean",
    "mfcc3V_amean",
    "mfcc3V_stddevNorm",
    "loudness_stddevFallingSlope",
    "mfcc2_stddevNorm",
    "mfcc4V_stddevNorm",
]


def _reference_amean(x, mask):
    return float(np.mean(x[mask])) if mask.any() else 0.0


def _reference_stddev_norm(x, mask):
    if not mask.any():
        return 0.0
    sel = x[mask]
    return float(np.std(sel) / max(abs(np.mean(sel)), voicefeat._NORM_GUARD))


def reference_generic_features(front, seg, concat, config):
    grid = front.f0.grid
    idx = unit_frames(grid, seg)
    voiced = front.f0.voiced[idx]
    unvoiced = ~voiced
    if not voiced.any():
        raise ValueError("no voiced frames")

    allf = np.ones(len(idx), dtype=bool)
    slope = masked_moving_average3(front.slope0_500[idx], allf)
    loud = masked_moving_average3(front.loudness[idx], allf)
    mfcc2 = masked_moving_average3(front.mfcc2_4[idx, 0], allf)
    mfcc3 = masked_moving_average3(front.mfcc2_4[idx, 1], allf)
    mfcc4 = masked_moving_average3(front.mfcc2_4[idx, 2], allf)

    formants = dsp.lpc_formants(concat, config)
    n = min(len(formants), len(idx))
    formants, formant_voiced = formants[:n], voiced[:n]
    f2_valid = formant_voiced & (formants[:, 1] > 0)
    f3_valid = formant_voiced & (formants[:, 2] > 0)
    f2 = masked_moving_average3(formants[:, 1], f2_valid)
    f3 = masked_moving_average3(formants[:, 2], f3_valid)

    return {
        "slopeUV0_500_amean": _reference_amean(slope, unvoiced),
        "slopeV0_500_stddevNorm": _reference_stddev_norm(slope, voiced),
        "slopeV0_500_amean": _reference_amean(slope, voiced),
        "F2_amean": _reference_amean(f2, f2_valid),
        "F3_amean": _reference_amean(f3, f3_valid),
        "F3_stddevNorm": _reference_stddev_norm(f3, f3_valid),
        "mfcc3_amean": _reference_amean(mfcc3, allf),
        "mfcc3V_amean": _reference_amean(mfcc3, voiced),
        "mfcc3V_stddevNorm": _reference_stddev_norm(mfcc3, voiced),
        "loudness_stddevFallingSlope": stddev_falling_slope(loud, grid.hop_seconds),
        "mfcc2_stddevNorm": _reference_stddev_norm(mfcc2, allf),
        "mfcc4V_stddevNorm": _reference_stddev_norm(mfcc4, voiced),
    }


def test_voice_feature_names_come_from_the_table():
    assert VOICE_FEATURE_NAMES == list(VOICE_FEATURES) == REFERENCE_NAMES


def sine_in_noise(f0=300.0):
    # LPC finds one narrow resonance in a pure tone over a faint noise bed,
    # so neither F2 nor F3 on any frame
    t = (np.arange(SR) + 0.5) / SR
    return AudioClip(0.4 * np.sin(2 * np.pi * f0 * t) + 1e-3 * np.random.default_rng(0).standard_normal(SR), SR)


VOICE_CASES = {
    "harmonic": (harmonic_clip(), [(0.0, 1.0)]),
    "harmonic-low": (harmonic_clip(f0=300.0, amp=0.2), [(0.0, 0.4), (0.55, 1.0)]),
    "harmonic-units": (three_unit_clip(), None),
    "all-voiced": (harmonic_clip(), [(0.1, 0.9)]),
    "no-formant": (sine_in_noise(), [(0.1, 0.9)]),
    "off-grid": (harmonic_clip(dur_s=2.0), [(0.0101 + 0.4 * k, 0.2099 + 0.4 * k) for k in range(4)]),
}


@pytest.mark.parametrize("case", VOICE_CASES)
def test_voice_features_equal_the_written_out_columns(case):
    # the same names in the same order, and the same float bits
    clip, units = VOICE_CASES[case]
    cfg = PipelineConfig()
    seg, front = segment_clip(clip, cfg) if units is None else (CrySegmentation(units), analyze_frames(clip, cfg))
    concat = concat_expirations(clip, seg)
    got = compute_generic_features(front, seg, concat, cfg)
    want = reference_generic_features(front, seg, concat, cfg)
    assert list(got) == list(want) == REFERENCE_NAMES
    assert np.array_equal(np.array(list(got.values())).view(np.int64), np.array(list(want.values())).view(np.int64))
    idx = unit_frames(front.f0.grid, seg)
    formants = dsp.lpc_formants(concat, cfg)
    if case == "all-voiced":
        assert front.f0.voiced[idx].all() and got["slopeUV0_500_amean"] == 0.0
    if case == "no-formant":
        assert front.f0.voiced[idx].any() and not formants[:, 1:].any()
        assert got["F2_amean"] == got["F3_amean"] == got["F3_stddevNorm"] == 0.0
    if case == "off-grid":
        assert len(formants) > len(idx)
