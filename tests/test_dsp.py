"""Oracle checks for the DSP core.

Each block verifies one primitive against a signal whose right answer is
known in closed form: framing counts, tone bins, DCT orthogonality,
planted resonances, exact log-spectral slopes.
"""

import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy.fft import dct

from cryscreen import dsp
from cryscreen.audio_io import AudioClip, load_wav, resample, write_wav
from cryscreen.config import PipelineConfig
from cryscreen.dsp import (
    FrameGrid,
    Spectrogram,
    difference_function,
    estimate_f0,
    frames_within,
    hops_within,
    log_mel,
    loudness,
    lpc_formants,
    make_grid,
    mel_filterbank,
    mfcc,
    pick_formants,
    spectral_flatness,
    spectral_slope_band,
    stft,
    whole_samples,
)
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry

SR = 16000
# 25 ms / 10 ms frames, 80 Mel bands, F0 over 250-1600 Hz, voicing at 0.5
CFG = PipelineConfig()


def f0_config(f0_min, f0_max):
    return PipelineConfig(f0_min_hz=f0_min, f0_max_hz=f0_max)


def unchecked_config(**values):
    """The default config with values a PipelineConfig would reject, for the kernels' own checks."""
    return SimpleNamespace(**{**vars(CFG), **values})


def harmonic_stack(f0, dur_s=1.0, num_harmonics=5, amp=0.4, sr=SR):
    t = (np.arange(int(dur_s * sr)) + 0.5) / sr
    x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, num_harmonics + 1))
    return AudioClip(amp * x / np.max(np.abs(x)), sr)


def test_make_grid_frame_count():
    grid = make_grid(SR, SR, 0.025, 0.010)
    # (16000 - 400) // 160 + 1
    assert grid.num_frames == 98
    assert grid.window_samples == 400
    assert grid.hop_samples == 160
    # 4 s clip at the default 25 ms / 10 ms framing
    assert make_grid(4 * SR, SR, 0.025, 0.010).num_frames == 398


def test_grid_formula_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dur = rng.uniform(0.05, 6.0)
        win = rng.uniform(0.01, 0.04)
        hop = rng.uniform(0.005, win)
        n = int(dur * SR)
        w = int(round(win * SR))
        h = int(round(hop * SR))
        if n < w or h == 0:
            continue
        grid = make_grid(n, SR, win, hop)
        assert grid.num_frames == (n - w) // h + 1


def test_frame_times_start_where_the_frames_do():
    # at 22050 Hz a 10 ms hop is 220.5 samples, framed on 220
    sr = 22050
    grid = make_grid(20 * sr, sr, 0.025, 0.010)
    assert grid.hop_samples == 220 and grid.window_samples == 551
    starts = np.arange(grid.num_frames) * grid.hop_samples
    np.testing.assert_allclose(grid.frame_times() * sr, starts, rtol=0, atol=1e-6)
    assert grid.window_seconds * sr == pytest.approx(551)


def test_make_grid_too_short():
    with pytest.raises(ValueError, match="shorter than one"):
        make_grid(100, SR, 0.025, 0.010)


def test_grid_frames_are_views_of_the_clip():
    samples = np.arange(1000.0)
    grid = make_grid(len(samples), SR, 0.025, 0.010)
    frames = grid.frames(samples)
    assert frames.shape == (grid.num_frames, 400) == (4, 400)
    assert frames[1, 0] == 160.0
    assert np.array_equal(frames[3], samples[480:880])
    assert np.shares_memory(frames, samples)


def test_frame_slice_exact_boundaries():
    grid = FrameGrid(160, 400, 100, SR)
    assert grid.frame_slice(0.10, 0.20) == slice(10, 20)
    # float noise on an exact hop multiple must not shift the slice
    assert grid.frame_slice(0.1 + 1e-12, 0.2 - 1e-12) == slice(10, 20)
    assert grid.frame_slice(0.101, 0.199) == slice(11, 20)


def test_frame_slice_clamps():
    grid = FrameGrid(160, 400, 100, SR)
    assert grid.frame_slice(-5.0, 99.0) == slice(0, 100)
    reversed_interval = grid.frame_slice(2.0, 1.0)
    assert reversed_interval.stop <= reversed_interval.start


def test_whole_samples_bounds():
    # round takes half a sample to none and one and a half to two
    with pytest.raises(ValueError, match="under one sample at sample_rate=16000"):
        whole_samples(0.5 / SR, SR)
    assert whole_samples(0.50001 / SR, SR) == 1
    assert whole_samples(1.5 / SR, SR) == 2
    assert whole_samples(0.025, SR) == 400
    assert whole_samples(float(2**63 - 1024), 1) == 2**63 - 1024
    with pytest.raises(ValueError, match="more samples than numpy can index"):
        whole_samples(float(2**63), 1)
    with pytest.raises(ValueError, match="nan is not a finite number"):
        whole_samples(float("nan"), SR)


def test_make_grid_refuses_an_overflowing_hop():
    # 1e300 s at 2**62 Hz is no float, let alone an int64 of samples
    with pytest.raises(ValueError, match="1e[+]300 is more samples than numpy can index"):
        make_grid(SR, 2**62, 0.025, 1e300)
    with pytest.raises(ValueError, match="under one sample"):
        make_grid(SR, SR, 0.025, 0.0)


# the seconds forms of the duration rules that frames_within and hops_within
# replace: a pause of g frames merges when g * hop < min_pause_s - 1e-9, a
# unit of n frames stays when n * hop >= min_unit_s - 1e-9, and a gap of g
# hops is linked (vibrato) when g <= spacing / hop + 1e-9 and reached
# (glide) up to floor(span / hop + 1e-9)
SECONDS_TOL = 1e-9
WHOLE_KHZ_RATES = [1000 * k for k in range(8, 49)] + [11025, 22050, 44100]


def old_and_new_rules(seconds, hop):
    frames, hops = frames_within(seconds, hop), hops_within(seconds, hop)
    for g in range(max(frames - 2, 0), frames + 3):
        yield g < frames, g * hop < seconds - SECONDS_TOL  # pause merge
        yield g >= frames, g * hop >= seconds - SECONDS_TOL  # unit keep
    for g in range(max(hops - 2, 0), hops + 3):
        yield g <= hops, g <= seconds / hop + SECONDS_TOL  # vibrato link
    yield hops, int(np.floor(seconds / hop + SECONDS_TOL))  # glide reach


@settings(max_examples=400, deadline=None)
@given(rate=st.sampled_from(WHOLE_KHZ_RATES), hop_ms=st.integers(1, 33), micros=st.integers(0, 10_000_000))
# the defaults' pause, unit and spans, whole numbers of hops
@example(rate=16000, hop_ms=10, micros=50_000)
@example(rate=16000, hop_ms=10, micros=200_000)
@example(rate=44100, hop_ms=10, micros=100_000)
@example(rate=8000, hop_ms=3, micros=100_000)
def test_frame_rules_equal_the_seconds_rules(rate, hop_ms, micros):
    hop = FrameGrid(whole_samples(hop_ms / 1000, rate), 1, 1, rate).hop_seconds
    for new, old in old_and_new_rules(micros / 1e6, hop):
        assert new == old


@settings(max_examples=400, deadline=None)
@given(rate=st.integers(8000, 48000), hop_ms=st.integers(1, 33), micros=st.integers(0, 10_000_000))
# 469 hops of 42 samples at 42025 Hz are 0.4687209994 s, where the forms part
@example(rate=42025, hop_ms=1, micros=468_721)
def test_frame_rules_part_from_the_seconds_rules_only_at_whole_hops(rate, hop_ms, micros):
    # at a rate of no whole kHz, a duration on a 1 us grid can fall between
    # the tolerance in seconds and the one in hops of a whole number of hops
    hop = FrameGrid(whole_samples(hop_ms / 1000, rate), 1, 1, rate).hop_seconds
    seconds = micros / 1e6
    if any(new != old for new, old in old_and_new_rules(seconds, hop)):
        assert abs(seconds - round(seconds / hop) * hop) < 2 * SECONDS_TOL


@pytest.mark.parametrize("hop", [0.01, FrameGrid(1, 1, 1, 384000).hop_seconds], ids=["10ms", "one-sample-at-384kHz"])
def test_a_span_of_more_hops_than_a_float_holds_counts_as_the_most_it_holds(hop):
    # sys.float_info.max / hop overflows to inf, which no int holds
    for count in (frames_within(sys.float_info.max, hop), hops_within(sys.float_info.max, hop)):
        assert type(count) is int and count == int(sys.float_info.max)


def test_stft_peak_bin():
    spec = stft(harmonic_stack(1000.0, num_harmonics=1), CFG)
    # 400-sample window pads to a 512-point FFT: 31.25 Hz bins
    assert spec.values.shape[1] == 257
    peak_hz = spec.freqs_hz[np.argmax(spec.values, axis=1)]
    assert np.all(np.abs(peak_hz - 1000.0) <= 31.25)


def test_mel_filterbank_shape_and_coverage():
    freqs = np.fft.rfftfreq(512, 1.0 / SR)
    fb = mel_filterbank(freqs, 40, 0.0, 8000.0)
    assert fb.shape == (40, 257)
    assert np.all(fb >= 0.0)
    # every band responds somewhere, and interior frequencies are covered
    assert np.all(fb.sum(axis=1) > 0.0)
    coverage = fb.sum(axis=0)
    inside = (freqs > 300.0) & (freqs < 7500.0)
    assert np.all(coverage[inside] > 0.0)


def loop_mel_filterbank(freqs_hz, num_bands, fmin, fmax):
    """Reference: the triangular filters built one band at a time."""
    edges = dsp.hz_from_mel(np.linspace(dsp.mel_from_hz(fmin), dsp.mel_from_hz(fmax), num_bands + 2))
    fb = np.zeros((num_bands, len(freqs_hz)))
    for b in range(num_bands):
        lo, ctr, hi = edges[b], edges[b + 1], edges[b + 2]
        up = (freqs_hz - lo) / max(ctr - lo, 1e-12)
        down = (hi - freqs_hz) / max(hi - ctr, 1e-12)
        fb[b] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@pytest.mark.parametrize(
    "nfft, sr, num_bands, fmin, fmax",
    [(512, SR, 80, 0.0, 8000.0), (512, SR, 40, 0.0, 8000.0), (1024, 44100, 64, 50.0, 11000.0), (256, 8000, 300, 0.0, 4000.0)],
)
def test_mel_filterbank_matches_loop_bit_for_bit(nfft, sr, num_bands, fmin, fmax):
    # 300 bands over 129 bins puts edges closer than one bin apart
    freqs = np.fft.rfftfreq(nfft, 1.0 / sr)
    assert np.array_equal(mel_filterbank(freqs, num_bands, fmin, fmax), loop_mel_filterbank(freqs, num_bands, fmin, fmax))


def test_log_mel_floor_on_silence():
    clip = AudioClip(np.zeros(SR // 2), SR)
    lm = log_mel(stft(clip, CFG), PipelineConfig(num_mel_bands=40))
    assert np.allclose(lm, np.log(1e-10))


def test_log_mel_rejects_excess_bands():
    clip = AudioClip(np.zeros(SR // 2), SR)
    with pytest.raises(ValueError, match="Mel bands"):
        log_mel(stft(clip, CFG), unchecked_config(num_mel_bands=400))


def test_f0_pure_sine_440():
    clip = harmonic_stack(440.0, num_harmonics=1)
    f0 = estimate_f0(clip, CFG)
    inner = slice(3, f0.grid.num_frames - 3)
    assert np.all(f0.voiced[inner])
    assert np.all(np.abs(f0.f0_hz[inner] - 440.0) < 2.0)


def test_f0_flat_stack_accuracy():
    clip = harmonic_stack(450.0)
    f0 = estimate_f0(clip, CFG)
    inner = slice(3, f0.grid.num_frames - 3)
    voiced = f0.voiced[inner]
    assert np.mean(voiced) >= 0.95
    err = np.abs(f0.f0_hz[inner][voiced] - 450.0)
    assert np.percentile(err, 95) < 2.0


def test_f0_stack_500_not_octave():
    clip = harmonic_stack(500.0, dur_s=0.5)
    f0 = estimate_f0(clip, CFG)
    est = f0.f0_hz[f0.voiced]
    assert len(est) > 20
    assert np.all(np.abs(est - 500.0) < 3.0)


@pytest.mark.parametrize("true_f0", [250.0, 480.0, 990.0, 1400.0])
def test_f0_no_octave_errors(true_f0):
    clip = harmonic_stack(true_f0, dur_s=0.5)
    f0 = estimate_f0(clip, CFG)
    est = f0.f0_hz[f0.voiced]
    assert len(est) > 20
    assert np.all(np.abs(est - true_f0) / true_f0 < 0.01)


def test_f0_oracle_at_the_extraction_pitch_range():
    # acceptance gate C01's 50 signals and bars, under the 250-1600 Hz
    # range extraction searches rather than C01's 200-2000 Hz
    rng = np.random.default_rng(424)
    rel_errs = []
    for _ in range(50):
        f0 = float(rng.uniform(250.0, 1500.0))
        track = estimate_f0(harmonic_stack(f0, dur_s=0.5, amp=0.3), CFG)
        rel_errs.append(abs(float(np.median(track.f0_hz[track.voiced])) - f0) / f0)
    assert np.median(rel_errs) < 0.01
    # halving or doubling lands far beyond 20%
    assert max(rel_errs) <= 0.2


def test_f0_noise_is_unvoiced():
    rng = np.random.default_rng(0)
    clip = AudioClip(0.3 * rng.standard_normal(SR // 2), SR)
    f0 = estimate_f0(clip, CFG)
    assert np.mean(f0.voiced) < 0.2


def test_f0_range_validation():
    clip = harmonic_stack(450.0, dur_s=0.2)
    with pytest.raises(ValueError, match="below f0_max"):
        estimate_f0(clip, unchecked_config(f0_min_hz=500.0, f0_max_hz=400.0))
    with pytest.raises(ValueError, match="too short"):
        estimate_f0(clip, unchecked_config(f0_min_hz=50.0, f0_max_hz=1600.0))


def loop_difference_function(samples, grid, frames, tau_max):
    """Reference: frame the samples, then sum each listed frame's difference function lag by lag, term by term."""
    rows = sliding_window_view(samples, grid.window_samples)[:: grid.hop_samples][frames]
    span = grid.window_samples - tau_max
    base = rows[:, :span]
    d = np.empty((len(rows), tau_max + 1))
    d[:, 0] = 0.0
    for tau in range(1, tau_max + 1):
        diff = base - rows[:, tau : tau + span]
        d[:, tau] = np.einsum("ij,ij->i", diff, diff)
    return d


def reference_f0(clip, config):
    """estimate_f0 with the reference difference function swapped in; fails unless it was called."""
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return loop_difference_function(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "difference_function", counted)
        track = estimate_f0(clip, config)
    assert sum(calls) == track.grid.num_frames
    return track


def planted_cry(sample_rate=SR, seed=5):
    units = [
        UnitSpec(0.6, 0.2, base_f0_hz=420.0, melody="rising_falling"),
        UnitSpec(0.6, 0.2, event="glide", event_start_s=0.2, event_duration_s=0.08),
        UnitSpec(0.6, 0.2, event="vibrato", event_start_s=0.1, event_duration_s=0.4),
        UnitSpec(0.6, 0.2, event="hyperphonation", event_start_s=0.1, event_duration_s=0.3),
        UnitSpec(0.6, 0.2, event="dysphonation", event_start_s=0.1, event_duration_s=0.3),
    ]
    clip, _ = synth_cry(SynthSpec(units=units, sample_rate=sample_rate, seed=seed))
    return clip


def pcm16_round_trip(clip, tmp_path):
    path = str(tmp_path / "clip.wav")
    write_wav(clip, path)
    return load_wav(path)


def noisy_stack(seed=2):
    rng = np.random.default_rng(seed)
    clip = harmonic_stack(530.0, dur_s=0.8)
    return AudioClip(clip.samples + 0.05 * rng.standard_normal(len(clip.samples)), SR)


@pytest.mark.parametrize(
    "make_clip, f0_range",
    [
        (planted_cry, (250.0, 1600.0)),
        (planted_cry, (200.0, 2000.0)),
        (noisy_stack, (250.0, 1600.0)),
        (lambda: AudioClip(0.3 * np.random.default_rng(4).standard_normal(SR // 2), SR), (250.0, 1600.0)),
    ],
)
def test_f0_pcm16_matches_loop_reference_exactly(make_clip, f0_range, tmp_path):
    assert_f0_matches_loop_reference_exactly(pcm16_round_trip(make_clip(), tmp_path), f0_config(*f0_range))


# difference_function cuts a frame's span of window - tau_max samples into
# whole hops and a tail; at 16 kHz and the 250 Hz floor, tau_max is 64. A
# hop longer than the span leaves no block to share, and a config allows it.
@pytest.mark.parametrize("make_clip", [planted_cry, noisy_stack])
@pytest.mark.parametrize(
    "grid, hops_and_tail",
    [
        ({}, (2, 16)),
        ({"hop_s": 0.005}, (4, 16)),
        ({"window_s": 0.024}, (2, 0)),
        ({"hop_s": 0.03, "window_s": 0.025}, (0, 336)),
    ],
    ids=["2-hops-and-tail", "4-hops-and-tail", "whole-hops", "hop-over-span"],
)
def test_f0_pcm16_matches_loop_reference_exactly_on_each_hop_split(make_clip, grid, hops_and_tail, tmp_path):
    config = PipelineConfig(**grid)
    clip = pcm16_round_trip(make_clip(), tmp_path)
    frame_grid = make_grid(len(clip.samples), SR, config.window_s, config.hop_s)
    assert divmod(frame_grid.window_samples - 64, frame_grid.hop_samples) == hops_and_tail
    assert_f0_matches_loop_reference_exactly(clip, config)


def assert_f0_matches_loop_reference_exactly(clip, config):
    got = estimate_f0(clip, config)
    want = reference_f0(clip, config)
    assert got.grid == want.grid
    for field in ("f0_hz", "voiced", "confidence"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize(
    "make_clip",
    [noisy_stack, lambda: resample(planted_cry(sample_rate=44100), SR)],
)
def test_f0_float_matches_loop_reference_to_rounding(make_clip):
    clip = make_clip()
    got = estimate_f0(clip, CFG)
    want = reference_f0(clip, CFG)
    assert np.array_equal(got.voiced, want.voiced)
    assert got.voiced.any()
    assert np.all(np.abs(got.f0_hz - want.f0_hz) <= 1e-9 * want.f0_hz)


def long_float_cry():
    """Three planted cries resampled from 44.1 kHz: about 1500 frames, over one FRAME_BLOCK."""
    clip = resample(planted_cry(sample_rate=44100), SR)
    return AudioClip(np.tile(clip.samples, 3), SR)


@pytest.mark.parametrize("pcm16", [False, True])
@pytest.mark.parametrize("block", [1, 7, 1024])
def test_f0_and_formants_do_not_depend_on_the_block_size(block, pcm16, tmp_path, monkeypatch):
    clip = long_float_cry()
    if pcm16:
        clip = pcm16_round_trip(clip, tmp_path)
    assert make_grid(len(clip.samples), SR, 0.025, 0.010).num_frames > 1024
    monkeypatch.setattr(dsp, "FRAME_BLOCK", 10**9)
    want_f0, want_formants = estimate_f0(clip, CFG), lpc_formants(clip, CFG)
    monkeypatch.setattr(dsp, "FRAME_BLOCK", block)
    got_f0, got_formants = estimate_f0(clip, CFG), lpc_formants(clip, CFG)
    for field in ("f0_hz", "voiced", "confidence"):
        assert np.array_equal(getattr(got_f0, field), getattr(want_f0, field)), field
    assert got_f0.voiced.any()
    assert np.array_equal(got_formants, want_formants)


def test_f0_tracks_only_the_listed_frames(monkeypatch):
    clip = planted_cry()
    full = estimate_f0(clip, CFG)
    num = full.grid.num_frames
    picked = np.array([0, 3, 4, 5, 60, 61, 150, 151, 152, num - 1])
    listed = np.zeros(num, dtype=bool)
    listed[picked] = True
    part = estimate_f0(clip, CFG, frames=picked)
    assert part.grid == full.grid
    for field in ("f0_hz", "voiced", "confidence"):
        assert np.array_equal(getattr(part, field)[listed], getattr(full, field)[listed]), field
        assert not getattr(part, field)[~listed].any(), field
    assert part.voiced.any()
    # a zero voicing threshold makes every tracked frame voiced, and only those
    assert np.array_equal(estimate_f0(clip, PipelineConfig(voicing_threshold=0.0), frames=picked).voiced, listed)
    assert not estimate_f0(clip, CFG, frames=np.array([], dtype=int)).voiced.any()
    # the same frames unsorted and with repeats, which blocks of 4 split between blocks
    messy = np.random.default_rng(8).permutation(np.concatenate([picked, picked[1::3]]))
    monkeypatch.setattr(dsp, "FRAME_BLOCK", 4)
    again = estimate_f0(clip, CFG, frames=messy)
    for field in ("f0_hz", "voiced", "confidence"):
        assert np.array_equal(getattr(again, field), getattr(part, field)), field


def test_difference_function_never_negative():
    # on exactly periodic float input the identity rounds d(period) to
    # about -1e-14 before clamping; the 560 zeros at the end hold 2 frames
    samples = np.concatenate([
        harmonic_stack(500.0, dur_s=0.3).samples,
        harmonic_stack(800.0, dur_s=0.3).samples,
        noisy_stack().samples,
        np.zeros(560),
    ])
    grid = make_grid(len(samples), SR, 0.025, 0.010)
    frames = np.arange(grid.num_frames)
    d = difference_function(samples, grid, frames, 64)
    assert d.shape == (len(frames), 65)
    assert np.all(d >= 0.0)
    assert np.all(d[:, 0] == 0.0)
    assert not d[-2:].any()
    assert np.allclose(d, loop_difference_function(samples, grid, frames, 64), rtol=1e-12, atol=1e-12)


def test_difference_function_rows_do_not_depend_on_the_frame_order():
    # float input, so that a row summed with other blocks would show in the last bits
    samples = noisy_stack().samples
    grid = make_grid(len(samples), SR, 0.025, 0.010)
    listed = np.array([0, 3, 4, 5, 30, 31, 60, grid.num_frames - 1])
    messy = np.random.default_rng(3).permutation(np.concatenate([listed, listed[::2]]))
    d = difference_function(samples, grid, listed, 64)
    got = difference_function(samples, grid, messy, 64)
    assert np.array_equal(got, d[np.searchsorted(listed, messy)])
    assert np.array_equal(d, difference_function(samples, grid, np.arange(grid.num_frames), 64)[listed])


def test_flatness_tone_vs_noise():
    tone = spectral_flatness(stft(harmonic_stack(450.0, dur_s=0.5), CFG))
    assert np.median(tone) < 0.05
    rng = np.random.default_rng(1)
    noise = spectral_flatness(stft(AudioClip(0.3 * rng.standard_normal(SR // 2), SR), CFG))
    assert np.median(noise) > 0.45
    assert np.all((tone >= 0.0) & (tone <= 1.0))


def test_mfcc_recovers_cosine_basis():
    # a log-Mel pattern equal to the j-th DCT basis vector must come back
    # as a single coefficient of size sqrt(B/2)
    B, j = 40, 3
    bands = np.arange(B)
    pattern = np.cos(np.pi * (bands + 0.5) * j / B)
    c = mfcc(np.tile(pattern, (7, 1)), num_coeffs=13)
    assert c.shape == (7, 13)
    expect = np.zeros(13)
    expect[j - 1] = np.sqrt(B / 2.0)
    assert np.allclose(c, np.tile(expect, (7, 1)), atol=1e-12)


def test_mfcc_keeps_leading_coeffs_whatever_the_count():
    # fewer coefficients are the first columns of more, bit for bit
    lm = np.random.default_rng(3).standard_normal((9, 80))
    assert np.array_equal(mfcc(lm, num_coeffs=4), mfcc(lm, num_coeffs=13)[:, :4])


@pytest.mark.parametrize("bands", [5, 13, 40, 80])
def test_mfcc_matches_scipy_dct_within_a_few_ulp(bands):
    # mfcc computes only the kept rows of the DCT-II, so it agrees with
    # scipy's orthonormal DCT to rounding, not bit for bit
    logmel = np.log(np.random.default_rng(bands).uniform(1e-6, 10.0, (37, bands)))
    for k in sorted({4, min(13, bands - 1)}):
        want = dct(logmel, type=2, norm="ortho", axis=1)[:, 1 : k + 1]
        assert np.allclose(mfcc(logmel, num_coeffs=k), want, rtol=0.0, atol=1e-13 * np.abs(logmel).max())


def test_mfcc_rejects_excess_coeffs():
    lm = np.zeros((3, 10))
    with pytest.raises(ValueError, match="10 coefficients need more than 10 Mel bands"):
        mfcc(lm, num_coeffs=10)
    assert mfcc(lm, num_coeffs=9).shape == (3, 9)


def test_loudness_follows_power():
    cfg40 = PipelineConfig(num_mel_bands=40)
    lo = loudness(log_mel(stft(harmonic_stack(450.0, amp=0.1), CFG), cfg40))
    hi = loudness(log_mel(stft(harmonic_stack(450.0, amp=0.4), CFG), cfg40))
    ratio = np.median(hi / lo)
    # energy scales by 16, loudness by 16**0.3
    assert abs(ratio - 16.0 ** 0.3) < 0.05


def resonant_noise(freqs_hz, bandwidth_hz, n, seed):
    """White noise through one two-pole resonator per frequency, peak 0.4."""
    a = np.array([1.0])
    r = np.exp(-np.pi * bandwidth_hz / SR)
    for f in freqs_hz:
        a = np.convolve(a, [1.0, -2.0 * r * np.cos(2 * np.pi * f / SR), r * r])
    x = sps.lfilter([1.0], a, np.random.default_rng(seed).standard_normal(n))
    return 0.4 * x / np.max(np.abs(x))


def test_lpc_formants_find_planted_resonances():
    out = lpc_formants(AudioClip(resonant_noise([1000.0, 2500.0, 4000.0], 100.0, SR, 0), SR), CFG)
    assert out.shape == (make_grid(SR, SR, 0.025, 0.010).num_frames, 3)
    found = np.median(out[np.all(out > 0, axis=1)], axis=0)
    assert abs(found[0] - 1000.0) < 150.0
    assert abs(found[1] - 2500.0) < 150.0
    assert abs(found[2] - 4000.0) < 200.0


def test_lpc_formants_silence_degenerate():
    out = lpc_formants(AudioClip(np.zeros(SR // 4), SR), CFG)
    assert np.all(out == 0.0)


def loop_pick_formants(freqs, keep, degenerate, num_formants):
    """Reference: the per-frame formant pick, one row at a time."""
    out = np.zeros((len(freqs), num_formants))
    for t in range(len(freqs)):
        if degenerate[t]:
            continue
        cand = np.sort(freqs[t][keep[t]])
        n = min(len(cand), num_formants)
        out[t, :n] = cand[:n]
    return out


def fft_lpc_formants(clip, order=12, num_formants=3, max_bandwidth_hz=400.0):
    """Reference: lpc_formants with autocorrelation by an FFT round trip."""
    grid = make_grid(len(clip.samples), clip.sample_rate, 0.025, 0.010)
    win = grid.window_samples
    sr = clip.sample_rate
    frames = sliding_window_view(np.asarray(clip.samples, dtype=np.float64), win)[:: grid.hop_samples] * np.hanning(win)
    nfft = dsp._next_pow2(2 * win)
    spectrum = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
    autocorr = np.fft.irfft(spectrum, axis=1)[:, : order + 1]

    num = frames.shape[0]
    a = np.zeros((num, order + 1))
    a[:, 0] = 1.0
    err = autocorr[:, 0].copy()
    degenerate = err < 1e-10
    err[degenerate] = 1.0
    for i in range(1, order + 1):
        acc = np.einsum("ij,ij->i", a[:, 1:i], autocorr[:, i - 1 : 0 : -1]) if i > 1 else 0.0
        k = -(autocorr[:, i] + acc) / err
        a_prev = a[:, 1:i].copy()
        a[:, 1:i] = a_prev + k[:, None] * a_prev[:, ::-1]
        a[:, i] = k
        err = err * (1.0 - k * k)
        bad = err <= 1e-12
        degenerate |= bad
        err[bad] = 1.0

    freqs, keep = eigvals_narrow_roots(a, sr, max_bandwidth_hz)
    return loop_pick_formants(freqs, keep, degenerate, num_formants)


def companion_roots(a):
    """Reference: all roots of each row's predictor polynomial, the eigenvalues of its companion matrix."""
    num, order = a.shape[0], a.shape[1] - 1
    comp = np.zeros((num, order, order))
    comp[:, 0, :] = -a[:, 1:]
    idx = np.arange(order - 1)
    comp[:, idx + 1, idx] = 1.0
    return np.linalg.eigvals(comp)


def eigvals_narrow_roots(a, sr, max_bandwidth_hz=400.0):
    """Reference: frequencies of all roots of each row's predictor polynomial,
    by the eigenvalues of its companion matrix, and the mask of the narrow ones."""
    roots = companion_roots(a)
    freqs = np.angle(roots) * sr / (2.0 * np.pi)
    with np.errstate(divide="ignore"):
        bandwidths = -(sr / np.pi) * np.log(np.maximum(np.abs(roots), 1e-12))
    return freqs, (roots.imag > 0) & (bandwidths < max_bandwidth_hz)


def silence_noise_tone_resonance():
    """0.5 s each of silence, white noise, a faint tone and a one-resonance noise.

    The faint 700 Hz tone is loud enough to pass the energy floor but so
    predictable that the Levinson error collapses: its frames are
    degenerate. The resonance sits at 1500 Hz with a 60 Hz bandwidth.
    """
    half = SR // 2
    noise = 0.3 * np.random.default_rng(3).standard_normal(half)
    tone = 1e-4 * np.sin(2 * np.pi * 700.0 * np.arange(half) / SR)
    return AudioClip(np.concatenate([np.zeros(half), noise, tone, resonant_noise([1500.0], 60.0, half, 4)]), SR)


@pytest.mark.parametrize(
    "make_clip",
    [
        lambda: AudioClip(resonant_noise([1000.0, 2500.0, 4000.0], 100.0, SR, 0), SR),
        lambda: resample(planted_cry(sample_rate=44100), SR),
        noisy_stack,
        silence_noise_tone_resonance,
    ],
)
def test_lpc_formants_match_fft_reference(make_clip):
    clip = make_clip()
    got = lpc_formants(clip, CFG)
    want = fft_lpc_formants(clip)
    assert got.shape == want.shape
    assert np.array_equal(got > 0, want > 0)
    assert (got > 0).any()
    assert np.all(np.abs(got - want) <= 1e-9 * want)


@pytest.mark.parametrize("num_formants", [1, 3, 12, 14])
def test_pick_formants_matches_loop_bit_for_bit(num_formants):
    rng = np.random.default_rng(num_formants)
    freqs = rng.uniform(-8000.0, 8000.0, (500, 12))
    freqs[:, 6:] = freqs[:, :6]  # ties
    keep = rng.random((500, 12)) < rng.random((500, 1))
    degenerate = rng.random(500) < 0.2
    got = pick_formants(freqs, keep, degenerate, num_formants)
    assert np.array_equal(got, loop_pick_formants(freqs, keep, degenerate, num_formants))


def test_lpc_formants_zero_rows_and_zero_padding():
    out = lpc_formants(silence_noise_tone_resonance(), CFG)
    assert out.shape == (198, 3)
    # silence and the faint tone are degenerate; white noise has no narrow resonance
    assert np.all(out[:48] == 0.0)
    assert np.all(out[50:98] == 0.0)
    assert np.all(out[100:148] == 0.0)
    # one narrow resonance fills the first column and pads the rest with zeros
    tail = out[151:]
    assert np.all(np.abs(tail[:, 0] - 1500.0) < 100.0)
    assert np.all(tail[:, 1:] == 0.0)


RHO = np.exp(-np.pi * 400.0 / SR)  # the modulus of a root of bandwidth 400 Hz


def polynomial(roots):
    """Predictor row [1, a_1, ..., a_n] of the real polynomial with these roots
    and the conjugates of the complex ones."""
    roots = np.asarray(roots, dtype=complex)
    return np.poly(np.concatenate([roots, roots[roots.imag != 0].conj()])).real


def pole(freq_hz, modulus):
    return modulus * np.exp(2j * np.pi * freq_hz / SR)


def check_against_eigvals(a):
    """_formant_roots of predictor rows a pick what the companion eigenvalues
    pick, and the reference's pick is returned."""
    degenerate = np.zeros(len(a), dtype=bool)
    roots = dsp._formant_roots(a, SR)
    got = pick_formants(np.angle(roots) * SR / (2.0 * np.pi), dsp._narrow(roots, SR), degenerate, 6)
    want = pick_formants(*eigvals_narrow_roots(a, SR), degenerate, 6)
    assert np.array_equal(got > 0, want > 0)
    assert np.all(np.abs(got - want) <= 1e-9 * want)
    return want


def certified(a):
    return dsp._certified_roots(a, dsp._envelope_seeds(a), SR)[1]


# the roots of each case that the certificate cannot vouch for, beside a
# narrow one at 2500 Hz that it can and three broad ones
BROAD = [pole(4000.0, 0.6), pole(5500.0, 0.8), pole(7000.0, 0.5)]
FALLBACK_CASES = {
    "root within rounding of the bar": [pole(1000.0, RHO + 1e-13), pole(300.0, 0.4)],
    "double root": [pole(1000.0, 0.97), pole(1000.0, 0.97)],
    "real root outside the bar": [0.97, 0.3, pole(1000.0, 0.97)],
    "narrow roots 60 Hz apart": [pole(1000.0, 0.95), pole(1060.0, 0.95)],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_formant_roots_fall_back_to_eigvals(name):
    a = polynomial(FALLBACK_CASES[name] + [pole(2500.0, 0.97)] + BROAD)[None, :]
    assert a.shape == (1, dsp.LPC_ORDER + 1)
    assert not certified(a).any()
    assert np.count_nonzero(check_against_eigvals(a)) >= 2


@pytest.mark.parametrize("gap, flagged", [(1e-13, True), (-1e-13, True), (1e-3, False), (-1e-3, False)])
def test_count_flags_a_root_within_rounding_of_the_bar(gap, flagged):
    a = polynomial([pole(1000.0, RHO + gap), pole(300.0, 0.4), pole(2500.0, 0.97)] + BROAD)[None, :]
    assert (dsp._count_outside(a, RHO)[1] < dsp.ROOT_PIVOT_TOL)[0] == flagged


def cry_predictors(monkeypatch):
    """The predictor rows lpc_formants hands _formant_roots on a planted cry."""
    rows = []
    real = dsp._formant_roots
    monkeypatch.setattr(dsp, "_formant_roots", lambda a, sr: rows.append(a) or real(a, sr))
    lpc_formants(resample(planted_cry(sample_rate=44100), SR), CFG)
    monkeypatch.setattr(dsp, "_formant_roots", real)
    return np.concatenate(rows)


def test_most_frames_of_a_cry_skip_eigvals(monkeypatch):
    rows = cry_predictors(monkeypatch)
    assert len(rows) > 100
    assert certified(rows).mean() > 0.9
    check_against_eigvals(rows)


@pytest.mark.parametrize("steps", [1, 2])
def test_too_few_newton_steps_fall_back_rather_than_err(steps, monkeypatch):
    rows = cry_predictors(monkeypatch)
    monkeypatch.setattr(dsp, "NEWTON_STEPS", steps)
    assert certified(rows).mean() < 0.9
    check_against_eigvals(rows)


def test_certificate_rejects_a_root_found_twice_or_a_real_one():
    # seeds placed by hand: two on one of two narrow roots, and one that
    # Newton takes onto the first of two real roots outside the bar, just
    # above the real axis (by rounding, so on some machines just on or below)
    twice = polynomial([pole(1000.0, 0.97), pole(2500.0, 0.97), pole(300.0, 0.4)] + BROAD)
    real = polynomial([0.97, -0.97, pole(300.0, 0.4), pole(1000.0, 0.5)] + BROAD)
    a = np.array([twice, real])
    seeds = np.full((2, dsp.LPC_ORDER // 2), np.nan, dtype=complex)
    seeds[0, :2] = pole(1000.0, 0.98)
    seeds[1, 0] = 0.97 + 5e-3j
    assert np.array_equal(dsp._count_outside(a, RHO)[0], [4, 2])
    assert not dsp._certified_roots(a, seeds, SR)[1].any()


def test_formant_roots_need_no_eigvals_without_narrow_roots():
    # all-zero predictor coefficients: every root of P(z) = z**12 is 0, the
    # count finds none outside the bar, and no root is left to vouch for
    a = np.zeros((1, dsp.LPC_ORDER + 1))
    a[0, 0] = 1.0
    assert certified(a).all()
    assert not check_against_eigvals(a).any()


def stable_predictor(reflections):
    """Predictor row of the stable all-pole model with these reflection
    coefficients, by the Levinson step-up recursion."""
    a = np.array([1.0])
    for k in reflections:
        a = np.append(a, 0.0)
        a = a + k * a[::-1]
    return a


# reflection coefficients anywhere in (-1, 1) or within 1e-6 to 1e-2 of +-1,
# where the model's roots near the unit circle
reflection = st.one_of(
    st.floats(-0.99, 0.99),
    st.builds(lambda sign, gap: sign * (1.0 - gap), st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e-2)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(reflection, min_size=12, max_size=12), min_size=1, max_size=8))
def test_formant_roots_match_eigvals_on_stable_predictors(rows):
    a = np.array([stable_predictor(k) for k in rows])
    count, pivot = dsp._count_outside(a, RHO)
    outside = np.count_nonzero(np.abs(companion_roots(a)) > RHO, axis=1)
    trusted = pivot >= dsp.ROOT_PIVOT_TOL
    assert np.array_equal(count[trusted], outside[trusted])
    check_against_eigvals(a)


def test_spectral_slope_exact():
    freqs = np.fft.rfftfreq(512, 1.0 / SR)
    slopes_db_per_hz = np.array([-0.012, 0.004])
    mags = 10.0 ** ((3.0 + slopes_db_per_hz[:, None] * freqs[None, :]) / 20.0)
    spec = Spectrogram(mags**2, freqs, FrameGrid(160, 400, 2, SR))
    got = spectral_slope_band(spec, 0.0, 500.0)
    assert np.allclose(got, slopes_db_per_hz, atol=1e-9)


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
def test_slope_band_bounds_are_those_of_the_rfftfreq_mask(sr):
    masks = {}
    for win in range(3, 4097):
        nfft = dsp._next_pow2(win)
        if nfft not in masks:
            freqs = np.fft.rfftfreq(nfft, 1.0 / sr)
            masks[nfft] = np.flatnonzero((freqs >= 0.0) & (freqs <= 500.0))
        band = masks[nfft]
        if len(band) < 3:
            with pytest.raises(ValueError, match=f"covers {len(band)} bins; need at least 3"):
                dsp.slope_band_bins(0.0, 500.0, win, sr)
        else:
            assert dsp.slope_band_bins(0.0, 500.0, win, sr) == (band[0], band[-1])


def test_a_long_window_costs_a_config_no_memory():
    tracemalloc.start()
    try:
        PipelineConfig(window_s=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6


def test_spectral_slope_needs_bins():
    freqs = np.fft.rfftfreq(512, 1.0 / SR)
    spec = Spectrogram(np.ones((2, len(freqs))), freqs, FrameGrid(160, 400, 2, SR))
    with pytest.raises(ValueError, match="at least 3"):
        spectral_slope_band(spec, 100.0, 140.0)
