"""Segmentation on constructed tone-burst signals with known boundaries."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from cryscreen import segmenter
from cryscreen.audio_io import AudioClip
from cryscreen.config import PipelineConfig
from cryscreen.dsp import estimate_f0, log_mel, loudness, stft
from cryscreen.segmenter import (
    CrySegmentation,
    bridge_voicing_gaps,
    detect_cry_units,
    meets_curation_rule,
    runs_of,
)

SR = 16000
HOP = 0.010


def burst_clip(spans, total_s, f0=450.0, amp=0.4, seed=0):
    """Tone bursts over a faint noise floor; spans are (onset_s, offset_s)."""
    rng = np.random.default_rng(seed)
    x = 1e-4 * rng.standard_normal(int(total_s * SR))
    for on, off in spans:
        i0, i1 = int(on * SR), int(off * SR)
        t = (np.arange(i1 - i0) + 0.5) / SR
        seg = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 6))
        seg = amp * seg / np.max(np.abs(seg))
        ramp = min(int(0.015 * SR), (i1 - i0) // 4)
        env = np.ones(i1 - i0)
        env[:ramp] = np.linspace(0.0, 1.0, ramp)
        env[-ramp:] = np.linspace(1.0, 0.0, ramp)
        x[i0:i1] += seg * env
    return AudioClip(x, SR)


def segment(clip):
    cfg = PipelineConfig()
    f0 = estimate_f0(clip, cfg)
    loud = loudness(log_mel(stft(clip, cfg), cfg))
    return detect_cry_units(f0, loud, cfg)


def assert_close_hops(got, want, hops=2):
    assert abs(got - want) <= hops * HOP + 1e-9, f"{got} vs {want}"


def test_single_burst_boundaries():
    seg = segment(burst_clip([(1.0, 1.5)], 2.5))
    assert len(seg.expirations) == 1
    on, off = seg.expirations[0]
    assert_close_hops(on, 1.0)
    assert_close_hops(off, 1.5)


def test_two_bursts_and_pause():
    seg = segment(burst_clip([(0.5, 1.1), (1.4, 2.0)], 2.6))
    assert len(seg.expirations) == 2
    assert len(seg.pauses) == 1
    p0, p1 = seg.pauses[0]
    assert_close_hops(p1 - p0, 0.3)


def test_short_gap_merges():
    # a 30 ms dip is below min_pause_s and must not split the unit
    seg = segment(burst_clip([(0.5, 1.0), (1.03, 1.5)], 2.0))
    assert len(seg.expirations) == 1


def test_short_blip_dropped():
    # 0.1 s is below the minimum unit duration
    seg = segment(burst_clip([(0.5, 1.2), (1.6, 1.7)], 2.3))
    assert len(seg.expirations) == 1


def test_unvoiced_stretch_splits_unit():
    # loud unvoiced noise in the middle: sustain cannot bridge a voicing
    # dropout longer than the bridged neighborhood
    clip = burst_clip([(0.5, 1.0), (1.2, 1.7)], 2.2)
    rng = np.random.default_rng(3)
    i0, i1 = int(1.0 * SR), int(1.2 * SR)
    clip.samples[i0:i1] += 0.4 * rng.standard_normal(i1 - i0)
    seg = segment(clip)
    assert len(seg.expirations) == 2


def test_silence_yields_nothing():
    rng = np.random.default_rng(1)
    clip = AudioClip(1e-4 * rng.standard_normal(SR), SR)
    seg = segment(clip)
    assert seg.expirations == []
    assert seg.total_cry_seconds == 0.0


@pytest.mark.parametrize("extra", [-1, 1])
def test_loudness_off_the_pitch_grid_is_rejected(extra):
    clip = burst_clip([(0.5, 1.5)], 2.0)
    cfg = PipelineConfig()
    f0 = estimate_f0(clip, cfg)
    loud = loudness(log_mel(stft(clip, cfg), cfg))
    assert len(loud) == f0.grid.num_frames
    loud = np.resize(loud, len(loud) + extra)
    with pytest.raises(ValueError, match="different frame grids"):
        detect_cry_units(f0, loud, cfg)


def test_duty_cycle_robustness():
    # segmentation must survive both sparse and dense phonation
    sparse = segment(burst_clip([(1.0, 1.5)], 5.0))
    assert len(sparse.expirations) == 1
    dense_spans = [(0.2 + i * 1.0, 0.2 + i * 1.0 + 0.85) for i in range(4)]
    dense = segment(burst_clip(dense_spans, 4.5))
    assert len(dense.expirations) == 4


def test_total_cry_and_curation():
    seg = CrySegmentation([(0.5, 2.1), (2.5, 4.0)])
    assert seg.total_cry_seconds == pytest.approx(3.1)
    assert meets_curation_rule(seg, PipelineConfig())
    short = CrySegmentation([(0.5, 2.0), (2.5, 3.9)])
    assert not meets_curation_rule(short, PipelineConfig())


def test_from_expirations_pauses():
    seg = CrySegmentation([(0.5, 1.0), (1.4, 2.0), (2.2, 2.9)])
    assert seg.pauses == [(1.0, 1.4), (2.0, 2.2)]


def test_bridge_voicing_gaps():
    voiced = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1, 0], dtype=bool)
    near = bridge_voicing_gaps(voiced, 3)
    # the 5-frame interior gap fills (up to 2*halfwidth); edges never extend
    assert near.tolist() == [False, False, True, True, True, True, True, True, True, False]
    wide = np.zeros(12, dtype=bool)
    wide[[2, 10]] = True  # 7-frame gap stays open
    assert bridge_voicing_gaps(wide, 3).tolist() == wide.tolist()
    assert bridge_voicing_gaps(np.zeros(5, dtype=bool), 3).tolist() == [False] * 5


def test_runs_of():
    mask = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
    assert runs_of(mask) == [(0, 1), (3, 3), (6, 8)]
    assert runs_of(np.zeros(4, dtype=bool)) == []


@st.composite
def release_masks(draw):
    """A random, all-false or all-true mask, and a reach up to past its length,
    at times far past it, up to the largest int64."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    if kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        mask = np.full(n, kind == "all")
    return mask, draw(st.one_of(st.integers(0, n + 3), st.integers(n + 4, 2**63 - 1)))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(case=release_masks())
@example(case=(np.array([False, True, False]), 2**63 - 1))
def test_dilate_matches_maximum_filter1d(case):
    mask, reach = case
    # a reach past the mask's length covers it as a reach of its length does
    size = 2 * min(reach, len(mask)) + 1
    want = maximum_filter1d(mask.astype(np.uint8), size=size, mode="constant").astype(bool)
    assert np.array_equal(segmenter._dilate(mask, reach), want)
