"""Detector checks on hand-built contours where the right answer is countable."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter
from scipy.signal import find_peaks

from cryscreen import biomarkers
from cryscreen.biomarkers import (
    CRY_FEATURE_NAMES,
    MELODY_TYPES,
    UnitFlags,
    aggregate_biomarkers,
    classify_melody,
    detect_dysphonation,
    detect_glide,
    detect_hyperphonation,
    detect_vibrato,
    durational_features,
    smooth_f0,
    unit_biomarker_flags,
)
from cryscreen.config import PipelineConfig
from cryscreen.dsp import F0Contour, FrameGrid
from cryscreen.segmenter import CrySegmentation, runs_of

HOP = 0.010
CONFIG = PipelineConfig()


def grid_of(n):
    return FrameGrid(160, 400, n, 16000)


def contour(f0_values, voiced=None):
    f0 = np.asarray(f0_values, dtype=np.float64)
    if voiced is None:
        voiced = f0 > 0
    voiced = np.asarray(voiced, dtype=bool)
    return F0Contour(np.where(voiced, f0, 0.0), voiced, voiced.astype(float), grid_of(len(f0)))


def smoothed(f0_values, voiced=None):
    """Smoothed pitch and voicing of a contour that is one whole unit."""
    f0 = contour(f0_values, voiced)
    return smooth_f0(f0.f0_hz, f0.voiced), f0.voiced


def melody_of(f0_values):
    pitch, voiced = smoothed(f0_values)
    return classify_melody(pitch[voiced], CONFIG)


def test_smooth_f0_kills_lone_spike():
    f0 = contour([100.0] * 5 + [500.0] + [100.0] * 5)
    assert np.all(smooth_f0(f0.f0_hz, f0.voiced) == 100.0)


def test_smooth_f0_skips_unvoiced_neighbors():
    f0 = contour([0.0, 400.0, 500.0], voiced=[False, True, True])
    out = smooth_f0(f0.f0_hz, f0.voiced)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(450.0)
    assert out[2] == pytest.approx(450.0)


def nanmedian_smooth_f0(f0):
    """Reference: smooth_f0 as a NaN-skipping median over the (3, n) stack."""
    vals = np.where(f0.voiced, f0.f0_hz, np.nan)
    stack = np.full((3, len(vals)), np.nan)
    stack[0, :] = vals
    stack[1, 1:] = vals[:-1]
    stack[2, :-1] = vals[1:]
    voiced = np.asarray(f0.voiced, dtype=bool)
    med = np.zeros(len(vals))
    if voiced.any():
        med[voiced] = np.nanmedian(stack[:, voiced], axis=0)
    return med


def test_smooth_f0_matches_nanmedian_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    edges = np.array([True, False, True, True, False, False, True, False, True])
    cases = [
        contour([450.0, 451.0, 449.5], [True, True, True]),
        contour([450.0, 0.0, 700.0], [True, False, True]),  # isolated voiced frames
        contour(np.full(5, 450.0), np.zeros(5, dtype=bool)),  # all unvoiced
        contour([612.3], [True]),
        contour([612.3, 998.1], [True, True]),
        contour(rng.uniform(200.0, 2000.0, 9), edges),  # voiced at both clip edges
        contour(rng.uniform(200.0, 2000.0, 9), ~edges),  # unvoiced at both edges
    ]
    for n in (2, 3, 10, 80, 250, 1000):
        for density in (0.1, 0.5, 0.9, 1.0):
            values = rng.uniform(200.0, 2000.0, n)
            values[rng.random(n) < 0.2] = 450.0  # ties
            cases.append(contour(values, rng.random(n) < density))
    for f0 in cases:
        got = smooth_f0(f0.f0_hz, f0.voiced)
        want = nanmedian_smooth_f0(f0)
        assert np.array_equal(got, want), (f0.f0_hz, f0.voiced)
        assert np.all(got[~f0.voiced] == 0.0)


def run_contour(base, hi, start, length, n=60):
    vals = np.full(n, base)
    vals[start : start + length] = hi
    return contour(vals)


def test_hyperphonation_counts_sustained_run():
    f0 = run_contour(900.0, 1200.0, 20, 15)
    mask = detect_hyperphonation(f0.f0_hz, f0.voiced, HOP, CONFIG)
    assert mask.sum() == 15
    assert np.flatnonzero(mask).tolist() == list(range(20, 35))


def test_hyperphonation_min_run_boundary():
    # 0.1 s at a 10 ms hop is exactly 10 frames: 10 counts, 9 does not
    f0 = run_contour(900.0, 1200.0, 20, 10)
    ok = detect_hyperphonation(f0.f0_hz, f0.voiced, HOP, CONFIG)
    assert ok.sum() == 10
    f0 = run_contour(900.0, 1200.0, 20, 9)
    short = detect_hyperphonation(f0.f0_hz, f0.voiced, HOP, CONFIG)
    assert short.sum() == 0


def test_hyperphonation_threshold_strict():
    f0 = run_contour(900.0, 1000.0, 20, 15)  # exactly at the bar
    assert detect_hyperphonation(f0.f0_hz, f0.voiced, HOP, CONFIG).sum() == 0


def test_hyperphonation_needs_voicing():
    vals = np.full(60, 900.0)
    vals[20:35] = 1200.0
    voiced = np.ones(60, dtype=bool)
    voiced[20:35] = False
    f0 = contour(vals, voiced)
    assert detect_hyperphonation(f0.f0_hz, f0.voiced, HOP, CONFIG).sum() == 0


def test_hyperphonation_respects_unit_bounds():
    f0 = run_contour(900.0, 1200.0, 20, 15)
    # a unit of 0.22 s holds frames 0-21, two frames of the run
    sl = f0.grid.frame_slice(0.0, 0.22)
    assert detect_hyperphonation(f0.f0_hz[sl], f0.voiced[sl], HOP, CONFIG).sum() == 0


def test_dysphonation_counts_run():
    flat = np.full(60, 0.10)
    flat[10:25] = 0.50
    mask = detect_dysphonation(flat, HOP, CONFIG)
    assert np.flatnonzero(mask).tolist() == list(range(10, 25))


def test_dysphonation_median_bridges_single_dip():
    # one frame dipping under the bar must not break a sustained run
    flat = np.full(60, 0.10)
    flat[10:32] = 0.45
    flat[17] = 0.29
    mask = detect_dysphonation(flat, HOP, CONFIG)
    assert mask.sum() == 22


def test_dysphonation_median_removes_lone_spike():
    flat = np.full(60, 0.10)
    flat[30] = 0.90
    flat[40:49] = 0.50  # 9 frames: below the minimum run
    assert detect_dysphonation(flat, HOP, CONFIG).sum() == 0


def test_dysphonation_threshold_strict():
    flat = np.full(60, 0.30)  # exactly at the bar, not above
    assert detect_dysphonation(flat, HOP, CONFIG).sum() == 0


def test_glide_window_of_start_frames():
    vals = np.concatenate([np.full(20, 300.0), np.full(20, 950.0)])
    mask = detect_glide(*smoothed(vals), HOP, CONFIG)
    # every frame within 0.1 s before the jump sees a 650 Hz move
    assert np.flatnonzero(mask).tolist() == list(range(10, 20))


def test_glide_needs_voiced_endpoints():
    vals = np.concatenate([np.full(20, 300.0), np.full(20, 950.0)])
    voiced = np.ones(40, dtype=bool)
    voiced[20:32] = False  # the landing side is too far to reach when unvoiced
    assert detect_glide(*smoothed(vals, voiced), HOP, CONFIG).sum() == 0


def test_glide_slow_rise_not_flagged():
    vals = np.concatenate([np.full(10, 300.0), np.linspace(300.0, 950.0, 30), np.full(10, 950.0)])
    assert detect_glide(*smoothed(vals), HOP, CONFIG).sum() == 0


def test_vibrato_modulated_contour():
    t = np.arange(80) * HOP
    vals = 450.0 + 80.0 * np.sin(2 * np.pi * 8.0 * t)
    assert detect_vibrato(*smoothed(vals), HOP, CONFIG)


def test_vibrato_shallow_not_detected():
    t = np.arange(80) * HOP
    vals = 450.0 + 15.0 * np.sin(2 * np.pi * 8.0 * t)
    assert not detect_vibrato(*smoothed(vals), HOP, CONFIG)


def test_vibrato_slow_wobble_not_detected():
    # 2 Hz puts successive extrema 0.25 s apart, far over the spacing cap
    t = np.arange(150) * HOP
    vals = 450.0 + 80.0 * np.sin(2 * np.pi * 2.0 * t)
    assert not detect_vibrato(*smoothed(vals), HOP, CONFIG)


def test_vibrato_needs_four_extrema():
    t = np.arange(20) * HOP  # 1.5 cycles at 8 Hz: three extrema
    vals = 450.0 + 80.0 * np.sin(2 * np.pi * 8.0 * t)
    assert not detect_vibrato(*smoothed(vals), HOP, CONFIG)


def test_vibrato_counts_extrema_that_alternate_in_time():
    # two quick swing pairs 0.3 s apart: four extrema, but the chain breaks at the gap
    vals = np.full(60, 450.0)
    vals[[5, 15, 45, 55]] = [530.0, 370.0, 530.0, 370.0]
    voiced = np.ones(60, dtype=bool)
    assert not detect_vibrato(vals, voiced, HOP, CONFIG)
    assert detect_vibrato(vals, voiced, HOP, PipelineConfig(vibrato_max_spacing_s=0.3))


@st.composite
def peak_series(draw):
    """Integer series with plateaus and ties, or a drifting float walk."""
    n = draw(st.integers(3, 60))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        return np.array(levels, dtype=np.float64), float(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    steps = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    drift = draw(st.floats(-0.3, 0.3))
    x = np.cumsum(np.array(steps) + drift) * 100.0
    return x, draw(st.floats(0.0, 150.0))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(case=peak_series())
def test_prominent_extrema_match_find_peaks(case):
    x, prominence = case
    pos, is_max = biomarkers._prominent_extrema(x, prominence)
    assert np.all(np.diff(pos) > 0)
    assert np.array_equal(pos[is_max], find_peaks(x, prominence=prominence)[0])
    assert np.array_equal(pos[~is_max], find_peaks(-x, prominence=prominence)[0])


def test_melody_five_shapes():
    n = 50
    u = np.linspace(0.0, 1.0, n)
    rising = 400.0 + 200.0 * u
    falling = 600.0 - 200.0 * u
    flat = np.full(n, 500.0)
    tent = 400.0 + 200.0 * (1.0 - np.abs(2.0 * u - 1.0))
    dip = np.interp(u, [0.0, 0.1, 0.5, 1.0], [620.0, 640.0, 400.0, 630.0])
    cases = {
        "rising": rising,
        "falling": falling,
        "flat": flat,
        "rising_falling": tent,
        "falling_rising": dip,
    }
    for want, vals in cases.items():
        got = melody_of(vals)
        assert got == want, f"{want}: got {got}"
    assert set(cases) == set(MELODY_TYPES)


def test_melody_flat_band_is_relative():
    n = 50
    u = np.linspace(0.0, 1.0, n)
    # 7% swing around the mean stays flat; 20% does not
    assert melody_of(500.0 + 35.0 * u) == "flat"
    assert melody_of(500.0 + 100.0 * u) == "rising"


def test_melody_edge_fraction_rule():
    n = 51
    u = np.linspace(0.0, 1.0, n)
    late_peak = 400.0 + 200.0 * np.interp(u, [0.0, 0.85, 1.0], [0.0, 1.0, 0.9])
    assert melody_of(late_peak) == "rising"
    mid_peak = 400.0 + 200.0 * np.interp(u, [0.0, 0.5, 1.0], [0.0, 1.0, 0.9])
    assert melody_of(mid_peak) == "rising_falling"


def test_melody_too_few_voiced_frames():
    vals = np.array([300.0, 500.0, 700.0, 900.0])
    assert melody_of(vals) == "flat"


def test_melody_degenerate_falls_back_flat():
    # early dip at the very edge with max near the start: no shape rule fits
    vals = np.concatenate([[500.0, 400.0, 400.0], np.full(18, 500.0)])
    assert melody_of(vals) == "flat"


def test_unit_flags_tally_matches_detectors():
    n = 120
    vals = np.full(n, 900.0)
    vals[30:45] = 1200.0
    f0 = contour(vals)
    flat = np.full(n, 0.05)
    flat[60:75] = 0.50
    unit = (0.0, 1.2)
    pitch, voiced = smoothed(vals)
    flags = unit_biomarker_flags(f0, flat, unit, pitch, CONFIG)
    assert flags.num_frames == 120
    assert flags.hyperphonation_frames == 15
    assert flags.dysphonation_frames == 15
    assert flags.glide_frames == int(detect_glide(pitch, voiced, HOP, CONFIG).sum())
    assert flags.vibrato_present == detect_vibrato(pitch, voiced, HOP, CONFIG)
    assert flags.melody == classify_melody(pitch[voiced], CONFIG)


def varied_contour(n=200, seed=8):
    """Vibrato, glides, a hyperphonated stretch and scattered unvoiced frames."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * HOP
    vals = 500.0 + 80.0 * np.sin(2 * np.pi * 8.0 * t) + rng.normal(0.0, 5.0, n)
    vals[40:60] += 700.0
    vals[120:150] = 1250.0
    vals[170:] += np.linspace(0.0, 300.0, n - 170)
    return contour(vals, voiced=rng.random(n) > 0.15)


# (onset, offset) in seconds on the 10 ms grid: a unit from frame 0, one
# ending on the last frame, a 1-frame and a 2-frame unit, and two units
# separated by a one-frame gap
EDGE_UNITS = [(0.0, 0.3), (1.6, 2.0), (0.35, 0.36), (0.39, 0.41), (0.6, 0.9), (0.91, 1.5)]


def whole_clip_sustained(condition, sl, min_frames):
    """Reference: runs of condition over the whole grid, masked to the unit first."""
    local = np.zeros(len(condition), dtype=bool)
    local[sl] = condition[sl]
    out = np.zeros(len(condition), dtype=bool)
    for start, end in runs_of(local):
        if end - start + 1 >= min_frames:
            out[start : end + 1] = True
    return out


@pytest.mark.parametrize("min_run_s, min_frames", [(0.1, 10), (0.02, 2)])
@pytest.mark.parametrize("unit", EDGE_UNITS)
def test_sustained_detectors_match_whole_clip_reference(unit, min_run_s, min_frames):
    f0 = varied_contour()
    flat = np.random.default_rng(3).uniform(0.0, 0.6, 200)
    sl = f0.grid.frame_slice(*unit)
    smoothed = flat.copy()
    if sl.stop - sl.start >= 3:
        smoothed[sl] = median_filter(smoothed[sl], size=3, mode="nearest")
    hyper = whole_clip_sustained(f0.voiced & (f0.f0_hz > 1000.0), sl, min_frames)
    dys = whole_clip_sustained(smoothed > 0.3, sl, min_frames)
    config = PipelineConfig(hyperphonation_min_run_s=min_run_s, dysphonation_min_run_s=min_run_s)
    assert np.array_equal(detect_hyperphonation(f0.f0_hz[sl], f0.voiced[sl], HOP, config), hyper[sl])
    assert np.array_equal(detect_dysphonation(flat[sl], HOP, config), dys[sl])
    outside = np.ones(200, dtype=bool)
    outside[sl] = False
    assert not hyper[outside].any() and not dys[outside].any()


@st.composite
def median_series(draw):
    """Integer series with ties, or float series, of any length from 1."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.float64)
    return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(x=median_series())
def test_median3_matches_median_filter(x):
    assert np.array_equal(biomarkers._median3(x), median_filter(x, size=3, mode="nearest"))


def test_durational_features_exact():
    seg = CrySegmentation([(0.5, 1.5), (2.0, 2.6), (3.0, 4.4)])
    out = durational_features(seg)
    units = np.array([1.0, 0.6, 1.4])
    pauses = np.array([0.5, 0.4])
    assert out["cry_unit_dur_mean"] == pytest.approx(units.mean())
    assert out["cry_unit_dur_std"] == pytest.approx(units.std())
    assert out["cry_unit_dur_max"] == pytest.approx(1.4)
    assert out["cry_unit_dur_min"] == pytest.approx(0.6)
    assert out["pause_dur_mean"] == pytest.approx(pauses.mean())
    assert out["pause_dur_min"] == pytest.approx(0.4)


def test_durational_features_single_unit():
    out = durational_features(CrySegmentation([(0.5, 1.5)]))
    assert out["pause_dur_mean"] == 0.0
    assert out["pause_dur_std"] == 0.0
    with pytest.raises(ValueError, match="zero cry units"):
        durational_features(CrySegmentation([]))


def test_aggregate_exact_fractions():
    seg = CrySegmentation([(0.0, 1.0), (1.5, 2.5), (3.0, 4.0), (4.5, 5.5)])
    flags = [
        UnitFlags(num_frames=100, hyperphonation_frames=20, melody="rising"),
        UnitFlags(num_frames=100, dysphonation_frames=30, melody="flat"),
        UnitFlags(num_frames=100, glide_frames=5, vibrato_present=True, melody="flat"),
        UnitFlags(num_frames=100, melody="falling"),
    ]
    vec = aggregate_biomarkers(seg, flags)
    assert set(vec) == set(CRY_FEATURE_NAMES)
    assert vec["hyperphonation_unit_frac"] == 0.25
    assert vec["hyperphonation_dur_frac"] == 20 / 400
    assert vec["dysphonation_unit_frac"] == 0.25
    assert vec["glide_dur_frac"] == 5 / 400
    assert vec["vibrato_unit_frac"] == 0.25
    assert vec["vibrato_dur_frac"] == 100 / 400
    assert vec["melody_flat_unit_frac"] == 0.5
    assert vec["melody_flat_dur_frac"] == 200 / 400
    assert vec["melody_rising_unit_frac"] == 0.25
    melody_sum = sum(vec[f"melody_{m}_unit_frac"] for m in MELODY_TYPES)
    assert melody_sum == pytest.approx(1.0, abs=1e-9)
    fracs = [v for k, v in vec.items() if k.endswith("_frac")]
    assert all(0.0 <= v <= 1.0 for v in fracs)
    assert all(np.isfinite(v) for v in vec.values())


def test_aggregate_validates_lengths():
    seg = CrySegmentation([(0.0, 1.0), (1.5, 2.5)])
    with pytest.raises(ValueError, match="one UnitFlags per cry unit"):
        aggregate_biomarkers(seg, [UnitFlags(num_frames=10)])


def test_feature_name_count():
    assert len(CRY_FEATURE_NAMES) == 26
    assert len(set(CRY_FEATURE_NAMES)) == 26


# The column list and the summary as they were written out by hand before
# BIOMARKERS and DURATION_STATS declared them: references for the built ones.
REFERENCE_CRY_FEATURE_NAMES = [
    "cry_unit_dur_mean",
    "cry_unit_dur_std",
    "cry_unit_dur_max",
    "cry_unit_dur_min",
    "pause_dur_mean",
    "pause_dur_std",
    "pause_dur_max",
    "pause_dur_min",
    "hyperphonation_unit_frac",
    "hyperphonation_dur_frac",
    "dysphonation_unit_frac",
    "dysphonation_dur_frac",
    "glide_unit_frac",
    "glide_dur_frac",
    "vibrato_unit_frac",
    "vibrato_dur_frac",
    "melody_falling_unit_frac",
    "melody_falling_dur_frac",
    "melody_rising_falling_unit_frac",
    "melody_rising_falling_dur_frac",
    "melody_rising_unit_frac",
    "melody_rising_dur_frac",
    "melody_falling_rising_unit_frac",
    "melody_falling_rising_dur_frac",
    "melody_flat_unit_frac",
    "melody_flat_dur_frac",
]


def reference_durational_features(seg):
    if not seg.expirations:
        raise ValueError("cannot summarize a segmentation with zero cry units")
    out = {}
    unit_d = np.array([b - a for a, b in seg.expirations])
    out["cry_unit_dur_mean"] = float(np.mean(unit_d))
    out["cry_unit_dur_std"] = float(np.std(unit_d))
    out["cry_unit_dur_max"] = float(np.max(unit_d))
    out["cry_unit_dur_min"] = float(np.min(unit_d))
    if seg.pauses:
        pause_d = np.array([b - a for a, b in seg.pauses])
        out["pause_dur_mean"] = float(np.mean(pause_d))
        out["pause_dur_std"] = float(np.std(pause_d))
        out["pause_dur_max"] = float(np.max(pause_d))
        out["pause_dur_min"] = float(np.min(pause_d))
    else:
        out.update(pause_dur_mean=0.0, pause_dur_std=0.0, pause_dur_max=0.0, pause_dur_min=0.0)
    return out


def reference_aggregate_biomarkers(seg, flags):
    if not flags or len(flags) != len(seg.expirations):
        raise ValueError(f"need one UnitFlags per cry unit, got {len(flags)} for {len(seg.expirations)} units")
    total_units = len(flags)
    total_frames = sum(f.num_frames for f in flags)
    if total_frames == 0:
        raise ValueError("cry units cover zero frames")

    vec = reference_durational_features(seg)
    vec["hyperphonation_unit_frac"] = sum(1 for f in flags if f.hyperphonation_frames > 0) / total_units
    vec["hyperphonation_dur_frac"] = sum(f.hyperphonation_frames for f in flags) / total_frames
    vec["dysphonation_unit_frac"] = sum(1 for f in flags if f.dysphonation_frames > 0) / total_units
    vec["dysphonation_dur_frac"] = sum(f.dysphonation_frames for f in flags) / total_frames
    vec["glide_unit_frac"] = sum(1 for f in flags if f.glide_frames > 0) / total_units
    vec["glide_dur_frac"] = sum(f.glide_frames for f in flags) / total_frames
    vec["vibrato_unit_frac"] = sum(1 for f in flags if f.vibrato_present) / total_units
    vec["vibrato_dur_frac"] = sum(f.num_frames for f in flags if f.vibrato_present) / total_frames
    for m in MELODY_TYPES:
        members = [f for f in flags if f.melody == m]
        vec[f"melody_{m}_unit_frac"] = len(members) / total_units
        vec[f"melody_{m}_dur_frac"] = sum(f.num_frames for f in members) / total_frames
    return vec


def test_feature_names_equal_the_written_list():
    assert CRY_FEATURE_NAMES == REFERENCE_CRY_FEATURE_NAMES


def outcome(fn, *args):
    """fn's result as (key, float bits) pairs in order, or the text of its refusal."""
    try:
        return [(k, float(v).hex()) for k, v in fn(*args).items()]
    except ValueError as exc:
        return ("refused", str(exc))


@st.composite
def summary_case(draw):
    """A segmentation and a list of UnitFlags, mostly one per unit; frames
    may be 0 and vibrato may be called on a unit of no frames."""
    gaps = draw(st.lists(st.floats(0.001, 3.0), min_size=0, max_size=12))
    edges = np.cumsum([0.0, *gaps]).tolist()
    expirations = list(zip(edges[0::2], edges[1::2]))
    n_flags = draw(st.one_of(st.just(len(expirations)), st.integers(0, 7)))
    frames = st.integers(0, 40)
    flags = [
        UnitFlags(
            num_frames=draw(frames),
            hyperphonation_frames=draw(frames),
            dysphonation_frames=draw(frames),
            glide_frames=draw(frames),
            vibrato_present=draw(st.booleans()),
            melody=draw(st.sampled_from(MELODY_TYPES)),
        )
        for _ in range(n_flags)
    ]
    return CrySegmentation(expirations), flags


TWO_UNITS = CrySegmentation([(0.0, 1.0), (1.5, 2.5)])


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(case=summary_case())
@example(case=(TWO_UNITS, [UnitFlags(num_frames=0, vibrato_present=True), UnitFlags(num_frames=10)]))
@example(case=(TWO_UNITS, [UnitFlags(num_frames=0, vibrato_present=True), UnitFlags(num_frames=0)]))
def test_aggregate_equals_the_written_reference(case):
    seg, flags = case
    assert outcome(aggregate_biomarkers, seg, flags) == outcome(reference_aggregate_biomarkers, seg, flags)
    assert outcome(durational_features, seg) == outcome(reference_durational_features, seg)

