"""Clinically interpretable cry biomarkers and their per-recording summary.

Detectors operate on per-frame series restricted to one cry unit:

* hyperphonation: sustained voiced phonation above 1000 Hz
* dysphonation:   sustained noisy phonation (high spectral flatness)
* glide:          a pitch jump of several hundred Hz within a tenth of a second
* vibrato:        at least four rapid alternating pitch swings
* melody:         the coarse shape of the unit's pitch contour

Per recording, each biomarker is summarized as the fraction of units where
it occurs and the fraction of in-unit frames it covers, alongside basic
duration statistics of units and pauses. That yields the fixed 26-value
vector in CRY_FEATURE_NAMES.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import median_filter
from scipy.signal import find_peaks

from .dsp import F0Contour, FrameSeries
from .segmenter import CrySegmentation, runs_of

HYPERPHONATION_F0_HZ = 1000.0
HYPERPHONATION_MIN_RUN_S = 0.1
DYSPHONATION_FLATNESS = 0.30
DYSPHONATION_MIN_RUN_S = 0.1
GLIDE_DELTA_HZ = 600.0
GLIDE_MAX_SPAN_S = 0.1
VIBRATO_MIN_EXTREMA = 4
VIBRATO_PROMINENCE_HZ = 40.0
VIBRATO_MAX_SPACING_S = 0.1
MELODY_FLAT_RATIO = 0.15
MELODY_EDGE_FRACTION = 0.2
MELODY_MIN_VOICED_FRAMES = 5

MELODY_TYPES = ["falling", "rising_falling", "rising", "falling_rising", "flat"]

_EPS = 1e-9

CRY_FEATURE_NAMES = [
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
] + [f"melody_{m}_{kind}" for m in MELODY_TYPES for kind in ("unit_frac", "dur_frac")]


@dataclass
class UnitFlags:
    """Frame tallies and unit-level calls for one cry unit."""

    num_frames: int
    hyperphonation_frames: int = 0
    dysphonation_frames: int = 0
    glide_frames: int = 0
    vibrato_present: bool = False
    melody: str = "flat"


def smooth_f0(f0: F0Contour) -> np.ndarray:
    """3-frame median over voiced frames; unvoiced frames stay at 0.

    Unvoiced neighbors are ignored rather than treated as zeros, so a
    voiced frame next to a gap is not dragged down. Each voiced frame
    takes the median of itself and its voiced neighbours: the middle of
    three, the mean of two, or itself alone. These are the values a
    NaN-skipping median gives, selected elementwise without one.
    """
    x = np.asarray(f0.f0_hz, dtype=np.float64)
    voiced = np.asarray(f0.voiced, dtype=bool)
    prev_v = np.zeros_like(voiced)
    prev_v[1:] = voiced[:-1]
    next_v = np.zeros_like(voiced)
    next_v[:-1] = voiced[1:]
    prev = np.zeros_like(x)
    prev[1:] = x[:-1]
    nxt = np.zeros_like(x)
    nxt[:-1] = x[1:]

    # a median of two is (lo + hi) / 2; IEEE addition commutes, so the
    # order of the pair does not matter
    pair = (x + np.where(prev_v, prev, nxt)) / 2.0
    triple = np.maximum(np.minimum(prev, nxt), np.minimum(np.maximum(prev, nxt), x))
    med = np.where(prev_v & next_v, triple, np.where(prev_v | next_v, pair, x))
    return np.where(voiced, med, 0.0)


def _smoothed_in_unit(f0: F0Contour, sl: slice) -> np.ndarray:
    """smooth_f0 values of the frames in sl, equal to those of the whole clip.

    The median window reaches one frame to each side, so smoothing the
    unit's frames plus one neighbour on each side reproduces every in-unit
    value while the cost follows the unit's length, not the clip's.
    """
    lo = max(sl.start - 1, 0)
    hi = max(min(sl.stop + 1, f0.grid.num_frames), lo)
    grid = replace(f0.grid, num_frames=hi - lo)
    window = F0Contour(f0.f0_hz[lo:hi], f0.voiced[lo:hi], f0.confidence[lo:hi], grid)
    return smooth_f0(window)[sl.start - lo : sl.stop - lo]


def _min_run_frames(min_run_s: float, hop_s: float) -> int:
    # a run of n frames spans n hops of signal
    return max(int(np.ceil(min_run_s / hop_s - _EPS)), 1)


def _flag_sustained(condition: np.ndarray, sl: slice, min_frames: int, total: int) -> np.ndarray:
    """Full-grid mask of frames inside runs of at least min_frames where condition holds.

    condition holds one value per frame of the unit sl, so the runs never
    reach past the unit.
    """
    out = np.zeros(total, dtype=bool)
    for start, end in runs_of(condition):
        if end - start + 1 >= min_frames:
            out[sl.start + start : sl.start + end + 1] = True
    return out


def detect_hyperphonation(
    f0: F0Contour,
    unit: tuple[float, float],
    threshold_hz: float = HYPERPHONATION_F0_HZ,
    min_run_s: float = HYPERPHONATION_MIN_RUN_S,
) -> np.ndarray:
    """Flag frames in sustained voiced runs with f0 above threshold_hz."""
    sl = f0.grid.frame_slice(*unit)
    cond = f0.voiced[sl] & (f0.f0_hz[sl] > threshold_hz)
    return _flag_sustained(cond, sl, _min_run_frames(min_run_s, f0.grid.hop_seconds), f0.grid.num_frames)


def detect_dysphonation(
    flatness: FrameSeries,
    unit: tuple[float, float],
    threshold: float = DYSPHONATION_FLATNESS,
    min_run_s: float = DYSPHONATION_MIN_RUN_S,
) -> np.ndarray:
    """Flag frames in sustained runs of high spectral flatness within the unit.

    No voicing gate here: heavily dysphonic frames often defeat pitch
    tracking, and requiring voicing would hide exactly the frames this
    biomarker is about. The series is median smoothed over 3 frames first,
    mirroring the pitch smoothing of the contour detectors, so a single
    outlier frame neither breaks a sustained run nor fakes one.
    """
    sl = flatness.grid.frame_slice(*unit)
    vals = np.asarray(flatness.values[sl], dtype=np.float64)
    if len(vals) >= 3:
        vals = median_filter(vals, size=3, mode="nearest")
    cond = vals > threshold
    return _flag_sustained(cond, sl, _min_run_frames(min_run_s, flatness.grid.hop_seconds), flatness.grid.num_frames)


def detect_glide(
    f0: F0Contour,
    unit: tuple[float, float],
    delta_hz: float = GLIDE_DELTA_HZ,
    max_span_s: float = GLIDE_MAX_SPAN_S,
) -> np.ndarray:
    """Flag frames that start a rapid pitch jump.

    Frame t is flagged when the smoothed contour moves by at least
    delta_hz between t and some voiced frame at most max_span_s later,
    with both endpoints voiced and inside the unit.
    """
    grid = f0.grid
    sl = grid.frame_slice(*unit)
    seg = _smoothed_in_unit(f0, sl)
    max_k = int(np.floor(max_span_s / grid.hop_seconds + _EPS))
    out = np.zeros(grid.num_frames, dtype=bool)
    t0, t1 = sl.start, sl.stop
    if t1 - t0 < 2:
        return out
    v = f0.voiced[t0:t1].astype(bool)
    n = t1 - t0
    for k in range(1, min(max_k, n - 1) + 1):
        jump = (np.abs(seg[k:] - seg[:-k]) >= delta_hz) & v[k:] & v[:-k]
        out[t0 : t1 - k][jump] = True
    return out


def detect_vibrato(
    f0: F0Contour,
    unit: tuple[float, float],
    min_extrema: int = VIBRATO_MIN_EXTREMA,
    prominence_hz: float = VIBRATO_PROMINENCE_HZ,
    max_spacing_s: float = VIBRATO_MAX_SPACING_S,
) -> bool:
    """True when the unit carries at least min_extrema alternating pitch
    extrema of sufficient prominence, each following the last within
    max_spacing_s."""
    grid = f0.grid
    sl = grid.frame_slice(*unit)
    smoothed = _smoothed_in_unit(f0, sl)
    vpos = np.flatnonzero(f0.voiced[sl]) + sl.start
    if len(vpos) < 3:
        return False
    contour = smoothed[vpos - sl.start]
    peaks, _ = find_peaks(contour, prominence=prominence_hz)
    troughs, _ = find_peaks(-contour, prominence=prominence_hz)
    extrema = sorted([(p, 1) for p in peaks] + [(t, -1) for t in troughs])
    if len(extrema) < min_extrema:
        return False
    max_gap = max_spacing_s / grid.hop_seconds + _EPS
    best = run = 1
    for i in range(1, len(extrema)):
        alternates = extrema[i][1] != extrema[i - 1][1]
        close = (vpos[extrema[i][0]] - vpos[extrema[i - 1][0]]) <= max_gap
        run = run + 1 if (alternates and close) else 1
        best = max(best, run)
    return best >= min_extrema


def classify_melody(
    f0: F0Contour,
    unit: tuple[float, float],
    flat_ratio: float = MELODY_FLAT_RATIO,
    edge_fraction: float = MELODY_EDGE_FRACTION,
    min_voiced_frames: int = MELODY_MIN_VOICED_FRAMES,
) -> str:
    """Label the unit's pitch contour shape.

    The contour is flat when its relative range is small. Otherwise the
    positions of the global extremes decide: a late maximum on a net rise
    is rising, an early maximum on a net fall is falling, an interior
    maximum is rising_falling, and an interior minimum (with the maximum
    at an edge) is falling_rising. Units with too few voiced frames for a
    meaningful shape default to flat.
    """
    sl = f0.grid.frame_slice(*unit)
    contour = _smoothed_in_unit(f0, sl)[f0.voiced[sl]]
    n = len(contour)
    if n < min_voiced_frames:
        return "flat"
    hi, lo = float(contour.max()), float(contour.min())
    if (hi - lo) / contour.mean() < flat_ratio:
        return "flat"
    p = int(np.argmax(contour)) / (n - 1)
    q = int(np.argmin(contour)) / (n - 1)
    net = contour[-1] - contour[0]
    if p >= 1.0 - edge_fraction and net > 0:
        return "rising"
    if p <= edge_fraction and net < 0:
        return "falling"
    if edge_fraction < p < 1.0 - edge_fraction:
        return "rising_falling"
    if edge_fraction < q < 1.0 - edge_fraction:
        return "falling_rising"
    return "flat"


def unit_biomarker_flags(
    f0: F0Contour,
    flatness: FrameSeries,
    unit: tuple[float, float],
    hyperphonation_f0_hz: float = HYPERPHONATION_F0_HZ,
    hyperphonation_min_run_s: float = HYPERPHONATION_MIN_RUN_S,
    dysphonation_flatness: float = DYSPHONATION_FLATNESS,
    dysphonation_min_run_s: float = DYSPHONATION_MIN_RUN_S,
    glide_delta_hz: float = GLIDE_DELTA_HZ,
    glide_max_span_s: float = GLIDE_MAX_SPAN_S,
    vibrato_min_extrema: int = VIBRATO_MIN_EXTREMA,
    vibrato_prominence_hz: float = VIBRATO_PROMINENCE_HZ,
    vibrato_max_spacing_s: float = VIBRATO_MAX_SPACING_S,
    melody_flat_ratio: float = MELODY_FLAT_RATIO,
    melody_edge_fraction: float = MELODY_EDGE_FRACTION,
) -> UnitFlags:
    """Run every detector for one unit and tally the results."""
    sl = f0.grid.frame_slice(*unit)
    hyper = detect_hyperphonation(f0, unit, hyperphonation_f0_hz, hyperphonation_min_run_s)
    dys = detect_dysphonation(flatness, unit, dysphonation_flatness, dysphonation_min_run_s)
    glide = detect_glide(f0, unit, glide_delta_hz, glide_max_span_s)
    vib = detect_vibrato(f0, unit, vibrato_min_extrema, vibrato_prominence_hz, vibrato_max_spacing_s)
    melody = classify_melody(f0, unit, melody_flat_ratio, melody_edge_fraction)
    return UnitFlags(
        num_frames=sl.stop - sl.start,
        hyperphonation_frames=int(hyper.sum()),
        dysphonation_frames=int(dys.sum()),
        glide_frames=int(glide.sum()),
        vibrato_present=bool(vib),
        melody=melody,
    )


def durational_features(seg: CrySegmentation) -> dict[str, float]:
    """Mean/std/max/min of unit and pause durations (population std).

    A recording with a single unit has no pauses; all four pause
    statistics are then 0.
    """
    if not seg.expirations:
        raise ValueError("cannot summarize a segmentation with zero cry units")
    out: dict[str, float] = {}
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


def aggregate_biomarkers(seg: CrySegmentation, flags: list[UnitFlags]) -> dict[str, float]:
    """Summarize per-unit flags into the 26-value biomarker vector.

    unit_frac features count affected units over all units; dur_frac
    features count affected frames over all in-unit frames (whole-unit
    membership for vibrato and melody).
    """
    if not flags or len(flags) != len(seg.expirations):
        raise ValueError(f"need one UnitFlags per cry unit, got {len(flags)} for {len(seg.expirations)} units")
    total_units = len(flags)
    total_frames = sum(f.num_frames for f in flags)
    if total_frames == 0:
        raise ValueError("cry units cover zero frames")

    vec = durational_features(seg)
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
