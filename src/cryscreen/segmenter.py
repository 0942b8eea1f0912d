"""Expiratory cry-unit segmentation from loudness and voicing.

A cry recording alternates between expiratory phonation (the cry units)
and pauses. Units are found where the frame loudness clears an adaptive
threshold and voicing is present; brief voicing dropouts inside a unit are
bridged, sub-perceptual gaps are merged away and too-short fragments are
dropped. The loudness levels adapt to the clip so recording gain does not
need per-file calibration; the fractions, durations and the voicing
neighbourhood behind them come from the PipelineConfig each stage is
passed. Pause and unit durations count whole frames by dsp.frames_within,
the one rule for where a duration falls on the frame grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .dsp import DURATION_TOL, F0Contour, FrameGrid, frames_within


@dataclass
class CrySegmentation:
    """Expiration intervals in seconds, in order; the pauses are the gaps between them."""

    expirations: list[tuple[float, float]]

    @property
    def pauses(self) -> list[tuple[float, float]]:
        return [(a[1], b[0]) for a, b in zip(self.expirations, self.expirations[1:])]

    @property
    def total_cry_seconds(self) -> float:
        return float(sum(b - a for a, b in self.expirations))


def bridge_voicing_gaps(voiced: np.ndarray, halfwidth: int) -> np.ndarray:
    """Fill unvoiced gaps of up to 2*halfwidth frames between voiced frames.

    Gaps at the clip edges are left alone, so the result never extends
    beyond the first or last voiced frame: the closing (dilation, then
    erosion, by halfwidth) runs from the first to the last, as over the
    whole mask it would also fill an edge gap of up to halfwidth frames.
    """
    out = voiced.copy()
    idx = np.flatnonzero(voiced)
    if len(idx):
        span = slice(idx[0], idx[-1] + 1)
        out[span] = ~_dilate(~_dilate(voiced[span], halfwidth), halfwidth)
    return out


def detect_cry_units(f0: F0Contour, loud: np.ndarray, config: PipelineConfig) -> CrySegmentation:
    """Segment a clip into expiratory cry units.

    loud holds one value per frame of f0.grid. Frames are candidates when
    loudness clears an adaptive level set a fixed fraction of the way up
    the clip's own loudness span (10th to 90th percentile) and voicing is
    present nearby. Anchoring the level to the span rather than to a
    percentile keeps it valid whatever share of the clip is phonation. Activation needs the full level
    (config.active_fraction of the span), while a unit stays open down to
    half that fraction (hysteresis). Voicing counts as present across
    dropouts bridged by config.voicing_halfwidth_frames. Gaps shorter than
    config.min_pause_s merge, fragments shorter than config.min_unit_s drop,
    both lengths counted in whole frames by dsp.frames_within.
    """
    if f0.grid.num_frames != len(loud):
        raise ValueError("f0 and loudness were computed on different frame grids")
    L = np.asarray(loud, dtype=np.float64)
    hop = f0.grid.hop_seconds
    active_high, release_low = loudness_levels(L, config.active_fraction)

    near_voiced = bridge_voicing_gaps(f0.voiced.astype(bool), config.voicing_halfwidth_frames)
    core = (L >= active_high) & near_voiced
    sustain = (L >= release_low) & near_voiced

    regions = []
    for start, end in runs_of(sustain):
        if core[start : end + 1].any():
            regions.append([start, end])

    # merge gaps shorter than the minimum audible pause
    min_pause = frames_within(config.min_pause_s, hop)
    merged: list[list[int]] = []
    for seg in regions:
        if merged and seg[0] - merged[-1][1] - 1 < min_pause:
            merged[-1][1] = seg[1]
        else:
            merged.append(seg)

    min_unit = frames_within(config.min_unit_s, hop)
    kept = [(s, e) for s, e in merged if e - s + 1 >= min_unit]
    expirations = [(float(s * hop), float((e + 1) * hop)) for s, e in kept]
    return CrySegmentation(expirations)


def loudness_levels(loud: np.ndarray, active_fraction: float) -> tuple[float, float]:
    """Activation and release loudness levels of a clip for detect_cry_units.

    Both sit a fixed fraction of the way up the clip's loudness span (10th
    to 90th percentile): activation at active_fraction, release at half
    of it.
    """
    lo = np.percentile(loud, 10)
    hi = np.percentile(loud, 90)
    return lo + active_fraction * (hi - lo), lo + 0.5 * active_fraction * (hi - lo)


def pitch_frames(loud: np.ndarray, grid: FrameGrid, config: PipelineConfig) -> np.ndarray:
    """Indices of the only frames whose pitch detect_cry_units or a unit reads.

    loud holds one loudness value per frame of grid.

    Every frame of a unit lies at or above the release level, or in a gap
    of fewer than frames_within(config.min_pause_s, hop) frames between two
    such frames, as detect_cry_units merges by that count. detect_cry_units
    reads voicing only through bridge_voicing_gaps at frames at or above the
    release level, which looks 2 * halfwidth frames to each side (halfwidth
    being config.voicing_halfwidth_frames); the detectors read a unit's
    frames and one neighbour on each side. So the frames within
    2 * halfwidth + 1 of a frame at or above the release level, or within
    that count of one, hold every voicing value that can change the
    segmentation or a unit.
    """
    L = np.asarray(loud, dtype=np.float64)
    _, release_low = loudness_levels(L, config.active_fraction)
    reach = max(2 * config.voicing_halfwidth_frames + 1, frames_within(config.min_pause_s, grid.hop_seconds))
    return np.flatnonzero(_dilate(L >= release_low, reach))


def _dilate(mask: np.ndarray, reach: int) -> np.ndarray:
    """Mask of the positions within reach of a True in mask.

    The same as scipy.ndimage.maximum_filter1d(mask, size=2 * reach + 1,
    mode="constant"): position i is kept when the running count of True
    rises between i - reach and i + reach + 1, both clipped to the mask.
    A reach of n already covers the whole mask, so a longer one is cut to
    that before it can overflow the index arithmetic.
    """
    n = len(mask)
    reach = min(reach, n)
    count = np.concatenate(([0], np.cumsum(mask)))
    i = np.arange(n)
    return count[np.minimum(i + reach + 1, n)] > count[np.maximum(i - reach, 0)]


def meets_curation_rule(seg: CrySegmentation, config: PipelineConfig) -> bool:
    """Recordings need at least config.min_total_cry_s of summed cry to be usable.

    A sum of unit lengths is no whole number of frames, so this rule stays
    in seconds, with dsp's tolerance read as seconds.
    """
    return seg.total_cry_seconds >= config.min_total_cry_s - DURATION_TOL


def runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True, as inclusive (start, end) index pairs."""
    padded = np.concatenate(([False], mask.astype(bool), [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts, ends))
