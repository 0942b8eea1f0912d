"""Clinically interpretable cry biomarkers and their per-recording summary.

Each detector reads one cry unit's per-frame arrays and returns a
unit-length mask or a unit-level call. The recording's pitch is smoothed
once, by smooth_f0, for the glide, vibrato and melody detectors, and
unit_biomarker_flags slices each unit's frames out of that and of the
recording's other series:

* hyperphonation: sustained voiced phonation above 1000 Hz
* dysphonation:   sustained noisy phonation (high spectral flatness)
* glide:          a pitch jump of several hundred Hz within a tenth of a second
* vibrato:        at least four rapid alternating pitch swings
* melody:         the coarse shape of the unit's pitch contour

The figures above are the defaults; every detector reads its thresholds
from the PipelineConfig it is passed. Their durations count whole frames
by dsp's rule: a sustained run needs dsp.frames_within of its seconds, and
a jump or swing spacing reaches dsp.hops_within of them.

Per recording, each biomarker is summarized as the fraction of units where
it occurs and the fraction of in-unit frames it covers, alongside basic
duration statistics of units and pauses. That yields the fixed 26-value
vector in CRY_FEATURE_NAMES. BIOMARKERS is the one list of the unit
biomarkers, and DURATION_STATS of the duration statistics: the column
names, durational_features and aggregate_biomarkers are all built from
them and MELODY_TYPES, and synthcry.EVENTS from BIOMARKERS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .dsp import F0Contour, frames_within, hops_within
from .segmenter import CrySegmentation, runs_of

MELODY_EDGE_FRACTION = 0.2
MELODY_MIN_VOICED_FRAMES = 5

MELODY_TYPES = ["falling", "rising_falling", "rising", "falling_rising", "flat"]

BIOMARKERS = ("hyperphonation", "dysphonation", "glide", "vibrato")
DURATION_STATS = {"mean": np.mean, "std": np.std, "max": np.max, "min": np.min}

CRY_FEATURE_NAMES = [
    *(f"{part}_dur_{stat}" for part in ("cry_unit", "pause") for stat in DURATION_STATS),
    *(f"{b}_{kind}" for b in BIOMARKERS for kind in ("unit_frac", "dur_frac")),
    *(f"melody_{m}_{kind}" for m in MELODY_TYPES for kind in ("unit_frac", "dur_frac")),
]


@dataclass
class UnitFlags:
    """Frame tallies and unit-level calls for one cry unit."""

    num_frames: int
    hyperphonation_frames: int = 0
    dysphonation_frames: int = 0
    glide_frames: int = 0
    vibrato_present: bool = False
    melody: str = "flat"


def smooth_f0(f0_hz: np.ndarray, voiced: np.ndarray) -> np.ndarray:
    """3-frame median over voiced frames; unvoiced frames stay at 0.

    Unvoiced neighbors are ignored rather than treated as zeros, so a
    voiced frame next to a gap is not dragged down. Each voiced frame
    takes the median of itself and its voiced neighbours: the middle of
    three, the mean of two, or itself alone. These are the values a
    NaN-skipping median gives, selected elementwise without one.
    """
    x = np.asarray(f0_hz, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
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


def _flag_sustained(condition: np.ndarray, min_frames: int) -> np.ndarray:
    """Mask of the frames inside runs of at least min_frames where condition holds."""
    out = np.zeros(len(condition), dtype=bool)
    for start, end in runs_of(condition):
        if end - start + 1 >= min_frames:
            out[start : end + 1] = True
    return out


def _median3(x: np.ndarray) -> np.ndarray:
    """Median of each sample and its two neighbours, the end samples repeated.

    The same values as scipy.ndimage.median_filter(x, size=3,
    mode="nearest"), for any length: the median of a sample x and its
    neighbours a and b is max(min(a, b), min(max(a, b), x)).
    """
    prev = np.concatenate((x[:1], x[:-1]))
    nxt = np.concatenate((x[1:], x[-1:]))
    return np.maximum(np.minimum(prev, nxt), np.minimum(np.maximum(prev, nxt), x))


def detect_hyperphonation(f0_hz: np.ndarray, voiced: np.ndarray, hop_s: float, config: PipelineConfig) -> np.ndarray:
    """Flag frames in voiced runs of at least config.hyperphonation_min_run_s
    with f0 above config.hyperphonation_f0_hz."""
    cond = voiced & (f0_hz > config.hyperphonation_f0_hz)
    return _flag_sustained(cond, frames_within(config.hyperphonation_min_run_s, hop_s))


def detect_dysphonation(flatness: np.ndarray, hop_s: float, config: PipelineConfig) -> np.ndarray:
    """Flag frames in runs of at least config.dysphonation_min_run_s whose
    spectral flatness is above config.dysphonation_flatness.

    No voicing gate here: heavily dysphonic frames often defeat pitch
    tracking, and requiring voicing would hide exactly the frames this
    biomarker is about. The series is median smoothed over 3 frames first,
    mirroring the pitch smoothing of the contour detectors, so a single
    outlier frame neither breaks a sustained run nor fakes one.
    """
    vals = _median3(np.asarray(flatness, dtype=np.float64))
    return _flag_sustained(vals > config.dysphonation_flatness, frames_within(config.dysphonation_min_run_s, hop_s))


def detect_glide(smoothed: np.ndarray, voiced: np.ndarray, hop_s: float, config: PipelineConfig) -> np.ndarray:
    """Flag frames that start a rapid pitch jump.

    Frame t is flagged when the smoothed contour moves by at least
    config.glide_delta_hz between t and some voiced frame at most
    config.glide_max_span_s later, with both endpoints voiced.
    """
    n = len(smoothed)
    max_k = hops_within(config.glide_max_span_s, hop_s)
    out = np.zeros(n, dtype=bool)
    for k in range(1, min(max_k, n - 1) + 1):
        out[:-k] |= (np.abs(smoothed[k:] - smoothed[:-k]) >= config.glide_delta_hz) & voiced[k:] & voiced[:-k]
    return out


def _prominent_extrema(x: np.ndarray, prominence: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the local maxima and minima of x of at least the given
    prominence, in order, and whether each is a maximum.

    The maxima are scipy.signal.find_peaks(x, prominence=prominence)[0] and
    the minima the same of -x: a flat extremum sits at its midpoint, rounded
    down, and neither end sample is one. An extremum is kept when, on each
    side, it drops by at least prominence before it meets a sample beyond
    it, which is find_peaks' test of its prominence as no wlen bounds it.
    x is finite and not empty.
    """
    dx = np.diff(x)
    moves = np.flatnonzero(dx)
    rise = dx[moves] > 0
    turn = np.flatnonzero(rise[1:] != rise[:-1])
    pos = (moves[turn] + 1 + moves[turn + 1]) // 2
    is_max = rise[turn]
    # x is monotone between turning points, so they and the two end samples
    # hold every sample that can end or bottom a search from an extremum
    t = x[np.concatenate(([0], pos, [len(x) - 1]))].tolist()
    keep = []
    sign = 1.0 if len(turn) and is_max[0] else -1.0
    for i in range(1, len(t) - 1):
        for side in (range(i - 1, -1, -1), range(i + 1, len(t))):
            for j in side:
                drop = sign * (t[i] - t[j])
                if drop < 0 or prominence <= drop:
                    break
            if not prominence <= drop:
                break
        else:
            keep.append(i - 1)
        sign = -sign
    return pos[keep], is_max[keep]


def detect_vibrato(smoothed: np.ndarray, voiced: np.ndarray, hop_s: float, config: PipelineConfig) -> bool:
    """True when the voiced frames carry at least config.vibrato_min_extrema
    alternating pitch extrema of config.vibrato_prominence_hz prominence,
    each following the last within config.vibrato_max_spacing_s."""
    vpos = np.flatnonzero(voiced)
    if len(vpos) < 3:
        return False
    pos, is_max = _prominent_extrema(smoothed[vpos], config.vibrato_prominence_hz)
    if len(pos) < config.vibrato_min_extrema:
        return False
    max_gap = hops_within(config.vibrato_max_spacing_s, hop_s)
    linked = (is_max[1:] != is_max[:-1]) & (np.diff(vpos[pos]) <= max_gap)
    best = 1 + max((end - start + 1 for start, end in runs_of(linked)), default=0)
    return best >= config.vibrato_min_extrema


def classify_melody(contour: np.ndarray, config: PipelineConfig) -> str:
    """Label the shape of a unit's pitch contour: its smoothed f0 at its voiced frames.

    The contour is flat when its range is under config.melody_flat_ratio
    of its mean. Otherwise the positions of the global extremes decide: a
    late maximum on a net rise is rising, an early maximum on a net fall
    is falling, an interior maximum is rising_falling, and an interior
    minimum (with the maximum at an edge) is falling_rising, where the
    edges are the first and last MELODY_EDGE_FRACTION of the contour. Units with fewer than
    MELODY_MIN_VOICED_FRAMES voiced frames, too few for a meaningful
    shape, default to flat.
    """
    n = len(contour)
    if n < MELODY_MIN_VOICED_FRAMES:
        return "flat"
    hi, lo = float(contour.max()), float(contour.min())
    if (hi - lo) / contour.mean() < config.melody_flat_ratio:
        return "flat"
    p = int(np.argmax(contour)) / (n - 1)
    q = int(np.argmin(contour)) / (n - 1)
    net = contour[-1] - contour[0]
    if p >= 1.0 - MELODY_EDGE_FRACTION and net > 0:
        return "rising"
    if p <= MELODY_EDGE_FRACTION and net < 0:
        return "falling"
    if MELODY_EDGE_FRACTION < p < 1.0 - MELODY_EDGE_FRACTION:
        return "rising_falling"
    if MELODY_EDGE_FRACTION < q < 1.0 - MELODY_EDGE_FRACTION:
        return "falling_rising"
    return "flat"


def unit_biomarker_flags(
    f0: F0Contour,
    flatness: np.ndarray,
    unit: tuple[float, float],
    smoothed: np.ndarray,
    config: PipelineConfig,
) -> UnitFlags:
    """Run every detector on the frames of one unit and tally the results.

    flatness and smoothed, the recording's smooth_f0(f0.f0_hz, f0.voiced),
    hold one value per frame of f0.grid. The unit's frames of each series
    are sliced here once and shared by the detectors.
    """
    sl = f0.grid.frame_slice(*unit)
    hop_s = f0.grid.hop_seconds
    f0_hz, voiced, smoothed = f0.f0_hz[sl], f0.voiced[sl], smoothed[sl]
    return UnitFlags(
        num_frames=sl.stop - sl.start,
        hyperphonation_frames=int(detect_hyperphonation(f0_hz, voiced, hop_s, config).sum()),
        dysphonation_frames=int(detect_dysphonation(flatness[sl], hop_s, config).sum()),
        glide_frames=int(detect_glide(smoothed, voiced, hop_s, config).sum()),
        vibrato_present=detect_vibrato(smoothed, voiced, hop_s, config),
        melody=classify_melody(smoothed[voiced], config),
    )


def durational_features(seg: CrySegmentation) -> dict[str, float]:
    """Each of DURATION_STATS over unit and over pause durations (population std).

    A recording with a single unit has no pauses; all four pause
    statistics are then 0.
    """
    if not seg.expirations:
        raise ValueError("cannot summarize a segmentation with zero cry units")
    out: dict[str, float] = {}
    for part, spans in (("cry_unit", seg.expirations), ("pause", seg.pauses)):
        durations = np.array([b - a for a, b in spans])
        for stat, reduce in DURATION_STATS.items():
            out[f"{part}_dur_{stat}"] = float(reduce(durations)) if spans else 0.0
    return out


def _marked(f: UnitFlags, biomarker: str) -> tuple[bool, int]:
    """Whether biomarker marks unit f, and how many of its frames it covers.

    Vibrato is a unit-level call: it marks the unit when present, whatever
    its frames, and covers all of them.
    """
    if biomarker == "vibrato":
        return f.vibrato_present, f.num_frames if f.vibrato_present else 0
    frames = getattr(f, f"{biomarker}_frames")
    return frames > 0, frames


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
    for b in BIOMARKERS:
        marks = [_marked(f, b) for f in flags]
        vec[f"{b}_unit_frac"] = sum(hit for hit, _ in marks) / total_units
        vec[f"{b}_dur_frac"] = sum(frames for _, frames in marks) / total_frames
    for m in MELODY_TYPES:
        members = [f for f in flags if f.melody == m]
        vec[f"melody_{m}_unit_frac"] = len(members) / total_units
        vec[f"melody_{m}_dur_frac"] = sum(f.num_frames for f in members) / total_frames
    return vec
