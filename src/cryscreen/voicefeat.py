"""Generic voice functionals over the cry units.

The per-frame descriptors of the recording's one analysis front end
(voicing, loudness, 0-500 Hz spectral slope, MFCC 2-4) are read at the
frames of the expiration segments and joined in unit order; only the
formants need the waveform, which is spliced from the same segments.
The joined series are summarized by a small set of spectral/cepstral
functionals, each declared once, in VOICE_FEATURES. Names follow the
usual low-level-descriptor conventions: a V suffix marks voiced-frames-only
statistics, UV unvoiced-only, amean an arithmetic mean, and stddevNorm a
coefficient of variation (population std over |mean|).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .audio_io import AudioClip
from . import dsp
from .segmenter import CrySegmentation, runs_of

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .pipeline import FrontEnd

# Each voice column: the unit-frame series it reads, smoothed over 3
# frames; the frames it keeps ("found": the voiced frames where LPC found
# that formant); and its statistic
VOICE_FEATURES = {
    "slopeUV0_500_amean": ("slope", "unvoiced", "amean"),
    "slopeV0_500_stddevNorm": ("slope", "voiced", "stddevNorm"),
    "slopeV0_500_amean": ("slope", "voiced", "amean"),
    "F2_amean": ("F2", "found", "amean"),
    "F3_amean": ("F3", "found", "amean"),
    "F3_stddevNorm": ("F3", "found", "stddevNorm"),
    "mfcc3_amean": ("mfcc3", "all", "amean"),
    "mfcc3V_amean": ("mfcc3", "voiced", "amean"),
    "mfcc3V_stddevNorm": ("mfcc3", "voiced", "stddevNorm"),
    "loudness_stddevFallingSlope": ("loudness", "all", "stddevFallingSlope"),
    "mfcc2_stddevNorm": ("mfcc2", "all", "stddevNorm"),
    "mfcc4V_stddevNorm": ("mfcc4", "voiced", "stddevNorm"),
}
VOICE_FEATURE_NAMES = list(VOICE_FEATURES)

_NORM_GUARD = 1e-8


def concat_expirations(clip: AudioClip, seg: CrySegmentation) -> AudioClip:
    """Splice the expiration intervals into one contiguous waveform."""
    if not seg.expirations:
        raise ValueError("cannot concatenate a segmentation with zero cry units")
    sr = clip.sample_rate
    parts = [clip.samples[int(round(a * sr)) : int(round(b * sr))] for a, b in seg.expirations]
    return AudioClip(np.concatenate(parts), sr)


def unit_frames(grid: dsp.FrameGrid, seg: CrySegmentation) -> np.ndarray:
    """Indices of the frames of every expiration on grid, in unit order.

    Segmentation gives each unit as whole frames, (s * hop, (e + 1) * hop),
    so frame i of the concat_expirations waveform on the same window and
    hop starts on the same sample as frame idx[i] of the recording. The two
    hold the same samples except where the concatenated frame runs over a
    splice into the next unit: the frames starting less than one window
    before it.
    """
    slices = [grid.frame_slice(a, b) for a, b in seg.expirations]
    return np.concatenate([np.arange(s.start, s.stop) for s in slices])


def masked_moving_average3(x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """3-frame moving average over valid frames only; invalid frames stay 0."""
    # the middle len(x) values of the full convolution; mode="same" would
    # return 3 for an x of 1 or 2 frames
    total = np.convolve(np.where(valid, x, 0.0), np.ones(3))[1:-1]
    count = np.convolve(valid.astype(float), np.ones(3))[1:-1]
    out = np.divide(total, count, out=np.zeros(len(x)), where=count > 0)
    return np.where(valid, out, 0.0)


def _amean(x: np.ndarray) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def _stddev_norm(x: np.ndarray) -> float:
    return float(np.std(x) / max(abs(np.mean(x)), _NORM_GUARD)) if len(x) else 0.0


def stddev_falling_slope(x: np.ndarray, hop_s: float) -> float:
    """Population std of per-run slopes over strictly falling runs of 3+ frames."""
    slopes = []
    drops = np.diff(x) < 0
    for s, e in runs_of(drops):
        if e - s + 1 >= 2:  # two consecutive drops = three frames
            slopes.append((x[e + 1] - x[s]) / ((e + 1 - s) * hop_s))
    return float(np.std(slopes)) if slopes else 0.0


def compute_generic_features(
    front: FrontEnd, seg: CrySegmentation, concat: AudioClip, config: PipelineConfig
) -> dict[str, float]:
    """The 12 generic functionals of the cry units of one recording, by VOICE_FEATURES.

    front is the recording's front end, built with config, and concat its
    expirations spliced by concat_expirations. Voicing, slope, MFCC and
    loudness are the front end's at unit_frames; formants come from LPC
    over concat on config's window and hop, the front end's grid, frame i
    of which is paired with unit frame i. Every low-level descriptor is
    smoothed with a 3-frame moving average before the functionals. Formant
    statistics skip frames where no narrow-bandwidth resonance was found.
    Raises when the units hold no voiced frames at all (every V feature
    would be undefined).
    """
    grid = front.f0.grid
    idx = unit_frames(grid, seg)
    voiced = front.f0.voiced[idx]
    if not voiced.any():
        raise ValueError(
            "no voiced frames: slopeV0_500, F2, F3, mfcc3V, mfcc4V features are undefined"
        )

    allf = np.ones(len(idx), dtype=bool)
    masks = {"all": allf, "voiced": voiced, "unvoiced": ~voiced}
    raw = {"slope": front.slope0_500[idx], "loudness": front.loudness[idx], "mfcc2": front.mfcc2_4[idx, 0],
           "mfcc3": front.mfcc2_4[idx, 1], "mfcc4": front.mfcc2_4[idx, 2]}
    series = {name: masked_moving_average3(x, allf) for name, x in raw.items()}

    formants = dsp.lpc_formants(concat, config)
    # LPC frame i pairs with unit frame i. The spliced waveform has fewer
    # frames than its units on the frame grid, as its last windows would run
    # past its end; units off the grid can give it more
    n = min(len(formants), len(idx))
    found = {}
    for col, name in ((1, "F2"), (2, "F3")):
        found[name] = voiced[:n] & (formants[:n, col] > 0)
        series[name] = masked_moving_average3(formants[:n, col], found[name])

    statistics = {
        "amean": _amean,
        "stddevNorm": _stddev_norm,
        "stddevFallingSlope": functools.partial(stddev_falling_slope, hop_s=grid.hop_seconds),
    }
    return {
        name: statistics[stat](series[s][found[s] if frames == "found" else masks[frames]])
        for name, (s, frames, stat) in VOICE_FEATURES.items()
    }
