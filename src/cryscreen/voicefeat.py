"""Generic voice functionals over the cry units.

The per-frame descriptors of the recording's one analysis front end
(voicing, loudness, 0-500 Hz spectral slope, MFCC 2-4) are read at the
frames of the expiration segments and joined in unit order; only the
formants need the waveform, which is spliced from the same segments.
The joined series are summarized by a small set of spectral/cepstral
functionals. Names follow the usual
low-level-descriptor conventions: a V suffix marks voiced-frames-only
statistics, UV unvoiced-only, amean an arithmetic mean, and stddevNorm a
coefficient of variation (population std over |mean|).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .audio_io import AudioClip
from . import dsp
from .segmenter import CrySegmentation, runs_of

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .pipeline import FrontEnd

VOICE_FEATURE_NAMES = [
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


def _amean(x: np.ndarray, mask: np.ndarray) -> float:
    return float(np.mean(x[mask])) if mask.any() else 0.0


def _stddev_norm(x: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    sel = x[mask]
    return float(np.std(sel) / max(abs(np.mean(sel)), _NORM_GUARD))


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
    """The 12 generic functionals of the cry units of one recording.

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
    unvoiced = ~voiced
    if not voiced.any():
        raise ValueError(
            "no voiced frames: slopeV0_500, F2, F3, mfcc3V, mfcc4V features are undefined"
        )

    allf = np.ones(len(idx), dtype=bool)
    slope = masked_moving_average3(front.slope0_500[idx], allf)
    loud = masked_moving_average3(front.loudness[idx], allf)
    mfcc2 = masked_moving_average3(front.mfcc2_4[idx, 0], allf)
    mfcc3 = masked_moving_average3(front.mfcc2_4[idx, 1], allf)
    mfcc4 = masked_moving_average3(front.mfcc2_4[idx, 2], allf)

    formants = dsp.lpc_formants(concat, config)
    # LPC frame i pairs with unit frame i. The spliced waveform has fewer
    # frames than its units on the frame grid, as its last windows would run
    # past its end; units off the grid can give it more
    n = min(len(formants), len(idx))
    formants, formant_voiced = formants[:n], voiced[:n]
    f2_valid = formant_voiced & (formants[:, 1] > 0)
    f3_valid = formant_voiced & (formants[:, 2] > 0)
    f2 = masked_moving_average3(formants[:, 1], f2_valid)
    f3 = masked_moving_average3(formants[:, 2], f3_valid)

    return {
        "slopeUV0_500_amean": _amean(slope, unvoiced),
        "slopeV0_500_stddevNorm": _stddev_norm(slope, voiced),
        "slopeV0_500_amean": _amean(slope, voiced),
        "F2_amean": _amean(f2, f2_valid),
        "F3_amean": _amean(f3, f3_valid),
        "F3_stddevNorm": _stddev_norm(f3, f3_valid),
        "mfcc3_amean": _amean(mfcc3, allf),
        "mfcc3V_amean": _amean(mfcc3, voiced),
        "mfcc3V_stddevNorm": _stddev_norm(mfcc3, voiced),
        "loudness_stddevFallingSlope": stddev_falling_slope(loud, grid.hop_seconds),
        "mfcc2_stddevNorm": _stddev_norm(mfcc2, allf),
        "mfcc4V_stddevNorm": _stddev_norm(mfcc4, voiced),
    }
