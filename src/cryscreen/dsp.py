"""Frame-level signal analysis: STFT, log-Mel, F0, flatness, MFCC, formants.

The kernels that frame a clip (stft, estimate_f0, lpc_formants) take the
window and hop of the PipelineConfig they are passed, and log_mel and
estimate_f0 its Mel bands, pitch range and voicing threshold, so that any
two per-frame series computed from the same clip line up index for index.
The reductions of a Spectrogram (log_mel, loudness, spectral_flatness,
spectral_slope_band, mfcc) return plain arrays, one row per frame of its
grid. The pipeline passes the kernels clips at the config's sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip

if TYPE_CHECKING:
    from .config import PipelineConfig

MEL_FLOOR = 1e-10
POWER_FLOOR = 1e-12

# The analysis front end keeps MFCC 2, 3 and 4, so it asks mfcc for 4
# coefficients, which takes at least 5 Mel bands, and the spectral slope
# over this band, which takes at least 3 FFT bins in it.
FRONT_END_MFCC_COEFFS = 4
FRONT_END_SLOPE_BAND_HZ = (0.0, 500.0)

# Frames per block of the per-frame kernels. estimate_f0 and lpc_formants
# hold the work of at most this many frames at once, and frame_blocks cuts
# a recording into sub-clips of about this many frames for the spectral
# pass, so their memory stays fixed whatever the recording's length. Keep
# it at BLAS_ROWS or more: see frame_blocks.
FRAME_BLOCK = 1024
BLAS_ROWS = 16

# The all-pole model of lpc_formants: its order, the formants it reports and
# the widest resonance it counts as one.
LPC_ORDER = 12
NUM_FORMANTS = 3
MAX_FORMANT_BANDWIDTH_HZ = 400.0

# How lpc_formants finds the narrow roots (see _certified_roots): Newton
# seeds from the envelope on the circle of radius SEED_RADIUS, sampled by a
# SEED_FFT-point FFT for SEED_BLOCK frames at a time, NEWTON_STEPS steps
# from them, and the tolerances of the certificate that lets a frame skip
# the eigenvalues of its companion matrix.
SEED_RADIUS = 0.98
SEED_FFT = 512
SEED_BLOCK = 128
NEWTON_STEPS = 6
ROOT_PIVOT_TOL = 1e-10
ROOT_STEP_TOL = 1e-12
ROOT_SEPARATION = 1e-9


@dataclass
class FrameGrid:
    """Mapping between frame indices and time, in the whole samples framed on."""

    hop_samples: int
    window_samples: int
    num_frames: int
    sample_rate: int

    @property
    def hop_seconds(self) -> float:
        return self.hop_samples / self.sample_rate

    @property
    def window_seconds(self) -> float:
        return self.window_samples / self.sample_rate

    def frame_times(self) -> np.ndarray:
        """Start time of every frame, in seconds."""
        return np.arange(self.num_frames) * self.hop_seconds

    def frame_slice(self, onset_s: float, offset_s: float) -> slice:
        """Frames whose start time falls in [onset_s, offset_s).

        A small tolerance absorbs float noise so that boundaries that are
        exact hop multiples do not gain or lose a frame.
        """
        t0 = int(np.ceil(onset_s / self.hop_seconds - 1e-9))
        t1 = int(np.ceil(offset_s / self.hop_seconds - 1e-9))
        t0 = max(t0, 0)
        t1 = min(max(t1, t0), self.num_frames)
        return slice(t0, t1)


@dataclass
class Spectrogram:
    """STFT power |X|**2, frames along axis 0 and frequency bins along axis 1."""

    values: np.ndarray
    freqs_hz: np.ndarray
    grid: FrameGrid


@dataclass
class F0Contour:
    """Per-frame pitch track: f0_hz is 0 on unvoiced frames."""

    f0_hz: np.ndarray
    voiced: np.ndarray
    confidence: np.ndarray
    grid: FrameGrid


def frame_signal(x: np.ndarray, window_samples: int, hop_samples: int) -> np.ndarray:
    """Slice x into overlapping frames, one row per frame."""
    if len(x) < window_samples:
        raise ValueError(f"signal of {len(x)} samples is shorter than one {window_samples}-sample window")
    return sliding_window_view(x, window_samples)[::hop_samples]


def frame_blocks(num_frames: int) -> list[tuple[int, int]]:
    """Near-equal runs [start, stop) of frames covering 0..num_frames.

    There are num_frames // FRAME_BLOCK of them (one when that is 0), each
    starting on a multiple of BLAS_ROWS, so each holds about FRAME_BLOCK
    to 2 * FRAME_BLOCK frames unless it is the whole clip. Per-frame
    results on a block then equal those on the whole clip bit for bit.
    OpenBLAS computes matrix products in groups of rows counted from the
    first: a matrix-vector product (spectral_slope_band) takes the rows
    left over after the last group of 4 by another kernel, and a
    matrix-matrix product (log_mel, mfcc) takes a small-matrix path for 15
    rows or fewer. Either differs from the whole clip in the last bits unless
    every block but the last is a whole number of groups, and none is a
    runt.
    """
    n = max(num_frames // FRAME_BLOCK, 1)
    bounds = [num_frames * i // n // BLAS_ROWS * BLAS_ROWS for i in range(n)] + [num_frames]
    return list(zip(bounds[:-1], bounds[1:]))


def make_grid(n_samples: int, sample_rate: int, window_s: float, hop_s: float) -> FrameGrid:
    win = int(round(window_s * sample_rate))
    hop = int(round(hop_s * sample_rate))
    if n_samples < win:
        raise ValueError(f"signal of {n_samples} samples is shorter than one {win}-sample window")
    return FrameGrid(hop, win, (n_samples - win) // hop + 1, sample_rate)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def check_mel_bands(num_bands: int, window_samples: int) -> None:
    """Raise ValueError when stft's spectrum of a window_samples window has
    fewer bins than num_bands; its FFT size is the next power of two at or
    above the window, as stft picks it."""
    bins = _next_pow2(window_samples) // 2 + 1
    if num_bands > bins:
        raise ValueError(f"{num_bands} Mel bands exceed the {bins} FFT bins of a {window_samples}-sample window")


def check_mfcc_coeffs(num_coeffs: int, num_bands: int) -> None:
    """Raise ValueError when num_bands Mel bands cannot give mfcc num_coeffs
    coefficients: the DCT of num_bands bands has num_bands terms, and mfcc
    drops the first."""
    if num_coeffs >= num_bands:
        raise ValueError(f"{num_coeffs} coefficients need more than {num_bands} Mel bands")


def slope_band_bins(fmin_hz: float, fmax_hz: float, window_samples: int, sample_rate: int) -> np.ndarray:
    """Mask of the bins of stft's spectrum of a window_samples window at
    sample_rate that lie in [fmin_hz, fmax_hz]. Raises ValueError when it
    holds fewer than 3, too few to fit a slope."""
    freqs = np.fft.rfftfreq(_next_pow2(window_samples), 1.0 / sample_rate)
    sel = (freqs >= fmin_hz) & (freqs <= fmax_hz)
    n_bins = int(np.count_nonzero(sel))
    if n_bins < 3:
        raise ValueError(f"band [{fmin_hz}, {fmax_hz}] Hz covers {n_bins} bins; need at least 3")
    return sel


def check_lpc_order(window_samples: int) -> None:
    """Raise ValueError when a window_samples window is too short for lpc_formants'
    all-pole model: its order must be below the window length."""
    if LPC_ORDER >= window_samples:
        raise ValueError(f"LPC order {LPC_ORDER} must be below the window length {window_samples}")


def f0_lag_range(sample_rate: int, f0_min: float, f0_max: float, window_samples: int) -> tuple[int, int]:
    """The lags (tau_min, tau_max) in samples that estimate_f0 searches.

    Raises ValueError unless 0 < f0_min < f0_max and the longest lag, one
    period of f0_min, is at most half the window, so that the difference
    function sums over at least as many samples as it lags.
    """
    if not f0_min > 0:
        raise ValueError(f"f0_min {f0_min} must be positive")
    if not f0_min < f0_max:
        raise ValueError(f"f0_min {f0_min} must be below f0_max {f0_max}")
    # ceil(x) > n exactly when x > n for a whole n; testing first keeps an
    # overflowing period out of int()
    if sample_rate / f0_min > window_samples // 2:
        raise ValueError(f"window of {window_samples} samples is too short to resolve f0_min {f0_min} Hz")
    return max(int(np.floor(sample_rate / f0_max)), 2), int(np.ceil(sample_rate / f0_min))


def stft(clip: AudioClip, config: PipelineConfig) -> Spectrogram:
    """Power spectrum of each Hann-windowed frame on config's window and hop.

    The FFT size is the next power of two at or above the window length,
    and only nonnegative frequencies are kept.
    """
    grid = make_grid(len(clip.samples), clip.sample_rate, config.window_s, config.hop_s)
    frames = frame_signal(np.asarray(clip.samples, dtype=np.float64), grid.window_samples, grid.hop_samples)
    window = np.hanning(grid.window_samples)
    nfft = _next_pow2(grid.window_samples)
    power = np.abs(np.fft.rfft(frames * window, n=nfft, axis=1)) ** 2
    freqs = np.fft.rfftfreq(nfft, 1.0 / clip.sample_rate)
    return Spectrogram(power, freqs, grid)


def mel_from_hz(f):
    """HTK Mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(freqs_hz: np.ndarray, num_bands: int, fmin: float, fmax: float) -> np.ndarray:
    """Triangular filters on the HTK Mel scale, one row per band.

    Band b rises from edge b to edge b + 1 and falls to edge b + 2; all
    bands are built in one broadcast over (band, bin).
    """
    edges = hz_from_mel(np.linspace(mel_from_hz(fmin), mel_from_hz(fmax), num_bands + 2))
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (freqs_hz - lo) / np.maximum(ctr - lo, 1e-12)
    down = (hi - freqs_hz) / np.maximum(hi - ctr, 1e-12)
    return np.clip(np.minimum(up, down), 0.0, None)


def log_mel(spec: Spectrogram, config: PipelineConfig) -> np.ndarray:
    """Log-energy Mel spectrogram (natural log, energies floored at 1e-10).

    A (frames, bands) array; config.num_mel_bands bands span 0 Hz to the
    Nyquist frequency.
    """
    check_mel_bands(config.num_mel_bands, spec.grid.window_samples)
    fb = mel_filterbank(spec.freqs_hz, config.num_mel_bands, 0.0, spec.grid.sample_rate / 2.0)
    energy = spec.values @ fb.T
    return np.log(np.maximum(energy, MEL_FLOOR))


def difference_function(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """YIN difference function of every frame for lags 0..tau_max.

    d[t, tau] sums (x_j - x_{j+tau})^2 over the first
    span = frame length - tau_max samples j of frame t. Following the
    identity d(tau) = r_t(0) + r_{t+tau}(0) - 2 r_t(tau), one product of
    each frame's head against all of its lagged copies gives r_t(tau), and
    one cumulative sum of squared samples gives both energy terms.

    On PCM input of up to 16 bits every sample is an integer over 2**15,
    so every product and partial sum is a multiple of 2**-30 well inside
    float64's 53-bit mantissa: each is exact, and d equals the direct sum
    of squared differences bit for bit. On other float input the two
    differ by rounding only, and d is clamped at 0 where rounding would
    take it below.
    """
    num, win = frames.shape
    span = win - tau_max
    lagged = sliding_window_view(frames, span, axis=1)[:, : tau_max + 1]
    r = np.einsum("nj,ntj->nt", frames[:, :span], lagged)
    # energy[:, k] is the energy of the frame's first k samples, so the
    # window starting at lag tau holds energy[:, tau + span] - energy[:, tau]
    energy = np.zeros((num, win + 1))
    np.square(frames, out=energy[:, 1:])
    np.cumsum(energy[:, 1:], axis=1, out=energy[:, 1:])
    d = energy[:, span : span + 1] + (energy[:, span:] - energy[:, : tau_max + 1]) - 2.0 * r
    np.maximum(d, 0.0, out=d)
    d[:, 0] = 0.0
    return d


def estimate_f0(clip: AudioClip, config: PipelineConfig, frames: np.ndarray | None = None) -> F0Contour:
    """Fundamental frequency tracking via the normalized difference function.

    Per frame, the difference function d(tau) = sum_j (x_j - x_{j+tau})^2
    comes from YIN's identity d(tau) = r_t(0) + r_{t+tau}(0) - 2 r_t(tau)
    (de Cheveigne & Kawahara, JASA 2002, eq. 7) in one pass over all lags;
    on PCM16 input every term is exact in float64, so the result equals
    the direct lag-by-lag sum bit for bit (see difference_function). It is
    turned into a cumulative-mean-normalized difference over candidate
    lags; the first dip under an absolute threshold (walked down
    to its local minimum) wins, which is what keeps subharmonic minima from
    causing octave-down errors. The chosen lag is refined by parabolic
    interpolation. A frame counts as voiced when the periodicity
    confidence, 1 minus the normalized difference at the chosen lag,
    reaches config.voicing_threshold. Lags cover periods of
    config.f0_max_hz down to config.f0_min_hz.

    Pitch is tracked on the frames listed in frames (every frame when it
    is None); the others come back unvoiced with f0 and confidence 0.
    Every frame's result depends on that frame alone, and the work runs in
    blocks of at most FRAME_BLOCK frames, so memory beyond the clip stays
    fixed and the result does not depend on the block size.
    """
    sr = clip.sample_rate
    grid = make_grid(len(clip.samples), sr, config.window_s, config.hop_s)
    win = grid.window_samples
    tau_min, tau_max = f0_lag_range(sr, config.f0_min_hz, config.f0_max_hz, win)
    all_frames = frame_signal(np.asarray(clip.samples, dtype=np.float64), win, grid.hop_samples)
    num = grid.num_frames
    picked = np.arange(num) if frames is None else np.asarray(frames, dtype=np.intp)
    f0 = np.zeros(num)
    voiced = np.zeros(num, dtype=bool)
    confidence = np.zeros(num)
    for start in range(0, len(picked), FRAME_BLOCK):
        rows = picked[start : start + FRAME_BLOCK]
        f0[rows], voiced[rows], confidence[rows] = _track_f0(
            all_frames[rows], sr, tau_min, tau_max, config.voicing_threshold
        )
    return F0Contour(f0, voiced, confidence, grid)


def _track_f0(
    frames: np.ndarray, sr: int, tau_min: int, tau_max: int, voicing_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f0, voicing and confidence of each row of frames (see estimate_f0)."""
    d = difference_function(frames, tau_max)
    num = frames.shape[0]

    running = np.cumsum(d[:, 1:], axis=1)
    cmndf = np.ones_like(d)
    taus = np.arange(1, tau_max + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf[:, 1:] = np.where(running > 0, d[:, 1:] * taus / running, 1.0)

    guarded = cmndf.copy()
    guarded[:, :tau_min] = np.inf
    # effective dip threshold per frame: the absolute 0.1 rule, relaxed to
    # just above the global minimum when nothing clears it. Taking the
    # FIRST qualifying dip (not the deepest) matters: for weak periodicity
    # the subharmonic dips at k times the true lag run slightly deeper
    # because the cumulative normalizer keeps growing, and the deepest-dip
    # choice would land an octave or two low.
    floor_val = np.min(guarded, axis=1)
    eff_thr = np.maximum(0.1, floor_val * 1.2 + 1e-12)
    below = guarded <= eff_thr[:, None]
    first = np.argmax(below, axis=1)
    # walk each dip down to its local minimum
    not_falling = np.empty_like(below)
    not_falling[:, :-1] = cmndf[:, :-1] <= cmndf[:, 1:]
    not_falling[:, -1] = True
    cols = np.arange(tau_max + 1)
    tau_star = np.argmax(not_falling & (cols[None, :] >= first[:, None]), axis=1)

    rows = np.arange(num)
    # octave-down correction: with weak periodicity the dip at twice the
    # true lag runs systematically deeper (the cumulative normalizer keeps
    # growing), so when the half-lag dip is nearly as deep, prefer it
    offs = np.arange(-2, 3)
    for _ in range(2):
        half = tau_star // 2
        idx = np.clip(half[:, None] + offs[None, :], tau_min, tau_max)
        vals = guarded[rows[:, None], idx]
        k = np.argmin(vals, axis=1)
        take = (half >= tau_min) & (vals[rows, k] <= cmndf[rows, tau_star] * 1.4 + 0.02)
        tau_star = np.where(take, idx[rows, k], tau_star)

    mid = cmndf[rows, tau_star]
    left = cmndf[rows, np.maximum(tau_star - 1, 0)]
    right = cmndf[rows, np.minimum(tau_star + 1, tau_max)]
    denom = left - 2.0 * mid + right
    shift = np.where(np.abs(denom) > 1e-12, 0.5 * (left - right) / np.where(denom == 0, 1, denom), 0.0)
    shift = np.clip(shift, -1.0, 1.0)
    tau_refined = np.clip(tau_star + shift, tau_min, tau_max)

    # periodicity evidence is the deepest dip, not the (possibly
    # octave-corrected) chosen one
    confidence = np.clip(1.0 - np.minimum(mid, floor_val), 0.0, 1.0)
    voiced = confidence >= voicing_threshold
    f0 = np.where(voiced, sr / tau_refined, 0.0)
    return f0, voiced, confidence


def spectral_flatness(spec: Spectrogram) -> np.ndarray:
    """Per-frame Wiener entropy: geometric over arithmetic mean of power.

    Values live in [0, 1]; near 0 for line spectra, toward 1 for noise.
    """
    p = np.maximum(spec.values, POWER_FLOOR)
    arith = np.mean(p, axis=1)
    # p is a copy of the spectrogram's power, so the log may overwrite it
    geo = np.exp(np.mean(np.log(p, out=p), axis=1))
    return geo / arith


def mfcc(logmel: np.ndarray, num_coeffs: int) -> np.ndarray:
    """Mel-frequency cepstral coefficients via an orthonormal DCT-II.

    Of log_mel's (frames, bands) array, returns one of shape (frames,
    num_coeffs) where column j holds coefficient j+1; the DC term is
    dropped, so column 0 is mfcc1.

    Only the kept coefficients are computed, as a product with their rows
    of the DCT-II basis, sqrt(2 / N) * cos(pi * k * (2n + 1) / (2N)) over
    the N bands. That equals scipy.fft.dct(logmel, type=2, norm="ortho")
    to within a few ulp, not bit for bit. The product is a BLAS matrix
    product, so a frame's values depend on how its rows are grouped, as
    with log_mel: frame_blocks cuts blocks so that they equal the whole
    clip's.
    """
    num_bands = logmel.shape[1]
    check_mfcc_coeffs(num_coeffs, num_bands)
    k = np.arange(1, num_coeffs + 1)[:, None]
    n = np.arange(num_bands)
    basis = np.sqrt(2.0 / num_bands) * np.cos(np.pi * k * (2 * n + 1) / (2 * num_bands))
    return logmel @ basis.T


def loudness(logmel: np.ndarray) -> np.ndarray:
    """Perceptual-leaning energy proxy: summed Mel energies to the 0.3 power."""
    return np.sum(np.exp(logmel), axis=1) ** 0.3


def lpc_formants(clip: AudioClip, config: PipelineConfig) -> np.ndarray:
    """Per-frame formant estimates from linear prediction on config's window and hop.

    Fits an all-pole model of order LPC_ORDER by the autocorrelation
    method (Makhoul, Proc. IEEE 1975): the order + 1 lags
    r_k = sum_{j < win - k} x_j x_{j+k} of each Hann-windowed frame are
    direct lag products, one dot product per lag, and the Levinson
    recursion solves for the predictor. Of the complex roots in the upper
    half plane with bandwidth under MAX_FORMANT_BANDWIDTH_HZ, the lowest
    NUM_FORMANTS frequencies are reported in ascending order. Output is
    (num_frames, NUM_FORMANTS) with zeros standing in where a frame is
    degenerate or yields too few narrow resonances. Frames are fitted in
    blocks of at most FRAME_BLOCK, so memory beyond the clip stays fixed.

    Only the narrow roots, those outside the circle of radius
    rho = exp(-pi * MAX_FORMANT_BANDWIDTH_HZ / sr), are looked for, on each
    frame that is not degenerate, in four steps:

    - count: the Schur-Cohn-Jury recursion on P(rho w) gives the number of
      roots outside rho (_count_outside);
    - seed: the up to LPC_ORDER // 2 deepest interior minima of the
      predictor's envelope on the circle of radius SEED_RADIUS, from one
      SEED_FFT-point FFT, are starting points (_envelope_seeds);
    - polish: NEWTON_STEPS batched Newton steps on P (_newton_step);
    - certify: the frame passes when no pivot of the count was under
      ROOT_PIVOT_TOL, each kept root's last step was at most ROOT_STEP_TOL
      of its modulus, the kept roots and their conjugates are distinct, and
      the count is twice the number kept (_certified_roots).

    A frame that fails, as one with a real root outside rho, a root within
    rounding of rho or two roots in one dip of the envelope does, falls back
    to the eigenvalues of its companion matrix. Each frame's result depends
    on that frame alone.
    """
    grid = make_grid(len(clip.samples), clip.sample_rate, config.window_s, config.hop_s)
    win = grid.window_samples
    check_lpc_order(win)
    frames = frame_signal(np.asarray(clip.samples, dtype=np.float64), win, grid.hop_samples)
    window = np.hanning(win)
    out = np.empty((grid.num_frames, NUM_FORMANTS))
    for start in range(0, grid.num_frames, FRAME_BLOCK):
        block = frames[start : start + FRAME_BLOCK] * window
        out[start : start + FRAME_BLOCK] = _fit_formants(block, clip.sample_rate)
    return out


def _fit_formants(frames: np.ndarray, sr: int) -> np.ndarray:
    """Formants of each row of windowed frames (see lpc_formants)."""
    order = LPC_ORDER
    num, win = frames.shape
    autocorr = np.empty((num, order + 1))
    for k in range(order + 1):
        autocorr[:, k] = np.einsum("ij,ij->i", frames[:, : win - k], frames[:, k:])

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

    roots = np.zeros((num, order), dtype=complex)
    live = np.flatnonzero(~degenerate)
    roots[live] = _formant_roots(a[live], sr)
    freqs = np.angle(roots) * sr / (2.0 * np.pi)
    return pick_formants(freqs, _narrow(roots, sr), degenerate, NUM_FORMANTS)


def _narrow(roots: np.ndarray, sr: int) -> np.ndarray:
    """Mask of the roots in the upper half plane with bandwidth under MAX_FORMANT_BANDWIDTH_HZ."""
    with np.errstate(divide="ignore"):
        bandwidths = -(sr / np.pi) * np.log(np.maximum(np.abs(roots), 1e-12))
    return (roots.imag > 0) & (bandwidths < MAX_FORMANT_BANDWIDTH_HZ)


def _formant_roots(a: np.ndarray, sr: int) -> np.ndarray:
    """Roots of each row's predictor polynomial z**n + a_1 z**(n-1) + ... + a_n
    that _narrow keeps, and zeros, or all n roots where the narrow ones are
    not certified (see lpc_formants). a is (rows, n + 1) with a_0 = 1.
    """
    found, certified = _certified_roots(a, _envelope_seeds(a), sr)
    roots = np.zeros((len(a), a.shape[1] - 1), dtype=complex)
    roots[certified, : found.shape[1]] = found[certified]
    roots[~certified] = _companion_roots(a[~certified])
    return roots


def _companion_roots(a: np.ndarray) -> np.ndarray:
    """All roots of each row's predictor polynomial: the eigenvalues of its companion matrix."""
    num, order = a.shape[0], a.shape[1] - 1
    comp = np.zeros((num, order, order))
    comp[:, 0, :] = -a[:, 1:]
    idx = np.arange(order - 1)
    comp[:, idx + 1, idx] = 1.0
    return np.linalg.eigvals(comp)


def _certified_roots(a: np.ndarray, seeds: np.ndarray, sr: int) -> tuple[np.ndarray, np.ndarray]:
    """Narrow roots of each row's predictor polynomial P, polished by Newton
    from that row's seeds, and whether they are certified to be all of P's
    narrow roots.

    Returns roots, shaped like seeds, with the roots _narrow keeps and zeros,
    and certified, true for a row when the count of roots outside rho (see
    _count_outside) had no relative pivot under ROOT_PIVOT_TOL, every kept
    root's last Newton step was at most ROOT_STEP_TOL times its modulus,
    the kept roots and their conjugates lie at least ROOT_SEPARATION apart,
    and the count is twice the number kept.
    """
    rho = np.exp(-np.pi * MAX_FORMANT_BANDWIDTH_HZ / sr)
    count, pivot = _count_outside(a, rho)
    z = seeds.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_STEPS):
            step = _newton_step(a, z)
            z -= step
        kept = _narrow(z, sr)
        converged = np.all(~kept | (np.abs(step) <= ROOT_STEP_TOL * np.abs(z)), axis=1)
    # kept roots lie near the unit circle, so an absolute gap will do; NaN
    # stands in for the others and is never too close. A root that close to
    # its conjugate is real.
    w = np.where(kept, z, np.nan)
    distinct = ~np.any(kept & (z.imag < ROOT_SEPARATION / 2), axis=1)
    for i in range(1, w.shape[1]):
        distinct &= ~np.any(np.abs(w[:, :i] - w[:, i : i + 1]) < ROOT_SEPARATION, axis=1)
    certified = (pivot >= ROOT_PIVOT_TOL) & converged & distinct & (2 * np.count_nonzero(kept, axis=1) == count)
    return np.where(kept, z, 0.0), certified


def _count_outside(a: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Number of roots with modulus over rho of each row's predictor
    polynomial, and the smallest relative pivot of the count.

    The Schur-Cohn-Jury recursion (Jury 1964; Marden, Geometry of
    Polynomials, Thm 42.1) on q(w) = P(rho w): with q's coefficients c_0..c_d
    in ascending powers, scaled to a largest modulus of 1, the transform
    c_0 q - c_d q*, where q* is q with its coefficients reversed, has degree
    d - 1. By Rouche's theorem it has as many roots in the unit disc as q
    when the pivot c_0**2 - c_d**2 is positive, and as many as q*, that is
    d less q's, when it is negative. A pivot of 0 means a root on the unit
    circle, so a small one means a root within rounding of rho.
    """
    num, n = a.shape[0], a.shape[1] - 1
    c = a[:, ::-1] * rho ** np.arange(n + 1)
    # q has inside + sign * (roots in the disc of the current transform) roots in the disc
    inside = np.zeros(num, dtype=int)
    sign = np.ones(num, dtype=int)
    pivot = np.full(num, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(n, 0, -1):
            c = c / np.max(np.abs(c), axis=1, keepdims=True)
            c0, cd = c[:, :1], c[:, d : d + 1]
            piv = (c0 * c0 - cd * cd)[:, 0]
            pivot = np.minimum(pivot, np.abs(piv))
            flip = piv < 0
            inside += np.where(flip, sign * d, 0)
            sign = np.where(flip, -sign, sign)
            c = c0 * c[:, :d] - cd * c[:, d:0:-1]
    return n - inside, pivot


def _envelope_seeds(a: np.ndarray) -> np.ndarray:
    """Newton seeds for the narrow roots of each row's predictor polynomial.

    A(z) = 1 + a_1 / z + ... + a_n / z**n dips near each narrow root. Of its
    squared modulus on the circle of radius SEED_RADIUS, sampled by one
    SEED_FFT-point FFT of a_k SEED_RADIUS**-k, the up to n // 2 deepest
    interior minima give the seeds, SEED_RADIUS e^{jw} at their angles w,
    deepest first; a row with fewer minima has NaN in the slots left over.
    The FFT runs on SEED_BLOCK rows at a time.
    """
    n = a.shape[1] - 1
    scale = SEED_RADIUS ** -np.arange(n + 1)
    circle = SEED_RADIUS * np.exp(2j * np.pi * np.arange(1, SEED_FFT // 2) / SEED_FFT)
    seeds = np.full((len(a), n // 2), np.nan, dtype=complex)
    for start in range(0, len(a), SEED_BLOCK):
        env = np.fft.rfft(a[start : start + SEED_BLOCK] * scale, n=SEED_FFT, axis=1)
        power = env.real**2
        power += env.imag**2
        del env
        inner = power[:, 1:-1]
        rows, cols = np.nonzero((inner < power[:, :-2]) & (inner <= power[:, 2:]))
        # the minima sorted by row, then depth; rank counts them within the row
        order = np.lexsort((inner[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        kept = rank < n // 2
        seeds[start + rows[kept], rank[kept]] = circle[cols[kept]]
    return seeds


def _newton_step(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """P(z) / P'(z) for the predictor polynomial P of each row of a, at each
    point of that row of z, by Horner's rule on P and P'."""
    p = z + a[:, 1:2]
    dp = np.ones_like(z)
    for k in range(2, a.shape[1]):
        dp *= z
        dp += p
        p *= z
        p += a[:, k : k + 1]
    return p / dp


def pick_formants(freqs: np.ndarray, keep: np.ndarray, degenerate: np.ndarray, num_formants: int) -> np.ndarray:
    """Lowest num_formants kept frequencies of each row, ascending, 0-padded.

    freqs and keep are (num_frames, num_roots); a degenerate row gives all
    zeros. Roots that are not kept sort last as inf and come back as 0.
    """
    cand = np.where(keep & ~degenerate[:, None], freqs, np.inf)
    cand.sort(axis=1)
    out = np.zeros((len(freqs), num_formants))
    n = min(num_formants, cand.shape[1])
    out[:, :n] = cand[:, :n]
    out[np.isinf(out)] = 0.0
    return out


def spectral_slope_band(spec: Spectrogram, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Per-frame OLS slope of log power (dB) against frequency over a band."""
    sel = slope_band_bins(fmin_hz, fmax_hz, spec.grid.window_samples, spec.grid.sample_rate)
    x = spec.freqs_hz[sel]
    y = 10.0 * np.log10(np.maximum(spec.values[:, sel], POWER_FLOOR))
    xc = x - x.mean()
    return (y - y.mean(axis=1, keepdims=True)) @ xc / np.dot(xc, xc)
