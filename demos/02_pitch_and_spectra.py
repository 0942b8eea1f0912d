"""Frame-level front end: F0 tracking, loudness, and spectral flatness."""

import numpy as np

from cryscreen.audio_io import AudioClip
from cryscreen.config import PipelineConfig
from cryscreen.dsp import estimate_f0, log_mel, loudness, spectral_flatness, stft

SR = 16000
# the kernels read their frame grid, Mel bands and pitch range from a config;
# this one searches F0 over 200-2000 Hz, wider than extraction's 250-1600 Hz
CFG = PipelineConfig(f0_min_hz=200.0, f0_max_hz=2000.0)


def harmonic(f0, dur_s=0.6, n_harm=5):
    t = (np.arange(int(dur_s * SR)) + 0.5) / SR
    x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, n_harm + 1))
    return AudioClip(0.35 * x / np.max(np.abs(x)), SR)


print("F0 tracking on harmonic stacks (median of voiced frames):")
for true_f0 in (280.0, 450.0, 760.0, 1200.0):
    track = estimate_f0(harmonic(true_f0), CFG)
    est = np.median(track.f0_hz[track.voiced])
    print(f"  true {true_f0:7.1f} Hz -> est {est:7.1f} Hz  ({100 * abs(est - true_f0) / true_f0:.2f}% off, "
          f"{track.voiced.mean():.0%} of frames voiced)")

# flatness separates phonation (peaky spectrum, near 0) from noise (near 1)
tone = harmonic(450.0)
rng = np.random.default_rng(0)
noise = AudioClip(0.3 * rng.standard_normal(int(0.6 * SR)), SR)
print("\nspectral flatness:")
for name, clip in (("harmonic", tone), ("white noise", noise)):
    flat = spectral_flatness(stft(clip, CFG))
    print(f"  {name:12s} median {np.median(flat):.3f}")

spec = stft(tone, CFG)
print(f"\nSTFT: {spec.values.shape[0]} frames x {spec.values.shape[1]} bins, "
      f"hop {1000 * spec.grid.hop_seconds:.0f} ms")
lm = log_mel(spec, CFG)
# log_mel, loudness and spectral_flatness give plain arrays, one row per STFT frame
print(f"log-Mel: {lm.shape[1]} bands; loudness of frame 30: {loudness(lm)[30]:.3f}")
