"""The 12 generic voice features, computed over the cry units."""

from cryscreen.config import PipelineConfig
from cryscreen.pipeline import segment_clip
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry
from cryscreen.voicefeat import compute_generic_features, concat_expirations, unit_frames

spec = SynthSpec(
    units=[
        UnitSpec(duration_s=0.9, pause_after_s=0.4, melody="falling", base_f0_hz=430.0),
        UnitSpec(duration_s=1.1, pause_after_s=0.4, melody="rising_falling", base_f0_hz=470.0),
        UnitSpec(duration_s=0.8, pause_after_s=0.0, melody="flat", base_f0_hz=400.0),
    ],
    seed=21,
)
clip, _ = synth_cry(spec)
# one analysis front end per recording: segmentation, biomarkers and the
# voice functionals all read the same per-frame descriptors
cfg = PipelineConfig()
seg, front = segment_clip(clip, cfg)

# pauses are left out: functionals describe phonation, not silence
frames = unit_frames(front.f0.grid, seg)
print(f"{front.f0.grid.num_frames} front-end frames -> {len(frames)} frames in {len(seg.expirations)} cry units")

# only the formants need the waveform: LPC runs over the spliced units
voiced_only = concat_expirations(clip, seg)
print(f"{clip.duration_seconds:.2f}s recording -> {voiced_only.duration_seconds:.2f}s of concatenated cry")

features = compute_generic_features(front, seg, voiced_only, cfg)
print("\nname                            value")
for name, value in features.items():
    print(f"{name:30s} {value: .4f}")

print("\nslope* features carry the 0-500 Hz energy tilt, F2/F3 the formant")
print("positions, mfcc* the spectral shape, and loudness_stddevFallingSlope")
print("the variability of loudness decays; stddevNorm forms are unitless")
print("coefficients of variation. A fully voiced set of units legitimately")
print("leaves the unvoiced-frame slope at 0.")
