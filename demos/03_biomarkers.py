"""Plant one cry unit per biomarker event and watch the detectors find them.

The synthesizer reports exact ground truth for every unit, so each
detector's output can be compared against what was planted.
"""

from cryscreen.biomarkers import aggregate_biomarkers, smooth_f0, unit_biomarker_flags
from cryscreen.config import PipelineConfig
from cryscreen.pipeline import segment_clip
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry

spec = SynthSpec(
    units=[
        UnitSpec(duration_s=1.1, pause_after_s=0.35, melody="flat",
                 event="hyperphonation", event_start_s=0.4, event_duration_s=0.25),
        UnitSpec(duration_s=0.9, pause_after_s=0.35, melody="flat", base_f0_hz=420.0,
                 event="dysphonation", event_start_s=0.3, event_duration_s=0.3),
        UnitSpec(duration_s=0.8, pause_after_s=0.35, melody="flat", base_f0_hz=300.0,
                 event="glide", event_start_s=0.35),
        UnitSpec(duration_s=1.0, pause_after_s=0.35, melody="flat",
                 event="vibrato", event_start_s=0.15, event_duration_s=0.7),
        UnitSpec(duration_s=0.9, pause_after_s=0.0, melody="falling"),
    ],
    seed=12,
)
clip, truth = synth_cry(spec)

cfg = PipelineConfig()
seg, front = segment_clip(clip, cfg)
smoothed = smooth_f0(front.f0.f0_hz, front.f0.voiced)
flags = [unit_biomarker_flags(front.f0, front.flatness, unit, smoothed, cfg) for unit in seg.expirations]

print("unit  planted event      detected frames (hyper/dys/glide)  vibrato  melody det/truth")
for i, (unit, det, gt) in enumerate(zip(spec.units, flags, truth.unit_flags)):
    print(f"  {i}   {unit.event:15s}  "
          f"{det.hyperphonation_frames:3d}/{det.dysphonation_frames:3d}/{det.glide_frames:3d} "
          f"(truth {gt.hyperphonation_frames:3d}/{gt.dysphonation_frames:3d}/{gt.glide_frames:3d})   "
          f"{str(det.vibrato_present):5s}    {det.melody}/{gt.melody}")

vector = aggregate_biomarkers(seg, flags)
print("\nper-recording biomarker vector (26 values), the nonzero fractions:")
for name, value in vector.items():
    if value and ("frac" in name):
        print(f"  {name:30s} {value:.4f}")
