"""Render a synthetic cry, write it to WAV, read it back, and segment it.

Run with: python3 demos/01_read_segment.py
"""

import os
import tempfile

from cryscreen.pipeline import segment_clip
from cryscreen.audio_io import load_wav, write_wav
from cryscreen.config import PipelineConfig
from cryscreen.segmenter import meets_curation_rule
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry

# three cry units with known on/off times, separated by breath pauses
spec = SynthSpec(
    units=[
        UnitSpec(duration_s=1.1, pause_after_s=0.4, melody="falling"),
        UnitSpec(duration_s=1.3, pause_after_s=0.3, melody="rising_falling"),
        UnitSpec(duration_s=0.8, pause_after_s=0.0, melody="flat"),
    ],
    seed=3,
)
clip, truth = synth_cry(spec)

with tempfile.TemporaryDirectory(prefix="cry_demo_") as tmp:
    path = os.path.join(tmp, "cry.wav")
    write_wav(clip, path)
    clip = load_wav(path)
    print(f"wrote and re-read {path}: {clip.duration_seconds:.2f}s at {clip.sample_rate} Hz")

seg, front = segment_clip(clip)
print(f"\nplanted units        -> detected units")
for planted, found in zip(truth.segmentation.expirations, seg.expirations):
    print(f"[{planted[0]:.2f}, {planted[1]:.2f}]s      -> [{found[0]:.2f}, {found[1]:.2f}]s")
print(f"\npauses: {[(round(a, 2), round(b, 2)) for a, b in seg.pauses]}")
cfg = PipelineConfig()
print(f"total cry: {seg.total_cry_seconds:.2f}s "
      f"({'meets' if meets_curation_rule(seg, cfg) else 'below'} the {cfg.min_total_cry_s:g}s curation minimum)")
