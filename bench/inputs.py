"""Seeded input generators for the benchmark workloads.

Run as ``python3 bench/inputs.py <workload> <seed> <out_dir>``; the
benchmark starts it as a child process so that synthesis counts towards
set-up time but not towards the peak memory of the measured process.
The same seed always writes the same files.

* clinic16k: ``make_corpus`` with 30 recordings per class, three sites,
  ~10 s 16 kHz PCM16 clips of 6-9 units.
* ward44k: three 44.1 kHz float32 clips of 72, 82 and 94 s holding 45,
  52 and 60 s of cry (about 53-70 units), plus a fixed dysphonation probe.
  Each clip draws units until it holds its share of cry and ends in
  silence up to its fixed length, as a monitor's fixed recording window
  would, so the per-recording times and the peak memory do not wander
  with the seed.
* cohort: a 38-column feature table in the ``cry extract`` CSV format
  with a patient-level split, drawn from a planted model that does not
  touch the extraction path.
"""

import pin  # noqa: F401  (must precede numpy)

import csv
import dataclasses
import json
import os
import sys

import numpy as np

from cryscreen.audio_io import ManifestEntry, save_manifest, write_wav
from cryscreen.pipeline import FEATURE_COLUMNS, ID_COLUMNS
from cryscreen.synthcry import (
    DEFAULT_NEGATIVE_PROFILE,
    DEFAULT_POSITIVE_PROFILE,
    SynthSpec,
    make_corpus,
    random_recording_spec,
    random_unit,
    synth_cry,
)

SITES = ("ESUTH", "LASUTH", "SCDM")
POSITIVE_GRADES = ("mild", "moderate", "severe")

CLINIC_PER_CLASS = 30

WARD_RATE = 44100
WARD_CRY_S = (45.0, 52.0, 60.0)
# over seeds 1-300 the units and pauses alone ran 65.6-71.7, 75.7-81.9 and
# 87.1-93.8 s; a longer draw keeps the default half second of tail silence
WARD_LENGTH_S = (72.0, 82.0, 94.0)
WARD_PROBE = "probe_dysphonation.wav"

COHORT_PATIENTS = 1500
COHORT_CONSISTENT = 8
COHORT_SHIFT = 0.45  # class-1 mean shift of a consistent feature, in noise sd
COHORT_DECOY_SHIFT = 0.3  # decoys shift +a, +a and -2a over the three sites
COHORT_PATIENT_SD = 0.6  # shared by a patient's birth and discharge rows
COHORT_UNLABELED = 0.03


def clinic16k(seed: int, out_dir: str) -> None:
    make_corpus(out_dir, n_per_class=CLINIC_PER_CLASS, seed=seed, sites=SITES)


def ward44k(seed: int, out_dir: str) -> None:
    # Dysphonation rendered at 44.1 kHz is never detected (see CHANGES.md),
    # so the seeded clips plant none and any dysphonation call on them is a
    # false positive. The fault stays in view through the probe: the same
    # eight dysphonic units for every seed, whose operation fails each round.
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WARD_RATE])
    specs = []
    for i, (cry_s, length_s) in enumerate(zip(WARD_CRY_S, WARD_LENGTH_S)):
        base = DEFAULT_POSITIVE_PROFILE if i % 2 else DEFAULT_NEGATIVE_PROFILE
        profile = dataclasses.replace(base, p_dysphonation=0.0)
        units = []
        while sum(u.duration_s for u in units) < cry_s:
            units.append(random_unit(profile, rng))
        spec = SynthSpec(units=units, seed=int(rng.integers(0, 2**31 - 1)))
        body_s = spec.lead_silence_s + sum(u.duration_s for u in units) + sum(u.pause_after_s for u in units[:-1])
        spec.tail_silence_s = max(spec.tail_silence_s, length_s - body_s)
        specs.append((f"ward{i:02d}.wav", spec))
    probe = dataclasses.replace(
        DEFAULT_POSITIVE_PROFILE, p_hyperphonation=0.0, p_glide=0.0, p_vibrato=0.0, p_dysphonation=1.0,
        num_units_range=(8, 8),
    )
    specs.append((WARD_PROBE, random_recording_spec(probe, np.random.default_rng(0))))

    entries, truths = [], []
    for i, (name, spec) in enumerate(specs):
        clip, truth = synth_cry(dataclasses.replace(spec, sample_rate=WARD_RATE))
        write_wav(clip, os.path.join(out_dir, name), bit_depth=32)
        label = POSITIVE_GRADES[i % 3] if i % 2 else "normal"
        entries.append(ManifestEntry(name, f"wd{i:02d}", SITES[i % 3], "birth", label))
        truths.append(dict(path=name, label=label, **truth.to_json_dict()))
    save_manifest(entries, os.path.join(out_dir, "manifest.csv"))
    with open(os.path.join(out_dir, "ground_truth.json"), "w") as fh:
        json.dump({"sample_rate": WARD_RATE, "recordings": truths, "probes": [WARD_PROBE]}, fh)


def cohort(seed: int, out_dir: str) -> None:
    """Planted feature table: features.csv, split.csv and truth.json.

    Each patient has one label and two rows (birth, discharge) that share
    a patient effect. Consistent features shift the positive class the
    same way at every site. Every other column is a decoy whose shift is
    +a, +a and -2a over the three sites: its pooled effect is zero, so a
    pooled linear model gains nothing from it, but its per-site signs
    disagree, so selection must drop it. Columns get arbitrary scales and
    offsets so that standardization matters.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    n_feat = len(FEATURE_COLUMNS)
    consistent = np.sort(rng.permutation(n_feat)[:COHORT_CONSISTENT])
    sign = rng.choice([-1.0, 1.0], size=n_feat)
    shift = np.empty((len(SITES), n_feat))
    for j in range(n_feat):
        if j in consistent:
            shift[:, j] = sign[j] * COHORT_SHIFT
        else:
            shift[:, j] = sign[j] * COHORT_DECOY_SHIFT
            shift[rng.integers(len(SITES)), j] *= -2.0
    scale = 10.0 ** rng.uniform(-1.0, 3.0, size=n_feat)
    offset = rng.uniform(-3.0, 3.0, size=n_feat) * scale

    n = COHORT_PATIENTS
    site = np.arange(n) % len(SITES)
    y = (rng.random(n) < 0.5).astype(float)
    labeled = rng.random(n) >= COHORT_UNLABELED
    split = np.where(rng.random(n) < 0.25, "test", np.where(rng.random(n) < 0.2, "val", "train"))
    patient_effect = COHORT_PATIENT_SD * rng.standard_normal((n, n_feat))
    row_sd = np.sqrt(1.0 - COHORT_PATIENT_SD**2)

    feature_rows, split_rows, truth_rows = [], [], []
    for period in ("birth", "discharge"):
        z = y[:, None] * shift[site] + patient_effect + row_sd * rng.standard_normal((n, n_feat))
        x = z * scale + offset
        # the generating model's own score: the log-likelihood ratio carried
        # by the consistent columns (unit-variance noise per row)
        score = z[:, consistent] @ shift[0, consistent]
        for i in range(n):
            path = f"pt{i:04d}_{period}.wav"
            if labeled[i]:
                label = POSITIVE_GRADES[i % 3] if y[i] else "normal"
                split_rows.append([path, split[i]])
                if split[i] == "test":
                    truth_rows.append([path, int(y[i]), float(score[i])])
            else:
                label = "unlabeled"
            feature_rows.append([path, f"pt{i:04d}", SITES[site[i]], period, label] + [repr(float(v)) for v in x[i]])

    with open(os.path.join(out_dir, "features.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ID_COLUMNS + FEATURE_COLUMNS)
        writer.writerows(feature_rows)
    with open(os.path.join(out_dir, "split.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "split"])
        writer.writerows(split_rows)
    truth = {
        "selected": [FEATURE_COLUMNS[j] for j in consistent],
        "directions": {FEATURE_COLUMNS[j]: "positive" if sign[j] > 0 else "negative" for j in consistent},
        "test_rows": truth_rows,
    }
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(truth, fh)


GENERATORS = {"clinic16k": clinic16k, "ward44k": ward44k, "cohort-model": cohort}

if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        sys.exit(f"usage: inputs.py {{{','.join(GENERATORS)}}} SEED OUT_DIR")
    GENERATORS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
