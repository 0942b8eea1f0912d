"""Generator invariants: determinism, planted truth, corpus layout."""

import json
import os
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from cryscreen import biomarkers, synthcry
from cryscreen.audio_io import load_manifest, load_wav
from cryscreen.config import PipelineConfig
from cryscreen.dsp import estimate_f0
from cryscreen.synthcry import (
    DEFAULT_NEGATIVE_PROFILE,
    DEFAULT_POSITIVE_PROFILE,
    ClassProfile,
    CorpusProfile,
    GroundTruth,
    SynthSpec,
    UnitSpec,
    load_profile,
    make_corpus,
    random_recording_spec,
    synth_cry,
    true_contour,
    unit_f0_at,
)


def one_unit_spec(unit, seed=0):
    return SynthSpec(units=[unit], seed=seed)


def test_same_seed_bit_identical():
    spec = random_recording_spec(DEFAULT_NEGATIVE_PROFILE, np.random.default_rng(4))
    a, _ = synth_cry(spec)
    b, _ = synth_cry(spec)
    assert np.array_equal(a.samples, b.samples)


def test_different_seed_differs():
    unit = UnitSpec(duration_s=0.8, pause_after_s=0.3)
    a, _ = synth_cry(one_unit_spec(unit, seed=1))
    b, _ = synth_cry(one_unit_spec(unit, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_unit_f0_melody_knots():
    flat = UnitSpec(duration_s=1.0, pause_after_s=0.2, base_f0_hz=420.0, melody="flat")
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(unit_f0_at(flat, t), 420.0)
    rising = UnitSpec(duration_s=1.0, pause_after_s=0.2, base_f0_hz=400.0, melody="rising")
    f = unit_f0_at(rising, t)
    assert f[0] == pytest.approx(400.0 * 0.95)
    assert f[-1] == pytest.approx(400.0 * 1.35)
    assert np.all(np.diff(f) > 0)


def test_unit_f0_hyper_plateau():
    unit = UnitSpec(
        duration_s=1.0,
        pause_after_s=0.2,
        event="hyperphonation",
        event_start_s=0.4,
        event_duration_s=0.25,
        hyper_f0_hz=1200.0,
    )
    mid = unit_f0_at(unit, np.array([0.5]))
    assert mid[0] == pytest.approx(1200.0)
    outside = unit_f0_at(unit, np.array([0.05]))
    assert outside[0] == pytest.approx(450.0)


@pytest.mark.parametrize("melody", ["flat", "rising", "falling", "rising_falling", "falling_rising"])
def test_planted_melody_matches_truth_label(melody):
    unit = UnitSpec(duration_s=0.9, pause_after_s=0.2, base_f0_hz=430.0, melody=melody)
    _, truth = synth_cry(one_unit_spec(unit))
    assert truth.unit_flags[0].melody == melody
    assert truth.planted_melody == [melody]


def test_truth_counts_planted_events():
    units = [
        UnitSpec(duration_s=1.0, pause_after_s=0.3, event="hyperphonation", event_start_s=0.35, event_duration_s=0.25),
        UnitSpec(duration_s=1.0, pause_after_s=0.3, event="dysphonation", event_start_s=0.3, event_duration_s=0.3),
        UnitSpec(duration_s=1.0, pause_after_s=0.3, event="glide", event_start_s=0.4, event_duration_s=0.165, base_f0_hz=300.0),
        UnitSpec(duration_s=1.0, pause_after_s=0.3, event="vibrato", event_start_s=0.15, event_duration_s=0.7),
    ]
    _, truth = synth_cry(SynthSpec(units=units, seed=3))
    hyper, dys, glide, vib = truth.unit_flags
    # the hyper plateau spans 25 frames, ramps add a little on each side
    assert 20 <= hyper.hyperphonation_frames <= 40
    assert dys.dysphonation_frames == 30
    assert glide.glide_frames > 0
    assert vib.vibrato_present
    assert truth.events == ["hyperphonation", "dysphonation", "glide", "vibrato"]
    assert not hyper.vibrato_present and hyper.dysphonation_frames == 0


def test_expected_vector_matches_aggregation_exactly():
    spec = random_recording_spec(DEFAULT_POSITIVE_PROFILE, np.random.default_rng(8))
    _, truth = synth_cry(spec)
    vec = biomarkers.aggregate_biomarkers(truth.segmentation, truth.unit_flags)
    assert vec == truth.expected_vector


def test_ground_truth_json_round_trip():
    spec = random_recording_spec(DEFAULT_NEGATIVE_PROFILE, np.random.default_rng(6))
    _, truth = synth_cry(spec)
    back = GroundTruth.from_json_dict(json.loads(json.dumps(truth.to_json_dict())))
    assert back.segmentation.expirations == truth.segmentation.expirations
    assert back.unit_flags == truth.unit_flags
    assert back.planted_melody == truth.planted_melody
    assert back.expected_vector == truth.expected_vector


def test_planted_hyper_detected_in_rendered_audio():
    # 0.3 s plateau at 1200 Hz: the detector must flag most of it and
    # nothing more than two hops outside
    unit = UnitSpec(
        duration_s=1.2,
        pause_after_s=0.2,
        event="hyperphonation",
        event_start_s=0.5,
        event_duration_s=0.3,
        hyper_f0_hz=1200.0,
    )
    clip, truth = synth_cry(one_unit_spec(unit, seed=5))
    f0 = estimate_f0(clip, PipelineConfig())
    on, off = truth.segmentation.expirations[0]
    grid = f0.grid
    sl = grid.frame_slice(on, off)
    mask = biomarkers.detect_hyperphonation(f0.f0_hz[sl], f0.voiced[sl], grid.hop_seconds, PipelineConfig())
    centers = (grid.frame_times() + grid.window_seconds / 2.0)[sl]
    inside = (centers >= on + 0.5) & (centers < on + 0.8)
    assert mask[inside].mean() >= 0.8
    # the trapezoid ramps up over 0.18 s, crossing 1000 Hz well before the
    # plateau; anything flagged must still sit inside ramp bounds + 2 hops
    ramp_lo = on + 0.5 - 0.18 - 2 * grid.hop_seconds
    ramp_hi = on + 0.8 + 0.18 + 2 * grid.hop_seconds
    flagged_times = centers[mask]
    assert np.all((flagged_times >= ramp_lo) & (flagged_times <= ramp_hi))


def test_true_contour_matches_plant():
    unit = UnitSpec(duration_s=0.8, pause_after_s=0.2, base_f0_hz=440.0)
    spec = one_unit_spec(unit)
    clip, truth = synth_cry(spec)
    on, off = truth.segmentation.expirations[0]
    sr = spec.sample_rate
    contour = true_contour(spec, [(int(on * sr), int(off * sr))], len(clip.samples))
    inside = contour.voiced
    assert np.allclose(contour.f0_hz[inside], 440.0)
    assert not np.any(contour.f0_hz[~inside])


def test_make_corpus_layout(tmp_path):
    out = str(tmp_path / "corpus")
    records = make_corpus(out, n_per_class=3, seed=13)
    assert len(records) == 6
    entries = load_manifest(os.path.join(out, "manifest.csv"))
    assert [e.path for e in entries] == [f"rec{i:04d}.wav" for i in range(6)]
    assert [e.label for e in entries] == ["normal"] * 3 + ["mild", "moderate", "severe"]
    assert [e.site for e in entries] == ["ESUTH", "LASUTH", "SCDM"] * 2
    assert len({e.patient_id for e in entries}) == 6
    for e in entries:
        clip = load_wav(os.path.join(out, e.path))
        assert clip.sample_rate == 16000
        assert clip.duration_seconds > 2.0
    gt = json.loads((tmp_path / "corpus" / "ground_truth.json").read_text())
    assert gt["sample_rate"] == 16000
    assert len(gt["recordings"]) == 6
    parsed = GroundTruth.from_json_dict(gt["recordings"][0])
    assert parsed.segmentation.expirations


def test_class_profile_reads_back_every_field_of_its_json():
    # event probabilities whose sum of 1 rounds above it stay valid
    odd_sum = replace(DEFAULT_POSITIVE_PROFILE, p_hyperphonation=0.0, p_dysphonation=0.33, p_glide=0.56, p_vibrato=0.11)
    for profile in (ClassProfile(), DEFAULT_POSITIVE_PROFILE, DEFAULT_NEGATIVE_PROFILE, odd_sum, CorpusProfile(),
                    CorpusProfile(n_per_class=3, sites=("MUHC", "OTHER"), positive=odd_sum)):
        assert type(profile).from_json_dict(json.loads(json.dumps(asdict(profile)))) == profile


@pytest.mark.parametrize(
    "record, values, message",
    [
        (ClassProfile, {"p_glide": -1.0}, "p_glide=-1.0 must be at least 0"),
        (ClassProfile, {"num_units_range": (0, 3)}, "num_units_range=0 must be at least 1"),
        (ClassProfile, {"num_units_range": (2.5, 3)}, "num_units_range=(2.5, 3) must be whole"),
        (ClassProfile, {"pause_range": (0.5, 0.2)}, "pause_range=(0.5, 0.2) must be a pair running from low to high"),
        (ClassProfile, {"base_f0_range": (400.0,)}, "base_f0_range=(400.0,) must be a pair"),
        (ClassProfile, {"dysphonation_snr_db": float("inf")}, "dysphonation_snr_db=inf is not a finite number"),
        (ClassProfile, {"melody_probs": {"hum": 1.0}}, "melody_probs={'hum': 1.0} must weigh melodies of"),
        (ClassProfile, {"melody_probs": {"flat": 0.0}}, "melody_probs={'flat': 0.0} must weigh melodies of"),
        (ClassProfile, {"p_glide": 0.6, "p_dysphonation": 0.6},
         "p_hyperphonation + p_dysphonation + p_glide + p_vibrato = 1.33 must be at most 1"),
        (CorpusProfile, {"n_per_class": 0}, "n_per_class=0 must be at least 1"),
        (CorpusProfile, {"n_per_class": 2.0}, "n_per_class=2.0 must be whole"),
        (CorpusProfile, {"sites": ()}, "sites=() must name one or more sites of"),
        (CorpusProfile, {"sites": ("ESUTH", "A")}, "sites=('ESUTH', 'A') must name one or more sites of"),
        # a record built in code meets the rules of one read from JSON
        (CorpusProfile, {"positive": {"p_glide": 0.1}}, "positive must be a ClassProfile, not {'p_glide': 0.1}"),
        (CorpusProfile, {"n_per_class": 2**64}, f"n_per_class={2**64} does not fit numpy's int64"),
        (CorpusProfile, {"n_per_class": True}, "n_per_class must be a number, not True"),
        (CorpusProfile, {"sites": "ESUTH"}, "sites must be a tuple, not 'ESUTH'"),
        (CorpusProfile, {"sites": ("ESUTH", 5)}, "sites must be a str, not 5"),
        # rng.integers draws a unit count up to the high end, which numpy holds in an int64
        (ClassProfile, {"num_units_range": (1, 2**64)}, f"num_units_range={2**64} does not fit numpy's int64"),
        (ClassProfile, {"num_units_range": (1, 10**30)}, f"num_units_range={10**30} does not fit numpy's int64"),
        (ClassProfile, {"num_units_range": (True, 3)}, "num_units_range must be a number, not True"),
        (ClassProfile, {"p_glide": np.float64(0.1)}, "p_glide must be a number, not np.float64(0.1)"),
        (ClassProfile, {"p_glide": 10**400}, "p_glide is an integer too large to be a finite number"),
        (ClassProfile, {"pause_range": [0.2, 0.5]}, "pause_range must be a tuple, not [0.2, 0.5]"),
        (ClassProfile, {"melody_probs": [("flat", 1.0)]}, "melody_probs must be a dict, not [('flat', 1.0)]"),
        (ClassProfile, {"melody_probs": {"flat": True}}, "melody_probs['flat'] must be a number, not True"),
        (ClassProfile, {"melody_probs": {"flat": -0.5}}, "melody_probs['flat']=-0.5 must be at least 0"),
    ],
)
def test_a_profile_record_out_of_range_cannot_be_built(record, values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record(**values)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(record(), **values)


def test_a_unit_count_range_reaches_as_high_as_numpy_can_draw():
    top = ClassProfile(num_units_range=(1, 2**63 - 1)).num_units_range[1]
    assert np.random.default_rng(0).integers(top, top + 1) == top


def test_make_corpus_refuses_a_class_that_is_not_a_profile_before_writing(tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match=re.escape("positive must be a ClassProfile")):
        make_corpus(str(out), n_per_class=1, positive={"p_glide": 0.1})
    assert not out.exists()


def test_make_corpus_refuses_an_empty_site_list_before_writing(tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match=re.escape("sites=() must name")):
        make_corpus(str(out), n_per_class=1, sites=())
    assert not out.exists()


def test_class_profile_from_json():
    prof = ClassProfile.from_json_dict(
        {"p_dysphonation": 0.5, "melody_probs": {"flat": 1.0}, "num_units_range": [4, 5]}
    )
    assert prof.p_dysphonation == 0.5
    assert prof.melody_probs == {"flat": 1.0}
    assert prof.num_units_range == (4, 5)
    assert prof.p_glide == ClassProfile().p_glide


def test_the_oracle_builds_no_config_at_call_time(tmp_path, monkeypatch):
    """The oracle reads the analysis settings it assumes from one object,
    built once at import."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a PipelineConfig")

    monkeypatch.setattr(synthcry, "PipelineConfig", refuse)
    noisy = UnitSpec(duration_s=1.0, pause_after_s=0.3, event="dysphonation", event_start_s=0.3, event_duration_s=0.2)
    synth_cry(SynthSpec(units=[noisy, UnitSpec(duration_s=0.8, pause_after_s=0.0)]))
    make_corpus(str(tmp_path / "corpus"), n_per_class=1)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"n_per_class": 1, "positive": {"p_glide": 0.2}}))
    assert load_profile(str(profile)) == CorpusProfile(n_per_class=1, positive=ClassProfile(p_glide=0.2))
