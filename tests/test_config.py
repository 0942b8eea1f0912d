import inspect
import json
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryscreen import analytics, biomarkers, cli, dsp, segmenter, voicefeat
from cryscreen.audio_io import MAX_SAMPLE_RATE, SITES, ManifestEntry, resample
from cryscreen.biomarkers import smooth_f0, unit_biomarker_flags
from cryscreen.config import PipelineConfig, load_config, save_config
from cryscreen.dsp import F0Contour, FrameGrid
from cryscreen.pipeline import FEATURE_COLUMNS, FeatureRow, analyze_frames, write_features_csv
from cryscreen.segmenter import CrySegmentation, detect_cry_units, meets_curation_rule, pitch_frames
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry

# the defaults, spelled out so that moving them cannot change one
DEFAULTS_TEXT = """\
sample_rate=16000
window_s=0.025
hop_s=0.01
num_mel_bands=80
f0_min_hz=250.0
f0_max_hz=1600.0
voicing_threshold=0.5
active_fraction=0.5
voicing_halfwidth_frames=3
min_unit_s=0.2
min_pause_s=0.05
min_total_cry_s=3.0
hyperphonation_f0_hz=1000.0
dysphonation_flatness=0.3
glide_delta_hz=600.0
glide_max_span_s=0.1
vibrato_prominence_hz=40.0
vibrato_min_extrema=4
vibrato_max_spacing_s=0.1
hyperphonation_min_run_s=0.1
dysphonation_min_run_s=0.1
melody_flat_ratio=0.15
cv_folds=10
reg_grid=0.1,1.0,10.0,100.0
selection_sites=ESUTH,LASUTH,SCDM
"""


def test_save_load_round_trip(tmp_path):
    cfg = replace(
        PipelineConfig(),
        f0_min_hz=300.0,
        cv_folds=5,
        reg_grid=(0.5, 2.0),
        selection_sites=("A", "B"),
    )
    path = str(tmp_path / "cfg.txt")
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_defaults_round_trip(tmp_path):
    path = str(tmp_path / "cfg.txt")
    save_config(PipelineConfig(), path)
    assert load_config(path) == PipelineConfig()


def test_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment line\n\nhop_s = 0.005\nnum_mel_bands=64  # trailing note\n")
    cfg = load_config(str(path))
    assert cfg.hop_s == 0.005
    assert cfg.num_mel_bands == 64
    assert cfg.window_s == PipelineConfig().window_s


def test_unknown_key_is_an_error(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("hop_size=0.005\n")
    with pytest.raises(ValueError, match="unknown config key 'hop_size'"):
        load_config(str(path))


def test_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("sample_rate=16000\nf0_min_hz=fast\n")
    with pytest.raises(ValueError, match=r"cfg.txt:2: bad value for 'f0_min_hz'"):
        load_config(str(path))


def test_missing_equals_is_an_error(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_config(str(path))


def test_tuple_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("reg_grid=0.1, 1.0,10.0\nselection_sites=ESUTH, SCDM\n")
    cfg = load_config(str(path))
    assert cfg.reg_grid == (0.1, 1.0, 10.0)
    assert cfg.selection_sites == ("ESUTH", "SCDM")


def test_override_does_not_mutate():
    base = PipelineConfig()
    changed = replace(base, hop_s=0.02)
    assert base.hop_s == 0.010
    assert changed.hop_s == 0.02


def test_default_file_text_is_fixed(tmp_path):
    path = tmp_path / "cfg.txt"
    save_config(PipelineConfig(), str(path))
    assert path.read_text() == DEFAULTS_TEXT


UNUSABLE_GRID = [
    ("sample_rate=0", "sample_rate=0 must be above 0"),
    ("sample_rate=-16000", "sample_rate=-16000 must be above 0"),
    ("num_mel_bands=0", "num_mel_bands=0 must be above 0"),
    ("hop_s=0", "hop_s=0.0 is under one sample at sample_rate=16000"),
    ("hop_s=-0.01", "hop_s=-0.01 is under one sample"),
    ("window_s=0", "window_s=0.0 is under one sample"),
    # half a sample rounds down to none, as dsp.make_grid rounds it
    ("window_s=0.00003125", "window_s=3.125e-05 is under one sample"),
    ("hop_s=nan", "hop_s=nan is not a finite number"),
    ("sample_rate=4611686018427387904", "sample_rate=4611686018427387904 must be at most 384000"),
]


@pytest.mark.parametrize("line, message", UNUSABLE_GRID, ids=[line for line, _ in UNUSABLE_GRID])
def test_unusable_grid_value_names_the_key(tmp_path, line, message):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{line}\n")
    with pytest.raises(ValueError, match=rf"cfg.txt: {message}"):
        load_config(str(path))


UNUSABLE_RUN = [
    ("f0_min_hz=0", "f0_min_hz=0.0, f0_max_hz=1600.0: f0_min 0.0 must be positive"),
    ("f0_min_hz=2000", "f0_min_hz=2000.0, f0_max_hz=1600.0: f0_min 2000.0 must be below f0_max 1600.0"),
    # a 400-sample window resolves periods of up to 200 samples: 80 Hz
    ("f0_min_hz=50", "f0_min_hz=50.0, .*: window of 400 samples is too short to resolve f0_min 50.0 Hz"),
    ("f0_max_hz=nan", "f0_max_hz=nan is not a finite number"),
    ("num_mel_bands=300", "num_mel_bands=300: 300 Mel bands exceed the 257 FFT bins of a 400-sample window"),
    # the front end keeps MFCC 2-4, which take at least 5 bands
    ("num_mel_bands=4", "num_mel_bands=4: 4 coefficients need more than 4 Mel bands"),
    ("num_mel_bands=1", "num_mel_bands=1: 4 coefficients need more than 1 Mel bands"),
    # 32 samples: FFT bins 500 Hz apart, two of them in the 0-500 Hz slope band
    ("window_s=0.002 f0_min_hz=1000 num_mel_bands=10",
     r"window_s=0.002: band \[0.0, 500.0\] Hz covers 2 bins; need at least 3"),
    # 12 samples at 4 kHz, no more than the LPC order
    ("sample_rate=4000 window_s=0.003 hop_s=0.001 f0_min_hz=700 f0_max_hz=1500 num_mel_bands=6",
     "window_s=0.003: LPC order 12 must be below the window length 12"),
    # a YIN confidence never exceeds 1, so no frame would be voiced
    ("voicing_threshold=2", "voicing_threshold=2.0 must be at most 1"),
    ("voicing_threshold=1.01", "voicing_threshold=1.01 must be at most 1"),
    ("voicing_threshold=-0.1", "voicing_threshold=-0.1 must be at least 0"),
    ("voicing_threshold=nan", "voicing_threshold=nan is not a finite number"),
    # the curation rule is the only cry minimum, and a recording needs 0.5 s
    ("min_total_cry_s=0.3", "min_total_cry_s=0.3 must be at least 0.5"),
    ("min_total_cry_s=0", "min_total_cry_s=0.0 must be at least 0.5"),
    ("cv_folds=0", "cv_folds=0 must be at least 2"),
    ("cv_folds=1", "cv_folds=1 must be at least 2"),
    ("reg_grid=-1", "reg_grid=-1.0 must be above 0"),
    ("reg_grid=1,inf", "reg_grid=inf is not a finite number"),
    ("reg_grid=", "reg_grid is empty"),
    ("reg_grid=1,10,1", "reg_grid=1.0 is listed twice"),
]


@pytest.mark.parametrize("line, message", UNUSABLE_RUN, ids=[line for line, _ in UNUSABLE_RUN])
def test_value_no_run_can_use_names_the_key(tmp_path, line, message):
    path = tmp_path / "cfg.txt"
    # an entry of several keys is written one key a line
    path.write_text("".join(f"{key}\n" for key in line.split()))
    with pytest.raises(ValueError, match=rf"cfg.txt: {message}"):
        load_config(str(path))


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_names_the_key(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ValueError, match=rf"cfg.txt: {key}={value} is not a finite number"):
        load_config(str(path))


BOUNDS = [(f.name, f.type, rule, bound) for f in fields(PipelineConfig) for rule, bound in f.metadata.items()]


@pytest.mark.parametrize("key, kind, rule, bound", BOUNDS, ids=[f"{key}-{rule}" for key, _, rule, _ in BOUNDS])
def test_declared_bound_holds_at_its_edge(tmp_path, key, kind, rule, bound):
    path = tmp_path / "cfg.txt"
    refused = re.escape(f"{path}: {key}=")
    path.write_text(f"{key}={bound!r}\n")
    if rule == "above":
        with pytest.raises(ValueError, match=refused):
            load_config(str(path))
    else:
        assert getattr(load_config(str(path)), key) == bound
    # the nearest value past the bound: the next whole number or float
    sign = 1 if rule == "at_most" else -1
    past = bound + sign if kind == "int" else math.nextafter(bound, sign * math.inf)
    path.write_text(f"{key}={past!r}\n")
    with pytest.raises(ValueError, match=refused):
        load_config(str(path))


def test_every_key_but_the_cross_checked_ones_declares_a_bound():
    # the grid and the pitch range are checked against each other and the
    # sample rate, and sites are names
    unbounded = {f.name for f in fields(PipelineConfig) if not f.metadata}
    assert unbounded == {"window_s", "hop_s", "f0_min_hz", "f0_max_hz", "selection_sites"}


def test_run_values_follow_the_grid():
    # the same limits move with the window they are checked against
    assert PipelineConfig(window_s=0.05, f0_min_hz=50.0).f0_min_hz == 50.0
    assert PipelineConfig(window_s=0.05, num_mel_bands=300).num_mel_bands == 300
    assert PipelineConfig(num_mel_bands=257, cv_folds=2, reg_grid=(1e-6,)).num_mel_bands == 257
    with pytest.raises(ValueError, match="num_mel_bands=258"):
        PipelineConfig(num_mel_bands=258)
    assert PipelineConfig(num_mel_bands=5).num_mel_bands == 5
    assert PipelineConfig(voicing_threshold=0.0).voicing_threshold == 0.0
    assert PipelineConfig(voicing_threshold=1.0).voicing_threshold == 1.0
    # a few more samples serve the slope band and the LPC fit
    assert PipelineConfig(window_s=0.0025, f0_min_hz=1000.0, num_mel_bands=10).window_s == 0.0025
    assert PipelineConfig(sample_rate=4000, window_s=0.0035, hop_s=0.001, f0_min_hz=700.0, f0_max_hz=1500.0,
                          num_mel_bands=6).window_s == 0.0035
    assert PipelineConfig(min_total_cry_s=0.5).min_total_cry_s == 0.5


def test_grid_values_are_checked_in_code_too():
    with pytest.raises(ValueError, match="hop_s=0 is under one sample"):
        PipelineConfig(hop_s=0)
    with pytest.raises(ValueError, match="window_s=0.0001 is under one sample at sample_rate=4000"):
        replace(PipelineConfig(), sample_rate=4000, window_s=0.0001)
    # one whole sample is enough
    assert PipelineConfig(hop_s=1 / 16000).hop_s == 1 / 16000


# a config built in code meets the rules of one read from a file: each
# value is of its field's type, and a refusal names the field
BUILT_IN_CODE = [
    ({"voicing_halfwidth_frames": 2.5}, "voicing_halfwidth_frames=2.5 must be whole"),
    ({"num_mel_bands": 80.5}, "num_mel_bands=80.5 must be whole"),
    # save_config would write 16000.0, which load_config refuses
    ({"sample_rate": 16000.0}, "sample_rate=16000.0 must be whole"),
    ({"window_s": np.float64(0.025)}, "window_s must be a number, not np.float64(0.025)"),
    ({"num_mel_bands": np.int64(40)}, "num_mel_bands must be a number, not np.int64(40)"),
    ({"reg_grid": (np.float64(1.0),)}, "reg_grid must be a number, not np.float64(1.0)"),
    ({"reg_grid": [0.1, 1.0]}, "reg_grid must be a tuple, not [0.1, 1.0]"),
    # a string is a sequence of one-letter sites
    ({"selection_sites": "ESUTH"}, "selection_sites must be a tuple, not 'ESUTH'"),
    ({"selection_sites": ("ESUTH", 5)}, "selection_sites must be a str, not 5"),
    ({"vibrato_min_extrema": True}, "vibrato_min_extrema must be a number, not True"),
    ({"min_unit_s": 10**400}, "min_unit_s is an integer too large to be a finite number"),
    ({"cv_folds": 2**63}, f"cv_folds={2**63} does not fit numpy's int64"),
    ({"cv_folds": 2**64}, f"cv_folds={2**64} does not fit numpy's int64"),
    # save_config would write them, and load_config read back another value
    ({"min_unit_s": 2**53 + 1}, f"min_unit_s={2**53 + 1} is an integer that no float holds exactly"),
    ({"reg_grid": (1.0, 2**60 + 1)}, f"reg_grid={2**60 + 1} is an integer that no float holds exactly"),
    # cross_validate would score the one penalty under both entries
    ({"reg_grid": (1.0, 10.0, 1)}, "reg_grid=1 is listed twice"),
    ({"selection_sites": ("A,B",)}, "selection_sites item 'A,B' must be non-empty"),
    ({"selection_sites": ("ESUTH", " ESUTH")}, "selection_sites item ' ESUTH' must be non-empty"),
    ({"selection_sites": ("ESUTH #x",)}, "selection_sites item 'ESUTH #x' must be non-empty"),
    ({"selection_sites": ("",)}, "selection_sites item '' must be non-empty"),
    ({"selection_sites": ("A\nB",)}, "selection_sites item 'A\\nB' must be non-empty"),
    # a grid of more samples than numpy's int64 counts
    ({"window_s": 1e300}, "window_s=1e+300 is more samples than numpy can index at sample_rate=16000"),
    ({"hop_s": 1e300}, "hop_s=1e+300 is more samples than numpy can index at sample_rate=16000"),
    # the resampler would ask numpy for an exbibyte filter
    ({"sample_rate": 2**62}, f"sample_rate={2**62} must be at most 384000"),
    ({"sample_rate": 384001}, "sample_rate=384001 must be at most 384000"),
]


@pytest.mark.parametrize(
    "values, message",
    BUILT_IN_CODE,
    ids=["halfwidth-fraction", "mel-fraction", "rate-whole-float", "window-numpy", "mel-numpy", "grid-numpy-item",
         "grid-list", "sites-string", "sites-number", "extrema-bool", "huge-int-in-float", "folds-2**63",
         "folds-2**64", "inexact-int-in-float", "inexact-int-in-grid", "grid-repeat", "site-comma", "site-space",
         "site-hash", "site-empty", "site-line-break", "window-past-int64", "hop-past-int64", "rate-2**62",
         "rate-past-bound"],
)
def test_a_value_of_another_type_cannot_be_built(values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(**values)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(PipelineConfig(), **values)


def test_a_whole_field_takes_any_int64():
    assert PipelineConfig(cv_folds=2**63 - 1).cv_folds == 2**63 - 1


def test_the_highest_sample_rate_builds():
    assert PipelineConfig(sample_rate=MAX_SAMPLE_RATE).sample_rate == 384000


def test_a_key_set_twice_is_an_error(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("hop_s=0.01\nwindow_s=0.025\nhop_s=0.02\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: hop_s is set again")):
        load_config(str(path))


def _bounded(f, kind, stop):
    """Python numbers of type kind within f's declared bounds, and under stop."""
    low = f.metadata.get("at_least", f.metadata.get("above", 0))
    high = f.metadata.get("at_most", stop)
    if kind is int:
        return st.integers(math.floor(low) + ("above" in f.metadata), math.floor(high))
    return st.floats(low, high, exclude_min="above" in f.metadata)


def _python_values(f):
    """Values of field f that a config built in code may hold."""
    # the pitch range stays under 8 kHz, where most drawn ranges can be
    # built; the sample rate keeps its declared bound, at which a window of
    # up to 1e300 s still holds a finite number of samples
    stop = {"f0_min_hz": 8000.0, "f0_max_hz": 8000.0}.get(
        f.name, 2**63 - 1 if f.type == "int" else 1e300
    )
    if f.type == "tuple[float, ...]":
        return st.lists(_bounded(f, float, stop), max_size=4).map(tuple)
    if f.type == "tuple[str, ...]":
        # sites, and text holding what a saved config splits, strips or cuts at
        text = st.text(st.sampled_from("AB ,#\t\n\r\x1c"), max_size=4)
        return st.lists(st.one_of(st.sampled_from(sorted(SITES)), text), max_size=4).map(tuple)
    if f.type == "int":
        return _bounded(f, int, stop)
    # an int in a float field past 2**53 is refused unless a float holds it
    return st.one_of(_bounded(f, float, stop), _bounded(f, int, min(stop, 2**64)))


def _other_types(f):
    """Numbers that field f refuses: numpy's scalars, bools and, in a whole field, whole floats."""
    number = st.integers(1, 10**6)
    others = [st.booleans(), number.map(np.int64), number.map(np.float64), number.map(np.float32)]
    if "int" in f.type:
        others.append(number.map(float))
    values = st.one_of(others)
    return values.map(lambda v: (v,)) if f.type.startswith("tuple") else values


NUMBER_FIELDS = [f for f in fields(PipelineConfig) if f.type != "tuple[str, ...]"]


@st.composite
def configs_in_code(draw):
    """Up to three fields of PipelineConfig with values drawn for them: ones a
    config may hold, and one time in four a number of another type."""
    values = {}
    for f in draw(st.lists(st.sampled_from(fields(PipelineConfig)), max_size=3, unique=True)):
        other = f in NUMBER_FIELDS and draw(st.integers(0, 3)) == 0
        values[f.name] = draw(_other_types(f) if other else _python_values(f))
    return values


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(values=configs_in_code())
def test_every_config_that_can_be_built_reads_back_equal(values):
    try:
        config = PipelineConfig(**values)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cfg.txt")
        save_config(config, path)
        assert load_config(path) == config


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), f=st.sampled_from(NUMBER_FIELDS))
def test_a_number_of_another_type_is_refused_by_name(data, f):
    value = data.draw(_other_types(f))
    with pytest.raises(ValueError, match=rf"^{f.name}(=| must)"):
        PipelineConfig(**{f.name: value})


HOP = 0.010


def grid_of(n):
    return FrameGrid(160, 400, n, 16000)


def segmenter_series():
    """Loudness and voicing of three units with 8-frame loudness ramps.

    The first two units are 0.06 s apart and the first holds a 0.06 s
    voicing dropout; the third spans 0.15 s. Voiced wherever loud.
    """
    n = 320
    x = np.arange(n)
    loud = np.zeros(n)
    for start, stop in [(20, 80), (86, 146), (200, 215)]:
        loud = np.maximum(loud, np.clip(np.minimum(x - start + 1, stop - x) / 8.0, 0.0, 1.0))
    voiced = loud > 0
    voiced[45:51] = False
    grid = grid_of(n)
    return F0Contour(np.where(voiced, 450.0, 0.0), voiced, voiced.astype(float), grid), loud


def detector_series():
    """A contour and flatness with one unit per second or so, each made to
    sit on the far side of some detector threshold:

    U1 0.0-1.0 s: 0.15 s hyperphonated at 1200 Hz, entered and left by a
       700 Hz jump; U2 1.0-1.8 s: 8 Hz vibrato of 15 Hz amplitude;
    U3 1.8-2.8 s: 4 Hz vibrato of 60 Hz amplitude; U4 2.8-4.0 s: a rise
       from 450 to 700 Hz with 0.15 s of flatness 0.45.
    """
    n = 400
    t = np.arange(n) * HOP
    f0 = np.full(n, 500.0)
    f0[50:65] = 1200.0
    f0[100:180] += 15.0 * np.sin(2 * np.pi * 8.0 * t[100:180])
    f0[180:280] += 60.0 * np.sin(2 * np.pi * 4.0 * t[180:280])
    f0[280:] = np.linspace(450.0, 700.0, n - 280)
    flat = np.full(n, 0.05)
    flat[300:315] = 0.45
    voiced = np.ones(n, dtype=bool)
    grid = grid_of(n)
    return F0Contour(f0, voiced, voiced.astype(float), grid), flat


SEG_F0, SEG_LOUD = segmenter_series()
DET_F0, DET_FLAT = detector_series()
DET_SMOOTHED = smooth_f0(DET_F0.f0_hz, DET_F0.voiced)
U1, U2, U3, U4 = (0.0, 1.0), (1.0, 1.8), (1.8, 2.8), (2.8, 4.0)


def units(config):
    return detect_cry_units(SEG_F0, SEG_LOUD, config).expirations


def tracked_frames(config):
    return pitch_frames(SEG_LOUD, SEG_F0.grid, config).tolist()


def usable(config):
    return meets_curation_rule(CrySegmentation([(0.0, 1.0), (1.5, 2.5)]), config)


def flags_of(unit):
    def unit_flags(config):
        return unit_biomarker_flags(DET_F0, DET_FLAT, unit, DET_SMOOTHED, config)

    return unit_flags


CLIP = synth_cry(SynthSpec(units=[UnitSpec(0.6, 0.2, base_f0_hz=450.0), UnitSpec(0.5, 0.0)], seed=3))[0]


def front_end(config):
    """The spectral series of CLIP's front end, at config.sample_rate."""
    front = analyze_frames(resample(CLIP, config.sample_rate), config)
    return [front.loudness.tolist(), front.flatness.tolist(),
            front.slope0_500.tolist(), front.mfcc2_4.tolist()]


def f0_track(config):
    f0 = analyze_frames(CLIP, config).f0
    return f0.f0_hz.tolist(), f0.voiced.tolist()


def formants(config):
    return dsp.lpc_formants(CLIP, config).tolist()


def planted_rows():
    """120 labeled rows over three sites, one patient each, whose first four columns shift with the label."""
    rng = np.random.default_rng(5)
    labels = np.arange(120) // 4 % 2
    X = rng.standard_normal((120, len(FEATURE_COLUMNS)))
    X[:, :4] += labels[:, None]
    sites = ("ESUTH", "LASUTH", "SCDM")
    return [
        FeatureRow(ManifestEntry(f"r{i}.wav", f"p{i}", sites[i % 3], "birth", ("normal", "severe")[labels[i]]),
                   dict(zip(FEATURE_COLUMNS, X[i])))
        for i in range(120)
    ]


MODEL_ROWS = planted_rows()


def run_cli(config, command, *argv):
    """The JSON that a model command of cry writes to {out}/out.json.

    It reads MODEL_ROWS from {out}/f.csv and config from a file, and
    {out}/split.csv puts every fourth row in test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_features_csv(MODEL_ROWS, str(out / "f.csv"))
        (out / "split.csv").write_text(
            "path,split\n" + "".join(f"r{i}.wav,{'test' if i % 4 == 3 else 'train'}\n" for i in range(120))
        )
        save_config(config, str(out / "cry.cfg"))
        args = [command, "--features", str(out / "f.csv"), *argv, "--config", str(out / "cry.cfg")]
        assert cli.main([a.replace("{out}", str(out)) for a in args]) == 0
        return json.loads((out / "out.json").read_text())


def selection_report(config):
    return run_cli(config, "select", "--out", "{out}/out.json")


def selected_model(config):
    """The features of the model that train-eval fits on its own selection."""
    model = run_cli(config, "train-eval", "--split", "{out}/split.csv", "--feature-set", "selected-both",
                    "--model-out", "{out}/out.json", "--metrics-out", "{out}/x.json")
    return model["features"]


def cv_choice(config):
    """The cross-validation result that train-eval picks its penalty by."""
    results = []

    def recorded(*args, **kwargs):
        results.append(analytics.cross_validate(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cross_validate", recorded)
        run_cli(config, "train-eval", "--split", "{out}/split.csv", "--model-out", "{out}/m.json",
                "--metrics-out", "{out}/out.json")
    (result,) = results
    return result.best_reg_strength, result.fold_aucs


# Each changed value makes its stage differ from the defaults; set back to
# its default in any one place the stage reads it, the key would leave the
# default output. Where a stage reads a key twice (vibrato's prominence and
# minimum extrema), the value turns an outcome on, which needs both reads.
KEY_STAGES = [
    ("sample_rate", 8000, front_end),
    ("window_s", 0.03, front_end),
    ("window_s", 0.03, f0_track),
    ("window_s", 0.03, formants),
    ("hop_s", 0.005, front_end),
    ("hop_s", 0.005, f0_track),
    ("hop_s", 0.005, formants),
    ("num_mel_bands", 40, front_end),
    ("f0_min_hz", 500.0, f0_track),
    ("f0_max_hz", 400.0, f0_track),
    ("voicing_threshold", 0.1, f0_track),
    ("cv_folds", 5, cv_choice),
    ("reg_grid", (0.5, 5.0), cv_choice),
    ("selection_sites", ("ESUTH", "SCDM"), selection_report),
    ("selection_sites", ("ESUTH", "SCDM"), selected_model),
    ("active_fraction", 0.8, units),
    ("active_fraction", 0.8, tracked_frames),
    ("voicing_halfwidth_frames", 1, units),
    ("voicing_halfwidth_frames", 1, tracked_frames),
    ("min_unit_s", 0.1, units),
    ("min_pause_s", 0.3, units),
    ("min_pause_s", 0.3, tracked_frames),
    ("min_total_cry_s", 1.5, usable),
    ("hyperphonation_f0_hz", 1300.0, flags_of(U1)),
    ("hyperphonation_min_run_s", 0.2, flags_of(U1)),
    ("dysphonation_flatness", 0.5, flags_of(U4)),
    ("dysphonation_min_run_s", 0.2, flags_of(U4)),
    ("glide_delta_hz", 800.0, flags_of(U1)),
    ("glide_max_span_s", 0.05, flags_of(U1)),
    ("vibrato_prominence_hz", 20.0, flags_of(U2)),
    ("vibrato_min_extrema", 1, flags_of(U1)),
    ("vibrato_max_spacing_s", 0.2, flags_of(U3)),
    ("melody_flat_ratio", 0.5, flags_of(U4)),
]


def test_key_stages_cover_every_key():
    names = [f.name for f in fields(PipelineConfig)]
    tunables = names[names.index("active_fraction") : names.index("melody_flat_ratio") + 1]
    assert len(tunables) == 15 and len(names) == 25
    assert {key for key, _, _ in KEY_STAGES} == set(names)


# the names the kernels gave these values before the config held them
_CONFIG_VALUE_PARAMS = {f.name for f in fields(PipelineConfig)} | {"f0_min", "f0_max", "num_bands", "folds", "config"}


@pytest.mark.parametrize("module", [dsp, analytics, voicefeat, segmenter, biomarkers], ids=lambda m: m.__name__)
def test_no_function_defaults_a_config_value(module):
    functions = [f for _, f in inspect.getmembers(module, inspect.isfunction) if f.__module__ == module.__name__]
    for cls in (c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__):
        functions += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
    assert len(functions) > 5
    for fn in functions:
        for param in inspect.signature(fn).parameters.values():
            if param.default is param.empty:
                continue
            assert param.name not in _CONFIG_VALUE_PARAMS, f"{fn.__qualname__}({param.name}=...)"
            assert not isinstance(param.default, PipelineConfig), fn.__qualname__


@pytest.mark.parametrize(
    "key, value, stage", KEY_STAGES, ids=[f"{key}-{stage.__name__}" for key, _, stage in KEY_STAGES]
)
def test_each_key_changes_its_stage(key, value, stage):
    assert stage(replace(PipelineConfig(), **{key: value})) != stage(PipelineConfig())
