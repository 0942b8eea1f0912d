"""Recording-to-features pipeline: curation, resilience, CSV contracts."""

import csv
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryscreen
from cryscreen import audio_io, biomarkers, dsp, pipeline
from cryscreen.audio_io import LABELS, AudioClip, ManifestEntry, load_manifest, load_wav, save_manifest, write_wav
from cryscreen.biomarkers import CRY_FEATURE_NAMES, smooth_f0, unit_biomarker_flags
from cryscreen.config import PipelineConfig
from cryscreen.pipeline import (
    FEATURE_COLUMNS,
    ID_COLUMNS,
    CurationError,
    FeatureRow,
    FeatureTable,
    analyze_frames,
    extract_clip,
    extract_manifest,
    load_split,
    read_features_csv,
    segment_clip,
    to_feature_matrix,
    write_features_csv,
    write_skipped_csv,
)
from cryscreen.segmenter import pitch_frames
from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry
from cryscreen.voicefeat import VOICE_FEATURE_NAMES, compute_generic_features, concat_expirations


def cry_clip(n_units=5, unit_s=0.8, seed=0):
    units = [UnitSpec(duration_s=unit_s, pause_after_s=0.3) for _ in range(n_units)]
    clip, truth = synth_cry(SynthSpec(units=units, seed=seed))
    return clip, truth


def test_extract_clip_schema():
    clip, _ = cry_clip()
    features, seg = extract_clip(clip)
    assert list(features) == FEATURE_COLUMNS
    assert len(features) == 38
    assert all(np.isfinite(v) for v in features.values())
    assert len(seg.expirations) == 5


def test_segment_clip_resamples():
    clip, _ = cry_clip(n_units=2)
    up = AudioClip(np.repeat(clip.samples, 2), 32000)  # crude 2x rate
    seg, _ = segment_clip(up)
    assert len(seg.expirations) == 2


def test_extract_clip_curation():
    clip, _ = cry_clip(n_units=3, unit_s=0.7)  # 2.1 s of cry
    with pytest.raises(CurationError, match="^below 3s cry$"):
        extract_clip(clip)
    try:
        extract_clip(clip)
    except CurationError as exc:
        assert exc.total_cry_seconds < 3.0


def test_extract_clip_smooths_pitch_once_per_recording(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return smooth_f0(*args)

    # looked up through the module, where a trace of the biomarkers layer wraps it
    monkeypatch.setattr(biomarkers, "smooth_f0", counted)
    _, seg = extract_clip(cry_clip()[0])
    assert len(seg.expirations) == 5
    assert len(calls) == 1


def make_manifest(tmp_path, specs):
    """specs: list of (filename, clip_or_None); None writes garbage bytes."""
    entries = []
    for i, (fname, clip) in enumerate(specs):
        target = tmp_path / fname
        if clip is None:
            target.write_bytes(b"not a wav at all")
        else:
            write_wav(clip, str(target))
        entries.append(ManifestEntry(fname, f"p{i}", "ESUTH", "birth", "normal" if i % 2 else "mild"))
    mpath = str(tmp_path / "manifest.csv")
    save_manifest(entries, mpath)
    return mpath


def test_extract_manifest_collects_good_and_bad(tmp_path):
    good, _ = cry_clip(seed=1)
    short, _ = cry_clip(n_units=2, seed=2)
    mpath = make_manifest(
        tmp_path,
        [("good.wav", good), ("short.wav", short), ("broken.wav", None), ("missing.wav", good)],
    )
    os.remove(str(tmp_path / "missing.wav"))
    logged = []
    result = extract_manifest(mpath, log=logged.append)
    assert [r.entry.path for r in result.rows] == ["good.wav"]
    reasons = {s.entry.path: s.reason for s in result.skipped}
    assert reasons["short.wav"] == "below 3s cry"
    assert "RIFF" in reasons["broken.wav"]
    assert "missing.wav" in reasons
    assert len(logged) == 4


def test_non_finite_samples_are_not_reported_as_short_cry(tmp_path):
    clip, _ = cry_clip(n_units=6, seed=5)  # 4.8 s of cry
    i = len(clip.samples) // 2
    clip.samples[i] = np.nan
    with pytest.raises(ValueError, match="1 non-finite samples") as info:
        extract_clip(clip)
    assert not isinstance(info.value, CurationError)

    # write_wav refuses NaN, so it goes in by hand: sample i after the 44-byte header
    clip.samples[i] = 0.0
    path = tmp_path / "nan.wav"
    write_wav(clip, str(path), bit_depth=32)
    raw = bytearray(path.read_bytes())
    raw[44 + 4 * i : 48 + 4 * i] = np.array(np.nan, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    save_manifest([ManifestEntry("nan.wav", "p0", "ESUTH", "birth", "mild")], str(tmp_path / "manifest.csv"))
    result = extract_manifest(str(tmp_path / "manifest.csv"))
    assert result.rows == []
    (skip,) = result.skipped
    assert skip.reason != "below 3s cry"
    assert "non-finite" in skip.reason


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_segment_clip_refuses_non_finite_samples_as_extract_clip_does(bad):
    # a NaN spreads through the resampler and the segmentation's statistics,
    # which then read as a recording with no cry
    samples = np.zeros(44100)
    samples[100] = bad
    clip = AudioClip(samples, 44100)
    for entry in (segment_clip, extract_clip):
        with pytest.raises(ValueError, match=r"^recording holds 1 non-finite samples \(NaN or inf\)$") as info:
            entry(clip)
        assert not isinstance(info.value, CurationError)


def rows_of(table):
    """The rows of a table's columns, as write_features_csv takes them."""
    entries = map(ManifestEntry, *(table.ids[name] for name in ID_COLUMNS))
    return [FeatureRow(e, dict(zip(FEATURE_COLUMNS, x))) for e, x in zip(entries, table.X.tolist())]


def id_columns(table):
    """The ID columns as lists, after checking that each is an object array of str, one per row of X."""
    assert list(table.ids) == ID_COLUMNS
    for column in table.ids.values():
        assert column.dtype == object and column.shape == (len(table.X),)
        assert all(type(v) is str for v in column)
    return [column.tolist() for column in table.ids.values()]


def same_table(a, b):
    """Equal ID columns and values equal bit for bit, NaN and the sign of zero included."""
    return id_columns(a) == id_columns(b) and a.X.shape == b.X.shape and np.array_equal(
        a.X.view(np.int64), b.X.view(np.int64)
    )


def test_features_csv_round_trip_and_bytes(tmp_path):
    clip, _ = cry_clip(seed=3)
    features, _ = extract_clip(clip)
    rows = [FeatureRow(ManifestEntry("a.wav", "p0", "ESUTH", "birth", "mild"), features)]
    p1, p2 = str(tmp_path / "f1.csv"), str(tmp_path / "f2.csv")
    write_features_csv(rows, p1)
    back = read_features_csv(p1)
    assert [row.entry for row in rows_of(back)] == [rows[0].entry]
    assert back.X.dtype == np.float64 and back.X.shape == (1, 38)
    assert same_table(back, FeatureTable.from_rows(rows))  # repr round-trips floats exactly
    write_features_csv(rows_of(back), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_quoted_paths_round_trip(tmp_path):
    # csv quotes a field holding a comma, a quote or a line end, and a
    # quoted line end advances csv's line count
    paths = ["a,b.wav", 'say "hi".wav', "two\nlines.wav", "cr\r\nlf.wav", "plain.wav", '"', " spaced .wav"]
    values = {name: j / 8 for j, name in enumerate(FEATURE_COLUMNS)}
    rows = [
        FeatureRow(ManifestEntry(path, f"p,{i}", "ESUTH", "birth", "normal"), values) for i, path in enumerate(paths)
    ]
    path = str(tmp_path / "quoted.csv")
    write_features_csv(rows, path)
    table = read_features_csv(path)
    assert table.ids["path"].tolist() == paths
    assert same_table(table, FeatureTable.from_rows(rows))
    # the parse in C reads quoting itself rather than declining the file,
    # and copies each ID column out of its record array
    fast = pipeline._parse_in_c(path)
    assert same_table(fast, table)
    assert all(column.base is None for column in fast.ids.values())
    again = str(tmp_path / "again.csv")
    write_features_csv(rows_of(table), again)
    assert open(path, "rb").read() == open(again, "rb").read()


def test_read_features_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("path,who\na.wav,x\n")
    with pytest.raises(ValueError, match=r"bad\.csv: header must be path,patient_id,site,period,label,cry_unit"):
        read_features_csv(str(path))


def test_read_features_csv_rejects_wrong_width(tmp_path):
    header = ",".join(ID_COLUMNS + FEATURE_COLUMNS)
    good = ",".join(["a.wav", "p0", "ESUTH", "birth", "mild"] + ["0.5"] * 38)
    path = tmp_path / "short.csv"
    path.write_text(f"{header}\n{good}\n" + ",".join(["b.wav"] + ["1.0"] * 14) + "\n")
    with pytest.raises(ValueError, match=r"short\.csv:3: row has 15 fields where the header has 43"):
        read_features_csv(str(path))
    path.write_text(f"{header}\n{good},0.5\n")
    with pytest.raises(ValueError, match=r":2: row has 44 fields"):
        read_features_csv(str(path))


HEADER = ",".join(ID_COLUMNS + FEATURE_COLUMNS)
GOOD = ["a.wav", "p0", "ESUTH", "birth", "normal"] + ["0.5"] * 38


@pytest.mark.parametrize("column, value, message", [
    (4, "Normal", r"bad\.csv:3: unknown label 'Normal'"),
    (3, "Birth", r"bad\.csv:3: unknown period 'Birth'"),
    (5 + 7, "abc", r"bad\.csv:3: pause_dur_min: 'abc' is not a number"),
    (5 + 37, "", r"bad\.csv:3: mfcc4V_stddevNorm: '' is not a number"),
    (5 + 2, "1.5.0", r"bad\.csv:3: cry_unit_dur_max: '1\.5\.0' is not a number"),
    # Arabic-Indic one, the Arabic decimal separator (which float() does not
    # read), five
    (5 + 2, "\u0661\u066b5", "bad\\.csv:3: cry_unit_dur_max: '\u0661\u066b5' is not a number"),
    # np.loadtxt strips the ASCII separators 0x1c-0x1f as white space, float() does not
    (5 + 7, "\x1c0.5", r"bad\.csv:3: pause_dur_min: '\\x1c0\.5' is not a number"),
    (5 + 7, "0.5\x1f", r"bad\.csv:3: pause_dur_min: '0\.5\\x1f' is not a number"),
])
def test_read_features_csv_names_a_bad_value(tmp_path, column, value, message):
    bad = list(GOOD)
    bad[column] = value
    path = tmp_path / "bad.csv"
    path.write_text(f"{HEADER}\n{','.join(GOOD)}\n{','.join(bad)}\n")
    with pytest.raises(ValueError, match=message + "$"):
        read_features_csv(str(path))


@pytest.mark.parametrize("body, message", [
    # csv reads a blank line as a row of 0 fields; np.loadtxt skips it
    ("{good}\n\n{good}\n", "{path}:3: row has 0 fields where the header has 43"),
    ("{good}\r\n\r\n", "{path}:3: row has 0 fields where the header has 43"),
    ("{good}\r\r{good}\r", "{path}:3: row has 0 fields where the header has 43"),
    ("{good}\n{good},0.5\n", "{path}:3: row has 44 fields where the header has 43"),
    ("{good}\n{good},\n", "{path}:3: row has 44 fields where the header has 43"),
    ("{good}\n{short}\n", "{path}:3: row has 42 fields where the header has 43"),
    ("{good}\n \n", "{path}:3: row has 1 fields where the header has 43"),
    # the quoted line end puts the bad label on csv's line 4
    ('"two\nlines.wav",{rest}\n{mistyped}\n', "{path}:4: unknown label 'Normal'"),
])
def test_read_features_csv_rejects_a_faulty_row(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    good = ",".join(GOOD)
    text = body.format(
        good=good,
        short=",".join(GOOD[:-1]),
        rest=",".join(GOOD[1:]),
        mistyped=",".join(GOOD[:4] + ["Normal"] + GOOD[5:]),
    )
    path.write_bytes(f"{HEADER}\r\n{text}".encode())
    with pytest.raises(ValueError) as info:
        read_features_csv(str(path))
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("text", [
    "0.5", " 2.5 ", "1_0", "\uff11.\uff15", "\u0663", "1e308", "1.7976931348623157e+308", "1e400", "-1e400",
    "2.2250738585072014e-308", repr(2.2250738585072014e-308 / 3), "5e-324", "1e-330", "-0.0", "0.0",
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-iNF", repr(0.1 + 0.2), '"7.25"',
])
def test_read_features_csv_reads_what_float_reads(tmp_path, text):
    # the parse in C declines what it does not read as float() does (an
    # underscore, non-ASCII digits), and the row loop reads it
    values = list(GOOD)
    values[5 + 9] = text
    path = tmp_path / "values.csv"
    path.write_text(f"{HEADER}\n{','.join(values)}\n")
    table = read_features_csv(str(path))
    want = np.float64(float(text.strip('"')))
    assert table.X.shape == (1, 38)
    assert table.X[0, 9].view(np.int64) == want.view(np.int64)
    assert same_table(table, pipeline._read_row_by_row(str(path)))


def test_header_only_file_is_an_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on empty input
        table = read_features_csv(str(path))
        assert same_table(table, FeatureTable.from_rows([])) and table.X.shape == (0, 38)
        with pytest.raises(ValueError, match="^no labeled rows to build a feature matrix from$"):
            to_feature_matrix(table)


def test_nan_read_from_csv_is_rejected_by_the_matrix(tmp_path):
    values = list(GOOD)
    values[5 + FEATURE_COLUMNS.index("F2_amean")] = "nan"
    path = tmp_path / "nan.csv"
    path.write_text(f"{HEADER}\n{','.join(GOOD)}\n{','.join(['b.wav'] + values[1:])}\n")
    table = read_features_csv(str(path))
    assert np.isnan(table.X[1]).sum() == 1
    with pytest.raises(ValueError, match="^b.wav: feature F2_amean is nan, not a finite number$"):
        to_feature_matrix(table)


def test_parse_in_c_declines_a_blank_line(tmp_path):
    # np.loadtxt skips a blank line, which csv reads as a row of 0 fields
    good = ",".join(GOOD)
    path = tmp_path / "f.csv"
    for text, plain in [
        (f"{HEADER}\r\n{good}\r\n{good}\r\n", True),
        (f"{HEADER}\r\n{good}\r{good}\n{good}", True),
        (f"{HEADER}\r\n{good}\r\n\r\n", False),
        (f"{HEADER}\r\n{good}\n\r{good}", False),
        (f"{HEADER}\r\n{good}\r\r{good}", False),
        (f"{HEADER}\r\n{good}\n\n{good}", False),
        (f"\n{HEADER}\n{good}\n", False),
    ]:
        path.write_text(text, newline="")
        table = pipeline._parse_in_c(str(path))
        if plain:
            assert same_table(table, pipeline._read_row_by_row(str(path))), repr(text)
        else:
            assert table is None, repr(text)


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_scan_finds_a_blank_line_across_chunks(tmp_path, monkeypatch, chunk):
    # the text layer under the line filter reads chunk bytes at a time, so
    # a \r and the \n after it may come in two reads
    def open_in_chunks(*args, **kwargs):
        fh = open(*args, **kwargs)
        fh._CHUNK_SIZE = chunk
        return fh

    monkeypatch.setattr(pipeline, "open", open_in_chunks, raising=False)
    good = ",".join(GOOD)
    path = tmp_path / "f.csv"
    for body, plain in [
        (f"{good}\r\n{good}\r\n", True),
        (f"{good}\r{good}\n{good}", True),
        (f"{good}\r\n\r\n", False),
        (f"{good}\n\r{good}", False),
        (f"{good}\r\r{good}", False),
        (f"{good}\n\n{good}", False),
    ]:
        path.write_text(f"{HEADER}\r\n{body}", newline="")
        table = pipeline._parse_in_c(str(path))
        if plain:
            assert table is not None and len(table.X) == body.count(good), repr(body)
            assert same_table(table, pipeline._read_row_by_row(str(path))), repr(body)
        else:
            assert table is None, repr(body)
    path.write_text(f"\n{HEADER}\n{good}\n")
    assert pipeline._parse_in_c(str(path)) is None


@pytest.mark.parametrize("column, value", [
    (0, '"' + ",".join(["b" * 30] * 4) + '"'),  # only the parsed length shows this one
    (0, "c" * 81),
    (5, "0.5" + " " * 78),
])
def test_a_field_over_csvs_limit_is_left_to_csv(tmp_path, column, value):
    # csv rejects a field longer than csv.field_size_limit(), and the row
    # loop names its line; the parse in C must not read that file either
    row = list(GOOD)
    row[column] = value
    path = tmp_path / "long.csv"
    path.write_text(f"{HEADER}\n{','.join(GOOD)}\n{','.join(row)}\n")
    old = csv.field_size_limit(80)
    try:
        with pytest.raises(ValueError) as info:
            read_features_csv(str(path))
        assert str(info.value) == f"{path}:3: field larger than field limit (80)"
        assert pipeline._parse_in_c(str(path)) is None
    finally:
        csv.field_size_limit(old)
    assert read_features_csv(str(path)).X.shape == (2, 38)


def test_a_value_over_csvs_limit_across_quoted_line_ends_is_declined(tmp_path):
    # float() and np.loadtxt read this value as 0.5, and csv rejects it as
    # too long, though no line of the file is longer than the limit
    row = list(GOOD)
    row[5 + 2] = '"0.5' + "\n         " * 40 + '"'
    path = tmp_path / "long.csv"
    path.write_text(f"{HEADER}\n{','.join(GOOD)}\n{','.join(row)}\n")
    old = csv.field_size_limit(300)
    try:
        assert pipeline._parse_in_c(str(path)) is None
        with pytest.raises(ValueError) as info:
            read_features_csv(str(path))
        assert str(info.value) == f"{path}:33: field larger than field limit (300)"
    finally:
        csv.field_size_limit(old)
    assert read_features_csv(str(path)).X[1, 2] == 0.5


# bytes the fuzz below splices into a good file: quoting, delimiters and
# line ends, what float() reads but np.loadtxt does not, and every ASCII
# control character
FUZZ_PIECES = [
    '"', ",", "\n", "\r", "\r\n", " ",
    "_", "e", "-", ".", "1", "x", "\u0663", "nan", "inf", '""', '","', "normal",
] + [chr(c) for c in [*range(0x20), 0x7F] if chr(c) not in "\r\n"]


def test_parse_in_c_returns_nothing_but_the_row_loop_table(tmp_path):
    # every file is either declined by the parse in C or read by it into
    # the table of the reference row loop; a file the loop rejects is
    # always declined
    rng = np.random.default_rng(21)
    good = f"{HEADER}\r\n" + "".join(
        f'"r{i},{i}.wav",p{i},SCDM,discharge,{label},' + ",".join(map(repr, rng.normal(size=38).tolist())) + "\r\n"
        for i, label in enumerate(["normal", "mild", "unlabeled"])
    )
    head = len(HEADER) + 2
    taken = declined = 0
    path = tmp_path / "fuzz.csv"
    for _ in range(1500):
        text = good
        for _ in range(rng.integers(1, 3)):
            at = int(rng.integers(head, len(text) + 1))
            cut = int(rng.integers(0, 2))
            text = text[:at] + FUZZ_PIECES[rng.integers(len(FUZZ_PIECES))] + text[at + cut :]
        path.write_bytes(text.encode())
        fast = pipeline._parse_in_c(str(path))
        try:
            want = pipeline._read_row_by_row(str(path))
        except (ValueError, csv.Error):
            assert fast is None, repr(text)
            declined += 1
            continue
        if fast is None:
            declined += 1
        else:
            assert same_table(fast, want), repr(text)
            taken += 1
    assert taken > 20 and declined > 20


def test_skipped_csv(tmp_path):
    from cryscreen.pipeline import SkippedRecording

    path = str(tmp_path / "sk.csv")
    write_skipped_csv(
        [SkippedRecording(ManifestEntry("a.wav", "p", "ESUTH", "birth", "mild"), "below 3s cry")],
        path,
    )
    assert open(path, "rb").read() == b"path,reason\r\na.wav,below 3s cry\r\n"


def test_to_feature_matrix_drops_unlabeled():
    feats = {name: float(i) for i, name in enumerate(FEATURE_COLUMNS)}
    rows = [
        FeatureRow(ManifestEntry("a.wav", "p0", "ESUTH", "birth", "normal"), feats),
        FeatureRow(ManifestEntry("b.wav", "p1", "SCDM", "birth", "severe"), feats),
        FeatureRow(ManifestEntry("c.wav", "p2", "SCDM", "birth", "unlabeled"), feats),
    ]
    table = FeatureTable.from_rows(rows)
    assert table.X.shape == (3, 38)
    m = to_feature_matrix(table)
    assert m.X.shape == (2, 38)
    assert m.labels.tolist() == [0, 1]
    assert m.paths.tolist() == ["a.wav", "b.wav"]
    assert m.sites.tolist() == ["ESUTH", "SCDM"] and m.patient_ids.tolist() == ["p0", "p1"]
    assert m.paths.dtype == m.sites.dtype == m.patient_ids.dtype == object
    assert m.feature_names == FEATURE_COLUMNS and m.X[0].tolist() == table.X[0].tolist()
    with pytest.raises(ValueError, match="^no labeled rows to build a feature matrix from$"):
        to_feature_matrix(FeatureTable.from_rows(rows[2:]))
    with pytest.raises(ValueError, match="no labeled rows"):
        to_feature_matrix(FeatureTable.from_rows([]))


def test_to_feature_matrix_rejects_non_finite():
    feats = {name: 1.0 for name in FEATURE_COLUMNS}
    bad = dict(feats, F2_amean=float("nan"))
    rows = [
        FeatureRow(ManifestEntry("a.wav", "p0", "ESUTH", "birth", "normal"), feats),
        FeatureRow(ManifestEntry("b.wav", "p1", "SCDM", "birth", "severe"), bad),
    ]
    with pytest.raises(ValueError, match="^b.wav: feature F2_amean is nan, not a finite number$"):
        to_feature_matrix(FeatureTable.from_rows(rows))
    rows[1].features["F2_amean"] = float("-inf")
    with pytest.raises(ValueError, match="is -inf"):
        to_feature_matrix(FeatureTable.from_rows(rows))
    # an unlabeled row is not checked
    rows[0] = FeatureRow(ManifestEntry("c.wav", "p2", "SCDM", "birth", "unlabeled"), bad)
    rows[1].features["F2_amean"] = 2.0
    assert to_feature_matrix(FeatureTable.from_rows(rows)).paths.tolist() == ["b.wav"]


def test_to_feature_matrix_holds_each_id_by_reference():
    # the reader takes IDs of up to csv.field_size_limit() characters; a
    # fixed-width string column would give every row that width
    long_path = "x" * (csv.field_size_limit() - 4) + ".wav"
    entries = [ManifestEntry(f"r{i}.wav", f"p{i}", "ESUTH", "birth", ("normal", "mild")[i % 2]) for i in range(199)]
    entries.append(ManifestEntry(long_path, "p199", "SCDM", "birth", "severe"))
    table = FeatureTable.from_rows([FeatureRow(e, dict.fromkeys(FEATURE_COLUMNS, 1.0)) for e in entries])
    tracemalloc.start()
    try:
        m = to_feature_matrix(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.paths[-1] == long_path and len(m.paths) == 200
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_to_feature_matrix_reads_each_manifest_label(tmp_path):
    # normal is 0 and every abnormal grade 1; an unlabeled recording has no
    # label, and is left out
    path = tmp_path / "m.csv"
    labels = ["mild", "unlabeled", "normal", "moderate", "severe"]
    path.write_text(",".join(ID_COLUMNS) + "\n" + "".join(f"{x}.wav,p{x},ESUTH,birth,{x}\n" for x in labels))
    rows = [FeatureRow(e, dict.fromkeys(FEATURE_COLUMNS, 0.5)) for e in load_manifest(str(path))]
    m = to_feature_matrix(FeatureTable.from_rows(rows))
    assert m.paths.tolist() == ["mild.wav", "normal.wav", "moderate.wav", "severe.wav"]
    assert m.labels.tolist() == [1, 0, 1, 1] and m.labels.dtype == np.int64
    with pytest.raises(ValueError, match="^no labeled rows to build a feature matrix from$"):
        to_feature_matrix(FeatureTable.from_rows(rows[1:2]))


def binary_label(entry):
    """ManifestEntry.binary_label as it was: 0 for normal, 1 for any abnormal grade, None when unlabeled."""
    if entry.label == "unlabeled":
        return None
    return 0 if entry.label == "normal" else 1


def entry_feature_matrix(entries, X):
    """to_feature_matrix as it was on a list of ManifestEntry, row by row: the reference for the column masks."""
    rows = [(binary_label(e), e.site, e.patient_id, e.path) for e in entries]
    meta = np.array(rows, dtype=object).reshape(-1, 4)
    keep = meta[:, 0] != None  # noqa: E711 (elementwise)
    if not keep.any():
        raise ValueError("no labeled rows to build a feature matrix from")
    X = X[keep]
    labels, sites, patient_ids, paths = meta[keep].T
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{paths[row]}: feature {FEATURE_COLUMNS[col]} is {X[row, col]}, not a finite number")
    return labels.astype(np.int64), sites, patient_ids, paths, X


# IDs that repeat, that csv quotes (a comma, a quote, a line end) and that
# differ only in white space
TABLE_IDS = st.one_of(st.sampled_from(["a.wav", "a,b.wav", 'say "hi".wav', "two\nlines", "cr\r\nlf", " a.wav"]),
                      st.text(alphabet='ab,"\r\n é', max_size=4))
TABLE_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(TABLE_IDS, TABLE_IDS, st.sampled_from(sorted(audio_io.SITES)),
                               st.sampled_from(sorted(audio_io.PERIODS)), st.sampled_from(sorted(LABELS)),
                               TABLE_VALUES), max_size=12),
       special=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.sampled_from(FEATURE_COLUMNS),
                                              st.sampled_from([np.nan, np.inf, -np.inf]))))
def test_to_feature_matrix_equals_the_entry_rule(tmp_path_factory, rows, special):
    # tables of every label, from files, some with no labeled row and some
    # with a NaN or inf in one row; the bits of each value and the refusal
    # texts must agree
    feature_rows = [
        FeatureRow(ManifestEntry(*ids), {name: values[j % 3] for j, name in enumerate(FEATURE_COLUMNS)})
        for *ids, values in rows
    ]
    if special is not None and special[0] < len(rows):
        row, column, value = special
        feature_rows[row].features[column] = value
    path = str(tmp_path_factory.getbasetemp() / "table.csv")
    write_features_csv(feature_rows, path)
    table = read_features_csv(path)
    assert same_table(table, FeatureTable.from_rows(feature_rows))
    try:
        want = entry_feature_matrix([row.entry for row in feature_rows], table.X)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            to_feature_matrix(table)
        assert str(got.value) == str(exc)
        return
    m = to_feature_matrix(table)
    labels, sites, patient_ids, paths, X = want
    assert m.labels.dtype == np.int64 and m.labels.tolist() == labels.tolist()
    assert m.sites.tolist() == sites.tolist() and m.patient_ids.tolist() == patient_ids.tolist()
    assert m.paths.tolist() == paths.tolist()
    assert all(a.dtype == object for a in (m.sites, m.patient_ids, m.paths))
    assert m.X.shape == X.shape and np.array_equal(m.X.view(np.int64), X.view(np.int64))


def test_load_split(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("path,split\na.wav,train\nb.wav,val\nc.wav,test\n")
    assert load_split(str(path)) == {"a.wav": "train", "b.wav": "val", "c.wav": "test"}
    bad = tmp_path / "bad.csv"
    bad.write_text("path,split\na.wav,holdout\n")
    with pytest.raises(ValueError, match="bad split row"):
        load_split(str(bad))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("file,fold\na.wav,train\n")
    with pytest.raises(ValueError, match=r"wrong\.csv: header must be path,split$"):
        load_split(str(wrong))


@pytest.mark.parametrize("row, message", [
    ("c.wav,test,extra", "row has 3 fields where the header has 2"),
    ("c.wav", "row has 1 fields where the header has 2"),
    ("", "row has 0 fields where the header has 2"),
])
def test_load_split_rejects_a_row_of_the_wrong_width(tmp_path, row, message):
    path = tmp_path / "split.csv"
    path.write_text(f"path,split\na.wav,train\n{row}\nb.wav,val\n")
    with pytest.raises(ValueError) as info:
        load_split(str(path))
    assert str(info.value) == f"{path}:3: {message}"


def test_load_split_rejects_a_path_listed_twice(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("path,split\na.wav,train\nb.wav,val\na.wav,test\n")
    with pytest.raises(ValueError, match=r"dup\.csv:4: a\.wav is listed again"):
        load_split(str(path))


def test_load_split_names_csvs_line(tmp_path):
    # a quoted line end advances the count, as it does in the other readers
    path = tmp_path / "split.csv"
    path.write_text('path,split\n"two\nlines.wav",train\nb.wav,holdout\n')
    with pytest.raises(ValueError, match=r"split\.csv:4: bad split row \['b\.wav', 'holdout'\]$"):
        load_split(str(path))
    path.write_text(f"path,split\na.wav,train\n{'c' * 81}.wav,test\n")
    old = csv.field_size_limit(80)
    try:
        with pytest.raises(ValueError) as info:
            load_split(str(path))
    finally:
        csv.field_size_limit(old)
    assert str(info.value) == f"{path}:3: field larger than field limit (80)"


def test_skip_reason_follows_min_total_cry(tmp_path):
    assert str(CurationError(1.0, PipelineConfig().min_total_cry_s)) == "below 3s cry"
    clip, _ = cry_clip(seed=4)
    mpath = make_manifest(tmp_path, [("long.wav", clip)])
    assert extract_manifest(mpath).skipped == []
    result = extract_manifest(mpath, replace(PipelineConfig(), min_total_cry_s=10.0))
    assert [(s.entry.path, s.reason) for s in result.skipped] == [("long.wav", "below 10s cry")]
    assert str(CurationError(1.0, 2.5)) == "below 2.5s cry"


def test_few_mel_bands_still_extract_rows(tmp_path):
    # the front end asks mfcc only for the 4 coefficients it keeps, so any
    # band count that the config accepts serves it
    clip, _ = cry_clip(seed=4)
    mpath = make_manifest(tmp_path, [("a.wav", clip)])
    for bands in (13, 5):
        result = extract_manifest(mpath, PipelineConfig(num_mel_bands=bands))
        assert result.skipped == []
        (row,) = result.rows
        assert all(np.isfinite(v) for v in row.features.values())


def test_config_threshold_changes_flow_through():
    clip, _ = cry_clip(seed=4)
    strict = replace(PipelineConfig(), min_total_cry_s=10.0)
    with pytest.raises(CurationError):
        extract_clip(clip, strict)


def front_series(front):
    return {
        "f0_hz": front.f0.f0_hz,
        "voiced": front.f0.voiced,
        "confidence": front.f0.confidence,
        "loudness": front.loudness,
        "flatness": front.flatness,
        "slope0_500": front.slope0_500,
        "mfcc2_4": front.mfcc2_4,
    }


def edge_to_edge_cry():
    """Units from the first frame to the last, split by long silences and short pauses."""
    units = [
        UnitSpec(0.6, 2.0, melody="falling", event="glide", event_start_s=0.2, event_duration_s=0.08),
        UnitSpec(0.5, 0.04, base_f0_hz=500.0),
        UnitSpec(0.5, 0.06, event="vibrato", event_start_s=0.05, event_duration_s=0.4),
        UnitSpec(0.7, 1.5, event="hyperphonation", event_start_s=0.1, event_duration_s=0.4),
        UnitSpec(0.6, 0.3, event="dysphonation", event_start_s=0.1, event_duration_s=0.4),
        UnitSpec(0.6, 0.0, melody="rising"),
    ]
    clip, _ = synth_cry(SynthSpec(units=units, lead_silence_s=0.0, tail_silence_s=0.0, seed=6))
    return clip


@pytest.mark.parametrize("block", [16, 40])
def test_analyze_frames_in_blocks_matches_one_block(block, monkeypatch):
    # 243 frames: fixed runs of 16 or 40 frames would leave a 3-frame tail
    clip = edge_to_edge_cry()
    clip = AudioClip(clip.samples[: 242 * 160 + 400], clip.sample_rate)
    config = PipelineConfig()
    monkeypatch.setattr(dsp, "FRAME_BLOCK", 10**9)
    want = front_series(analyze_frames(clip, config))
    monkeypatch.setattr(dsp, "FRAME_BLOCK", block)
    assert len(dsp.frame_blocks(243)) == 243 // block
    got = front_series(analyze_frames(clip, config))
    assert len(got["loudness"]) == 243
    assert got["voiced"].any()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def gate_every_frame(loud, grid, config):
    return np.arange(grid.num_frames)


def assert_gate_changes_no_unit(clip, config, monkeypatch):
    """Units, unit flags and voice columns equal those of pitch on every frame."""

    def units_of(clip):
        seg, front = segment_clip(clip, config)
        smoothed = smooth_f0(front.f0.f0_hz, front.f0.voiced)
        flags = [unit_biomarker_flags(front.f0, front.flatness, unit, smoothed, config) for unit in seg.expirations]
        return seg, flags, compute_generic_features(front, seg, concat_expirations(clip, seg), config)

    front = analyze_frames(clip, config)
    grid = front.f0.grid
    assert len(pitch_frames(front.loudness, grid, config)) < grid.num_frames
    gated = units_of(clip)
    monkeypatch.setattr(pipeline, "pitch_frames", gate_every_frame)
    assert units_of(clip) == gated
    return gated[0], grid


def test_gated_pitch_changes_no_unit(monkeypatch):
    seg, grid = assert_gate_changes_no_unit(edge_to_edge_cry(), PipelineConfig(), monkeypatch)
    assert len(seg.expirations) >= 4
    assert min(b - a for a, b in seg.pauses) < 0.1
    assert seg.expirations[0][0] == 0.0
    assert seg.expirations[-1][1] == pytest.approx(grid.num_frames * grid.hop_seconds)


def test_gated_pitch_reaches_across_merged_pauses(monkeypatch):
    # loud tone bursts split by 0.25 s of the same tone 40 dB down: voiced
    # frames under the release level, which a 0.3 s min_pause_s merges
    # into one unit, then a silent tail
    sr = 16000
    t = np.arange(4 * sr) / sr
    tone = sum(np.sin(2 * np.pi * k * 450.0 * t) / k for k in range(1, 6))
    samples = np.where(t % 1.0 < 0.75, 0.4, 0.004) * tone / np.max(np.abs(tone))
    samples = np.concatenate([samples, np.zeros(2 * sr)])
    samples += 1e-5 * np.random.default_rng(9).standard_normal(len(samples))
    seg, _ = assert_gate_changes_no_unit(AudioClip(samples, sr), PipelineConfig(min_pause_s=0.3), monkeypatch)
    assert len(seg.expirations) == 1


def test_extract_clip_memory_does_not_grow_with_length():
    # tracing starts after the clip exists, so the peak is what extraction
    # needs beyond the clip's own bytes
    units = [UnitSpec(0.8, 0.6, base_f0_hz=380.0 + 40.0 * (k % 5)) for k in range(20)]
    cry, _ = synth_cry(SynthSpec(units=units, seed=3))

    def traced_peak(seconds):
        n = int(seconds * cry.sample_rate)
        clip = AudioClip(np.resize(cry.samples, n), cry.sample_rate)
        tracemalloc.start()
        try:
            extract_clip(clip)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(120.0) < 1.5 * traced_peak(30.0)


def test_load_wav_resampling_memory_does_not_grow_with_length(tmp_path):
    # decoding and resampling a 44.1 kHz float file needs, beyond the 16 kHz
    # output, a few blocks whatever the recording's length: no copy of it
    # at 44.1 kHz, nor its file bytes, is ever held whole
    samples = 0.5 * np.random.default_rng(4).uniform(-1.0, 1.0, 30 * 44100)

    def traced_peak(tiles):
        path = str(tmp_path / f"x{tiles}.wav")
        write_wav(AudioClip(np.tile(samples, tiles), 44100), path, bit_depth=32)
        tracemalloc.start()
        try:
            clip = load_wav(path, 16000)
            return tracemalloc.get_traced_memory()[1] - clip.samples.nbytes
        finally:
            tracemalloc.stop()

    assert traced_peak(4) < 1.5 * traced_peak(1)


def ward_clip(seed):
    """A 44.1 kHz recording of six units, one of each event and a plain one."""
    events = ["none", "vibrato", "glide", "hyperphonation", "dysphonation", "none"]
    units = [
        UnitSpec(0.9, 0.3, base_f0_hz=400.0 + 30.0 * k, event=event, event_start_s=0.2, event_duration_s=0.4)
        for k, event in enumerate(events)
    ]
    return synth_cry(SynthSpec(units=units, sample_rate=44100, seed=seed))[0]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a caller holds its arguments until the call returns")
def test_a_source_at_another_rate_is_freed_before_the_analysis(monkeypatch):
    # a 44.1 kHz clip outweighs the whole analysis of its 16 kHz copy
    sources, alive = [], []

    def resample(clip, rate):
        sources.append(weakref.ref(clip))
        return audio_io.resample(clip, rate)

    def analyze_frames_noting_the_source(clip, config):
        alive.append(sources[-1]() is not None)
        return analyze_frames(clip, config)

    monkeypatch.setattr(pipeline, "resample", resample)
    monkeypatch.setattr(pipeline, "analyze_frames", analyze_frames_noting_the_source)
    extract_clip(ward_clip(seed=1))
    segment_clip(ward_clip(seed=1))
    assert alive == [False, False]


def test_44k_features_match_a_resample_poly_reference(tmp_path):
    # the resampler agrees with scipy.signal.resample_poly to a few ulp, not
    # bit for bit; through extraction that leaves every biomarker column
    # equal and moves the generic columns by rounding only
    from scipy import signal

    clip = ward_clip(seed=5)
    path = str(tmp_path / "ward.wav")
    write_wav(clip, path, bit_depth=32)
    raw = load_wav(path)
    got, _ = extract_clip(load_wav(path, 16000))
    want, _ = extract_clip(AudioClip(signal.resample_poly(raw.samples, 160, 441), 16000))
    assert [got[name] for name in CRY_FEATURE_NAMES] == [want[name] for name in CRY_FEATURE_NAMES]
    assert any(got[name] for name in CRY_FEATURE_NAMES if name.endswith("_unit_frac") and "melody" not in name)
    for name in VOICE_FEATURE_NAMES:
        assert got[name] == pytest.approx(want[name], rel=1e-9, abs=0.0), name


def test_44k_extraction_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS may split a large matrix product among its threads, and the
    # split moves the last bits; cry extract must write the same bytes with
    # one thread and with two
    entries = []
    for i in range(2):
        write_wav(ward_clip(seed=i), str(tmp_path / f"r{i}.wav"), bit_depth=32)
        entries.append(ManifestEntry(f"r{i}.wav", f"p{i}", "ESUTH", "birth", "normal"))
    manifest = str(tmp_path / "manifest.csv")
    save_manifest(entries, manifest)
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        csv_path = str(tmp_path / f"features{threads}.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "cryscreen", "extract", "--manifest", manifest, "--out", csv_path],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        with open(csv_path, "rb") as fh, open(str(tmp_path / f"features{threads}.skipped.csv"), "rb") as sk:
            out[threads] = (fh.read(), sk.read())
    assert read_features_csv(str(tmp_path / "features1.csv")).X.shape == (2, 38)
    assert out["1"] == out["2"]


def test_16k_extraction_csv_and_model_fitting_leave_scipy_unloaded(tmp_path):
    # scipy.signal costs over a second and 76 MB to import, and nothing
    # outside the tests uses scipy: not even resampling
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "import cryscreen, cryscreen.cli\n"
        "from cryscreen.analytics import FeatureMatrix, cross_validate, roc_auc, train_logreg\n"
        "from cryscreen.audio_io import AudioClip, ManifestEntry, resample\n"
        "from cryscreen.pipeline import FeatureRow, extract_clip, read_features_csv, write_features_csv\n"
        "from cryscreen.synthcry import SynthSpec, UnitSpec, synth_cry\n"
        "units = [UnitSpec(duration_s=0.8, pause_after_s=0.3, event='vibrato') for _ in range(5)]\n"
        "clip, _ = synth_cry(SynthSpec(units=units, seed=0))\n"
        "assert clip.sample_rate == 16000\n"
        "features, _ = extract_clip(clip)\n"
        "roc_auc(np.array([0.9, 0.5, 0.5, 0.1]), np.array([1, 1, 0, 0]))\n"
        "path = os.path.join(sys.argv[1], 'features.csv')\n"
        "write_features_csv([FeatureRow(ManifestEntry('a.wav', 'p0', 'ESUTH', 'birth', 'normal'), features)], path)\n"
        "assert read_features_csv(path).X.shape == (1, 38)\n"
        "rng = np.random.default_rng(0)\n"
        "X = rng.standard_normal((24, 3))\n"
        "y = np.arange(24) % 2\n"
        "ids = np.array([f'p{i}' for i in range(24)], dtype=object)\n"
        "fm = FeatureMatrix(['a', 'b', 'c'], X + y[:, None], y, np.full(24, 'ESUTH', dtype=object), ids, ids)\n"
        "train_logreg(fm, cross_validate(fm, 3, (0.1, 1.0)).best_reg_strength)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "resample(AudioClip(np.resize(clip.samples, 44100), 44100), 16000)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def imported_cryscreen_modules(statement):
    """The cryscreen modules loaded after statement runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'cryscreen'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_dsp_loads_only_what_dsp_uses():
    # the package root imports nothing, so a caller of the kernels loads
    # neither the synthesizer nor the model code
    assert imported_cryscreen_modules("import cryscreen.dsp") == ["cryscreen", "cryscreen.audio_io", "cryscreen.dsp"]


# __main__ runs the command line when imported
@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(cryscreen.__path__) if m.name != "__main__")
)
def test_each_module_imports_on_its_own(module):
    assert f"cryscreen.{module}" in imported_cryscreen_modules(f"import cryscreen.{module}")
