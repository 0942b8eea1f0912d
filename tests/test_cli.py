"""End-to-end checks for the cry command line: synth, extract, select,
train-eval, segment, plus argument plumbing and the error exit path."""

import json
import struct

import numpy as np
import pytest

from cryscreen.analytics import ScreeningModel, roc_auc
from cryscreen.cli import FEATURE_SETS, build_parser, main
from cryscreen.pipeline import FEATURE_COLUMNS, ID_COLUMNS, _parse_in_c, read_features_csv, to_feature_matrix


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Tiny corpus pushed through synth and extract once for the module."""
    root = tmp_path_factory.mktemp("chain")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--n-per-class", "8", "--seed", "11"]) == 0
    features = root / "features.csv"
    assert main(["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(features)]) == 0
    table = read_features_csv(str(features))
    split = root / "split.csv"
    kinds = {3: "test", 2: "val"}
    split.write_text(
        "path,split\n" + "".join(f"{p},{kinds.get(i % 4, 'train')}\n" for i, p in enumerate(table.ids["path"]))
    )
    cfg = root / "cry.cfg"
    cfg.write_text("cv_folds=3\n")
    return {"root": root, "corpus": corpus, "features": features, "split": split, "cfg": cfg, "table": table}


def test_parser_surface():
    parser = build_parser()
    assert parser.prog == "cry"
    assert FEATURE_SETS == ("voice", "cry", "both", "selected-voice", "selected-cry", "selected-both")
    args = parser.parse_args(["segment", "baby.wav"])
    assert args.command == "segment" and args.wav == "baby.wav"
    args = parser.parse_args(["train-eval", "--features", "f", "--split", "s", "--model-out", "m", "--metrics-out", "x"])
    assert args.feature_set == "both"
    with pytest.raises(SystemExit):
        parser.parse_args(["train-eval", "--features", "f", "--split", "s", "--model-out", "m",
                           "--metrics-out", "x", "--feature-set", "all"])
    with pytest.raises(SystemExit):
        parser.parse_args([])
    # select takes its sites from the config's selection_sites only
    with pytest.raises(SystemExit):
        parser.parse_args(["select", "--features", "f", "--out", "o", "--sites", "ESUTH,SCDM"])


def test_synth_and_extract_outputs(chain):
    wavs = sorted(p.name for p in chain["corpus"].glob("*.wav"))
    assert len(wavs) == 16 and wavs[0] == "rec0000.wav"
    assert (chain["corpus"] / "ground_truth.json").exists()
    assert len(chain["table"].ids["path"]) == 16 and chain["table"].X.shape == (16, 38)
    skipped = (chain["root"] / "features.skipped.csv").read_text()
    assert skipped.splitlines()[0] == "path,reason"


def test_extract_is_reproducible(chain):
    again = chain["root"] / "features2.csv"
    assert main(["extract", "--manifest", str(chain["corpus"] / "manifest.csv"), "--out", str(again)]) == 0
    assert again.read_bytes() == chain["features"].read_bytes()


def test_select_command(chain):
    out = chain["root"] / "selection.json"
    assert main(["select", "--features", str(chain["features"]), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"sites", "selected", "directions", "correlations"}
    assert doc["sites"] == ["ESUTH", "LASUTH", "SCDM"]
    for name in doc["selected"]:
        assert doc["directions"][name] in ("positive", "negative")


def test_train_eval_command(chain):
    model_out = chain["root"] / "model.json"
    metrics_out = chain["root"] / "metrics.json"
    code = main([
        "train-eval", "--features", str(chain["features"]), "--split", str(chain["split"]),
        "--model-out", str(model_out), "--metrics-out", str(metrics_out), "--config", str(chain["cfg"]),
    ])
    assert code == 0
    metrics = json.loads(metrics_out.read_text())
    assert set(metrics) == {
        "auc", "sens_at_spec80", "per_site_auc", "feature_set",
        "num_features", "reg_strength", "n_trainval", "n_test",
    }
    assert metrics["feature_set"] == "both"
    assert metrics["num_features"] == 38
    assert metrics["n_trainval"] == 12 and metrics["n_test"] == 4
    assert 0.0 <= metrics["auc"] <= 1.0
    assert metrics["reg_strength"] in (0.1, 1.0, 10.0, 100.0)
    # one test row per site and class except ESUTH, which holds one of each
    assert metrics["per_site_auc"]["LASUTH"] is None
    model = json.loads(model_out.read_text())
    assert set(model) == {"features", "weights", "bias", "standardize", "reg_strength"}
    assert len(model["weights"]) == len(model["features"]) == 38


def test_per_site_auc_scores_each_site_alone(tmp_path):
    """Each site's AUC equals that of its test rows scored on their own, and a
    site whose test rows hold one class has none."""
    rng = np.random.default_rng(3)
    rows, split = [], []
    for i in range(120):
        k = i // 2
        site = ("ESUTH", "LASUTH", "SCDM")[k % 3]
        label = "normal" if k % 2 or site == "SCDM" and i >= 60 else ("mild", "severe")[k % 4 // 2]
        values = rng.standard_normal(len(FEATURE_COLUMNS)) + (label != "normal")
        rows.append([f"r{i}.wav", f"p{k}", site, ("birth", "discharge")[i % 2], label, *map(repr, values.tolist())])
        split.append(f"r{i}.wav,{'test' if i >= 60 else 'train'}\n")
    table = tmp_path / "features.csv"
    table.write_text("".join(",".join(r) + "\n" for r in [ID_COLUMNS + FEATURE_COLUMNS, *rows]))
    (tmp_path / "split.csv").write_text("path,split\n" + "".join(split))
    model_out, metrics_out = tmp_path / "model.json", tmp_path / "metrics.json"
    assert main(["train-eval", "--features", str(table), "--split", str(tmp_path / "split.csv"),
                 "--model-out", str(model_out), "--metrics-out", str(metrics_out)]) == 0
    model = ScreeningModel.from_json_dict(json.loads(model_out.read_text()))
    test = to_feature_matrix(read_features_csv(str(table)))
    test = test.subset_rows(np.isin(test.paths, [f"r{i}.wav" for i in range(60, 120)]))
    want = {}
    for site in ("ESUTH", "LASUTH", "SCDM"):
        rows_at = test.subset_rows(test.sites == site)
        two_classes = len(np.unique(rows_at.labels)) == 2
        want[site] = roc_auc(model.predict_proba(rows_at.X), rows_at.labels).auc if two_classes else None
    assert want["SCDM"] is None and want["ESUTH"] is not None
    assert json.loads(metrics_out.read_text())["per_site_auc"] == want


# the most a float holds: as many hops of it overflow a float to inf
FLOAT_MAX_DURATIONS = [f"{key}=1.7976931348623157e308" for key in (
    "glide_max_span_s", "vibrato_max_spacing_s", "hyperphonation_min_run_s", "dysphonation_min_run_s",
    "min_unit_s", "min_pause_s")]


@pytest.mark.parametrize("line", ["min_pause_s=1e300", f"voicing_halfwidth_frames={2**62}", *FLOAT_MAX_DURATIONS])
def test_a_voicing_reach_past_the_clip_extracts_and_segments(chain, tmp_path, capsys, line):
    """A duration or voicing reach longer than any clip reaches the whole
    clip; past int64 frames, or past the hops a float holds, it once ended in
    an OverflowError traceback."""
    cfg = tmp_path / "far.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--manifest", str(chain["corpus"] / "manifest.csv"), "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert main(["segment", str(chain["corpus"] / "rec0000.wav"), "--config", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_segment_command_stdout(chain, capsys):
    wav = str(chain["corpus"] / "rec0000.wav")
    assert main(["segment", wav]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"expirations", "pauses", "total_cry_seconds"}
    assert doc["total_cry_seconds"] >= 3.0
    for a, b in doc["expirations"]:
        assert 0.0 <= a < b
        assert round(a, 3) == a and round(b, 3) == b


def test_error_exit_path(tmp_path, capsys):
    assert main(["segment", str(tmp_path / "nothing.wav")]) == 1
    assert "cry: error:" in capsys.readouterr().err
    assert main(["extract", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.csv")]) == 1
    assert "cry: error:" in capsys.readouterr().err


def test_a_wav_declaring_too_high_a_rate_is_a_clean_error_and_a_skip(tmp_path, capsys):
    # the most a fmt chunk can declare; resampling it would take an 86 GB filter
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, 2**32 - 1, 2**32 - 2, 2, 16)
    body = b"WAVE" + b"fmt " + fmt + b"data" + struct.pack("<I", 64) + bytes(64)
    fast = tmp_path / "fast.wav"
    fast.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    reason = f"{fast}: sample rate 4294967295 is above the 384000 Hz this reader resamples"
    assert main(["segment", str(fast)]) == 1
    assert capsys.readouterr().err == f"cry: error: {reason}\n"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,patient_id,site,period,label\nfast.wav,p0,ESUTH,birth,normal\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "f.skipped.csv").read_bytes() == f"path,reason\r\nfast.wav,{reason}\r\n".encode()


# an extensible fmt chunk cut to 18 bytes, one declaring a cbSize of 0, and
# one whose SubFormat is ADPCM's GUID
ADPCM = bytes.fromhex("02000000" "000010008000" "00aa00389b71")


@pytest.mark.parametrize("fmt, reason", [
    (struct.pack("<HHIIHHH", 0xFFFE, 1, 16000, 32000, 2, 16, 22), "extensible fmt chunk truncated (18 of 40 bytes)"),
    (struct.pack("<HHIIHHHHI16s", 0xFFFE, 1, 16000, 32000, 2, 16, 0, 16, 4, ADPCM),
     "extensible fmt chunk declares cbSize 0 (under 22)"),
    (struct.pack("<HHIIHHHHI16s", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 4, ADPCM),
     "unsupported extensible SubFormat {00000002-0000-0010-8000-00AA00389B71}"),
], ids=["short-fmt", "cbSize-0", "adpcm"])
def test_an_unreadable_extensible_wav_is_a_clean_error_and_a_skip(tmp_path, capsys, fmt, reason):
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 64) + bytes(64)
    ext = tmp_path / "ext.wav"
    ext.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert main(["segment", str(ext)]) == 1
    assert capsys.readouterr().err == f"cry: error: {ext}: {reason}\n"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,patient_id,site,period,label\next.wav,p0,ESUTH,birth,normal\n")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "f.skipped.csv").read_bytes() == f"path,reason\r\next.wav,{ext}: {reason}\r\n".encode()


def test_malformed_feature_csv_is_a_clean_error(chain, tmp_path, capsys):
    lines = chain["features"].read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:3] + [",".join(lines[3].split(",")[:15])] + lines[4:]) + "\n")
    assert main(["select", "--features", str(short), "--out", str(tmp_path / "sel.json")]) == 1
    err = capsys.readouterr().err
    assert "cry: error:" in err and "short.csv:4: row has 15 fields" in err
    assert "Traceback" not in err

    fields = lines[1].split(",")
    fields[-1] = "nan"
    nan = tmp_path / "nan.csv"
    nan.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    code = main([
        "train-eval", "--features", str(nan), "--split", str(chain["split"]),
        "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "cry: error:" in err and "is nan, not a finite number" in err
    assert not (tmp_path / "m.json").exists()


def test_split_listing_a_path_twice_is_a_clean_error(chain, tmp_path, capsys):
    lines = chain["split"].read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join(lines + [lines[1].split(",")[0] + ",test"]) + "\n")
    code = main([
        "train-eval", "--features", str(chain["features"]), "--split", str(dup),
        "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cry: error: {dup}:{len(lines) + 1}: " in err and "is listed again" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("line, key", [("cv_folds=0", "cv_folds"), ("cv_folds=1", "cv_folds"),
                                       ("reg_grid=-1", "reg_grid"), ("reg_grid=", "reg_grid"),
                                       ("reg_grid=1,1", "reg_grid")])
def test_unusable_model_config_is_a_clean_error(chain, tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    metrics = tmp_path / "x.json"
    code = main([
        "train-eval", "--features", str(chain["features"]), "--split", str(chain["split"]),
        "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(metrics), "--config", str(cfg),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cry: error: {cfg}: {key}" in err
    assert "Traceback" not in err
    assert not metrics.exists()


@pytest.mark.parametrize("line, key", [("hop_s=0", "hop_s"), ("window_s=0", "window_s"),
                                       ("sample_rate=0", "sample_rate"), ("num_mel_bands=0", "num_mel_bands"),
                                       ("num_mel_bands=300", "num_mel_bands"), ("f0_min_hz=0", "f0_min_hz"),
                                       ("f0_min_hz=50", "f0_min_hz"), ("f0_min_hz=2000", "f0_min_hz"),
                                       ("window_s=inf", "window_s"), ("min_pause_s=inf", "min_pause_s"),
                                       ("min_total_cry_s=0.3", "min_total_cry_s"),
                                       ("active_fraction=3", "active_fraction"),
                                       ("dysphonation_flatness=2", "dysphonation_flatness"),
                                       ("voicing_halfwidth_frames=-5 min_pause_s=-1", "voicing_halfwidth_frames"),
                                       ("voicing_halfwidth_frames=-1 min_pause_s=-0.01", "voicing_halfwidth_frames"),
                                       # more samples than numpy's int64 counts, once an OverflowError traceback
                                       ("window_s=1e300", "window_s"), ("hop_s=1e300", "hop_s"),
                                       # an exbibyte resampling filter, once a MemoryError traceback
                                       (f"sample_rate={2**62}", "sample_rate")])
def test_unusable_config_is_a_clean_error(chain, tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    # an entry of several keys is written one key a line
    cfg.write_text("".join(f"{entry}\n" for entry in line.split()))
    out = tmp_path / "f.csv"
    code = main(["extract", "--manifest", str(chain["corpus"] / "manifest.csv"), "--out", str(out), "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cry: error: {cfg}: {key}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_site_listed_twice_is_a_clean_error(chain, tmp_path, capsys):
    cfg = tmp_path / "sites.cfg"
    cfg.write_text("selection_sites=ESUTH,ESUTH\n")
    out = tmp_path / "sel.json"
    assert main(["select", "--features", str(chain["features"]), "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cry: error: site ESUTH is listed twice")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rows", ["none", "unlabeled"])
@pytest.mark.parametrize("command", ["select", "train-eval"])
def test_table_without_labeled_rows_names_the_file(chain, tmp_path, capsys, rows, command):
    lines = chain["features"].read_text().splitlines()
    if rows == "unlabeled":
        lines[1:] = [",".join(line.split(",")[:4] + ["unlabeled"] + line.split(",")[5:]) for line in lines[1:]]
    else:
        lines = lines[:1]
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    argv = {
        "select": ["select", "--features", str(table), "--out", str(out)],
        "train-eval": ["train-eval", "--features", str(table), "--split", str(chain["split"]),
                       "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cry: error: {table}: no labeled rows")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [("unassigned", "does not assign 1 labeled rows"),
                                            ("no-test", "assigns no labeled rows to test")])
def test_split_fault_names_the_split_file(chain, tmp_path, capsys, fault, message):
    lines = chain["split"].read_text().splitlines()
    if fault == "unassigned":
        lines = lines[:-1]
    else:
        lines = [line.replace(",test", ",val") for line in lines]
    split = tmp_path / "split.csv"
    split.write_text("\n".join(lines) + "\n")
    metrics = tmp_path / "x.json"
    code = main([
        "train-eval", "--features", str(chain["features"]), "--split", str(split),
        "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(metrics),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cry: error: {split}: {message}")
    assert "Traceback" not in err
    assert not metrics.exists()



@pytest.mark.parametrize("kind", ["manifest", "features", "split", "config"])
def test_input_that_is_not_utf8_names_its_file(chain, tmp_path, capsys, kind):
    bad = tmp_path / f"{kind}.bad"
    if kind == "manifest":
        bad.write_bytes(b"path,patient_id,site,period,label\nb\xe9b\xe9.wav,p0,ESUTH,birth,normal\n")
        argv = ["extract", "--manifest", str(bad), "--out", str(tmp_path / "f.csv")]
    elif kind == "features":
        # in the last row, which np.loadtxt reaches past the first block the text layer decodes
        lines = chain["features"].read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:-1] + [b"b\xe9b\xe9" + lines[-1]]))
        argv = ["select", "--features", str(bad), "--out", str(tmp_path / "sel.json")]
    elif kind == "split":
        bad.write_bytes(chain["split"].read_bytes() + b"b\xe9b\xe9.wav,test\n")
        argv = ["train-eval", "--features", str(chain["features"]), "--split", str(bad),
                "--model-out", str(tmp_path / "m.json"), "--metrics-out", str(tmp_path / "x.json")]
    else:
        bad.write_bytes(b"# b\xe9b\xe9\ncv_folds=3\n")
        argv = ["extract", "--manifest", str(chain["corpus"] / "manifest.csv"), "--out", str(tmp_path / "f.csv"),
                "--config", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cry: error: {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["manifest", "features", "split", "config", "profile"])
def test_input_with_a_byte_order_mark_reads_as_without(chain, tmp_path, kind):
    # spreadsheets' "CSV UTF-8" exports begin with EF BB BF
    def outputs(path, out):
        out.mkdir()
        if kind == "manifest":
            argv = ["extract", "--manifest", str(path), "--out", str(out / "f.csv")]
            files = ["f.csv", "f.skipped.csv"]
        elif kind == "features":
            argv = ["select", "--features", str(path), "--out", str(out / "sel.json")]
            files = ["sel.json"]
        elif kind == "profile":
            argv = ["synth", "--out", str(out / "corpus"), "--profile", str(path)]
            files = ["corpus/manifest.csv", "corpus/ground_truth.json"]
        else:
            split, cfg = (path, chain["cfg"]) if kind == "split" else (chain["split"], path)
            argv = ["train-eval", "--features", str(chain["features"]), "--split", str(split), "--config", str(cfg),
                    "--model-out", str(out / "m.json"), "--metrics-out", str(out / "x.json")]
            files = ["m.json", "x.json"]
        assert main(argv) == 0
        return [(out / name).read_bytes() for name in files]

    if kind == "profile":
        plain = tmp_path / "profile.json"
        plain.write_text('{"n_per_class": 1, "sites": ["ESUTH"]}')
    else:
        plain = {"manifest": chain["corpus"] / "manifest.csv", "features": chain["features"],
                 "split": chain["split"], "config": chain["cfg"]}[kind]
    # a manifest's paths are relative to its directory
    bom = plain.with_name(f"bom-{plain.name}")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    if kind == "features":
        assert _parse_in_c(str(bom)) is not None
    assert outputs(bom, tmp_path / "bom") == outputs(plain, tmp_path / "plain")


@pytest.mark.parametrize(
    "content, names",
    [
        (b'{"sites": ["b\xe9b\xe9"]}', "'utf-8' codec"),
        (b'{"n_per_class": 2,', "Expecting"),
        (b"[1, 2]", "JSON object"),
        (b'{"sites": 5}', "sites"),
        (b'{"positive": {"num_units_range": 5}}', "num_units_range"),
        (b'{"positive": {"melody_probs": [1]}}', "melody_probs"),
        (b'{"negative": {"melody_probs": {"hum": 1.0}}}', "melody_probs"),
        (b'{"negative": {"pause_range": [0.6, 0.25]}}', "pause_range"),
        (b'{"n_per_clas": 1}', "n_per_clas"),
        (b'{"positive": {"p_glde": 0.9}}', "p_glde"),
        (b'{"negative": {"dysphonation_snr_db": "nan", "p_dysphonation": 1}}', "dysphonation_snr_db"),
        (b'{"negative": {"dysphonation_snr_db": NaN, "p_dysphonation": 1}}', "dysphonation_snr_db"),
        # the text a config gives for min_pause_s=inf
        (b'{"positive": {"p_vibrato": Infinity}}', "p_vibrato=inf is not a finite number"),
        (b'{"negative": {"base_f0_range": [0, 0]}}', "base_f0_range"),
        (b'{"negative": {"num_units_range": [1.5, 2]}}', "num_units_range"),
        (b'{"positive": {"p_glide": -1}}', "p_glide"),
        (b'{"negative": {"melody_probs": {"flat": 0, "rising": 0}}}', "melody_probs"),
        (b'{"negative": {"melody_probs": {"flat": -1, "rising": 2}}}', "melody_probs"),
        (b'{"positive": {"num_units_range": [0, 0]}}', "num_units_range"),
        (b'{"positive": {"unit_duration_range": [-1, 0]}}', "unit_duration_range"),
        # above 0 but under one sample: too short for the unit's edge ramps
        (b'{"negative": {"unit_duration_range": [1e-5, 1e-5]}}', "unit_duration_range=1e-05 must be at least 0.03"),
        (b'{"positive": {"pause_range": [-0.5, 0.2]}}', "pause_range"),
        # load_manifest would read any site but audio_io.SITES as OTHER
        (b'{"n_per_class": 2, "sites": ["A", "B"]}', "sites=('A', 'B') must name one or more sites of"),
        (b'{"sites": []}', "sites=() must name one or more sites of"),
        (b'{"negative": {"p_dysphonation": 0.6, "p_glide": 0.6, "p_hyperphonation": 0, "p_vibrato": 0}}',
         "p_hyperphonation + p_dysphonation + p_glide + p_vibrato = 1.2 must be at most 1"),
        (b'{"positive": {"melody_probs": {"flat": Infinity}}}', "melody_probs['flat']=inf is not a finite number"),
        (b'{"positive": 5}', "positive must be a JSON object, not 5"),
        # json reads this as an int that no float can hold
        (b'{"positive": {"p_glide": 1' + b"0" * 400 + b"}}", "positive: p_glide is an integer too large to be a finite"),
        # the class a nested fault lies in is named before the fault
        (b'{"negative": {"p_glide": -1}}', "negative: p_glide=-1.0 must be at least 0"),
        (b'{"positive": {"p_glde": 0.9}}', "positive: unknown ClassProfile keys ['p_glde']"),
        # numpy draws a unit count from an int64
        (b'{"negative": {"num_units_range": [1, 1' + b"0" * 30 + b"]}}",
         f"negative: num_units_range={10**30} does not fit numpy's int64"),
        # json would keep the last value of a key named twice
        (b'{"n_per_class": 1, "n_per_class": 2}', "n_per_class is set again"),
        (b'{"positive": {"p_glide": 0.1, "p_vibrato": 0.1, "p_glide": 0.2}}', "p_glide is set again"),
    ],
    ids=["not-utf8", "truncated", "list", "sites-number", "range-number", "melody-probs-list", "melody-unknown",
         "range-reversed", "top-level-key", "class-key", "snr-string", "snr-nan", "p-inf", "f0-zero",
         "units-fraction", "p-negative", "melody-no-weight", "melody-negative", "units-zero", "duration-negative",
         "duration-sub-sample", "pause-negative", "sites-unknown", "sites-empty", "p-sum-above-one",
         "melody-inf", "class-number", "huge-integer", "negative-class", "class-key-named", "units-past-int64",
         "key-twice", "class-key-twice"],
)
def test_malformed_synth_profile_names_its_file(tmp_path, capsys, content, names):
    profile = tmp_path / "profile.json"
    profile.write_bytes(content)
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--profile", str(profile), "--n-per-class", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cry: error: {profile}: ")
    assert names in err
    assert "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize(
    "count, profile_count, message",
    [
        ("0", None, "--n-per-class: n_per_class=0 must be at least 1"),
        ("-3", None, "--n-per-class: n_per_class=-3 must be at least 1"),
        (None, "-1", "n_per_class=-1 must be at least 1"),
        (None, "0", "n_per_class=0 must be at least 1"),
        (None, "2.7", "n_per_class=2.7 must be whole"),
        (None, "true", "n_per_class must be a number, not True"),
        (None, '"5"', "n_per_class must be a number, not '5'"),
        ("1", "2.7", "n_per_class=2.7 must be whole"),
        # the text a config gives for min_pause_s=inf
        (None, "Infinity", "n_per_class=inf is not a finite number"),
        ("1", "NaN", "n_per_class=nan is not a finite number"),
        # numpy draws from an int64
        (str(2**64), None, f"--n-per-class: n_per_class={2**64} does not fit numpy's int64"),
        (None, str(2**64), f"n_per_class={2**64} does not fit numpy's int64"),
    ],
    ids=["flag-zero", "flag-negative", "profile-negative", "profile-zero", "profile-fraction", "profile-bool",
         "profile-string", "fraction-under-flag", "profile-inf", "nan-under-flag", "flag-past-int64",
         "profile-past-int64"],
)
def test_synth_class_count_must_be_a_whole_number_of_at_least_one(tmp_path, capsys, count, profile_count, message):
    argv = ["synth", "--out", str(tmp_path / "corpus")]
    if count is not None:
        argv += ["--n-per-class", count]
    prefix = "cry: error: "
    if profile_count is not None:
        profile = tmp_path / "profile.json"
        profile.write_text(f'{{"n_per_class": {profile_count}}}')
        argv += ["--profile", str(profile)]
        prefix += f"{profile}: "
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == prefix + message + "\n"
    assert not (tmp_path / "corpus").exists()


def test_synth_seed_must_not_be_negative(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--n-per-class", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "cry: error: --seed must be at least 0, got -1\n"
    assert not (tmp_path / "corpus").exists()


def test_synth_takes_a_whole_float_class_count(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text('{"n_per_class": 1.0}')
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--profile", str(profile)]) == 0
    assert len((tmp_path / "corpus" / "manifest.csv").read_text().splitlines()) == 3
