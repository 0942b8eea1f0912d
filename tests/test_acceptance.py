"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test prints a single `C## PASS|FAIL` line with the measured values
before asserting the pinned bounds, so a `-s` run reads as a checklist
and a failure still shows the numbers that produced it.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from cryscreen.analytics import (
    FeatureMatrix,
    assign_patient_folds,
    cross_validate,
    roc_auc,
    select_consistent_features,
    train_logreg,
)
from cryscreen.audio_io import AudioClip, ManifestEntry, load_wav, save_manifest, write_wav
from cryscreen.biomarkers import CRY_FEATURE_NAMES, aggregate_biomarkers, smooth_f0, unit_biomarker_flags
from cryscreen.cli import main
from cryscreen.config import PipelineConfig
from cryscreen.dsp import estimate_f0
from cryscreen.pipeline import (
    FEATURE_COLUMNS,
    ID_COLUMNS,
    FeatureTable,
    extract_manifest,
    read_features_csv,
    segment_clip,
    to_feature_matrix,
    write_features_csv,
)
from cryscreen.synthcry import (
    DEFAULT_NEGATIVE_PROFILE,
    GroundTruth,
    SynthSpec,
    UnitSpec,
    make_corpus,
    synth_cry,
)
from cryscreen.voicefeat import VOICE_FEATURE_NAMES

SR = 16000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"C{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus200(tmp_path_factory):
    """Planted 200-recording corpus shared by the corpus-level criteria."""
    out = str(tmp_path_factory.mktemp("corpus200"))
    t0 = time.perf_counter()
    records = make_corpus(out, n_per_class=100, seed=7)
    return {"dir": out, "records": records, "synth_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def extraction200(corpus200):
    t0 = time.perf_counter()
    result = extract_manifest(os.path.join(corpus200["dir"], "manifest.csv"))
    extract_s = time.perf_counter() - t0
    features_csv = os.path.join(corpus200["dir"], "features.csv")
    write_features_csv(result.rows, features_csv)
    return {"result": result, "csv": features_csv, "extract_s": extract_s}


def _index_split_csv(paths, path):
    """test/val/train by row index mod 4, one quarter each for test and val."""
    kinds = {3: "test", 2: "val"}
    path.write_text("path,split\n" + "".join(f"{p},{kinds.get(i % 4, 'train')}\n" for i, p in enumerate(paths)))


def test_c01_f0_oracle():
    rng = np.random.default_rng(424)
    f0_cfg = PipelineConfig(f0_min_hz=200.0, f0_max_hz=2000.0)
    t0 = time.perf_counter()
    rel_errs, gross = [], 0
    for _ in range(50):
        f0 = float(rng.uniform(250.0, 1500.0))
        t = (np.arange(int(0.5 * SR)) + 0.5) / SR
        x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 6))
        track = estimate_f0(AudioClip(0.3 * x / np.max(np.abs(x)), SR), f0_cfg)
        est = float(np.median(track.f0_hz[track.voiced]))
        rel_errs.append(abs(est - f0) / f0)
        gross += rel_errs[-1] > 0.2  # halving or doubling lands far beyond 20%
    elapsed = time.perf_counter() - t0
    med = float(np.median(rel_errs))
    ok = med < 0.01 and gross == 0 and elapsed < 5.0
    _report(1, ok, f"50 signals: median rel err {med:.5f} (<0.01), octave errors {gross} (==0), {elapsed:.2f}s (<5)")
    assert med < 0.01
    assert gross == 0
    assert elapsed < 5.0


def _overlap(a, b):
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _match_units(detected, truth):
    """Greedy max-overlap pairing of detected against planted units."""
    pairs, used = [], set()
    for di, d in enumerate(detected):
        best, best_ov = None, 0.0
        for ti, t in enumerate(truth):
            ov = _overlap(d, t)
            if ov > best_ov and ti not in used:
                best, best_ov = ti, ov
        if best is not None:
            pairs.append((di, best))
            used.add(best)
    return pairs


def test_c02_biomarker_precision_recall(corpus200):
    cfg = PipelineConfig()
    counts = {k: [0, 0, 0] for k in ("hyperphonation", "dysphonation", "glide", "vibrato")}  # tp, fp, fn
    melody_ok = melody_n = planted_n = 0
    for rec in corpus200["records"]:
        clip = load_wav(os.path.join(corpus200["dir"], rec.entry.path))
        seg, front = segment_clip(clip, cfg)
        smoothed = smooth_f0(front.f0.f0_hz, front.f0.voiced)
        flags = [unit_biomarker_flags(front.f0, front.flatness, unit, smoothed, cfg) for unit in seg.expirations]
        planted_n += len(rec.truth.unit_flags)
        for di, ti in _match_units(seg.expirations, rec.truth.segmentation.expirations):
            det, gt = flags[di], rec.truth.unit_flags[ti]
            for name, d_pos, g_pos in (
                ("hyperphonation", det.hyperphonation_frames > 0, gt.hyperphonation_frames > 0),
                ("dysphonation", det.dysphonation_frames > 0, gt.dysphonation_frames > 0),
                ("glide", det.glide_frames > 0, gt.glide_frames > 0),
                ("vibrato", det.vibrato_present, gt.vibrato_present),
            ):
                if d_pos and g_pos:
                    counts[name][0] += 1
                elif d_pos:
                    counts[name][1] += 1
                elif g_pos:
                    counts[name][2] += 1
            melody_n += 1
            melody_ok += det.melody == gt.melody

    scores = {}
    for name, (tp, fp, fn) in counts.items():
        p = tp / (tp + fp) if tp + fp else 1.0
        r = tp / (tp + fn) if tp + fn else 1.0
        scores[name] = (p, r)
    acc = melody_ok / melody_n
    detail = " ".join(f"{n} P={p:.3f}/R={r:.3f}" for n, (p, r) in scores.items())
    ok = all(p >= 0.9 and r >= 0.9 for p, r in scores.values()) and acc >= 0.95
    _report(2, ok, f"{detail} (each >=0.9), melody acc {acc:.4f} (>=0.95), {melody_n}/{planted_n} units matched")
    assert melody_n >= 0.95 * planted_n  # the unit scores must not be vacuous
    for name, (p, r) in scores.items():
        assert p >= 0.9, name
        assert r >= 0.9, name
    assert acc >= 0.95


def test_c03_aggregation_exactness(corpus200):
    checked = 0
    for rec in corpus200["records"]:
        truth = rec.truth
        assert aggregate_biomarkers(truth.segmentation, truth.unit_flags) == truth.expected_vector
        checked += 1
    with open(os.path.join(corpus200["dir"], "ground_truth.json")) as fh:
        doc = json.load(fh)
    for entry in doc["recordings"]:
        truth = GroundTruth.from_json_dict(entry)
        assert aggregate_biomarkers(truth.segmentation, truth.unit_flags) == truth.expected_vector
        checked += 1
    _report(3, True, f"planted-flag aggregation equals the expected vector exactly on {checked} recordings")


def test_c04_schema_26_cry_12_generic(extraction200):
    with open(extraction200["csv"], newline="") as fh:
        header = next(csv.reader(fh))
    ok = (
        len(CRY_FEATURE_NAMES) == 26
        and len(VOICE_FEATURE_NAMES) == 12
        and FEATURE_COLUMNS == CRY_FEATURE_NAMES + VOICE_FEATURE_NAMES
        and len(set(FEATURE_COLUMNS)) == 38
        and header == ID_COLUMNS + FEATURE_COLUMNS
    )
    _report(4, ok, f"{len(CRY_FEATURE_NAMES)} cry + {len(VOICE_FEATURE_NAMES)} generic columns, CSV header matches")
    assert len(CRY_FEATURE_NAMES) == 26
    assert len(VOICE_FEATURE_NAMES) == 12
    assert FEATURE_COLUMNS == CRY_FEATURE_NAMES + VOICE_FEATURE_NAMES
    assert len(set(FEATURE_COLUMNS)) == 38
    assert header == ID_COLUMNS + FEATURE_COLUMNS


def test_c05_roc_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        scores = rng.integers(0, 4, n).astype(float)  # heavy ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        auc = roc_auc(scores, labels).auc
        pos_s, neg_s = scores[labels == 1], scores[labels == 0]
        greater = np.sum(pos_s[:, None] > neg_s[None, :])
        equal = np.sum(pos_s[:, None] == neg_s[None, :])
        brute = (greater + 0.5 * equal) / (len(pos_s) * len(neg_s))
        assert auc == brute
        assert roc_auc(2.0 * scores + 1.0, labels).auc == auc
        assert roc_auc(np.exp(scores / 3.0), labels).auc == auc
    _report(5, True, "AUC equals pair counting exactly on 1000 tied instances, monotone-transform invariant")


def test_c06_selection_planted_features():
    rng = np.random.default_rng(55)
    sites = ["A"] * 40 + ["B"] * 40 + ["C"] * 40
    y = np.array(([0] * 20 + [1] * 20) * 3)
    flip_by_site = np.array([{"A": 1.0, "B": -1.0, "C": 1.0}[s] for s in sites])
    cols, names, want_dir = [], [], {}
    for j in range(5):
        sign = 1.0 if j % 2 == 0 else -1.0
        cols.append(sign * y + 0.6 * rng.standard_normal(120))
        names.append(f"cons{j}")
        want_dir[f"cons{j}"] = "positive" if sign > 0 else "negative"
    for j in range(5):
        cols.append(flip_by_site * y + 0.6 * rng.standard_normal(120))
        names.append(f"flip{j}")
    ids = np.array([f"p{i}" for i in range(120)], dtype=object)
    matrix = FeatureMatrix(names, np.column_stack(cols), y, np.array(sites, dtype=object), ids, ids)
    report = select_consistent_features(matrix, ["A", "B", "C"])
    ok = report.selected == [f"cons{j}" for j in range(5)] and report.directions == want_dir
    _report(6, ok, f"selected {report.selected} with directions {report.directions}")
    assert report.selected == [f"cons{j}" for j in range(5)]
    assert report.directions == want_dir


def test_c07_logreg_recovery_and_grouped_cv():
    # weight recovery against the generating model
    rng = np.random.default_rng(33)
    n, d = 5000, 4
    w_true = np.array([1.5, -2.0, 0.75, 1.0])
    b_true = -0.5
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ w_true + b_true)))).astype(int)
    ids = np.array([f"p{i}" for i in range(n)], dtype=object)
    matrix = FeatureMatrix([f"x{j}" for j in range(d)], X, y, np.full(n, "S", dtype=object), ids, ids)
    model = train_logreg(matrix, reg_strength=0.01)
    w_raw = model.weights / model.std
    rel = np.abs(w_raw - w_true) / np.abs(w_true)

    # a separable problem must be ranked perfectly
    x_sep = np.concatenate([np.linspace(-3.0, -1.0, 30), np.linspace(1.0, 3.0, 30)])[:, None]
    y_sep = np.array([0] * 30 + [1] * 30)
    sep_ids = np.array([f"q{i}" for i in range(60)], dtype=object)
    sep = FeatureMatrix(["x"], x_sep, y_sep, np.full(60, "S", dtype=object), sep_ids, sep_ids)
    sep_model = train_logreg(sep, reg_strength=0.1)
    sep_auc = roc_auc(sep_model.predict_proba(sep.X), y_sep).auc

    # grouped stratified folds: exhaustive over 50 random patient layouts
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(50):
        n_pat = int(rng.integers(12, 40))
        pat_label = rng.integers(0, 2, n_pat)
        pat_label[:8] = [0, 1] * 4  # both classes always hold >= 4 patients
        pids, labels = [], []
        for p in range(n_pat):
            for _row in range(int(rng.integers(1, 5))):
                pids.append(f"pt{p:03d}")
                labels.append(int(pat_label[p]))
        pids = np.array(pids, dtype=object)
        row_fold = assign_patient_folds(pids, np.array(labels), 4)
        for p in set(pids):
            violations += len(np.unique(row_fold[pids == p])) != 1
        fold_of = dict(zip(pids, row_fold))
        for cls in (0, 1):
            members = {p for p, lab in zip(pids, labels) if lab == cls}
            per_fold = np.bincount([fold_of[p] for p in members], minlength=4)
            assert per_fold.max() - per_fold.min() <= 1

    ok = rel.max() < 0.10 and sep_auc == 1.0 and violations == 0
    _report(7, ok, f"max weight rel err {rel.max():.4f} (<0.10), separable AUC {sep_auc} (==1.0), "
                   f"split patients {violations} (==0)")
    assert rel.max() < 0.10
    assert sep_auc == 1.0
    assert violations == 0


def test_c08_end_to_end_screening(corpus200, extraction200, tmp_path):
    result = extraction200["result"]
    assert len(result.rows) == 200 and not result.skipped
    split = tmp_path / "split.csv"
    _index_split_csv([r.entry.path for r in result.rows], split)
    model_out, metrics_out = tmp_path / "model.json", tmp_path / "metrics.json"
    t0 = time.perf_counter()
    code = main([
        "train-eval", "--features", extraction200["csv"], "--split", str(split),
        "--model-out", str(model_out), "--metrics-out", str(metrics_out),
    ])
    traineval_s = time.perf_counter() - t0
    assert code == 0
    planted_auc = json.loads(metrics_out.read_text())["auc"]

    # the same pipeline on a corpus whose classes share one profile
    null_dir = str(tmp_path / "null")
    make_corpus(null_dir, n_per_class=60, positive=DEFAULT_NEGATIVE_PROFILE, seed=22)
    null_rows = extract_manifest(os.path.join(null_dir, "manifest.csv")).rows
    null_matrix = to_feature_matrix(FeatureTable.from_rows(null_rows))
    test_mask = np.array([i % 4 == 3 for i in range(len(null_matrix.labels))])
    trainval, test = null_matrix.subset_rows(~test_mask), null_matrix.subset_rows(test_mask)
    cv = cross_validate(trainval, folds=10, reg_grid=(0.1, 1.0, 10.0, 100.0))
    null_model = train_logreg(trainval, cv.best_reg_strength)
    null_auc = roc_auc(null_model.predict_proba(test.X), test.labels).auc

    total_s = corpus200["synth_s"] + extraction200["extract_s"] + traineval_s
    ok = planted_auc > 0.9 and 0.4 <= null_auc <= 0.6 and total_s < 60.0
    _report(8, ok, f"planted test AUC {planted_auc:.4f} (>0.9), null AUC {null_auc:.4f} (in [0.4,0.6]), "
                   f"200-recording pipeline {total_s:.1f}s (<60)")
    assert planted_auc > 0.9
    assert 0.4 <= null_auc <= 0.6
    assert total_s < 60.0


def test_c09_short_cry_excluded_and_reported(tmp_path):
    good, _ = synth_cry(SynthSpec(units=[UnitSpec(duration_s=0.8, pause_after_s=0.3) for _ in range(5)], seed=1))
    short, _ = synth_cry(SynthSpec(units=[UnitSpec(duration_s=0.7, pause_after_s=0.3) for _ in range(2)], seed=2))
    write_wav(good, str(tmp_path / "good.wav"))
    write_wav(short, str(tmp_path / "short.wav"))
    save_manifest(
        [
            ManifestEntry("good.wav", "p0", "ESUTH", "birth", "normal"),
            ManifestEntry("short.wav", "p1", "ESUTH", "birth", "mild"),
        ],
        str(tmp_path / "manifest.csv"),
    )
    result = extract_manifest(str(tmp_path / "manifest.csv"))
    ok = (
        [r.entry.path for r in result.rows] == ["good.wav"]
        and [(s.entry.path, s.reason) for s in result.skipped] == [("short.wav", "below 3s cry")]
    )
    _report(9, ok, "1.4s-cry recording skipped with reason 'below 3s cry', good recording kept")
    assert [r.entry.path for r in result.rows] == ["good.wav"]
    assert [(s.entry.path, s.reason) for s in result.skipped] == [("short.wav", "below 3s cry")]


def test_c10_cli_byte_reproducibility(tmp_path, capsys):
    dirs = [str(tmp_path / tag) for tag in ("a", "b")]
    for out in dirs:
        assert main(["synth", "--out", out, "--n-per-class", "5", "--seed", "5"]) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        with open(os.path.join(dirs[0], name), "rb") as fa, open(os.path.join(dirs[1], name), "rb") as fb:
            assert fa.read() == fb.read(), name

    manifest = os.path.join(dirs[0], "manifest.csv")
    feats = [str(tmp_path / f"feats{i}.csv") for i in (1, 2)]
    for out in feats:
        assert main(["extract", "--manifest", manifest, "--out", out]) == 0
    assert open(feats[0], "rb").read() == open(feats[1], "rb").read()
    assert open(feats[0][:-4] + ".skipped.csv", "rb").read() == open(feats[1][:-4] + ".skipped.csv", "rb").read()

    seg_outs = []
    for _ in range(2):
        assert main(["segment", os.path.join(dirs[0], "rec0000.wav")]) == 0
        seg_outs.append(capsys.readouterr().out)
    assert seg_outs[0] == seg_outs[1]
    assert json.loads(seg_outs[0])

    sel_bytes = []
    for i in (1, 2):
        sel = str(tmp_path / f"sel{i}.json")
        assert main(["select", "--features", feats[0], "--out", sel]) == 0
        sel_bytes.append(open(sel, "rb").read())
    assert sel_bytes[0] == sel_bytes[1]

    split = tmp_path / "split.csv"
    _index_split_csv(read_features_csv(feats[0]).ids["path"], split)
    cfg = tmp_path / "cry.cfg"
    cfg.write_text("cv_folds=3\n")
    run_bytes = []
    for i in (1, 2):
        mo, xo = str(tmp_path / f"model{i}.json"), str(tmp_path / f"metrics{i}.json")
        assert main(["train-eval", "--features", feats[0], "--split", str(split),
                     "--model-out", mo, "--metrics-out", xo, "--config", str(cfg)]) == 0
        run_bytes.append((open(mo, "rb").read(), open(xo, "rb").read()))
    assert run_bytes[0] == run_bytes[1]
    _report(10, True, "synth, extract, segment, select, and train-eval all byte-identical across reruns")
