"""Command line surface: segment, extract, select, train-eval, synth.

Every command writes deterministic output: rerunning with the same
inputs, config, and seed reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .analytics import (
    cross_validate,
    roc_auc,
    select_consistent_features,
    sensitivity_at_specificity,
    train_logreg,
)
from .audio_io import load_wav
from .biomarkers import CRY_FEATURE_NAMES
from .config import PipelineConfig, load_config
from .pipeline import (
    FEATURE_COLUMNS,
    extract_manifest,
    load_split,
    read_features_csv,
    segment_clip,
    to_feature_matrix,
    write_features_csv,
    write_skipped_csv,
)
from .synthcry import CorpusProfile, load_profile, make_corpus
from .voicefeat import VOICE_FEATURE_NAMES

_BASE_SETS = {
    "voice": VOICE_FEATURE_NAMES,
    "cry": CRY_FEATURE_NAMES,
    "both": FEATURE_COLUMNS,
}
FEATURE_SETS = (*_BASE_SETS, *(f"selected-{s}" for s in _BASE_SETS))


def _load_cfg(path: str | None) -> PipelineConfig:
    return load_config(path) if path else PipelineConfig()


def _dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    seg, _ = segment_clip(load_wav(args.wav, cfg.sample_rate), cfg)
    doc = {
        "expirations": [[round(a, 3), round(b, 3)] for a, b in seg.expirations],
        "pauses": [[round(a, 3), round(b, 3)] for a, b in seg.pauses],
        "total_cry_seconds": round(seg.total_cry_seconds, 3),
    }
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    result = extract_manifest(args.manifest, cfg, log=lambda msg: print(msg, file=sys.stderr))
    write_features_csv(result.rows, args.out)
    base, _ = os.path.splitext(args.out)
    write_skipped_csv(result.skipped, base + ".skipped.csv")
    print(f"extracted {len(result.rows)} recordings, skipped {len(result.skipped)}", file=sys.stderr)
    return 0


def _read_matrix(path: str):
    """The labeled rows of a features CSV; a table that has none is an error naming the file."""
    table = read_features_csv(path)
    try:
        return to_feature_matrix(table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_select(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    matrix = _read_matrix(args.features)
    report = select_consistent_features(matrix, list(cfg.selection_sites))
    _dump_json(asdict(report), args.out)
    print(f"selected {len(report.selected)} of {len(matrix.feature_names)} features", file=sys.stderr)
    return 0


def _split_masks(matrix, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Train-and-val and test masks of matrix's rows from the split file at path."""
    assignment = load_split(path)
    split = np.array([assignment.get(p, "") for p in matrix.paths])
    missing = matrix.paths[split == ""]
    if len(missing):
        raise ValueError(f"{path}: does not assign {len(missing)} labeled rows (first: {missing[0]})")
    if not (split == "test").any():
        raise ValueError(f"{path}: assigns no labeled rows to test")
    return np.isin(split, ("train", "val")), split == "test"


def cmd_train_eval(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    matrix = _read_matrix(args.features)
    trainval_mask, test_mask = _split_masks(matrix, args.split)
    trainval = matrix.subset_rows(trainval_mask)

    base = _BASE_SETS[args.feature_set.removeprefix("selected-")]
    if args.feature_set.startswith("selected-"):
        report = select_consistent_features(trainval.subset_features(base), list(cfg.selection_sites))
        if not report.selected:
            raise ValueError(f"selection kept no features from set {args.feature_set!r}")
        names = report.selected
    else:
        names = base

    design = trainval.subset_features(names)
    cv = cross_validate(design, folds=cfg.cv_folds, reg_grid=cfg.reg_grid)
    model = train_logreg(design, cv.best_reg_strength)

    test = matrix.subset_rows(test_mask).subset_features(names)
    scores = model.predict_proba(test.X)
    curve = roc_auc(scores, test.labels)
    per_site: dict[str, float | None] = {}
    for s in np.unique(test.sites):
        at = test.sites == s
        per_site[s] = roc_auc(scores[at], test.labels[at]).auc if len(np.unique(test.labels[at])) == 2 else None

    _dump_json(model.to_json_dict(), args.model_out)
    _dump_json(
        {
            "auc": curve.auc,
            "sens_at_spec80": sensitivity_at_specificity(curve, 0.80),
            "per_site_auc": per_site,
            "feature_set": args.feature_set,
            "num_features": len(names),
            "reg_strength": cv.best_reg_strength,
            "n_trainval": int(trainval_mask.sum()),
            "n_test": int(test_mask.sum()),
        },
        args.metrics_out,
    )
    print(f"test AUC {curve.auc:.3f} with {len(names)} {args.feature_set} features", file=sys.stderr)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    profile = load_profile(args.profile) if args.profile else CorpusProfile()
    if args.n_per_class is not None:
        try:
            profile = replace(profile, n_per_class=args.n_per_class)
        except ValueError as exc:
            raise ValueError(f"--n-per-class: {exc}") from None
    records = make_corpus(args.out, seed=args.seed, **vars(profile))
    print(f"wrote {len(records)} recordings to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cry", description="Newborn cry biomarker screening pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment one WAV into cry units, JSON to stdout")
    p.add_argument("wav")
    p.add_argument("--config")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("extract", help="extract per-recording feature rows from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("select", help="sign-consistent feature selection across sites")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train-eval", help="cross-validate, fit, and evaluate a screening model")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="both")
    p.add_argument("--model-out", required=True)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_eval)

    p = sub.add_parser("synth", help="write a synthetic labeled corpus with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", help="JSON object of synthcry.CorpusProfile's fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"cry: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
