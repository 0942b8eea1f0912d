"""Output checks that do not reuse the code they check.

Units are matched with this module's own interval matcher, detection is
scored against the planted truth that ``synthcry`` writes, and the AUC of
a screening model is recounted pair by pair from probabilities that
numpy recomputes out of ``model.json``.
"""

from __future__ import annotations

import math

import numpy as np

MIN_IOU = 0.5
MIN_PRECISION = 0.9
MIN_RECALL = 0.9
MIN_MELODY_ACCURACY = 0.95
MIN_MATCHED_UNITS = 0.95
BIOMARKERS = ("hyperphonation", "dysphonation", "glide", "vibrato")


def match_units(detected, planted, min_iou: float = MIN_IOU) -> list[tuple[int, int]]:
    """One-to-one (detected, planted) index pairs.

    Both lists hold disjoint (onset, offset) intervals sorted by onset.
    Each planted unit takes the unused detected unit it overlaps most,
    provided their intersection is at least min_iou of their union.
    """
    pairs, used, first = [], set(), 0
    for ti, (a, b) in enumerate(planted):
        while first < len(detected) and detected[first][1] <= a:
            first += 1
        best, best_iou = None, min_iou
        k = first
        while k < len(detected) and detected[k][0] < b:
            c, d = detected[k]
            iou = (min(b, d) - max(a, c)) / (max(b, d) - min(a, c))
            if iou >= best_iou and k not in used:
                best, best_iou = k, iou
            k += 1
        if best is not None:
            pairs.append((best, ti))
            used.add(best)
    return pairs


def _calls(flags) -> dict[str, bool]:
    return {
        "hyperphonation": flags.hyperphonation_frames > 0,
        "dysphonation": flags.dysphonation_frames > 0,
        "glide": flags.glide_frames > 0,
        "vibrato": bool(flags.vibrato_present),
    }


def score_detection(detections: dict, truths: dict) -> dict:
    """Unit-level precision/recall per biomarker and melody accuracy.

    detections maps a recording to its detected [(unit, UnitFlags)];
    truths maps it to the planted GroundTruth. A call on a detected unit
    that matches no planted unit is a false positive, and a planted event
    on a unit that no detected unit matches is a miss. Melody accuracy is
    over matched units. A biomarker never called nor planted scores 1.
    """
    tp = dict.fromkeys(BIOMARKERS, 0)
    fp = dict.fromkeys(BIOMARKERS, 0)
    fn = dict.fromkeys(BIOMARKERS, 0)
    melody_ok = matched = planted = 0
    for rec, truth in truths.items():
        units = detections[rec]
        pairs = match_units([u for u, _ in units], truth.segmentation.expirations)
        planted += len(truth.unit_flags)
        matched += len(pairs)
        det_of = {ti: di for di, ti in pairs}
        paired = set(det_of.values())
        for ti, gt in enumerate(truth.unit_flags):
            want = _calls(gt)
            got = _calls(units[det_of[ti]][1]) if ti in det_of else dict.fromkeys(BIOMARKERS, False)
            for name in BIOMARKERS:
                tp[name] += got[name] and want[name]
                fp[name] += got[name] and not want[name]
                fn[name] += want[name] and not got[name]
            if ti in det_of:
                melody_ok += units[det_of[ti]][1].melody == gt.melody
        for di, (_, flags) in enumerate(units):
            if di not in paired:
                for name, on in _calls(flags).items():
                    fp[name] += on
    out = {}
    for name in BIOMARKERS:
        out[f"{name}.precision"] = tp[name] / (tp[name] + fp[name]) if tp[name] + fp[name] else 1.0
        out[f"{name}.recall"] = tp[name] / (tp[name] + fn[name]) if tp[name] + fn[name] else 1.0
    out["melody.accuracy"] = melody_ok / matched if matched else 0.0
    out["matched_units"] = matched / planted if planted else 0.0
    return out


def detection_failures(scores: dict) -> list[str]:
    bad = []
    for name in BIOMARKERS:
        if scores[f"{name}.precision"] < MIN_PRECISION:
            bad.append(f"{name} precision {scores[f'{name}.precision']:.3f} < {MIN_PRECISION}")
        if scores[f"{name}.recall"] < MIN_RECALL:
            bad.append(f"{name} recall {scores[f'{name}.recall']:.3f} < {MIN_RECALL}")
    if scores["melody.accuracy"] < MIN_MELODY_ACCURACY:
        bad.append(f"melody accuracy {scores['melody.accuracy']:.3f} < {MIN_MELODY_ACCURACY}")
    if scores["matched_units"] < MIN_MATCHED_UNITS:
        bad.append(f"only {scores['matched_units']:.3f} of planted units matched")
    return bad


def finite_row_failures(features: dict, columns: list[str]) -> list[str]:
    if list(features) != columns:
        return [f"row has columns {list(features)[:3]}..., expected the {len(columns)} feature columns"]
    bad = [name for name, v in features.items() if not math.isfinite(v)]
    return [f"non-finite {name}" for name in bad]


def probe_failures(features: dict, expected: dict) -> list[str]:
    """A probe recording must show at least 90% of each planted biomarker's unit share."""
    bad = []
    for name in BIOMARKERS:
        want = expected[f"{name}_unit_frac"]
        if features[f"{name}_unit_frac"] < MIN_RECALL * want:
            bad.append(f"{name} in {features[f'{name}_unit_frac']:.3f} of units, planted in {want:.3f}")
    return bad


def model_probabilities(model: dict, X: np.ndarray) -> np.ndarray:
    """Probabilities from a model.json document, written out with plain numpy."""
    std = np.asarray(model["standardize"]["std"])
    z = (X - np.asarray(model["standardize"]["mean"])) / std
    logit = z @ np.asarray(model["weights"]) + model["bias"]
    return 1.0 / (1.0 + np.exp(-logit))


def pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """(concordant + tied/2 positive-negative pairs, number of pairs)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return wins + 0.5 * ties, len(pos) * len(neg)
