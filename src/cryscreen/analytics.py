"""Statistics for screening models: selection, logistic regression, ROC.

The modeling pipeline is deliberately plain: features are standardized,
an L2-regularized logistic regression is fit by iteratively reweighted
least squares, the regularization weight is picked by patient-grouped
stratified cross-validation, and discrimination is reported as the
Mann-Whitney AUC plus sensitivity at a fixed specificity, both read off
the ROC curve of one sort of the scores. Cross-validation standardizes
each fold's training rows once and fits the grid's penalties on that one
design, strongest first, each fit starting from the previous one's
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IRLS_TOL = 1e-6
IRLS_MAX_ITER = 500


@dataclass
class FeatureMatrix:
    """Rows of features with labels and grouping metadata.

    sites, patient_ids and paths are numpy arrays of dtype object, aligned
    row for row with X and labels, so a site mask, a patient grouping or a
    row subset is one numpy expression. An object array holds each string
    by reference, where a fixed-width string dtype would pad every row to
    the longest.
    """

    feature_names: list[str]
    X: np.ndarray
    labels: np.ndarray
    sites: np.ndarray
    patient_ids: np.ndarray
    paths: np.ndarray

    def subset_rows(self, mask: np.ndarray) -> "FeatureMatrix":
        rows = (self.X, self.labels, self.sites, self.patient_ids, self.paths)
        return FeatureMatrix(self.feature_names, *(a[mask] for a in rows))

    def subset_features(self, names: list[str]) -> "FeatureMatrix":
        pos = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(list(names), self.X[:, pos], self.labels, self.sites, self.patient_ids, self.paths)


@dataclass
class SelectionReport:
    """Per-feature, per-site correlations and the sign-consistent survivors."""

    sites: list[str]
    correlations: dict[str, dict[str, float | None]]
    selected: list[str]
    directions: dict[str, str]


def select_consistent_features(matrix: FeatureMatrix, sites: list[str]) -> SelectionReport:
    """Keep features whose label correlation has the same sign at every site.

    Each site's correlations, every feature at once, come from one centered
    matrix of its rows. A feature whose values are all equal within a site
    has None there and is dropped, however its rounded mean cancels; a site
    with no rows, a single class or fewer than 3 rows is a caller mistake.
    """
    if len(sites) < 2:
        raise ValueError("sign-consistency selection needs at least two sites")
    names = matrix.feature_names
    r = np.empty((len(sites), len(names)))
    undefined = np.empty(r.shape, dtype=bool)
    for i, s in enumerate(sites):
        # a repeat would be compared with itself, which always agrees
        if s in sites[:i]:
            raise ValueError(f"site {s} is listed twice; sign-consistency selection needs distinct sites")
        mask = matrix.sites == s
        if not mask.any():
            raise ValueError(f"site {s} has no rows")
        if len(np.unique(matrix.labels[mask])) < 2:
            raise ValueError(f"site {s} has a single class; correlations are undefined there")
        if mask.sum() < 3:
            raise ValueError(f"site {s} has {mask.sum()} rows; a correlation needs at least 3")
        # one contiguous row per feature and the labels' last, so that each
        # mean and sum below is numpy's pairwise sum of one vector
        c = np.vstack([matrix.X[mask].T, matrix.labels[mask]]).astype(np.float64, order="C")
        undefined[i] = np.ptp(c[:-1], axis=1) == 0
        c -= c.mean(axis=1, keepdims=True)
        sq = (c * c).sum(axis=1)
        # a spread too small to square is as undefined as none at all
        undefined[i] |= sq[:-1] == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r[i] = np.where(undefined[i], 0.0, (c[:-1] * c[-1]).sum(axis=1) / np.sqrt(sq[:-1] * sq[-1]))

    positive, negative = (r > 0).all(axis=0), (r < 0).all(axis=0)
    return SelectionReport(
        list(sites),
        {n: {s: None if undefined[i, j] else float(r[i, j]) for i, s in enumerate(sites)} for j, n in enumerate(names)},
        [n for n, p, q in zip(names, positive, negative) if p or q],
        {n: "positive" if p else "negative" for n, p, q in zip(names, positive, negative) if p or q},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # each element takes its own branch: 1 / (1 + exp(-z)) where z >= 0,
    # exp(z) / (1 + exp(z)) elsewhere (NaN included), so exp never
    # overflows; exp(-abs(z)) would flip the sign bit of a NaN
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class ScreeningModel:
    """Logistic screening model with its standardization baked in."""

    feature_names: list[str]
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray
    reg_strength: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=np.float64) - self.mean) / self.std
        return _sigmoid(Z @ self.weights + self.bias)

    def to_json_dict(self) -> dict:
        return {
            "features": list(self.feature_names),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "standardize": {"mean": [float(m) for m in self.mean], "std": [float(s) for s in self.std]},
            "reg_strength": float(self.reg_strength),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ScreeningModel":
        return ScreeningModel(
            list(d["features"]),
            np.asarray(d["weights"], dtype=np.float64),
            float(d["bias"]),
            np.asarray(d["standardize"]["mean"], dtype=np.float64),
            np.asarray(d["standardize"]["std"], dtype=np.float64),
            float(d["reg_strength"]),
        )


def _standardized_design(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix [(X - mean) / std, 1] of training rows, with mean and std.

    Columns are standardized by their mean and population std; constant
    columns fall back to std 1.
    """
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return np.column_stack([(X - mean) / std, np.ones(len(X))]), mean, std


def _fit_irls(Z: np.ndarray, y: np.ndarray, reg_strength: float, start: np.ndarray) -> np.ndarray:
    """Weights of an L2 logistic fit on a design whose last column is the bias.

    Newton/IRLS steps from the start weights until the gradient norm drops
    under 1e-6, at most 500 steps. Every column but the bias carries
    reg_strength as its penalty weight.
    """
    d = Z.shape[1] - 1
    w = start
    penalty = np.full(d + 1, float(reg_strength))
    penalty[d] = 0.0  # bias stays unpenalized
    for _ in range(IRLS_MAX_ITER):
        p = _sigmoid(Z @ w)
        grad = Z.T @ (p - y) + penalty * w
        if np.linalg.norm(grad) < IRLS_TOL:
            break
        r = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (Z * r[:, None]).T @ Z + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        w = w - step
        if not np.all(np.isfinite(w)):
            raise ValueError("logistic regression diverged to non-finite weights")

    pc = np.clip(_sigmoid(Z @ w), 1e-15, 1.0 - 1e-15)
    loss = -np.sum(y * np.log(pc) + (1 - y) * np.log(1 - pc)) + 0.5 * reg_strength * np.dot(w[:d], w[:d])
    if not np.isfinite(loss):
        raise ValueError("logistic regression reached a non-finite loss")
    return w


def train_logreg(matrix: FeatureMatrix, reg_strength: float) -> ScreeningModel:
    """Fit L2-regularized logistic regression by Newton/IRLS steps.

    Features are standardized by their training mean and population std
    (constant columns fall back to std 1). reg_strength is the penalty
    weight on the squared standardized coefficients; the bias is never
    penalized. Iterates until the gradient norm drops under 1e-6, at most
    500 steps.
    """
    Z, mean, std = _standardized_design(matrix.X)
    d = len(mean)
    w = _fit_irls(Z, np.asarray(matrix.labels, dtype=np.float64), reg_strength, np.zeros(d + 1))
    return ScreeningModel(list(matrix.feature_names), w[:d], float(w[d]), mean, std, float(reg_strength))


@dataclass
class CrossValidationResult:
    best_reg_strength: float
    fold_aucs: dict[float, list[float]]
    mean_aucs: dict[float, float]


def assign_patient_folds(patient_ids: np.ndarray, labels: np.ndarray, folds: int) -> np.ndarray:
    """Each row's fold, from a deterministic stratified assignment of patients.

    Patients (not rows) are sorted by ID and dealt round-robin within each
    class, so no patient ever appears on both sides of a split and fold
    class counts stay within one patient of each other. A patient with any
    abnormal row counts as abnormal.
    """
    patients, row_patient = np.unique(patient_ids, return_inverse=True)
    patient_label = np.zeros(len(patients), dtype=np.int64)
    np.maximum.at(patient_label, row_patient, np.asarray(labels, dtype=np.int64))
    patient_fold = np.empty(len(patients), dtype=np.int64)
    for cls in (0, 1):
        members = np.flatnonzero(patient_label == cls)
        if len(members) < folds:
            raise ValueError(f"class {cls} has {len(members)} patients; need at least {folds} for {folds}-fold CV")
        patient_fold[members] = np.arange(len(members)) % folds
    return patient_fold[row_patient]


def cross_validate(matrix: FeatureMatrix, folds: int, reg_grid: tuple[float, ...]) -> CrossValidationResult:
    """Pick the regularization weight by grouped, stratified CV.

    Each fold's training rows are standardized once, and the penalties of
    reg_grid are fit on that one design strongest first. The first fit
    starts from zero, as train_logreg's does, and each later one from the
    weights of the penalty before it; every fit stops on train_logreg's
    rule, so its weights are the optimum's to within that rule's
    tolerance, though not bit for bit the ones train_logreg would return.
    Each fit, as a ScreeningModel with the fold's training mean and std,
    scores the fold's validation rows by predict_proba. fold_aucs keeps
    reg_grid's order, a penalty listed twice counting once. Mean validation
    AUC decides; exact ties go to the strongest regularization (largest
    penalty).
    """
    row_fold = assign_patient_folds(matrix.patient_ids, matrix.labels, folds)
    X = np.asarray(matrix.X, dtype=np.float64)
    labels = np.asarray(matrix.labels)

    fold_aucs: dict[float, list[float]] = {lam: [] for lam in reg_grid}
    for f in range(folds):
        val_mask = row_fold == f
        train_idx, val_idx = np.flatnonzero(~val_mask), np.flatnonzero(val_mask)
        Z, mean, std = _standardized_design(X[train_idx])
        y = labels[train_idx].astype(np.float64)
        w = np.zeros(Z.shape[1])
        for lam in sorted(fold_aucs, reverse=True):
            w = _fit_irls(Z, y, lam, w)
            model = ScreeningModel(matrix.feature_names, w[:-1], float(w[-1]), mean, std, lam)
            fold_aucs[lam].append(roc_auc(model.predict_proba(X[val_idx]), labels[val_idx]).auc)
    mean_aucs = {lam: float(np.mean(v)) for lam, v in fold_aucs.items()}
    best = max(reg_grid, key=lambda lam: (mean_aucs[lam], lam))
    return CrossValidationResult(float(best), fold_aucs, mean_aucs)


@dataclass
class RocCurve:
    """Operating points swept over score thresholds, plus the Mann-Whitney AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC curve and AUC with exact tie handling, from one sort of the scores.

    The curve has one point per group of tied scores, from the highest
    score down. The AUC is read off the same groups: concordant pairs plus
    half the tied pairs over all positive-negative pairs, the Mann-Whitney
    U over n1 * n0. A group of tp_g positives and fp_g negatives, with fp
    negatives at or above it, adds tp_g * (2 * (n0 - fp) + fp_g) to the
    whole number 2U. Scores must be finite and labels 0 or 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise ValueError(f"ROC needs finite scores, got {bad} NaN or infinite of {len(scores)}")
    pos, neg = labels == 1, labels == 0
    if not (pos | neg).all():
        raise ValueError(f"ROC needs labels 0 and 1, got stray labels {np.unique(labels[~(pos | neg)]).tolist()}")
    n1, n0 = int(pos.sum()), int(neg.sum())
    if n1 == 0 or n0 == 0:
        raise ValueError(f"ROC needs both classes, got {n1} positives and {n0} negatives")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    cut = np.append(np.flatnonzero(np.diff(sorted_scores)), len(scores) - 1)
    tp = np.cumsum(pos[order], dtype=np.int64)[cut]
    fp = (cut + 1) - tp
    twice_u = np.dot(np.diff(tp, prepend=0), 2 * (n0 - fp) + np.diff(fp, prepend=0))
    fpr = np.concatenate([[0.0], fp / n0])
    tpr = np.concatenate([[0.0], tp / n1])
    thresholds = np.concatenate([[np.inf], sorted_scores[cut]])
    return RocCurve(fpr, tpr, thresholds, float(twice_u / (2 * n1 * n0)))


def sensitivity_at_specificity(curve: RocCurve, specificity: float) -> float:
    """TPR at the requested specificity, linearly interpolated on the curve.

    At an FPR where the curve is vertical the highest achievable TPR counts:
    equal FPRs are adjacent and TPR only rises, so that is the last point
    of each run of equal FPRs.
    """
    last = np.append(np.diff(curve.fpr) != 0, True)
    return float(np.interp(1.0 - specificity, curve.fpr[last], curve.tpr[last]))
