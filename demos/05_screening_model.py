"""Train and evaluate the screening model on a small synthetic corpus.

Walks the full modeling path in library calls: corpus synthesis, feature
extraction, sign-consistent selection across sites, patient-grouped
cross-validation for the penalty weight, and ROC metrics on held-out
recordings.
"""

import os
import tempfile

import numpy as np

from cryscreen.analytics import (
    cross_validate,
    roc_auc,
    select_consistent_features,
    sensitivity_at_specificity,
    train_logreg,
)
from cryscreen.config import PipelineConfig
from cryscreen.pipeline import FeatureTable, extract_manifest, to_feature_matrix
from cryscreen.synthcry import make_corpus

with tempfile.TemporaryDirectory(prefix="cryscreen_demo_") as out:
    print(f"synthesizing 60 labeled recordings in {out}")
    make_corpus(out, n_per_class=30, seed=4)

    result = extract_manifest(os.path.join(out, "manifest.csv"))
    print(f"extracted {len(result.rows)} recordings ({len(result.skipped)} skipped)")
matrix = to_feature_matrix(FeatureTable.from_rows(result.rows))

# held-out test: every fourth recording
test_mask = np.arange(len(matrix.labels)) % 4 == 3
trainval = matrix.subset_rows(~test_mask)
test = matrix.subset_rows(test_mask)

report = select_consistent_features(trainval, ["ESUTH", "LASUTH", "SCDM"])
print(f"\n{len(report.selected)} of 38 features correlate with the label "
      f"in the same direction at all three sites:")
for name in report.selected[:8]:
    print(f"  {report.directions[name]:8s} {name}")
if len(report.selected) > 8:
    print(f"  ... and {len(report.selected) - 8} more")

trainval = trainval.subset_features(report.selected)
cv = cross_validate(trainval, folds=5, reg_grid=PipelineConfig().reg_grid)
print(f"\ncross-validated penalty grid: " + ", ".join(
    f"{lam:g} -> {auc:.3f}" for lam, auc in cv.mean_aucs.items()))
model = train_logreg(trainval, cv.best_reg_strength)

curve = roc_auc(model.predict_proba(test.subset_features(report.selected).X), test.labels)
print(f"\nheld-out AUC {curve.auc:.3f}, "
      f"sensitivity at 80% specificity {sensitivity_at_specificity(curve, 0.80):.3f}")
# the model standardizes each feature, so its weights compare across features
top = sorted(zip(model.feature_names, model.weights), key=lambda nw: -abs(nw[1]))[:5]
print("largest standardized weights:")
for name, w in top:
    print(f"  {w:+7.3f}  {name}")
