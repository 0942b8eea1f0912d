"""Acoustic biomarkers and screening models for newborn cry recordings.

The package turns a WAV recording into a fixed 38-value feature row
(26 cry biomarker summaries + 12 generic voice functionals), selects
features that behave consistently across recording sites, and trains a
regularized logistic screening model evaluated by ROC metrics. A
deterministic synthetic-cry generator provides planted ground truth for
every stage.
"""

__version__ = "0.1.0"
