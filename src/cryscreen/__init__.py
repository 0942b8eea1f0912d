"""Acoustic biomarkers and screening models for newborn cry recordings.

The package turns a WAV recording into a fixed 38-value feature row
(26 cry biomarker summaries + 12 generic voice functionals), selects
features that behave consistently across recording sites, and trains a
regularized logistic screening model evaluated by ROC metrics. A
deterministic synthetic-cry generator provides planted ground truth for
every stage.
"""

from .analytics import (
    FeatureMatrix,
    RocCurve,
    ScreeningModel,
    cross_validate,
    roc_auc,
    select_consistent_features,
    sensitivity_at_specificity,
    train_logreg,
)
from .audio_io import AudioClip, ManifestEntry, load_manifest, load_wav, resample, save_manifest, write_wav
from .biomarkers import CRY_FEATURE_NAMES, UnitFlags, aggregate_biomarkers, unit_biomarker_flags
from .config import PipelineConfig, load_config, save_config
from .pipeline import (
    FEATURE_COLUMNS,
    CurationError,
    FeatureTable,
    extract_clip,
    extract_manifest,
    read_features_csv,
    segment_clip,
    to_feature_matrix,
    write_features_csv,
)
from .segmenter import CrySegmentation, detect_cry_units
from .synthcry import (
    ClassProfile,
    GroundTruth,
    SynthSpec,
    UnitSpec,
    make_corpus,
    random_recording_spec,
    synth_cry,
)
from .voicefeat import VOICE_FEATURE_NAMES, compute_generic_features

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "CRY_FEATURE_NAMES",
    "ClassProfile",
    "CrySegmentation",
    "CurationError",
    "FEATURE_COLUMNS",
    "FeatureMatrix",
    "FeatureTable",
    "GroundTruth",
    "ManifestEntry",
    "PipelineConfig",
    "RocCurve",
    "ScreeningModel",
    "SynthSpec",
    "UnitFlags",
    "UnitSpec",
    "VOICE_FEATURE_NAMES",
    "aggregate_biomarkers",
    "compute_generic_features",
    "cross_validate",
    "detect_cry_units",
    "extract_clip",
    "extract_manifest",
    "load_config",
    "load_manifest",
    "load_wav",
    "make_corpus",
    "random_recording_spec",
    "read_features_csv",
    "resample",
    "roc_auc",
    "save_config",
    "save_manifest",
    "segment_clip",
    "select_consistent_features",
    "sensitivity_at_specificity",
    "synth_cry",
    "to_feature_matrix",
    "train_logreg",
    "unit_biomarker_flags",
    "write_features_csv",
    "write_wav",
    "__version__",
]
