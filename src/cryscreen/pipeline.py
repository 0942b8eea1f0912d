"""Recording-level feature extraction and tabular feature I/O.

One recording goes in as audio and comes out as a fixed 38-value row:
26 cry biomarker summaries plus 12 generic voice functionals. Recordings
whose detected cry mass is too small for stable summaries are not
extracted; manifest-level extraction collects them separately with a
reason instead of failing the whole run.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import astuple, dataclass

import numpy as np

from . import biomarkers, dsp
from .analytics import FeatureMatrix
from .audio_io import (
    LABELS,
    MANIFEST_COLUMNS,
    PERIODS,
    AudioClip,
    ManifestEntry,
    check_label_and_period,
    load_manifest,
    load_wav,
    read_csv_rows,
    relative_to_manifest,
    resample,
    write_csv_rows,
)
from .biomarkers import CRY_FEATURE_NAMES, aggregate_biomarkers, unit_biomarker_flags
from .config import PipelineConfig
from .segmenter import CrySegmentation, detect_cry_units, meets_curation_rule, pitch_frames
from .voicefeat import VOICE_FEATURE_NAMES, compute_generic_features, concat_expirations

FEATURE_COLUMNS = CRY_FEATURE_NAMES + VOICE_FEATURE_NAMES
ID_COLUMNS = MANIFEST_COLUMNS


class CurationError(ValueError):
    """Total detected cry in the recording is under the usable minimum; the text is its skip reason."""

    def __init__(self, total_cry_seconds: float, minimum_s: float):
        super().__init__(f"below {minimum_s:g}s cry")
        self.total_cry_seconds = total_cry_seconds


@dataclass
class FrontEnd:
    """Per-frame descriptors of one recording, computed once on one grid.

    clip is the recording the grid frames, at config.sample_rate. The
    arrays hold one value or row per frame of f0.grid. Segmentation
    reads f0 and loudness, the biomarker pass f0 and flatness, and the
    voice functionals the voicing, loudness, the 0-500 Hz spectral slope
    and MFCC 2, 3 and 4 (the three columns of mfcc2_4) at the unit frames. Pitch is tracked only on the frames of segmenter.pitch_frames,
    the ones near a frame loud enough to hold a cry unit; every other frame
    is unvoiced with f0 and confidence 0, which changes neither the units
    nor anything read from them. analyze_frames builds it in the memory of
    the clip plus one block of dsp.FRAME_BLOCK frames, and the arrays it
    keeps take a few numbers per frame.
    """

    clip: AudioClip
    f0: dsp.F0Contour
    loudness: np.ndarray
    flatness: np.ndarray
    slope0_500: np.ndarray
    mfcc2_4: np.ndarray


def analyze_frames(clip: AudioClip, config: PipelineConfig) -> FrontEnd:
    """The one analysis front end of a recording already at config.sample_rate.

    The spectral descriptors come from dsp.stft and dsp.log_mel over
    sub-clips holding the frames of each dsp.frame_blocks block, reduced
    block by block into arrays on the recording's one grid; then pitch is tracked once, on the
    frames that loudness leaves within reach of a cry unit. So the memory
    a recording needs is its clip plus one block, whatever its length.
    """
    grid = dsp.make_grid(len(clip.samples), clip.sample_rate, config.window_s, config.hop_s)
    hop, win = grid.hop_samples, grid.window_samples
    loud = np.empty(grid.num_frames)
    flatness = np.empty(grid.num_frames)
    slope = np.empty(grid.num_frames)
    mfcc2_4 = np.empty((grid.num_frames, 3))
    for start, stop in dsp.frame_blocks(grid.num_frames):
        # the sub-clip's frames are the clip's frames start..stop-1
        part = AudioClip(clip.samples[start * hop : (stop - 1) * hop + win], clip.sample_rate)
        spec = dsp.stft(part, config)
        logmel = dsp.log_mel(spec, config)
        loud[start:stop] = dsp.loudness(logmel)
        flatness[start:stop] = dsp.spectral_flatness(spec)
        slope[start:stop] = dsp.spectral_slope_band(spec, *dsp.FRONT_END_SLOPE_BAND_HZ)
        mfcc2_4[start:stop] = dsp.mfcc(logmel, dsp.FRONT_END_MFCC_COEFFS)[:, 1:4]
    # the last block's planes need not be alive beside the pitch tracker
    del spec, logmel
    f0 = dsp.estimate_f0(clip, config, frames=pitch_frames(loud, grid, config))
    return FrontEnd(clip=clip, f0=f0, loudness=loud, flatness=flatness, slope0_500=slope, mfcc2_4=mfcc2_4)


def segment_clip(clip: AudioClip, config: PipelineConfig = PipelineConfig()) -> tuple[CrySegmentation, FrontEnd]:
    """Cry units and front end of a clip: the one way a clip enters the analysis.

    Raises ValueError when the clip holds NaN or inf samples: they would
    poison every statistic of the segmentation, which would then report
    the recording as holding no cry. Otherwise the clip is resampled to
    config.sample_rate, and front.clip holds the result.
    """
    if not np.isfinite(clip.samples).all():
        bad = int(np.count_nonzero(~np.isfinite(clip.samples)))
        raise ValueError(f"recording holds {bad} non-finite samples (NaN or inf)")
    # rebound, so that a source at another rate is freed before the analysis
    clip = resample(clip, config.sample_rate)
    front = analyze_frames(clip, config)
    return detect_cry_units(front.f0, front.loudness, config), front


def extract_clip(clip: AudioClip, config: PipelineConfig = PipelineConfig()) -> tuple[dict[str, float], CrySegmentation]:
    """Full per-recording feature vector, or CurationError when unusable.

    segment_clip's ValueError for NaN or inf samples passes through.
    """
    # the clip is handed on, not kept here, so segment_clip can free a
    # source at another rate (a 44.1 kHz one outweighs the whole analysis)
    held = [clip]
    del clip
    seg, front = segment_clip(held.pop(), config)
    if not meets_curation_rule(seg, config):
        raise CurationError(seg.total_cry_seconds, config.min_total_cry_s)

    smoothed = biomarkers.smooth_f0(front.f0.f0_hz, front.f0.voiced)
    flags = [unit_biomarker_flags(front.f0, front.flatness, unit, smoothed, config) for unit in seg.expirations]
    features = aggregate_biomarkers(seg, flags)
    features.update(compute_generic_features(front, seg, concat_expirations(front.clip, seg), config))
    return {name: features[name] for name in FEATURE_COLUMNS}, seg


@dataclass
class FeatureRow:
    entry: ManifestEntry
    features: dict[str, float]


@dataclass
class SkippedRecording:
    entry: ManifestEntry
    reason: str


@dataclass
class ExtractionResult:
    rows: list[FeatureRow]
    skipped: list[SkippedRecording]


@dataclass
class FeatureTable:
    """Feature rows in columns: the IDs and one row of X per recording.

    ids maps each of ID_COLUMNS, in order, to an object array of str and X
    is an (n, 38) float64 array in FEATURE_COLUMNS order, row for row.
    """

    ids: dict[str, np.ndarray]
    X: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[FeatureRow]) -> "FeatureTable":
        X = np.array([[row.features[name] for name in FEATURE_COLUMNS] for row in rows], dtype=np.float64)
        return cls(_id_columns([astuple(row.entry) for row in rows]), X.reshape(len(rows), len(FEATURE_COLUMNS)))


def _id_columns(records: list) -> dict[str, np.ndarray]:
    """One object array per ID column of records, each record the five ID fields in ID_COLUMNS order."""
    return {name: np.array([rec[i] for rec in records], dtype=object) for i, name in enumerate(ID_COLUMNS)}


def extract_manifest(manifest_path: str, config: PipelineConfig = PipelineConfig(), log=None) -> ExtractionResult:
    """Extract every recording in a manifest.

    Curation failures and per-file read errors are collected with a
    reason rather than aborting the run; a bad file must not cost the
    features of the good ones.
    """
    rows: list[FeatureRow] = []
    skipped: list[SkippedRecording] = []
    for entry in load_manifest(manifest_path):
        try:
            path = relative_to_manifest(manifest_path, entry.path)
            features, _ = extract_clip(load_wav(path, config.sample_rate), config)
        except (OSError, ValueError) as exc:
            skipped.append(SkippedRecording(entry, str(exc)))
            if log is not None:
                log(f"skip {entry.path}: {exc}")
            continue
        rows.append(FeatureRow(entry, features))
        if log is not None:
            log(f"ok   {entry.path}")
    return ExtractionResult(rows, skipped)


def write_features_csv(rows: list[FeatureRow], path: str) -> None:
    # repr keeps the shortest round-trippable decimal form, so rewriting
    # the same rows yields byte-identical files
    write_csv_rows(
        path,
        ID_COLUMNS + FEATURE_COLUMNS,
        ([*astuple(row.entry), *(repr(float(row.features[name])) for name in FEATURE_COLUMNS)] for row in rows),
    )


# one record of a features CSV: the five ID fields as str, then the values
_RECORD = np.dtype([(name, object) for name in ID_COLUMNS] + [("values", np.float64, (len(FEATURE_COLUMNS),))])


def read_features_csv(path: str) -> FeatureTable:
    """The table of a features CSV as write_features_csv writes it.

    The rows follow audio_io.read_csv_rows. Raises ValueError naming the
    file and line of an unknown label or period, and of a feature value
    that float() does not read, which it also names by column.

    The file is parsed in C, by np.loadtxt, into one array. A file that
    parse declines (a faulty one, or one it might read otherwise than csv
    and float() do) is read row by row, which gives the same table or
    names the fault.
    """
    table = _parse_in_c(path)
    return table if table is not None else _read_row_by_row(path)


def _lines_read_as_csv(lines, limit: int):
    """The lines, up to the first that np.loadtxt may read otherwise than csv and float().

    That line raises ValueError. It is blank, which loadtxt skips and csv
    reads as a row of 0 fields; or it ends more than limit characters
    after the last comma, so may hold a field too long for csv, quoted
    line ends and all; or it holds a NUL, which Python 3.10's csv rejects,
    or an ASCII separator (0x1c-0x1f), which loadtxt strips from a value
    as white space and float() does not. Each may also stand in a quoted
    field of a good file, which is then read row by row.
    """
    run = 0  # characters since the last comma
    for line in lines:
        run += len(line)
        if run > limit or line in ("\n", "\r\n", "\r"):
            raise ValueError("a blank line, or one that may hold a field too long for csv")
        if "\0" in line or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("a NUL or an ASCII separator")
        if "," in line:
            run = len(line) - line.rindex(",") - 1
        yield line


def _parse_in_c(path: str) -> FeatureTable | None:
    """The table that _read_row_by_row reads, in one pass, or None for a file this parse declines."""
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if next(csv.reader(fh), None) != ID_COLUMNS + FEATURE_COLUMNS:
                return None
            lines = _lines_read_as_csv(fh, limit)
            first = next(lines, None)
            if first is None:  # loadtxt warns on empty input
                return FeatureTable(_id_columns([]), np.empty((0, len(FEATURE_COLUMNS))))
            # a record of the wrong width is an error here, since _RECORD
            # takes every column
            rec = np.loadtxt(
                itertools.chain([first], lines),
                dtype=_RECORD,
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=1,
            )
    except (ValueError, csv.Error):
        return None
    # copies, so that the record array is freed
    ids = {name: rec[name].copy() for name in ID_COLUMNS}
    if not (set(ids["label"]) <= LABELS and set(ids["period"]) <= PERIODS):
        return None
    if max(map(len, itertools.chain.from_iterable(ids.values()))) > limit:
        return None
    return FeatureTable(ids, np.ascontiguousarray(rec["values"]))


def _read_row_by_row(path: str) -> FeatureTable:
    """csv rows and a float() of each value: the reference reader, which names a fault's line."""
    ids, values = [], []
    for line, rec in read_csv_rows(path, ID_COLUMNS + FEATURE_COLUMNS):
        *_, period, label = rec[:5]
        check_label_and_period(label, period, path, line)
        try:
            values.append(list(map(float, rec[5:])))
        except ValueError:
            # only a failing row pays for finding the column
            for name, v in zip(FEATURE_COLUMNS, rec[5:]):
                try:
                    float(v)
                except ValueError:
                    raise ValueError(f"{path}:{line}: {name}: {v!r} is not a number") from None
        ids.append(rec[:5])
    return FeatureTable(_id_columns(ids), np.array(values, dtype=np.float64).reshape(len(values), len(FEATURE_COLUMNS)))


def write_skipped_csv(skipped: list[SkippedRecording], path: str) -> None:
    write_csv_rows(path, ["path", "reason"], ([s.entry.path, s.reason] for s in skipped))


def to_feature_matrix(table: FeatureTable) -> FeatureMatrix:
    """The labeled rows of a table, with every column.

    Unlabeled rows are left out, a normal row is labeled 0 and any other
    grade 1; sites, patient_ids and paths are the ID columns at those rows.
    Raises ValueError when no row is labeled, and when a value of a labeled
    row is NaN or inf, naming the recording's path and the feature.
    FeatureMatrix.subset_features picks columns.
    """
    ids = table.ids
    keep = ids["label"] != "unlabeled"
    if not keep.any():
        raise ValueError("no labeled rows to build a feature matrix from")
    X = table.X[keep]
    paths = ids["path"][keep]
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{paths[row]}: feature {FEATURE_COLUMNS[col]} is {X[row, col]}, not a finite number")
    labels = (ids["label"][keep] != "normal").astype(np.int64)
    return FeatureMatrix(list(FEATURE_COLUMNS), X, labels, ids["site"][keep], ids["patient_id"][keep], paths)


def load_split(path: str) -> dict[str, str]:
    """path -> train|val|test assignments from a read_csv_rows table with header path,split.

    Raises ValueError naming the file and line of any other split, and of
    a path listed twice: one recording must not land in two splits.
    """
    out: dict[str, str] = {}
    for line, rec in read_csv_rows(path, ["path", "split"]):
        if rec[1] not in ("train", "val", "test"):
            raise ValueError(f"{path}:{line}: bad split row {rec!r}")
        if rec[0] in out:
            raise ValueError(f"{path}:{line}: {rec[0]} is listed again")
        out[rec[0]] = rec[1]
    return out
