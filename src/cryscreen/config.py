"""Pipeline configuration.

All tunables in one flat dataclass, loadable from a plain ``key=value``
text file. This is the only place their defaults live: the dsp kernels
read the sample rate, frame grid, Mel bands, pitch range and voicing
threshold from the PipelineConfig they are passed, the segmenter and the
biomarker detectors their thresholds, and the command line the
cross-validation folds, penalty grid and selection sites. Unknown and
repeated keys are rejected so a typo cannot silently fall back to a
default, and values that no run can use (one not of its field's type or
bounds, or one that no analysis grid, Mel filterbank, 0-500 Hz slope
band, LPC fit or pitch range fits) are rejected by name, in code too.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

from .audio_io import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE
from .dsp import (
    FRONT_END_MFCC_COEFFS,
    FRONT_END_SLOPE_BAND_HZ,
    check_lpc_order,
    check_mel_bands,
    check_mfcc_coeffs,
    f0_lag_range,
    slope_band_bins,
    whole_samples,
)


@functools.cache
def field_kinds(cls) -> dict:
    """(field, container, kind) by name, per field of the dataclass cls:
    container is tuple, dict or None, and kind the type of a tuple's items, a
    dict's values or the field; the one reading of a record's declared types,
    cached, as resolving costs more than building a record."""
    hints = get_type_hints(cls)
    return {f.name: (f, get_origin(t := hints[f.name]), (get_args(t) or (t,))[get_origin(t) is dict])
            for f in fields(cls)}


def check_fields(record) -> None:
    """Raise ValueError naming the field unless each field of the dataclass
    record, or each item or value of its tuple or dict, is of its declared
    type and keeps the bounds its metadata sets ("at_least", "above" or
    "at_most"). Numbers are finite ints or floats; an int field's fit int64."""
    for f, container, kind in field_kinds(type(record)).values():
        name, value = f.name, getattr(record, f.name)
        if container and not isinstance(value, container):
            raise ValueError(f"{name} must be a {container.__name__}, not {value!r}")
        items = ([(f"{name}[{k!r}]", v) for k, v in value.items()] if container is dict
                 else [(name, v) for v in value] if container else [(name, value)])
        number = kind in (int, float)
        for label, v in items:
            # bool is an int to isinstance, and numpy's float64 a float
            if not (type(v) in (int, float) if number else isinstance(v, kind)):
                raise ValueError(f"{label} must be a {'number' if number else kind.__name__}, not {v!r}")
            if not number:
                continue
            # inf overflows the grid's whole samples, NaN fails every
            # threshold it is compared with, and no float holds a larger int
            if not abs(v) <= sys.float_info.max:
                raise ValueError(f"{label}={v!r} is not a finite number" if type(v) is float else
                                 f"{label} is an integer too large to be a finite number")
            if kind is int and type(v) is not int:
                raise ValueError(f"{name}={value!r} must be whole")
            # a saved config writes the int and reads back its float
            if kind is float and type(v) is int and float(v) != v:
                raise ValueError(f"{label}={v!r} is an integer that no float holds exactly")
            if kind is int and not -(2**63) <= v < 2**63:
                raise ValueError(f"{label}={v!r} does not fit numpy's int64")
            for rule, bound in f.metadata.items():
                if not {"at_least": v >= bound, "above": v > bound, "at_most": v <= bound}[rule]:
                    raise ValueError(f"{label}={v!r} must be {rule.replace('_', ' ')} {bound:g}")


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate: int = field(default=16000, metadata={"at_least": MIN_SAMPLE_RATE, "at_most": MAX_SAMPLE_RATE})
    window_s: float = 0.025
    hop_s: float = 0.010
    num_mel_bands: int = field(default=80, metadata={"above": 0})
    # newborn cry F0 stays in the hundreds of Hz; a floor of 250 keeps the
    # subharmonic lags that noise favors out of the search range entirely
    f0_min_hz: float = 250.0
    f0_max_hz: float = 1600.0
    # a YIN confidence lies in [0, 1], and the activation level sits this
    # fraction of the way up the loudness span
    voicing_threshold: float = field(default=0.5, metadata={"at_least": 0.0, "at_most": 1.0})
    active_fraction: float = field(default=0.5, metadata={"at_least": 0.0, "at_most": 1.0})
    # here and below, a frame count, duration or ratio under 0 means nothing
    voicing_halfwidth_frames: int = field(default=3, metadata={"at_least": 0})
    min_unit_s: float = field(default=0.2, metadata={"at_least": 0.0})
    min_pause_s: float = field(default=0.05, metadata={"at_least": 0.0})
    # under 0.5 s a spliced cry is too short for stable voice functionals
    min_total_cry_s: float = field(default=3.0, metadata={"at_least": 0.5})
    # a pitch, pitch jump or prominence of 0 would pass every frame
    hyperphonation_f0_hz: float = field(default=1000.0, metadata={"above": 0.0})
    # a spectral flatness lies in [0, 1]
    dysphonation_flatness: float = field(default=0.30, metadata={"at_least": 0.0, "at_most": 1.0})
    glide_delta_hz: float = field(default=600.0, metadata={"above": 0.0})
    glide_max_span_s: float = field(default=0.1, metadata={"at_least": 0.0})
    vibrato_prominence_hz: float = field(default=40.0, metadata={"above": 0.0})
    # at 0 a unit with no pitch extremum would be a vibrato
    vibrato_min_extrema: int = field(default=4, metadata={"at_least": 1})
    vibrato_max_spacing_s: float = field(default=0.1, metadata={"at_least": 0.0})
    hyperphonation_min_run_s: float = field(default=0.1, metadata={"at_least": 0.0})
    dysphonation_min_run_s: float = field(default=0.1, metadata={"at_least": 0.0})
    melody_flat_ratio: float = field(default=0.15, metadata={"at_least": 0.0})
    # cross-validation needs two folds and penalty strengths above 0
    cv_folds: int = field(default=10, metadata={"at_least": 2})
    reg_grid: tuple[float, ...] = field(default=(0.1, 1.0, 10.0, 100.0), metadata={"above": 0.0})
    selection_sites: tuple[str, ...] = ("ESUTH", "LASUTH", "SCDM")

    def __post_init__(self) -> None:
        check_fields(self)
        # dsp.make_grid frames on these whole samples
        win = self._whole_samples("window_s")
        self._whole_samples("hop_s")
        # the analysis front end would reject these for every recording
        try:
            check_mel_bands(self.num_mel_bands, win)
            check_mfcc_coeffs(FRONT_END_MFCC_COEFFS, self.num_mel_bands)
        except ValueError as exc:
            raise ValueError(f"num_mel_bands={self.num_mel_bands!r}: {exc}") from None
        try:
            slope_band_bins(*FRONT_END_SLOPE_BAND_HZ, win, self.sample_rate)
            check_lpc_order(win)
        except ValueError as exc:
            raise ValueError(f"window_s={self.window_s!r}: {exc}") from None
        try:
            f0_lag_range(self.sample_rate, self.f0_min_hz, self.f0_max_hz, win)
        except ValueError as exc:
            raise ValueError(f"f0_min_hz={self.f0_min_hz!r}, f0_max_hz={self.f0_max_hz!r}: {exc}") from None
        if not self.reg_grid:
            raise ValueError("reg_grid is empty: cross-validation needs at least one penalty strength")
        for i, lam in enumerate(self.reg_grid):
            if lam in self.reg_grid[:i]:
                raise ValueError(f"reg_grid={lam!r} is listed twice: cross-validation scores each penalty "
                                 "strength once")
        for site in self.selection_sites:
            # load_config ends a line at #, splits it at commas and strips each item
            if not site or site != site.strip() or set(site) & set(",#\r\n"):
                raise ValueError(f"selection_sites item {site!r} must be non-empty, hold no comma, # or line "
                                 "break, and not start or end with white space")

    def _whole_samples(self, key: str) -> int:
        try:
            return whole_samples(getattr(self, key), self.sample_rate)
        except ValueError as exc:
            # whole_samples' message starts with the value's repr
            raise ValueError(f"{key}={exc}") from None


def load_config(path: str) -> PipelineConfig:
    """Read a flat UTF-8 key=value file; blank lines and # comments allowed.

    Tuple-valued keys take comma-separated items, and a key may be set
    once. A leading byte order mark is read past.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    kinds = field_kinds(PipelineConfig)
    overrides: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ValueError(f"{path}:{lineno}: {key} is set again")
        _, container, kind = kinds[key]
        try:
            overrides[key] = tuple(kind(p.strip()) for p in value.split(",") if p.strip()) if container else kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    try:
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(config: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(PipelineConfig):
            value = getattr(config, f.name)
            # a number's str is its repr, and check_fields keeps numpy's out
            fh.write(f"{f.name}={','.join(map(str, value)) if isinstance(value, tuple) else value}\n")
