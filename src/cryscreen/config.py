"""Pipeline configuration.

All tunables in one flat dataclass, loadable from a plain ``key=value``
text file. This is the only place their defaults live: the dsp kernels
read the sample rate, frame grid, Mel bands, pitch range and voicing
threshold from the PipelineConfig they are passed, the segmenter and the
biomarker detectors their thresholds, and the command line the
cross-validation folds, penalty grid and selection sites. Unknown keys
are rejected so a typo cannot silently fall back to a default, and
values that no run can use (a NaN or infinite float, one outside the
bounds its field declares, or one that no analysis grid, Mel filterbank,
0-500 Hz slope band, LPC fit or pitch range fits) are rejected by name.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .dsp import (
    FRONT_END_MFCC_COEFFS,
    FRONT_END_SLOPE_BAND_HZ,
    check_lpc_order,
    check_mel_bands,
    check_mfcc_coeffs,
    f0_lag_range,
    slope_band_bins,
)


def check_bounds(name: str, value, bounds: Mapping[str, float]) -> None:
    """Raise ValueError naming `name` unless value, or each item of a tuple,
    is finite and keeps each rule of bounds ("at_least", "above" or
    "at_most", mapped to its number), as a field's metadata declares them."""
    for v in value if isinstance(value, tuple) else (value,):
        # inf overflows the grid's whole samples, and NaN fails every
        # threshold it is compared with
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name}={v!r} is not a finite number")
        for rule, bound in bounds.items():
            if not {"at_least": v >= bound, "above": v > bound, "at_most": v <= bound}[rule]:
                raise ValueError(f"{name}={v!r} must be {rule.replace('_', ' ')} {bound:g}")


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate: int = field(default=16000, metadata={"above": 0})
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
        for f in fields(self):
            check_bounds(f.name, getattr(self, f.name), f.metadata)
        for key in ("window_s", "hop_s"):
            # dsp.make_grid rounds to whole samples, and round(x) >= 1
            # exactly when x > 0.5
            if not getattr(self, key) * self.sample_rate > 0.5:
                raise ValueError(
                    f"{key}={getattr(self, key)!r} is under one sample at sample_rate={self.sample_rate}"
                )
        # the analysis front end would reject these for every recording
        win = int(round(self.window_s * self.sample_rate))
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


_PARSERS = {
    "int": int,
    "float": float,
    "tuple[float, ...]": lambda v: tuple(float(p.strip()) for p in v.split(",") if p.strip()),
    "tuple[str, ...]": lambda v: tuple(p.strip() for p in v.split(",") if p.strip()),
}
_FIELD_PARSER = {f.name: _PARSERS[f.type] for f in fields(PipelineConfig)}


def load_config(path: str) -> PipelineConfig:
    """Read a flat UTF-8 key=value file; blank lines and # comments allowed.

    Tuple-valued keys take comma-separated items. A leading byte order
    mark is read past.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    overrides: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSER:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _FIELD_PARSER[key](value)
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
            if isinstance(value, tuple):
                fh.write(f"{f.name}={','.join(repr(v) if isinstance(v, float) else str(v) for v in value)}\n")
            else:
                fh.write(f"{f.name}={value!r}\n")
