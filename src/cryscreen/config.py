"""Pipeline configuration.

All tunables in one flat dataclass, loadable from a plain ``key=value``
text file. This is the only place their defaults live: the dsp kernels
read the sample rate, frame grid, Mel bands, pitch range and voicing
threshold from the PipelineConfig they are passed, the segmenter and the
biomarker detectors their thresholds, and the command line the
cross-validation folds, penalty grid and selection sites. Unknown keys
are rejected so a typo cannot silently fall back to a default, and
values that no run can use (a NaN or infinite float, or one that no
analysis grid, Mel filterbank, 0-500 Hz slope band, LPC fit, pitch range,
cry minimum or cross-validation fits) are rejected by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dsp import (
    FRONT_END_MFCC_COEFFS,
    FRONT_END_SLOPE_BAND_HZ,
    check_lpc_order,
    check_mel_bands,
    check_mfcc_coeffs,
    f0_lag_range,
    slope_band_bins,
)


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate: int = 16000
    window_s: float = 0.025
    hop_s: float = 0.010
    num_mel_bands: int = 80
    # newborn cry F0 stays in the hundreds of Hz; a floor of 250 keeps the
    # subharmonic lags that noise favors out of the search range entirely
    f0_min_hz: float = 250.0
    f0_max_hz: float = 1600.0
    voicing_threshold: float = 0.5
    active_fraction: float = 0.5
    voicing_halfwidth_frames: int = 3
    min_unit_s: float = 0.2
    min_pause_s: float = 0.05
    min_total_cry_s: float = 3.0
    hyperphonation_f0_hz: float = 1000.0
    dysphonation_flatness: float = 0.30
    glide_delta_hz: float = 600.0
    glide_max_span_s: float = 0.1
    vibrato_prominence_hz: float = 40.0
    vibrato_min_extrema: int = 4
    vibrato_max_spacing_s: float = 0.1
    hyperphonation_min_run_s: float = 0.1
    dysphonation_min_run_s: float = 0.1
    melody_flat_ratio: float = 0.15
    cv_folds: int = 10
    reg_grid: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    selection_sites: tuple[str, ...] = ("ESUTH", "LASUTH", "SCDM")

    def __post_init__(self) -> None:
        # inf overflows the grid's whole samples, and NaN fails every
        # threshold it is compared with
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}={getattr(self, f.name)!r} is not a finite number")
        for key in ("sample_rate", "num_mel_bands"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
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
        # the curation rule is the only cry minimum: under 0.5 s the spliced
        # cry is too short for stable voice functionals, and at 0 a
        # recording with no cry unit would pass it
        if not self.min_total_cry_s >= 0.5:
            raise ValueError(f"min_total_cry_s={self.min_total_cry_s!r} must be at least 0.5")
        # a YIN confidence lies in [0, 1]; a threshold above 1 voices no frame
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError(f"voicing_threshold={self.voicing_threshold!r} must lie within [0, 1]")
        if not self.cv_folds >= 2:
            raise ValueError(f"cv_folds={self.cv_folds!r}: cross-validation needs at least 2 folds")
        if not self.reg_grid:
            raise ValueError("reg_grid is empty: cross-validation needs at least one penalty strength")
        for strength in self.reg_grid:
            if not 0.0 < strength < math.inf:
                raise ValueError(f"reg_grid holds {strength!r}: a penalty strength must be positive and finite")


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
