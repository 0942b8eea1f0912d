"""Synthetic cry generator with exact ground truth.

Builds cry-like recordings out of a five-harmonic stack that follows a
planted F0 trajectory, with silence (at a faint noise floor) between
units. Biomarker events are planted explicitly: a high plateau for
hyperphonation, a fast pitch blip for a glide, sinusoidal modulation for
vibrato, and in-band noise for dysphonation. Because the trajectory and
event intervals are known, every detector and the whole aggregation
pipeline can be verified against an exact expected answer.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .audio_io import SITES, AudioClip, ManifestEntry, save_manifest, write_wav
from .biomarkers import BIOMARKERS, MELODY_TYPES, UnitFlags, classify_melody, smooth_f0
from .config import PipelineConfig, check_fields, field_kinds
from .dsp import F0Contour, frames_within, hops_within, make_grid
from .segmenter import CrySegmentation

EVENTS = ("none", *BIOMARKERS)

# the analysis settings of a default run, which the planted truth assumes:
# its frame grid, its detector thresholds and its sample rate
ANALYSIS = PipelineConfig()

# melody contour families, as (relative position, factor on base f0) knots
_MELODY_KNOTS = {
    "flat": ([0.0, 1.0], [1.0, 1.0]),
    "rising": ([0.0, 1.0], [0.95, 1.35]),
    "falling": ([0.0, 1.0], [1.35, 0.95]),
    "rising_falling": ([0.0, 0.45, 1.0], [0.95, 1.40, 0.90]),
    # the early bump must clearly top the late recovery, and the sampled
    # endpoints must order robustly, or frame-rounding flips the label
    "falling_rising": ([0.0, 0.05, 0.12, 0.5, 1.0], [1.26, 1.26, 1.42, 0.88, 1.38]),
}

_HYPER_RAMP_S = 0.18
_GLIDE_RISE_S = 0.055
_GLIDE_HOLD_S = 0.05
_GLIDE_DELTA_HZ = 650.0
_VIBRATO_TAPER_S = 0.05
_VIBRATO_RATE_HZ = 8.0
_VIBRATO_DEPTH_HZ = 80.0
_NUM_HARMONICS = 5
_EDGE_RAMP_S = 0.015
_DYS_TIMBRE_RAMP_S = 0.02
_DYS_MAX_HARMONIC_HZ = 7400.0


@dataclass
class UnitSpec:
    """One planted expiration."""

    duration_s: float
    pause_after_s: float
    base_f0_hz: float = 450.0
    melody: str = "flat"
    event: str = "none"
    event_start_s: float = 0.0
    event_duration_s: float = 0.0
    hyper_f0_hz: float = 1200.0
    dysphonation_snr_db: float = 2.0


@dataclass
class SynthSpec:
    """A full planted recording."""

    units: list[UnitSpec]
    sample_rate: int = 16000
    lead_silence_s: float = 0.5
    tail_silence_s: float = 0.5
    noise_floor_db: float = -60.0
    amplitude: float = 0.4
    seed: int = 0


@dataclass
class GroundTruth:
    """Planted truth for one synthetic recording."""

    segmentation: CrySegmentation
    unit_flags: list[UnitFlags]
    planted_melody: list[str]
    events: list[str]
    expected_vector: dict[str, float]

    def to_json_dict(self) -> dict:
        units = [
            {"onset": on, "offset": off, **asdict(f), "planted_melody": planted, "event": ev}
            for (on, off), f, planted, ev in zip(
                self.segmentation.expirations, self.unit_flags, self.planted_melody, self.events
            )
        ]
        return {"units": units, "expected": dict(self.expected_vector)}

    @staticmethod
    def from_json_dict(d: dict) -> "GroundTruth":
        seg = CrySegmentation([(u["onset"], u["offset"]) for u in d["units"]])
        flags = [UnitFlags(**{f.name: u[f.name] for f in fields(UnitFlags)}) for u in d["units"]]
        return GroundTruth(
            seg,
            flags,
            [u["planted_melody"] for u in d["units"]],
            [u["event"] for u in d["units"]],
            dict(d["expected"]),
        )


def unit_f0_at(unit: UnitSpec, t_rel: np.ndarray) -> np.ndarray:
    """Planted F0 of one unit at times t_rel seconds after its onset."""
    u = np.clip(np.asarray(t_rel, dtype=np.float64) / unit.duration_s, 0.0, 1.0)
    knots_u, knots_f = _MELODY_KNOTS[unit.melody]
    f0 = unit.base_f0_hz * np.interp(u, knots_u, knots_f)

    a, dur = unit.event_start_s, unit.event_duration_s
    if unit.event == "hyperphonation":
        w = _trapezoid_weight(t_rel, a, a + dur, _HYPER_RAMP_S)
        f0 = (1.0 - w) * f0 + w * unit.hyper_f0_hz
    elif unit.event == "glide":
        w = _trapezoid_weight(t_rel, a, a + _GLIDE_HOLD_S, _GLIDE_RISE_S)
        f0 = f0 + w * _GLIDE_DELTA_HZ
    elif unit.event == "vibrato":
        w = _trapezoid_weight(t_rel, a + _VIBRATO_TAPER_S, a + dur - _VIBRATO_TAPER_S, _VIBRATO_TAPER_S)
        # cosine phased to crest at the event midpoint, with the depth
        # raised there: one crest clearly tops the rest, so the shape label
        # never hinges on a jitter-broken tie between equal wobble peaks
        mid = a + dur / 2.0
        bump = 0.7 + 0.6 * np.sin(np.pi * np.clip((t_rel - a) / max(dur, 1e-9), 0.0, 1.0))
        f0 = f0 + w * bump * _VIBRATO_DEPTH_HZ * np.cos(2.0 * np.pi * _VIBRATO_RATE_HZ * (t_rel - mid))
    return f0


def _trapezoid_weight(t: np.ndarray, hold_start: float, hold_end: float, ramp_s: float) -> np.ndarray:
    """0 outside [hold_start-ramp, hold_end+ramp], 1 on the hold, linear ramps."""
    up = (t - (hold_start - ramp_s)) / ramp_s
    down = ((hold_end + ramp_s) - t) / ramp_s
    return np.clip(np.minimum(up, down), 0.0, 1.0)


def synth_cry(spec: SynthSpec) -> tuple[AudioClip, GroundTruth]:
    """Render a planted recording and its exact ground truth."""
    sr = spec.sample_rate
    rng = np.random.default_rng(spec.seed)
    floor_rms = 10.0 ** (spec.noise_floor_db / 20.0)

    boundaries: list[tuple[int, int]] = []  # unit boundaries in samples
    pieces: list[np.ndarray] = []
    cursor = int(round(spec.lead_silence_s * sr))
    pieces.append(floor_rms * rng.standard_normal(cursor))
    for i, unit in enumerate(spec.units):
        n = int(round(unit.duration_s * sr))
        t_rel = (np.arange(n) + 0.5) / sr
        f0 = unit_f0_at(unit, t_rel)
        phase = 2.0 * np.pi * np.cumsum(f0) / sr

        if unit.event == "dysphonation":
            # harsh phonation: the comb flattens to equal-amplitude
            # harmonics over the planted interval (still periodic, so
            # voicing survives) while broadband noise is mixed in
            k_max = max(_NUM_HARMONICS, int(_DYS_MAX_HARMONIC_HZ / float(np.max(f0))))
            w = _trapezoid_weight(
                t_rel,
                unit.event_start_s,
                unit.event_start_s + unit.event_duration_s,
                _DYS_TIMBRE_RAMP_S,
            )
            eq_amp = 1.0 / np.sqrt(k_max)
            x = np.zeros(n)
            for k in range(1, k_max + 1):
                base_amp = 1.0 / k if k <= _NUM_HARMONICS else 0.0
                x += ((1.0 - w) * base_amp + w * eq_amp) * np.sin(k * phase)
            x = _add_dysphonation_noise(x, unit, sr, rng)
        else:
            x = np.zeros(n)
            for k in range(1, _NUM_HARMONICS + 1):
                x += np.sin(k * phase) / k
        x *= spec.amplitude / np.max(np.abs(x))

        ramp = min(int(_EDGE_RAMP_S * sr), n // 4)
        env = np.ones(n)
        env[:ramp] = np.linspace(0.0, 1.0, ramp)
        env[n - ramp :] = np.linspace(1.0, 0.0, ramp)
        pieces.append(x * env + floor_rms * rng.standard_normal(n))

        boundaries.append((cursor, cursor + n))
        cursor += n
        pause_n = int(round(unit.pause_after_s * sr)) if i < len(spec.units) - 1 else 0
        if pause_n:
            pieces.append(floor_rms * rng.standard_normal(pause_n))
            cursor += pause_n
    pieces.append(floor_rms * rng.standard_normal(int(round(spec.tail_silence_s * sr))))
    samples = np.concatenate(pieces)
    clip = AudioClip(samples, sr)

    truth = _ground_truth(spec, boundaries, len(samples))
    return clip, truth


def _add_dysphonation_noise(x: np.ndarray, unit: UnitSpec, sr: int, rng: np.random.Generator) -> np.ndarray:
    """Overlay broadband noise on the planted interval at the given SNR.

    The noise runs half an analysis window past each end of the interval
    so every frame whose center lies inside sees noise across its whole
    window. Full-band noise is required: flatness is taken over the whole
    spectrum, and band-limited noise would leave near-empty bins that
    crush the geometric mean.
    """
    pad = ANALYSIS.window_s / 2.0
    i0 = max(int(round((unit.event_start_s - pad) * sr)), 0)
    i1 = min(int(round((unit.event_start_s + unit.event_duration_s + pad) * sr)), len(x))
    if i1 <= i0:
        return x
    # The carrier morphs to an equal-amplitude harmonic stack over the same
    # interval, so each harmonic bin holds only a small slice of the carrier
    # power. Noise a couple of dB below the carrier then already dominates
    # the bins between harmonics, which is what lifts flatness past the
    # detector bar, while the periodic-to-total power ratio stays high
    # enough that every frame keeps reading as voiced.
    noise = rng.standard_normal(i1 - i0)
    carrier_rms = np.sqrt(np.mean(x[i0:i1] ** 2))
    target_rms = carrier_rms / (10.0 ** (unit.dysphonation_snr_db / 20.0))
    noise *= target_rms / max(np.sqrt(np.mean(noise**2)), 1e-12)
    fade = min(int(0.01 * sr), (i1 - i0) // 4)
    env = np.ones(i1 - i0)
    env[:fade] = np.linspace(0.0, 1.0, fade)
    env[len(env) - fade :] = np.linspace(1.0, 0.0, fade)
    out = x.copy()
    out[i0:i1] = x[i0:i1] + noise * env
    return out


def true_contour(spec: SynthSpec, boundaries: list[tuple[int, int]], n_samples: int) -> F0Contour:
    """The planted F0 sampled at analysis-frame centers, 0 between units."""
    sr = spec.sample_rate
    grid = make_grid(n_samples, sr, ANALYSIS.window_s, ANALYSIS.hop_s)
    centers = grid.frame_times() + grid.window_seconds / 2.0
    f0 = np.zeros(grid.num_frames)
    voiced = np.zeros(grid.num_frames, dtype=bool)
    for unit, (s0, s1) in zip(spec.units, boundaries):
        inside = (centers >= s0 / sr) & (centers < s1 / sr)
        f0[inside] = unit_f0_at(unit, centers[inside] - s0 / sr)
        voiced |= inside
    return F0Contour(f0, voiced, voiced.astype(np.float64), grid)


def _ground_truth(spec: SynthSpec, boundaries: list[tuple[int, int]], n_samples: int) -> GroundTruth:
    sr = spec.sample_rate
    seg = CrySegmentation([(s0 / sr, s1 / sr) for s0, s1 in boundaries])
    contour = true_contour(spec, boundaries, n_samples)
    smoothed = smooth_f0(contour.f0_hz, contour.voiced)
    grid = contour.grid
    hop = grid.hop_seconds
    hyper_run = frames_within(ANALYSIS.hyperphonation_min_run_s, hop)
    dys_run = frames_within(ANALYSIS.dysphonation_min_run_s, hop)
    max_k = hops_within(ANALYSIS.glide_max_span_s, hop)

    flags: list[UnitFlags] = []
    for unit, (on, off) in zip(spec.units, seg.expirations):
        sl = grid.frame_slice(on, off)
        n_frames = sl.stop - sl.start
        f0_u = contour.f0_hz[sl]
        voiced_u = contour.voiced[sl]

        hyper = _count_run_frames(voiced_u & (f0_u > ANALYSIS.hyperphonation_f0_hz), hyper_run)

        dys = 0
        if unit.event == "dysphonation":
            centers = (np.arange(sl.start, sl.stop) * hop) + grid.window_seconds / 2.0
            rel = centers - on
            in_noise = (rel >= unit.event_start_s) & (rel < unit.event_start_s + unit.event_duration_s)
            dys = _count_run_frames(in_noise, dys_run)

        glide = 0
        for t in range(n_frames):
            for k in range(1, min(max_k, n_frames - 1 - t) + 1):
                if voiced_u[t] and voiced_u[t + k] and abs(f0_u[t + k] - f0_u[t]) >= ANALYSIS.glide_delta_hz:
                    glide += 1
                    break

        flags.append(
            UnitFlags(
                num_frames=n_frames,
                hyperphonation_frames=hyper,
                dysphonation_frames=dys,
                glide_frames=glide,
                vibrato_present=unit.event == "vibrato",
                melody=classify_melody(smoothed[sl][voiced_u], ANALYSIS),
            )
        )

    expected = _expected_vector(seg, flags)
    return GroundTruth(seg, flags, [u.melody for u in spec.units], [u.event for u in spec.units], expected)


def _count_run_frames(mask: np.ndarray, min_run: int) -> int:
    count = run = 0
    for m in list(mask) + [False]:
        if m:
            run += 1
        else:
            if run >= min_run:
                count += run
            run = 0
    return count


def _expected_vector(seg: CrySegmentation, flags: list[UnitFlags]) -> dict[str, float]:
    """Definition-level recomputation of the 26-value biomarker summary."""
    unit_d = np.array([off - on for on, off in seg.expirations])
    pause_d = np.array([off - on for on, off in seg.pauses])
    out = {
        "cry_unit_dur_mean": float(np.mean(unit_d)),
        "cry_unit_dur_std": float(np.std(unit_d)),
        "cry_unit_dur_max": float(np.max(unit_d)),
        "cry_unit_dur_min": float(np.min(unit_d)),
        "pause_dur_mean": float(np.mean(pause_d)) if len(pause_d) else 0.0,
        "pause_dur_std": float(np.std(pause_d)) if len(pause_d) else 0.0,
        "pause_dur_max": float(np.max(pause_d)) if len(pause_d) else 0.0,
        "pause_dur_min": float(np.min(pause_d)) if len(pause_d) else 0.0,
    }
    n_units = len(flags)
    n_frames = sum(f.num_frames for f in flags)
    tallies = {
        "hyperphonation": [f.hyperphonation_frames for f in flags],
        "dysphonation": [f.dysphonation_frames for f in flags],
        "glide": [f.glide_frames for f in flags],
    }
    for name, counts in tallies.items():
        out[f"{name}_unit_frac"] = len([c for c in counts if c > 0]) / n_units
        out[f"{name}_dur_frac"] = sum(counts) / n_frames
    vib_units = [f for f in flags if f.vibrato_present]
    out["vibrato_unit_frac"] = len(vib_units) / n_units
    out["vibrato_dur_frac"] = sum(f.num_frames for f in vib_units) / n_frames
    for m in MELODY_TYPES:
        mine = [f for f in flags if f.melody == m]
        out[f"melody_{m}_unit_frac"] = len(mine) / n_units
        out[f"melody_{m}_dur_frac"] = sum(f.num_frames for f in mine) / n_frames
    return out


_EVENT_PROBS = tuple(f"p_{event}" for event in EVENTS[1:])


class _JsonRecord:
    """A dataclass read from a JSON object by its fields' declared types."""

    @classmethod
    def from_json_dict(cls, d: dict):
        """The record of a JSON object; keys it leaves out keep their defaults."""
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, not {d!r}")
        kinds = field_kinds(cls)
        unknown = sorted(set(d) - set(kinds))
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys {unknown}")
        return cls(**{k: _from_json(*kinds[k][1:], k, x) for k, x in d.items()})


def _from_json(container, kind, key: str, v):
    """The JSON value v as a value of a field of config.field_kinds' container
    and kind, refusing by name only a value that is not the list or object the
    field takes, or an unknown key; the record's check_fields holds the value
    to the rest of its field's rules."""
    if container is tuple:
        if not isinstance(v, list):
            raise ValueError(f"{key} must be a list, not {v!r}")
        return tuple(_from_json(None, kind, key, x) for x in v)
    if container is dict or is_dataclass(kind):
        if not isinstance(v, dict):
            raise ValueError(f"{key} must be a JSON object, not {v!r}")
        if container is dict:
            return {k: _from_json(None, kind, f"{key}[{k!r}]", x) for k, x in v.items()}
        try:
            return kind.from_json_dict(v)
        except ValueError as exc:
            # a fault inside a nested record names the key that holds it
            raise ValueError(f"{key}: {exc}") from None
    # type(True) is bool, not int; a fraction, inf or NaN stays a float
    if kind is int and type(v) is float and v % 1 == 0:
        return int(v)
    if kind is float and type(v) is int and abs(v) <= sys.float_info.max:
        return float(v)
    return v


@dataclass(frozen=True)
class ClassProfile(_JsonRecord):
    """Per-unit event and melody probabilities for one class."""

    p_hyperphonation: float = field(default=0.05, metadata={"at_least": 0.0})
    p_dysphonation: float = field(default=0.10, metadata={"at_least": 0.0})
    p_glide: float = field(default=0.10, metadata={"at_least": 0.0})
    p_vibrato: float = field(default=0.08, metadata={"at_least": 0.0})
    melody_probs: dict[str, float] = field(metadata={"at_least": 0.0}, default_factory=lambda: {
        "flat": 0.5, "falling": 0.16, "rising": 0.14, "rising_falling": 0.12, "falling_rising": 0.08})
    num_units_range: tuple[int, int] = field(default=(6, 9), metadata={"at_least": 1})
    # a unit is rendered with an edge ramp at each end
    unit_duration_range: tuple[float, float] = field(default=(0.55, 1.1), metadata={"at_least": 2 * _EDGE_RAMP_S})
    pause_range: tuple[float, float] = field(default=(0.25, 0.6), metadata={"at_least": 0.0})
    base_f0_range: tuple[float, float] = field(default=(380.0, 520.0), metadata={"above": 0.0})
    dysphonation_snr_db: float = 2.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name, value in vars(self).items():
            if isinstance(value, tuple) and not (len(value) == 2 and value[0] <= value[1]):
                raise ValueError(f"{name}={value!r} must be a pair running from low to high")
        total = sum(getattr(self, key) for key in _EVENT_PROBS)
        # a sum of 1 written in decimals can round a little above it
        if total > 1.0 + 1e-9:
            raise ValueError(f"{' + '.join(_EVENT_PROBS)} = {total:g} must be at most 1")
        if not (set(self.melody_probs) <= set(MELODY_TYPES) and sum(self.melody_probs.values()) > 0.0):
            raise ValueError(f"melody_probs={self.melody_probs!r} must weigh melodies of {MELODY_TYPES}, one above 0")


# prevalence directions mirror clinical reports: the affected class shows
# more dysphonation, more high-pitched phonation and flatter melodies,
# while glides and shaped melodies are more common in healthy cries
DEFAULT_POSITIVE_PROFILE = ClassProfile(
    p_hyperphonation=0.15,
    p_dysphonation=0.30,
    p_glide=0.03,
    p_vibrato=0.05,
    melody_probs={"flat": 0.72, "falling": 0.09, "rising": 0.06, "rising_falling": 0.08, "falling_rising": 0.05},
)
DEFAULT_NEGATIVE_PROFILE = ClassProfile(
    p_hyperphonation=0.03,
    p_dysphonation=0.06,
    p_glide=0.16,
    p_vibrato=0.10,
    melody_probs={"flat": 0.38, "falling": 0.22, "rising": 0.18, "rising_falling": 0.13, "falling_rising": 0.09},
)

_POSITIVE_LABELS = ("mild", "moderate", "severe")


@dataclass(frozen=True)
class CorpusProfile(_JsonRecord):
    """A synthetic corpus: the recordings per class, the sites they take in
    turn, and each class's profile."""

    n_per_class: int = field(default=100, metadata={"at_least": 1})
    # the sites cry select reads at the default config
    sites: tuple[str, ...] = ANALYSIS.selection_sites
    positive: ClassProfile = DEFAULT_POSITIVE_PROFILE
    negative: ClassProfile = DEFAULT_NEGATIVE_PROFILE

    def __post_init__(self) -> None:
        check_fields(self)
        # load_manifest reads any other site as OTHER
        if not (self.sites and all(s in SITES for s in self.sites)):
            raise ValueError(f"sites={self.sites!r} must name one or more sites of {sorted(SITES)}")


def _json_object(pairs: list) -> dict:
    """The dict of a JSON object's pairs, refusing a key named twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"{next(k for k in keys if keys.count(k) > 1)} is set again")
    return obj


def load_profile(path: str) -> CorpusProfile:
    """Read a UTF-8 JSON cry synth profile; each fault names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return CorpusProfile.from_json_dict(json.load(fh, object_pairs_hook=_json_object))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class CorpusRecord:
    entry: ManifestEntry
    truth: GroundTruth


def random_unit(profile: ClassProfile, rng: np.random.Generator) -> UnitSpec:
    """Draw one unit: melody shape, optional event, and safe placement."""
    probs = [getattr(profile, key) for key in _EVENT_PROBS]
    probs = [max(0.0, 1.0 - sum(probs))] + probs
    event = EVENTS[rng.choice(len(EVENTS), p=np.array(probs) / sum(probs))]
    melodies = list(profile.melody_probs)
    mp = np.array([profile.melody_probs[m] for m in melodies], dtype=np.float64)
    melody = melodies[rng.choice(len(melodies), p=mp / mp.sum())]
    base = rng.uniform(*profile.base_f0_range)
    dur = rng.uniform(*profile.unit_duration_range)
    unit = UnitSpec(
        duration_s=dur,
        pause_after_s=rng.uniform(*profile.pause_range),
        base_f0_hz=base,
        melody=melody,
        event=event,
        dysphonation_snr_db=profile.dysphonation_snr_db,
    )
    # events that bend the contour are centered well inside the unit, so
    # the global extremum they plant cannot straddle the edge-vs-interior
    # boundary of the melody rule after one frame of segmentation rounding
    margin = 0.1
    if event == "hyperphonation":
        unit.duration_s = dur = max(dur, rng.uniform(0.9, 1.15))
        unit.event_duration_s = rng.uniform(0.18, 0.28)
        center = dur * rng.uniform(0.4, 0.6)
        # only the down ramp extends past the plateau end; subtracting both
        # ramps from the upper bound can empty the interval on short units
        lo = _HYPER_RAMP_S + margin
        hi = dur - unit.event_duration_s - _HYPER_RAMP_S - margin
        unit.event_start_s = np.clip(center - unit.event_duration_s / 2, lo, max(hi, lo))
    elif event == "dysphonation":
        # flat base capped below 500 Hz: then half the pitch sits under the
        # tracker's search floor and the noise cannot pull whole frames an
        # octave down, which otherwise fakes pitch swings and shape changes.
        # Snapped to a whole sample period at the analysis rate so the tracker's
        # integer lag lands exactly on the period and the dip depth stays stable
        unit.melody = "flat"
        unit.base_f0_hz = ANALYSIS.sample_rate / round(ANALYSIS.sample_rate / rng.uniform(380.0, 470.0))
        unit.event_duration_s = rng.uniform(0.18, 0.30)
        unit.event_start_s = margin + rng.uniform(0.0, max(dur - unit.event_duration_s - 2 * margin, 0.0))
    elif event == "glide":
        # flat base, or the blip plus the base's own bumps read as four
        # alternating swings; capped under the hyperphonation threshold
        unit.melody = "flat"
        unit.base_f0_hz = rng.uniform(280.0, 335.0)
        span = _GLIDE_HOLD_S + 2 * _GLIDE_RISE_S
        unit.event_duration_s = span
        center = dur * rng.uniform(0.35, 0.65)
        unit.event_start_s = np.clip(center - span / 2 + _GLIDE_RISE_S, _GLIDE_RISE_S + margin, dur - span - margin)
    elif event == "vibrato":
        # flat base: sloped bases move the argmax between wobble crests and
        # the base's own ends, which makes the shape label unstable
        unit.melody = "flat"
        unit.duration_s = dur = max(dur, rng.uniform(0.85, 1.15))
        unit.event_duration_s = min(rng.uniform(0.55, 0.8), dur - 2 * margin)
        unit.event_start_s = margin + rng.uniform(0.0, max(dur - unit.event_duration_s - 2 * margin, 0.0))
    return unit


def random_recording_spec(profile: ClassProfile, rng: np.random.Generator) -> SynthSpec:
    n_units = int(rng.integers(profile.num_units_range[0], profile.num_units_range[1] + 1))
    units = [random_unit(profile, rng) for _ in range(n_units)]
    return SynthSpec(units=units, seed=int(rng.integers(0, 2**31 - 1)))


def make_corpus(out_dir: str, *, seed: int = 0, **profile) -> list[CorpusRecord]:
    """Write the labeled corpus of CorpusProfile(**profile): WAVs, manifest.csv, ground_truth.json."""
    corpus = CorpusProfile(**profile)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)

    records: list[CorpusRecord] = []
    idx = 0
    for cls, class_profile in ((0, corpus.negative), (1, corpus.positive)):
        for i in range(corpus.n_per_class):
            spec = random_recording_spec(class_profile, rng)
            clip, truth = synth_cry(spec)
            fname = f"rec{idx:04d}.wav"
            write_wav(clip, os.path.join(out_dir, fname))
            label = "normal" if cls == 0 else _POSITIVE_LABELS[i % len(_POSITIVE_LABELS)]
            entry = ManifestEntry(
                path=fname,
                patient_id=f"pt{idx:04d}",
                site=corpus.sites[idx % len(corpus.sites)],
                period="birth" if idx % 2 == 0 else "discharge",
                label=label,
            )
            records.append(CorpusRecord(entry, truth))
            idx += 1

    save_manifest([r.entry for r in records], os.path.join(out_dir, "manifest.csv"))
    gt = {
        "sample_rate": spec.sample_rate,
        "recordings": [dict(path=r.entry.path, label=r.entry.label, **r.truth.to_json_dict()) for r in records],
    }
    with open(os.path.join(out_dir, "ground_truth.json"), "w") as fh:
        json.dump(gt, fh, indent=1, sort_keys=True)
    return records
