"""Spans around the calls into each cryscreen layer, recorded from outside.

Each public function is replaced, for the length of a traced round, by a
wrapper under the name its caller looks it up by: ``pipeline`` imports
``load_wav``, ``resample``, ``detect_cry_units``, ``unit_biomarker_flags``,
``concat_expirations`` and ``compute_generic_features`` by name, ``cli``
imports the reader and the analytics entry points by name, while the
``dsp.*`` calls and ``biomarkers.smooth_f0`` resolve through their module.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# span name, the (module, attribute) bindings callers use, and an optional
# work count taken from the call's arguments and return value
LAYERS: list[tuple[str, list[tuple[str, str]], Callable[[tuple, Any], int] | None]] = [
    ("audio_io.load_wav", [("pipeline", "load_wav")], None),
    ("audio_io.resample", [("pipeline", "resample")], None),
    ("dsp.stft", [("dsp", "stft")], None),
    ("dsp.log_mel", [("dsp", "log_mel")], None),
    ("dsp.spectral_flatness", [("dsp", "spectral_flatness")], None),
    ("dsp.estimate_f0", [("dsp", "estimate_f0")], lambda args, out: len(out.f0_hz)),
    ("dsp.lpc_formants", [("dsp", "lpc_formants")], lambda args, out: out.shape[0]),
    ("segmenter.detect_cry_units", [("pipeline", "detect_cry_units")], lambda args, out: len(out.expirations)),
    ("biomarkers.unit_biomarker_flags", [("pipeline", "unit_biomarker_flags")], None),
    ("biomarkers.smooth_f0", [("biomarkers", "smooth_f0")], None),
    ("voicefeat.concat_expirations", [("pipeline", "concat_expirations")], None),
    ("voicefeat.compute_generic_features", [("pipeline", "compute_generic_features")], None),
    ("pipeline.extract_clip", [("pipeline", "extract_clip")], None),
    ("pipeline.write_features_csv", [("pipeline", "write_features_csv")], None),
    ("pipeline.read_features_csv", [("cli", "read_features_csv")], None),
    ("pipeline.to_feature_matrix", [("cli", "to_feature_matrix")], None),
    ("analytics.select_consistent_features", [("cli", "select_consistent_features")], None),
    ("analytics.cross_validate", [("cli", "cross_validate")], None),
    ("analytics.train_logreg", [("cli", "train_logreg"), ("analytics", "train_logreg")], None),
    ("analytics.roc_auc", [("cli", "roc_auc"), ("analytics", "roc_auc")], None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rec: str | None
    count: int | None = None


class Tracer:
    """In-memory span recorder.

    ``rec`` names the recording or invocation the current work belongs
    to; a ``load_wav`` call sets it to the file's name. Per-unit
    biomarker calls are kept as ``(rec, unit, UnitFlags)`` so detection
    can be scored without redoing any work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit_flags: list[tuple[str | None, tuple[float, float], Any]] = []
        self.rec: str | None = None
        self._open: list[int] = []

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "audio_io.load_wav":
                self.rec = os.path.basename(args[0])
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.rec)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if count is not None:
                span.count = count(args, out)
            if name == "biomarkers.unit_biomarker_flags":
                self.unit_flags.append((self.rec, args[2], out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for name, bindings, count in LAYERS:
                modules = [importlib.import_module(f"cryscreen.{m}") for m, _ in bindings]
                original = getattr(modules[0], bindings[0][1])
                wrapper = self._wrap(name, original, count)
                for module, (_, attr) in zip(modules, bindings):
                    if getattr(module, attr) is not original:
                        raise RuntimeError(f"{module.__name__}.{attr} is not the function traced as {name}")
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts and call durations."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s, inner in zip(self.spans, child_time):
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "durations": []})
            dur = s.end - s.start
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - inner
            agg["count"] += s.count or 0
            agg["durations"].append(dur)
        return out
