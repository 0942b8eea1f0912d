"""cryscreen benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload clinic16k --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* clinic16k     ~10 s 16 kHz recordings, one per operation (WAV -> 38 values)
* ward44k       72, 82 and 94 s 44.1 kHz float recordings, one per operation
* cohort-model  ``cry select`` and ``cry train-eval`` on a planted feature table,
                one command line invocation per operation

A round is one pass over the workload's inputs: ``extract_manifest`` plus
``write_features_csv`` over the whole corpus, or the three commands on the
table. Rounds are whole and repeat until ``--seconds`` have passed, so every
run attempts the same mix of operations. Between operations the run times a
fixed kernel (``hostspeed.py``), and the timings it reports are scaled to
the reference host speed. With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it alternates plain and traced
rounds and prints the per-layer metrics, the detection quality scored from
the first traced round and the traced over plain throughput. The last line of
standard output is one JSON object; the lines before it are for people.
"""

import time

T_START = time.perf_counter()

import pin  # noqa: E402  (pins BLAS threads before numpy is imported)

import argparse  # noqa: E402
import collections  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from cryscreen import cli, pipeline  # noqa: E402
from cryscreen.audio_io import load_manifest, load_wav, relative_to_manifest  # noqa: E402
from cryscreen.pipeline import FEATURE_COLUMNS, ID_COLUMNS, extract_clip, extract_manifest, write_skipped_csv  # noqa: E402
from cryscreen.synthcry import GroundTruth  # noqa: E402

import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

GEN_REPEATS = 3  # set-up is repeated and its median counted
COHORT_AUC_TOLERANCE = 0.05  # |model test AUC - generating model's test AUC|

EXTRACTION_SPANS = [
    "audio_io.load_wav",
    "dsp.stft",
    "dsp.log_mel",
    "dsp.spectral_flatness",
    "dsp.estimate_f0",
    "dsp.lpc_formants",
    "segmenter.detect_cry_units",
    "biomarkers.unit_biomarker_flags",
    "biomarkers.smooth_f0",
    "voicefeat.concat_expirations",
    "voicefeat.compute_generic_features",
    "pipeline.extract_clip",
    "pipeline.write_features_csv",
]
EXPECTED_SPANS = {
    "clinic16k": EXTRACTION_SPANS,
    "ward44k": EXTRACTION_SPANS + ["audio_io.resample"],
    "cohort-model": [
        "pipeline.read_features_csv",
        "pipeline.to_feature_matrix",
        "analytics.select_consistent_features",
        "analytics.cross_validate",
        "analytics.train_logreg",
        "analytics.roc_auc",
    ],
}
METRIC_SPAN_ALIAS = {"segmenter": "segmenter.detect_cry_units"}


class Round:
    """Operation times and outcomes of one round, plus what its checks found.

    Each timed interval keeps its midpoint, where the host slowdown that
    scales it is read. The rest is the round's timed work outside its
    operations: the CSV writes of ``cry extract``.
    """

    def __init__(self):
        self.op_s: list[float] = []
        self.op_mid: list[float] = []
        self.ok: list[bool] = []
        self.rest_s = 0.0
        self.rest_mid = 0.0
        self.recordings = 0
        self.train_evals = 0
        self.problems: list[str] = []


# ---------------------------------------------------------------- extraction


class Extraction:
    def __init__(self, inputs: str, out: str):
        self.manifest = os.path.join(inputs, "manifest.csv")
        self.csv_path = os.path.join(out, "features.csv")
        self.skipped_path = os.path.join(out, "features.skipped.csv")
        with open(os.path.join(inputs, "ground_truth.json")) as fh:
            doc = json.load(fh)
        self.truths = {r["path"]: GroundTruth.from_json_dict(r) for r in doc["recordings"]}
        # probes carry a fault that fails their operation in every round;
        # they are kept out of the detection scores of the other recordings
        self.probes = set(doc.get("probes", []))
        self.first_rows = None
        self.paths = [e.path for e in load_manifest(self.manifest)]
        extract_clip(load_wav(relative_to_manifest(self.manifest, self.paths[0])))  # warm-up

    def round(self, tracer, host: HostSpeed) -> Round:
        r = Round()
        mark = time.perf_counter()

        def log(msg: str) -> None:
            nonlocal mark
            now = time.perf_counter()
            r.op_s.append(now - mark)
            r.op_mid.append(0.5 * (now + mark))
            r.ok.append(msg.startswith("ok"))
            host.between_ops()
            mark = time.perf_counter()

        result = extract_manifest(self.manifest, log=log)
        pipeline.write_features_csv(result.rows, self.csv_path)
        write_skipped_csv(result.skipped, self.skipped_path)
        now = time.perf_counter()
        r.rest_s, r.rest_mid = now - mark, 0.5 * (now + mark)
        r.recordings = len(r.op_s)
        r.problems = self.check(result)
        for row in result.rows:
            if row.entry.path in self.probes:
                failures = checks.probe_failures(row.features, self.truths[row.entry.path].expected_vector)
                r.ok[self.paths.index(row.entry.path)] = not failures
                for p in failures:
                    print(f"bench: probe {row.entry.path}: {p}", file=sys.stderr)
        return r

    def check(self, result) -> list[str]:
        problems = [f"{s.entry.path} skipped: {s.reason}" for s in result.skipped]
        if len(result.rows) + len(result.skipped) != len(self.truths):
            problems.append(f"{len(result.rows)} rows for {len(self.truths)} recordings")
        for row in result.rows:
            problems += [f"{row.entry.path}: {p}" for p in checks.finite_row_failures(row.features, FEATURE_COLUMNS)]
        rows = [(row.entry.path, [row.features[n] for n in FEATURE_COLUMNS]) for row in result.rows]
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            problems.append("features differ from the first round's")
        with open(self.csv_path, newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != ID_COLUMNS + FEATURE_COLUMNS:
            problems.append("features CSV header is not the 5 id and 38 feature columns")
        written = [(rec[0], [float(v) for v in rec[len(ID_COLUMNS):]]) for rec in table[1:]]
        if written != rows:
            problems.append("features CSV does not read back to the extracted values")
        return problems

    def quality(self, unit_flags) -> tuple[dict, list[str]]:
        truths = {path: t for path, t in self.truths.items() if path not in self.probes}
        detections = {path: [] for path in truths}
        for rec, unit, flags in unit_flags:
            if rec in detections:
                detections[rec].append((unit, flags))
        scores = checks.score_detection(detections, truths)
        return scores, checks.detection_failures(scores)


# -------------------------------------------------------------------- cohort


class Cohort:
    def __init__(self, inputs: str, out: str):
        features = os.path.join(inputs, "features.csv")
        split = os.path.join(inputs, "split.csv")
        with open(os.path.join(inputs, "truth.json")) as fh:
            self.truth = json.load(fh)
        # the table as written, parsed here rather than by the code under test
        with open(features, newline="") as fh:
            table = {rec[0]: rec for rec in list(csv.reader(fh))[1:]}
        test = self.truth["test_rows"]
        self.test_X = np.array([[float(v) for v in table[p][len(ID_COLUMNS):]] for p, _, _ in test])
        self.test_y = np.array([y for _, y, _ in test])
        gen_wins, pairs = checks.pair_count_auc(np.array([s for _, _, s in test]), self.test_y)
        self.generator_auc = gen_wins / pairs
        self.test_auc = None
        self.out = {k: os.path.join(out, f"{k}.json") for k in ("selection", "model", "metrics")}
        self.commands = [
            ("select", ["select", "--features", features, "--out", self.out["selection"]]),
        ] + [
            (
                f"train-eval {fs}",
                ["train-eval", "--features", features, "--split", split, "--feature-set", fs,
                 "--model-out", self.out["model"], "--metrics-out", self.out["metrics"]],
            )
            for fs in ("both", "selected-both")
        ]
        cli.main(self.commands[0][1])  # warm-up

    def round(self, tracer, host: HostSpeed) -> Round:
        r = Round()
        for name, argv in self.commands:
            if tracer is not None:
                tracer.rec = name
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            t1 = time.perf_counter()
            r.op_s.append(t1 - t0)
            r.op_mid.append(0.5 * (t0 + t1))
            r.ok.append(code == 0)
            r.train_evals += name.startswith("train-eval")
            if code == 0:
                r.problems += [f"{name}: {p}" for p in self.check(name)]
            host.between_ops()
        return r

    def check(self, name: str) -> list[str]:
        want_sel, want_dir = self.truth["selected"], self.truth["directions"]
        if name == "select":
            with open(self.out["selection"]) as fh:
                doc = json.load(fh)
            if doc["selected"] != want_sel or doc["directions"] != want_dir:
                return [f"selected {doc['selected']} {doc['directions']}, planted {want_sel} {want_dir}"]
            return []
        with open(self.out["model"]) as fh:
            model = json.load(fh)
        with open(self.out["metrics"]) as fh:
            metrics = json.load(fh)
        problems = []
        want_features = FEATURE_COLUMNS if name.endswith(" both") else want_sel
        if model["features"] != want_features:
            problems.append(f"model uses {model['features']}, expected {want_features}")
            return problems
        cols = [FEATURE_COLUMNS.index(f) for f in model["features"]]
        wins, pairs = checks.pair_count_auc(checks.model_probabilities(model, self.test_X[:, cols]), self.test_y)
        if metrics["n_test"] != len(self.test_y):
            problems.append(f"n_test {metrics['n_test']}, split has {len(self.test_y)} labeled test rows")
        if abs(metrics["auc"] * pairs - wins) > 0.25:
            problems.append(f"AUC {metrics['auc']!r} but pair count gives {wins / pairs!r}")
        if abs(metrics["auc"] - self.generator_auc) > COHORT_AUC_TOLERANCE:
            problems.append(f"AUC {metrics['auc']:.4f} vs generating model {self.generator_auc:.4f}")
        if name.endswith(" both"):
            self.test_auc = metrics["auc"]
        return problems


WORKLOADS = {"clinic16k": Extraction, "ward44k": Extraction, "cohort-model": Cohort}


# --------------------------------------------------------------------- runs


def run_rounds(workload, host: HostSpeed, seconds: int, trace: bool):
    """Whole rounds until `seconds` have passed.

    A traced run alternates plain and traced rounds, starting plain, and
    ends only after at least one traced round. Unit flags are scored from
    the first traced round alone.
    """
    tracer = Tracer() if trace else None
    plain, traced = [], []
    first_flags = None
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            with tracer.installed():
                traced.append(workload.round(tracer, host))
            if first_flags is None:
                first_flags = list(tracer.unit_flags)
        else:
            plain.append(workload.round(None, host))
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return plain, traced, tracer, first_flags


def slowdown_at(host: HostSpeed | None, t):
    """The host slowdown at times `t`; 1 where `host` is None, for figures as measured."""
    return 1.0 if host is None else host.slowdown_at(t)


def scaled_op_s(rounds, host: HostSpeed | None) -> np.ndarray:
    """Operation times on the reference host: one row per round, one column per operation."""
    return np.array([np.asarray(r.op_s) / slowdown_at(host, r.op_mid) for r in rounds])


def rate(rounds, host: HostSpeed | None) -> float:
    """Operations per second of the rounds' timed work on the reference host, CSV writing included."""
    rest_s = sum(r.rest_s / slowdown_at(host, r.rest_mid) for r in rounds)
    return sum(len(r.op_s) for r in rounds) / (float(scaled_op_s(rounds, host).sum()) + rest_s)


def op_ms_p50(rounds, host: HostSpeed | None) -> float:
    """Median over the round's operations of each one's median time on the reference host.

    Every round runs the same operations in the same order, so a column is
    one operation repeated. Taking each operation's own median first keeps
    the figure from jumping between operations of different sizes as the
    host's slow phases fall on one or the other.
    """
    return 1e3 * float(np.median(np.median(scaled_op_s(rounds, host), axis=0)))


def tail(values: list[float]) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    while True:
        v = float(np.percentile(values, p))
        beyond = sum(x > v for x in values)
        if beyond >= 10:
            return p, v, beyond
        p -= 1


def layer_metrics(spec: list[dict], tracer: Tracer, traced, quality: dict) -> dict[str, float]:
    summary = tracer.summary()
    recs = sum(r.recordings for r in traced)
    train_evals = sum(r.train_evals for r in traced)
    out = {}
    for m in spec:
        name = m["name"]
        if name in quality:
            out[name] = quality[name]
            continue
        span, kind = name.rsplit(".", 1)
        agg = summary.get(METRIC_SPAN_ALIAS.get(span, span))
        per_rec = 1.0 / recs if recs else 0.0
        if agg is None:
            out[name] = 0.0
        elif kind == "ms_per_rec":
            out[name] = 1e3 * agg["total_s"] * per_rec
        elif kind == "self_ms_per_rec":
            out[name] = 1e3 * agg["self_s"] * per_rec
        elif kind == "calls_per_rec":
            out[name] = agg["calls"] * per_rec
        elif kind in ("frames_per_rec", "units_per_rec"):
            out[name] = agg["count"] * per_rec
        elif kind == "ms":
            out[name] = 1e3 * statistics.median(agg["durations"])
        elif kind == "calls":
            out[name] = agg["calls"] / train_evals if train_evals else 0.0
        elif kind == "ms_per_call":
            out[name] = 1e3 * agg["total_s"] / agg["calls"]
        else:
            raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, which this benchmark cannot measure")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(pin.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    work = os.path.join(pin.ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    host = None
    try:
        os.makedirs(out)
        import_s = time.perf_counter() - T_START
        gen_s = []
        for _ in range(GEN_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, os.path.join(pin.BENCH_DIR, "inputs.py"), args.workload, str(args.seed), inputs],
                check=True,
            )
            gen_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](inputs, out)
        setup_s = import_s + statistics.median(gen_s) + time.perf_counter() - t0
        host = HostSpeed()

        cpu0, wall0 = time.process_time(), time.perf_counter()
        plain, traced, tracer, first_flags = run_rounds(workload, host, args.seconds, bool(args.trace))
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        rounds = plain + traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if host is not None:
            host.close()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(len(r.ok) for r in rounds)
    failed = sum(not ok for r in rounds for ok in r.ok)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"attempted {attempted} failed {failed}, cpu/wall {cpu_s / wall_s:.3f}")
    print(f"  host slowdown {host.mean_slowdown():.4f} over {len(host.samples)} kernel samples; as measured: "
          f"ops_per_s {rate(plain, None):.4f} 1/s, op_ms_p50 {op_ms_p50(plain, None):.3f} ms")

    if args.trace:
        missing = [s for s in EXPECTED_SPANS[args.workload] if not any(sp.name == s for sp in tracer.spans)]
        if missing:
            print(f"bench: expected spans never fired: {', '.join(missing)}", file=sys.stderr)
            return 1
        quality = {"trace.ops_per_s_ratio": rate(traced, host) / rate(plain, host), "analytics.test_auc": 0.0}
        if isinstance(workload, Extraction):
            scores, bad = workload.quality(first_flags)
            problems += bad
            quality.update({f"biomarkers.{k}": v for k, v in scores.items() if k != "matched_units"})
            print(f"  planted units matched: {scores['matched_units']:.4f}")
        else:
            quality.update({f"biomarkers.{b}.{s}": 0.0 for b in checks.BIOMARKERS for s in ("precision", "recall")})
            quality["biomarkers.melody.accuracy"] = 0.0
            quality["analytics.test_auc"] = workload.test_auc
            print(f"  generating model test AUC {workload.generator_auc:.4f}")
        values = layer_metrics(spec["per_layer"], tracer, traced, quality)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": rate(plain, host),
            "op_ms_p50": op_ms_p50(plain, host),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        op_ms = list(1e3 * scaled_op_s(plain, host).ravel())
        t = tail(op_ms)
        if t is not None:
            print(f"  op_ms_tail = p{t[0]} {t[1]:.3f} ms ({len(op_ms)} samples, {t[2]} beyond)")
        else:
            print(f"  op_ms_tail: not reported, {len(op_ms)} samples (< 40)")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    for p, n in collections.Counter(problems).items():
        print(f"bench: check failed ({n}x): {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
