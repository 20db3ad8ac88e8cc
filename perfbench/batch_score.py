"""Workload ``batch-score``: fit once, then score a fixed held-out matrix.

Loads ``engine.train`` and ``engine`` only; session, scheduler and gateway
are bypassed.  The BoostHD of ``stream-raw`` (D_total=10000, N_L=10) is fit
on the WESAD training split, compiled at four precisions (``float64``,
``fixed16``, ``bipolar-packed`` and ``cascade-fixed16`` calibrated on the
training split) and scores one 4096-row feature matrix drawn from subjects
the model never saw.  Engines use the library's default compile options.
Featurizer changes should not move this workload.

The model is fit once, timed on its own (``fit_s``, a per-layer metric;
training cost is guarded by ``setup_s`` of the other workloads).  The
set-up (data generation, held-out matrix, compiling the four engines) is
repeated.  The timed loop is a sequence of passes, each one ``predict``
call per precision over the whole matrix.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter

import numpy as np

import repro.engine.train.bundling as bundling
import repro.engine.train.encoding as encoding
import repro.engine.train.exact as exact
from repro.data import WESAD_STATES
from repro.data.features import extract_features
from repro.data.wesad import make_wesad_subjects
from repro.engine import compile_model

from .common import (
    SETUP_REPEATS,
    Checks,
    digest,
    fit_model,
    label_mismatches,
    log,
    median,
    metric,
    peak_rss_mb,
    sustained,
    simulator,
    wesad_split,
)
from .trace import Tracer

HELD_OUT_ROWS = 4096
HELD_OUT_SUBJECTS = 16
#: Metric suffix -> ``compile_model`` precision.
PRECISIONS = {
    "float64": "float64",
    "fixed16": "fixed16",
    "packed": "bipolar-packed",
    "cascade": "cascade-fixed16",
}
#: Largest accepted held-out accuracy loss against float64, per precision.
ACCURACY_MARGIN = {"fixed16": 0.01, "packed": 0.15, "cascade": 0.05}
#: A predict call answered later than this counts against ``feed_ok_frac``.
PREDICT_LIMIT_S = 10.0
#: Rows per call of the traced encode / score_encoded split.
TRACE_CHUNK = 1024


def held_out_matrix(seed: int, scaler) -> tuple[np.ndarray, np.ndarray]:
    """4096 scaled feature rows (and labels) from subjects outside the split."""
    rng = np.random.default_rng([seed, 0x4E1D])
    source = simulator(rng)
    per_group = -(-HELD_OUT_ROWS // (HELD_OUT_SUBJECTS * len(WESAD_STATES)))
    windows, labels = [], []
    for record in make_wesad_subjects(HELD_OUT_SUBJECTS, rng=rng):
        for label, state in enumerate(WESAD_STATES):
            windows.append(source.generate_windows(state, per_group, record.physiology))
            labels.extend([label] * per_group)
    X = scaler.transform(extract_features(np.concatenate(windows)))
    keep = np.sort(rng.permutation(len(X))[:HELD_OUT_ROWS])
    return X[keep], np.asarray(labels)[keep]


class _Setup:
    """Data, held-out matrix and the four engines compiled from ``model``."""

    def __init__(self, seed: int, model) -> None:
        start = time.perf_counter()
        dataset, self.X_train, _, self.y_train, _ = wesad_split(seed)
        self.X, self.y = held_out_matrix(seed, dataset.scaler)
        self.engines, self.compile_s = {}, {}
        for name, precision in PRECISIONS.items():
            compiled = time.perf_counter()
            engine = compile_model(model, precision=precision)
            if name == "cascade":
                self.calibration = engine.calibrate_threshold(self.X_train, self.y_train)
            self.compile_s[name] = time.perf_counter() - compiled
            self.engines[name] = engine
        self.setup_s = time.perf_counter() - start


def _install_train_tracer(tracer: Tracer, counts: Counter) -> None:
    def counted(result, args):
        counts["passes"] += 1

    tracer.wrap(encoding, "encode_ensemble", "train.encode")
    tracer.wrap(bundling, "bundle_classes", "train.bundle")
    tracer.wrap(exact, "adaptive_pass_exact", "train.pass", on_result=counted)


def _traced_pass(tracer: Tracer, engines: dict, X: np.ndarray) -> float:
    """Encode and score separately, per precision; returns the pass seconds."""
    start = time.perf_counter()
    for name, engine in engines.items():
        for row in range(0, len(X), TRACE_CHUNK):
            with tracer.span(f"engine.encode.{name}"):
                encoded = engine.encode(X[row : row + TRACE_CHUNK])
            with tracer.span(f"engine.score.{name}"):
                engine.score_encoded(encoded)
    return time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    counts: Counter = Counter()
    _, X_train, _, y_train, _ = wesad_split(seed)
    if trace:
        _install_train_tracer(tracer, counts)
    try:
        start = time.perf_counter()
        model = fit_model(X_train, y_train, seed)
        fit_s = time.perf_counter() - start
    finally:
        tracer.restore()
    setups = []
    for repeat in range(SETUP_REPEATS):
        setup = _Setup(seed, model)
        setups.append((setup.setup_s, setup.compile_s))
        log(f"batch-score set-up {repeat + 1}/{SETUP_REPEATS}: {setup.setup_s:.2f} s")
    setup_times, compile_times = zip(*setups)
    engines, X, y = setup.engines, setup.X, setup.y
    cascade = engines["cascade"]

    call_seconds: dict[str, list[float]] = {name: [] for name in engines}
    pass_wps: list[float] = []
    pass_medians: list[float] = []
    pass_slowest: list[float] = []
    traced_pass_seconds: list[float] = []
    labels: dict[str, np.ndarray] = {}
    unstable: set[str] = set()
    attempted = failed = passes = 0
    cascade.stats.reset()
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or passes < 2:
        passes += 1
        if trace and passes % 2 == 0:
            traced_pass_seconds.append(_traced_pass(tracer, engines, X))
            continue
        latencies = []
        for name, engine in engines.items():
            attempted += 1
            start = time.perf_counter()
            try:
                predicted = engine.predict(X)
            except Exception:  # a failed call counts against attempts
                log(f"batch-score {name} predict failed:\n{traceback.format_exc()}")
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            call_seconds[name].append(elapsed)
            latencies.append(elapsed)
            if not np.array_equal(labels.setdefault(name, predicted), predicted):
                unstable.add(name)
        if latencies:
            pass_wps.append(len(latencies) * len(X) / sum(latencies))
            pass_medians.append(median(latencies))
            pass_slowest.append(max(latencies))

    # ------------------------------------------------------------ oracles
    checks = Checks()
    checks.check("batch_score.labels_same_every_pass", not unstable, sorted(unstable))
    reference = model.decision_function(X)
    mismatched, near_ties = label_mismatches(reference, model.classes_, labels["float64"])
    checks.check("batch_score.float64_equals_boosthd_predict", mismatched == 0,
                 {"mismatched": mismatched, "near_ties": near_ties})
    accuracy = {name: float(np.mean(predicted == y)) for name, predicted in labels.items()}
    for name, margin in ACCURACY_MARGIN.items():
        checks.check(f"batch_score.{name}.accuracy_within_{margin}",
                     accuracy[name] >= accuracy["float64"] - margin, accuracy[name])
    rerank_frac = cascade.stats.rerank_fraction
    checks.check("batch_score.cascade_reranks", rerank_frac > 0.0, rerank_frac)
    fixed, sample = engines["fixed16"], X[:256]
    whole = fixed.decision_function(sample)
    pieces = np.concatenate(
        [fixed.decision_function(sample[row : row + 7]) for row in range(0, len(sample), 7)]
    )
    checks.check("batch_score.fixed16_batch_invariant", np.array_equal(whole, pieces))

    report = {
        "passes": passes,
        "accuracy": accuracy,
        "digests": {name: digest(predicted) for name, predicted in labels.items()},
        "calibration": repr(setup.calibration),
        "pass_wps": pass_wps,
        "setup_s": setup_times,
        "fit_s": fit_s,
    }
    if not trace:
        calls = [value for values in call_seconds.values() for value in values]
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "wps": metric(sustained(pass_wps, "higher"), "windows/s"),
            "feed_p50_ms": metric(sustained(pass_medians, "lower") * 1e3, "ms"),
            "feed_p99_ms": metric(sustained(pass_slowest, "lower") * 1e3, "ms"),
            "feed_ok_frac": metric(
                sum(1 for value in calls if value <= PREDICT_LIMIT_S) / attempted, "ratio"
            ),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "checks": checks, "report": report}

    layer = {
        "fit_s": fit_s,
        "train.encode_s": sum(tracer.durations("train.encode")),
        "train.bundle_s": sum(tracer.durations("train.bundle")),
        "train.pass_s": sum(tracer.durations("train.pass")),
        "train.passes": counts["passes"],
        "engine.cascade.rerank_frac": rerank_frac,
        "engine.rows_per_call": len(X),
        "trace.overhead_frac": median(traced_pass_seconds)
        / (len(engines) * len(X) / median(pass_wps))
        - 1.0,
    }
    traced = len(traced_pass_seconds)
    for name in engines:
        layer[f"engine.encode_s.{name}"] = sum(tracer.durations(f"engine.encode.{name}")) / traced
        layer[f"engine.score_s.{name}"] = sum(tracer.durations(f"engine.score.{name}")) / traced
        layer[f"engine.compile_s.{name}"] = median([c[name] for c in compile_times])
        layer[f"score_wps.{name}"] = len(X) / median(call_seconds[name])
    return {"layer": layer, "attempted": attempted, "failed": failed,
            "checks": checks, "report": report}
