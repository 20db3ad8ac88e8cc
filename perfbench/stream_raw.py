"""Workload ``stream-raw``: raw simulator chunks through an in-process service.

Loads ``serving.session`` -> ``serving.service`` -> ``serving.scheduler`` ->
``engine``: 64 sessions, 1 s chunks of 32 samples, 640-sample windows stepped
every 160 samples (four windows open at every sample), the fitted scaler as
``transform`` and a float64 engine (D_total=10000, N_L=10).  A single
closed loop pushes round-robin.  The featurizer does nearly all of the
work here, so a featurizer change shows and an engine change should not.

The timed loop is a sequence of repetitions; each one pushes five rounds
(one chunk per session per round, so every session completes exactly one
window) and drains the scheduler.  Chunks for a repetition are generated
before its timer starts.  After each repetition the served labels are
checked against the offline pipeline on the same windows.  The first two
repetitions are a warm-up and are left out of the figures.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from contextlib import nullcontext

import numpy as np

from repro.engine import compile_model
from repro.serving import MicroBatchScheduler, StreamingService, StreamSession

from .common import (
    CHUNK_SAMPLES,
    MAX_BATCH,
    N_CHANNELS,
    PRIME_CHUNKS,
    SETUP_REPEATS,
    STEP_SAMPLES,
    WINDOW_SAMPLES,
    Checks,
    SessionStreams,
    WindowLedger,
    digest,
    fit_model,
    label_mismatches,
    log,
    median,
    metric,
    offline_scores,
    peak_rss_mb,
    percentile,
    sustained,
    wesad_split,
)
from .trace import Tracer

#: Rounds per timed repetition: one window per session.
ROUNDS_PER_REP = STEP_SAMPLES // CHUNK_SAMPLES
#: A push answered later than this counts against ``feed_ok_frac``.
PUSH_LIMIT_S = 0.100
#: Untraced repetitions at the start of a run left out of the figures.
WARMUP_REPS = 2
#: Traced repetitions in a ``--trace 1`` run (interleaved with untraced ones).
TRACED_REPS = 10
#: Repetitions whose served labels make up the recorded label digest.
DIGEST_REPS = 10
#: Layer spans whose self times must cover the repetition wall time.
LAYER_SPANS = (
    "service.push",
    "session.push",
    "service.transform",
    "scheduler.submit",
    "scheduler.pump",
    "scheduler.flush",
    "engine.decide",
)


class _System:
    """One set-up: fitted model, engine, service with primed sessions."""

    def __init__(self, seed: int) -> None:
        start = time.perf_counter()
        dataset, X_train, _, y_train, _ = wesad_split(seed)
        fit_start = time.perf_counter()
        model = fit_model(X_train, y_train, seed)
        self.fit_s = time.perf_counter() - fit_start
        compile_start = time.perf_counter()
        self.engine = compile_model(model, precision="float64", dtype=np.float64)
        self.compile_s = time.perf_counter() - compile_start
        self.scaler = dataset.scaler
        self.service = StreamingService(
            self.engine,
            n_channels=N_CHANNELS,
            window_samples=WINDOW_SAMPLES,
            step_samples=STEP_SAMPLES,
            max_batch=MAX_BATCH,
            transform=dataset.scaler.transform,
        )
        self.streams = SessionStreams(seed)
        self.ids = self.streams.ids
        self.ledger = WindowLedger(self.ids)
        for session_id in self.ids:
            self.service.open_session(session_id)
        for _ in range(PRIME_CHUNKS):
            for session_id, chunk in zip(self.ids, self.streams.next_round()):
                self.ledger.record(session_id, chunk)
                if self.service.push(session_id, chunk):
                    raise RuntimeError("priming must not complete a window")
        self.checked = {session_id: 0 for session_id in self.ids}
        self.near_ties = 0
        self.setup_s = time.perf_counter() - start


def _install_tracer(tracer: Tracer, system: _System, counts: Counter) -> None:
    def session_result(result, args):
        counts["push_calls"] += 1
        counts["samples_in"] += np.shape(args[1])[-1]
        counts["windows_out"] += len(result)

    def engine_result(result, args):
        counts["engine_calls"] += 1
        counts["engine_rows"] += len(result)

    tracer.wrap(StreamingService, "push", "service.push", ident=lambda self, sid, s: sid)
    tracer.wrap(StreamSession, "push", "session.push", on_result=session_result)
    tracer.wrap(system.service, "transform", "service.transform")
    tracer.wrap(MicroBatchScheduler, "submit", "scheduler.submit")
    tracer.wrap(MicroBatchScheduler, "pump", "scheduler.pump")
    tracer.wrap(MicroBatchScheduler, "flush", "scheduler.flush")
    tracer.wrap(system.engine, "decision_function", "engine.decide", on_result=engine_result)


def _repetition(system: _System, push_latencies: list, tracer: Tracer | None):
    """One timed repetition; returns ``(wall_seconds, predictions)``."""
    rounds = [system.streams.next_round() for _ in range(ROUNDS_PER_REP)]
    for chunks in rounds:
        for session_id, chunk in zip(system.ids, chunks):
            system.ledger.record(session_id, chunk)
    push = system.service.push
    served = []
    with tracer.span("rep") if tracer is not None else nullcontext():
        start = time.perf_counter()
        for chunks in rounds:
            for session_id, chunk in zip(system.ids, chunks):
                pushed = time.perf_counter()
                served += push(session_id, chunk)
                push_latencies.append(time.perf_counter() - pushed)
        served += system.service.drain()
        wall = time.perf_counter() - start
    return wall, served


def _check_repetition(system: _System, served, labels: list | None) -> tuple[int, int, int]:
    """Exactly-once delivery and offline-pipeline equality of one repetition.

    Returns ``(lost, repeated, mismatched)``: windows never served (or shed),
    windows served twice or never fed, and served labels that differ from
    the offline pipeline on the same raw window.
    """
    by_session: dict[str, dict[int, object]] = {sid: {} for sid in system.ids}
    repeated = 0
    for prediction in served:
        windows = by_session[prediction.session_id]
        if prediction.window_index in windows:
            repeated += 1
        elif not prediction.shed:
            windows[prediction.window_index] = prediction.label
    lost, raw, served_labels = 0, [], []
    for session_id in system.ids:
        done = system.ledger.complete_windows(session_id)
        expected = range(system.checked[session_id], done)
        got = by_session[session_id]
        repeated += len(set(got) - set(expected))
        indices = [index for index in expected if index in got]
        lost += len(expected) - len(indices)
        if indices:
            raw.append(system.ledger.take(session_id, indices))
            served_labels.extend(got[index] for index in indices)
        system.checked[session_id] = done
    mismatched = 0
    if raw:
        offline = offline_scores(np.concatenate(raw), system.scaler, system.engine)
        mismatched, near_ties = label_mismatches(
            offline, system.engine.classes_, served_labels
        )
        system.near_ties += near_ties
        if labels is not None:
            labels.extend(served_labels)
    return lost, repeated, mismatched


def run(seed: int, seconds: float, trace: bool) -> dict:
    timings = []
    for repeat in range(SETUP_REPEATS):
        system = _System(seed)
        timings.append((system.setup_s, system.fit_s, system.compile_s))
        log(f"stream-raw set-up {repeat + 1}/{SETUP_REPEATS}: {system.setup_s:.2f} s")
    setup_times, fit_times, compile_times = zip(*timings)
    tracer = Tracer()
    counts: Counter = Counter()
    push_latencies: list[list[float]] = []
    untraced_wps: list[float] = []
    traced_wps: list[float] = []
    queue_waits: list[float] = []
    traced_batches = 0
    labels: list = []
    attempted = failed = repeated = mismatched = repetitions = 0
    gc.collect()  # garbage of the discarded set-ups, not of the timed loop
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or (trace and len(traced_wps) < TRACED_REPS):
        traced = trace and repetitions % 2 == 1 and len(traced_wps) < TRACED_REPS
        if traced:
            _install_tracer(tracer, system, counts)
            batches_before = system.service.stats.batches
        try:
            rep_pushes: list[float] = []
            wall, served = _repetition(system, rep_pushes, tracer if traced else None)
        finally:
            tracer.restore()
        if traced:
            traced_wps.append(len(served) / wall)
            queue_waits.extend(prediction.queue_seconds for prediction in served)
            traced_batches += system.service.stats.batches - batches_before
        else:
            untraced_wps.append(len(served) / wall)
            push_latencies.append(rep_pushes)
        attempted += len(system.ids)
        lost, twice, wrong = _check_repetition(
            system, served, labels if repetitions < DIGEST_REPS else None
        )
        failed += lost
        repeated += twice
        mismatched += wrong
        repetitions += 1

    checks = Checks()
    checks.check("stream_raw.no_window_served_twice", repeated == 0, repeated)
    checks.check("stream_raw.labels_equal_offline", mismatched == 0, mismatched)
    stats = system.service.stats
    report = {
        "repetitions": repetitions,
        "windows_per_repetition": len(system.ids),
        "label_digest": digest(labels),
        "label_digest_windows": len(labels),
        "near_ties": system.near_ties,
        "wps_per_repetition": untraced_wps,
        "setup_s": setup_times,
        "fit_s": fit_times,
    }
    if not trace:
        timed = push_latencies[WARMUP_REPS:]
        pushes = [latency for rep in timed for latency in rep]
        ok = sum(1 for latency in pushes if latency <= PUSH_LIMIT_S)
        report["feeds"] = len(pushes)
        report["push_p50_ms_per_repetition"] = [median(rep) * 1e3 for rep in push_latencies]
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "wps": metric(sustained(untraced_wps[WARMUP_REPS:], "higher"), "windows/s"),
            "feed_p50_ms": metric(
                sustained([median(rep) for rep in timed], "lower") * 1e3, "ms"
            ),
            "feed_p99_ms": metric(percentile(pushes, 99) * 1e3, "ms"),
            "feed_ok_frac": metric(ok / len(pushes), "ratio"),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "checks": checks, "report": report}

    self_times = tracer.self_times()
    wall = sum(tracer.durations("rep"))
    stage_frac = sum(self_times.get(name, 0.0) for name in LAYER_SPANS) / wall
    checks.check(
        "stream_raw.stage_sum_within_10pct", 0.9 <= stage_frac <= 1.1, round(stage_frac, 4)
    )
    busy = sum(tracer.durations("session.push"))
    rows_per_call = counts["engine_rows"] / max(counts["engine_calls"], 1)
    layer = {
        "session.busy_s": busy,
        "session.us_per_sample": busy / counts["samples_in"] * 1e6,
        "session.push_calls": counts["push_calls"],
        "session.samples_in": counts["samples_in"],
        "session.windows_out": counts["windows_out"],
        "service.transform_s": self_times.get("service.transform", 0.0),
        "scheduler.submit_s": self_times.get("scheduler.submit", 0.0),
        "scheduler.pump_s": self_times.get("scheduler.pump", 0.0)
        + self_times.get("scheduler.flush", 0.0),
        "scheduler.batches": traced_batches,
        "scheduler.mean_batch": rows_per_call,
        "scheduler.queue_wait_p50_ms": percentile(queue_waits, 50) * 1e3,
        "scheduler.queue_wait_p99_ms": percentile(queue_waits, 99) * 1e3,
        "scheduler.shed": stats.windows_shed,
        "scheduler.dead": stats.windows_dead,
        "scheduler.score_failures": stats.score_failures,
        "engine.decide_s": self_times.get("engine.decide", 0.0),
        "engine.rows_per_call": rows_per_call,
        "engine.compile_s.float64": median(compile_times),
        "fit_s": median(fit_times),
        "trace.stage_sum_frac": stage_frac,
        # Only the untraced repetitions interleaved with the traced ones: the
        # host's speed drifts over a run, and the later ones are all untraced.
        "trace.overhead_frac": median(untraced_wps[: len(traced_wps)]) / median(traced_wps)
        - 1.0,
    }
    report["self_times"] = self_times
    return {"layer": layer, "attempted": attempted, "failed": failed,
            "checks": checks, "report": report}
