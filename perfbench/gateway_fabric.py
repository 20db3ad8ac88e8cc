"""Workload ``gateway-fabric``: wire traffic into a gateway over a fabric.

Loads ``gateway`` -> ``serving.fabric`` / ``serving.shm`` /
``serving.registry`` (the layers the other workloads skip): a gateway
subprocess (``gateway_server.py``) serves a registry model at ``fixed16``
over a 2-worker ``ServingFabric``, with the windowing of ``stream-raw``.

Load generator, in this process: an open loop sending the 64 sessions' 1 s
chunks round-robin at a fixed 100 feeds/s over 2 keep-alive connections
(session ``s`` always on connection ``s % 2``, so its chunks stay in order).
A feed's latency is timed from when it was due, so a stall also charges the
feeds queued behind it.  Every 100th feed is a swap point: on a third
connection the generator flushes the pending windows (``/score``), sends that
feed, posts ``/v1/model/swap`` (alternating between two registry versions of
the same model, so labels cannot depend on swap timing) and holds the next
feed until the swap is answered.  Each swap therefore meets exactly the
windows its feed completed, so what a swap has to flush is the same in every
run.  Every request body is encoded before timing starts.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.features import extract_features
from repro.serving import ModelRegistry

from .common import (
    MAX_BATCH,
    N_CHANNELS,
    PRIME_CHUNKS,
    SETUP_REPEATS,
    STEP_SAMPLES,
    WINDOW_SAMPLES,
    WORK,
    Checks,
    SessionStreams,
    WindowLedger,
    digest,
    fit_model,
    label_mismatches,
    log,
    median,
    metric,
    peak_rss_mb,
    percentile,
    wesad_split,
)
from .trace import Tracer

HERE = Path(__file__).resolve().parent
MODEL = "stress"
N_WORKERS = 2
CONNECTIONS = 2
#: Offered load, feeds per second.  The seed's gateway backend thread is
#: busy ~2.5 ms per feed (capacity ~400/s); hosts like the one this was
#: built on run at half speed for minutes at a time, which pushed 200/s into
#: a growing backlog.  100/s stays under half of capacity even then.
RATE = 100.0
#: Feeds between swaps (one swap a second).
SWAP_FEEDS = 100
#: A feed answered later than this (from its due time) is a miss.
FEED_LIMIT_S = 0.250
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


# -------------------------------------------------------------------- wire
def _request(method: str, path: str, payload=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _exchange(connection, raw: bytes) -> tuple[int, bytes]:
    reader, writer = connection
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def _close(connection) -> None:
    connection[1].close()
    try:
        await connection[1].wait_closed()
    except (ConnectionError, OSError):
        pass


# ------------------------------------------------------------------ inputs
class _Feeds:
    """Every chunk and pre-encoded feed body of one run, from the seed."""

    def __init__(self, seed: int, n_feeds: int) -> None:
        streams = SessionStreams(seed)
        self.ids = streams.ids
        n_sessions = len(self.ids)
        rounds = PRIME_CHUNKS + -(-n_feeds // n_sessions)
        chunks = [streams.next_round() for _ in range(rounds)]
        self.prime = []
        for s, sid in enumerate(self.ids):
            primer = np.concatenate([chunks[r][s] for r in range(PRIME_CHUNKS)], axis=1)
            self.prime.append(
                _request("POST", f"/v1/sessions/{sid}/windows", {"samples": primer.tolist()})
            )
        self.ledger = WindowLedger(self.ids)
        for r in range(PRIME_CHUNKS):
            for s, sid in enumerate(self.ids):
                self.ledger.record(sid, chunks[r][s])
        self.session, self.chunk, self.key, self.body = [], [], [], []
        for index in range(n_feeds):
            s = index % n_sessions
            sid, chunk = self.ids[s], chunks[PRIME_CHUNKS + index // n_sessions][s]
            self.session.append(sid)
            self.chunk.append(chunk)
            self.key.append((sid, float(chunk[0, 0])))
            self.body.append(
                _request("POST", f"/v1/sessions/{sid}/windows", {"samples": chunk.tolist()})
            )


# ----------------------------------------------------------------- set-up
class _Deployment:
    """One set-up: fit, registry, gateway process, open and primed sessions."""

    def __init__(self, seed: int, feeds: _Feeds, index: int, trace: bool) -> None:
        start = time.perf_counter()
        dataset, X_train, _, y_train, _ = wesad_split(seed)
        fit_start = time.perf_counter()
        model = fit_model(X_train, y_train, seed)
        self.fit_s = time.perf_counter() - fit_start
        self.work = WORK / f"gateway-seed{seed}-{index}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        registry = ModelRegistry(self.work / "registry")
        self.save_s = []
        for _ in range(2):
            saved = time.perf_counter()
            registry.save(MODEL, model)
            self.save_s.append(time.perf_counter() - saved)
        self.reference = registry.load_compiled(MODEL, 1, precision="fixed16")
        self.scaler = dataset.scaler
        with open(self.work / "scaler.pkl", "wb") as handle:
            pickle.dump(dataset.scaler, handle)
        self.paths = {
            name: str(self.work / f"{name}.json")
            for name in ("config", "ready", "report", "spans")
        }
        config = {
            "registry": str(self.work / "registry"),
            "name": MODEL,
            "version": 1,
            "scaler": str(self.work / "scaler.pkl"),
            "workers": N_WORKERS,
            "trace": trace,
            "service": {
                "n_channels": N_CHANNELS,
                "window_samples": WINDOW_SAMPLES,
                "step_samples": STEP_SAMPLES,
                "max_batch": MAX_BATCH,
            },
            **{name: self.paths[name] for name in ("ready", "report", "spans")},
        }
        Path(self.paths["config"]).write_text(json.dumps(config), encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "gateway_server.py"), self.paths["config"]],
            stdout=sys.stderr,
        )
        try:
            self.ready = self._wait_ready()
            self.delivered = asyncio.run(self._open_and_prime(feeds))
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> dict:
        ready = Path(self.paths["ready"])
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"gateway exited with {self.process.returncode}")
            if time.monotonic() > deadline:
                raise TimeoutError("gateway did not become ready")
            time.sleep(0.01)
        return json.loads(ready.read_text(encoding="utf-8"))

    async def _open_and_prime(self, feeds: _Feeds) -> list:
        connection = await _connect(self.ready["port"])
        delivered = []
        try:
            for sid in feeds.ids:
                opened = _request("POST", "/v1/sessions", {"session_id": sid})
                status, _ = await _exchange(connection, opened)
                if status != 201:
                    raise RuntimeError(f"session {sid} refused: {status}")
            for body in feeds.prime:
                status, reply = await _exchange(connection, body)
                if status != 200:
                    raise RuntimeError(f"priming feed refused: {status}")
                delivered.extend(json.loads(reply)["predictions"])
        finally:
            await _close(connection)
        return delivered

    def peak_rss_mb(self) -> float:
        return sum(
            peak_rss_mb(pid) for pid in [self.ready["pid"], *self.ready["worker_pids"]]
        )

    def stop(self) -> dict:
        """SIGTERM (graceful drain) and wait; returns the gateway's report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.work / "registry", ignore_errors=True)
        report = Path(self.paths["report"])
        return json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}


# ------------------------------------------------------------------- load
class _Phase:
    """Outcome of one open-loop phase."""

    def __init__(self) -> None:
        self.status, self.latency, self.lag, self.replies = {}, {}, {}, {}
        self.swap_status, self.swap_rtt = [], []
        self.flush_status, self.flushes = [], []
        self.wall = 0.0


async def _drive(port: int, feeds: _Feeds, indices: range) -> _Phase:
    phase = _Phase()
    connections = [await _connect(port) for _ in range(CONNECTIONS)]
    control = await _connect(port)
    t0 = time.perf_counter() + 0.05
    first = indices.start
    # Swap point k: once feed k - 1 is answered, flush every pending window,
    # send feed k, swap, and only then let feed k + 1 go.  The swap then
    # always meets exactly the windows feed k completed, whatever the timing.
    swap_points = range(first + SWAP_FEEDS, indices.stop, SWAP_FEEDS)
    before_swap = {k: asyncio.Event() for k in swap_points}
    swapped = {k: asyncio.Event() for k in swap_points}

    async def flush(session_id: str) -> None:
        flushed = _request("POST", f"/v1/sessions/{session_id}/score")
        status, body = await _exchange(control, flushed)
        phase.flush_status.append(status)
        phase.flushes.append(body)

    async def swap(count: int) -> None:
        version = 2 if count % 2 == 0 else 1
        sent = time.perf_counter()
        status, _ = await _exchange(
            control,
            _request("POST", "/v1/model/swap", {"version": version, "precision": "fixed16"}),
        )
        phase.swap_rtt.append(time.perf_counter() - sent)
        phase.swap_status.append(status)

    async def lane(lane_index: int) -> None:
        connection = connections[lane_index]
        for index in indices:
            if index % CONNECTIONS != lane_index:
                continue
            last_swap = first + (index - 1 - first) // SWAP_FEEDS * SWAP_FEEDS
            if last_swap in swapped:
                await swapped[last_swap].wait()
            if index in before_swap:
                await before_swap[index].wait()
                await flush(feeds.session[index])
            due = t0 + (index - first) / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lag[index] = time.perf_counter() - due
            status, body = await _exchange(connection, feeds.body[index])
            phase.latency[index] = time.perf_counter() - due
            phase.status[index] = status
            phase.replies[index] = body
            if index + 1 in before_swap:
                before_swap[index + 1].set()
            if index in swapped:
                await swap(swap_points.index(index))
                swapped[index].set()

    try:
        await asyncio.gather(*(lane(index) for index in range(CONNECTIONS)))
        phase.wall = time.perf_counter() - t0
    finally:
        for connection in [*connections, control]:
            await _close(connection)
    return phase


async def _collect(port: int, ids) -> tuple[list, dict]:
    """Flush every pending window and pick up every mailbox; then stats."""
    connection = await _connect(port)
    try:
        flush = _request("POST", f"/v1/sessions/{ids[0]}/score")
        status, body = await _exchange(connection, flush)
        if status != 200:
            raise RuntimeError(f"final score refused: {status}")
        delivered = json.loads(body)["predictions"]
        for sid in ids:
            mailbox = _request("GET", f"/v1/sessions/{sid}/predictions")
            status, body = await _exchange(connection, mailbox)
            delivered.extend(json.loads(body)["predictions"])
        _, body = await _exchange(connection, _request("GET", "/v1/stats"))
        stats = json.loads(body)
    finally:
        await _close(connection)
    return delivered, stats


def _slices(latency: dict, seconds: float) -> list[list[float]]:
    """Feed latencies grouped by ``seconds``-long slices of the schedule."""
    slices: dict[int, list[float]] = {}
    for index, value in latency.items():
        slices.setdefault(int(index // (RATE * seconds)), []).append(value)
    return list(slices.values())


# -------------------------------------------------------------------- run
def run(seed: int, seconds: float, trace: bool) -> dict:
    n_feeds = int(RATE * seconds)
    feeds = _Feeds(seed, n_feeds)
    timings, save_times = [], []
    for repeat in range(SETUP_REPEATS):
        deployment = _Deployment(seed, feeds, repeat, trace)
        timings.append((deployment.setup_s, deployment.fit_s))
        save_times.extend(deployment.save_s)
        log(f"gateway-fabric set-up {repeat + 1}/{SETUP_REPEATS}: {deployment.setup_s:.2f} s")
        if repeat < SETUP_REPEATS - 1:
            deployment.stop()
    setup_times, fit_times = zip(*timings)

    port = deployment.ready["port"]
    try:
        if trace:
            half = n_feeds // 2
            untraced = asyncio.run(_drive(port, feeds, range(0, half)))
            deployment.process.send_signal(signal.SIGUSR1)
            time.sleep(0.2)  # the gateway installs its wrappers on its next loop turn
            phases = [untraced, asyncio.run(_drive(port, feeds, range(half, n_feeds)))]
        else:
            phases = [asyncio.run(_drive(port, feeds, range(0, n_feeds)))]
        drain_start = time.perf_counter()
        final, stats = asyncio.run(_collect(port, feeds.ids))
        drain_s = time.perf_counter() - drain_start
        rss = deployment.peak_rss_mb()
    finally:
        server_report = deployment.stop()

    # ------------------------------------------------------------ oracles
    checks = Checks()
    status = {i: s for phase in phases for i, s in phase.status.items()}
    latency = {i: v for phase in phases for i, v in phase.latency.items()}
    replies = [phase.replies[i] for phase in phases for i in sorted(phase.replies)]
    delivered = list(deployment.delivered)
    flushes = [body for phase in phases for body in phase.flushes]
    for body in replies + flushes:
        delivered.extend(json.loads(body).get("predictions", []))
    delivered.extend(final)
    refused = n_feeds - sum(1 for s in status.values() if s == 200)
    for i in range(n_feeds):
        if status.get(i) == 200:
            feeds.ledger.record(feeds.session[i], feeds.chunk[i])
    by_session = {sid: {} for sid in feeds.ids}
    duplicates = shed = 0
    for wire in delivered:
        windows = by_session[wire["session_id"]]
        if wire["window_index"] in windows:
            duplicates += 1
        if wire["status"] == "scored":
            windows[wire["window_index"]] = wire
        else:
            shed += 1
    lost, expected_windows, raw, labels, queue_waits = [], 0, [], [], []
    for sid in feeds.ids:
        expected = feeds.ledger.complete_windows(sid)
        expected_windows += expected
        got = by_session[sid]
        unexpected = set(got) - set(range(expected))
        lost.extend((sid, index) for index in range(expected) if index not in got)
        indices = [index for index in range(expected) if index in got]
        if indices:
            raw.append(feeds.ledger.take(sid, indices))
        labels.extend(got[index]["label"] for index in indices)
        queue_waits.extend(got[index]["queue_seconds"] for index in indices)
        duplicates += len(unexpected)
    # A window never answered, or shed, is a failed operation (counted
    # below); one answered twice, or without having been fed, is a wrong
    # output.
    checks.check("gateway.no_window_answered_twice", duplicates == 0, duplicates)
    attempted = n_feeds + expected_windows
    failed = refused + len(lost)
    features = deployment.scaler.transform(extract_features(np.concatenate(raw)))
    reference = deployment.reference.decision_function(features)
    mismatched, near_ties = label_mismatches(reference, deployment.reference.classes_, labels)
    checks.check("gateway.labels_equal_fixed16_reference", mismatched == 0,
                 {"mismatched": mismatched, "near_ties": near_ties, "windows": len(labels)})
    score = deployment.reference.decision_function
    pieces = np.concatenate([score(features[row : row + 7]) for row in range(0, len(features), 7)])
    checks.check("gateway.fixed16_batch_invariant", np.array_equal(reference, pieces))
    swap_status = [s for phase in phases for s in phase.swap_status]
    checks.check(
        "gateway.swaps_accepted",
        bool(swap_status) and all(s == 200 for s in swap_status),
        swap_status,
    )
    flush_status = [s for phase in phases for s in phase.flush_status]
    checks.check(
        "gateway.flushes_accepted", all(s == 200 for s in flush_status), flush_status
    )
    edge = stats["gateway"]
    checks.check(
        "gateway.no_handler_errors",
        edge["handler_errors"] == 0 and edge["protocol_errors"] == 0,
        edge,
    )

    lags = [v for phase in phases for v in phase.lag.values()]
    report = {
        "feeds": n_feeds,
        "feeds_refused": refused,
        "windows_lost": lost,
        "windows_shed": shed,
        "windows": len(labels),
        "label_digest": digest(labels),
        "swaps": len(swap_status),
        "setup_s": setup_times,
        "fit_s": fit_times,
        "server": server_report,
        "shards": stats["backend"],
        "lag_p99_ms": percentile(lags, 99) * 1e3,
    }
    ok = sum(1 for i, s in status.items() if s == 200 and latency[i] <= FEED_LIMIT_S)
    if not trace:
        phase = phases[0]
        # Host stalls last a second or two; summarising per slice of the
        # schedule and taking the median slice keeps one stall from setting
        # the run's figure.  p50 per 1 s slice, p99 per 5 s slice (500 feeds).
        p50_slices = _slices(phase.latency, 1.0)
        p99_slices = _slices(phase.latency, 5.0)
        report["feed_p50_ms_per_second"] = [median(v) * 1e3 for v in p50_slices]
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "wps": metric(len(labels) / (phase.wall + drain_s), "windows/s"),
            "feed_p50_ms": metric(median([median(v) for v in p50_slices]) * 1e3, "ms"),
            "feed_p99_ms": metric(
                median([percentile(v, 99) for v in p99_slices]) * 1e3, "ms"
            ),
            "feed_ok_frac": metric(ok / n_feeds, "ratio"),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "checks": checks, "report": report}

    spans = Tracer.load(deployment.paths["spans"])
    traced = phases[1]
    push = spans.by_ident("fabric.push")
    self_ms = [
        (traced.latency[i] - push[feeds.key[i]]) * 1e3
        for i in traced.latency
        if feeds.key[i] in push
    ]
    shards = stats["backend"]
    windows = sum(shard["windows"] for shard in shards)
    batches = sum(shard["batches"] for shard in shards)
    layer = {
        "scheduler.batches": batches,
        "scheduler.mean_batch": windows / max(batches, 1),
        "scheduler.queue_wait_p50_ms": percentile(queue_waits, 50) * 1e3,
        "scheduler.queue_wait_p99_ms": percentile(queue_waits, 99) * 1e3,
        "scheduler.shed": sum(shard["windows_shed"] for shard in shards),
        "scheduler.dead": sum(shard["windows_dead"] for shard in shards),
        "scheduler.score_failures": sum(shard["score_failures"] for shard in shards),
        "engine.rows_per_call": windows / max(batches, 1),
        "fit_s": median(fit_times),
        "registry.save_s": median(save_times),
        "registry.load_s": median(spans.durations("registry.load")),
        "shm.publish_s": median(spans.durations("shm.publish")),
        "shm.segment_bytes": server_report.get("segment_bytes", 0),
        "fabric.push_p50_ms": percentile(list(push.values()), 50) * 1e3,
        "fabric.push_p99_ms": percentile(list(push.values()), 99) * 1e3,
        "fabric.swap_ms": median(spans.durations("fabric.swap")) * 1e3,
        "fabric.restarts": server_report.get("restarts", 0),
        "fabric.timeouts": server_report.get("timeouts", 0),
        "gateway.parse_s": sum(spans.durations("gateway.parse"))
        + sum(spans.durations("gateway.parse.json")),
        "gateway.self_p50_ms": percentile(self_ms, 50),
        "gateway.accepted": n_feeds - refused,
        "gateway.rejected_429": edge["rejected_rate_limited"],
        "gateway.rejected_503": edge["rejected_saturated"] + edge["rejected_draining"],
        "gateway.late_responses": edge["late_responses"],
        "swap_p50_ms": median([rtt for phase in phases for rtt in phase.swap_rtt]) * 1e3,
        "loadgen.lag_p99_ms": percentile(lags, 99) * 1e3,
        "trace.overhead_frac": percentile(list(traced.latency.values()), 50)
        / percentile(list(phases[0].latency.values()), 50)
        - 1.0,
    }
    return {"layer": layer, "attempted": attempted, "failed": failed,
            "checks": checks, "report": report}
