"""Shared configuration, data generation and reporting for the workloads.

Every input is generated from the workload seed before timing starts; the
program under test only ever sees the generated arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.boosthd import BoostHD
from repro.data import CHANNELS, WESAD_STATES, SignalSimulator, load_wesad
from repro.data.features import extract_features

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for registries, traces and result files (git-ignored).
WORK = ROOT / ".perfbench_work"

#: The paper-scale ensemble: D_total=10000 split over N_L=10 learners.
TOTAL_DIM = 10_000
N_LEARNERS = 10
#: Stream layout: 1 s chunks at 32 Hz, 20 s windows stepped every 5 s, so
#: four windows are open at every sample.
SAMPLING_RATE = 32
CHUNK_SAMPLES = 32
WINDOW_SAMPLES = 640
STEP_SAMPLES = 160
N_SESSIONS = 64
MAX_BATCH = 64
N_CHANNELS = len(CHANNELS)
#: Chunks fed before timing so every session starts in the steady state
#: (four open windows): the first window completes on the next chunk.
PRIME_CHUNKS = WINDOW_SAMPLES // CHUNK_SAMPLES - 1
#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------- inputs
def simulator(rng) -> SignalSimulator:
    """The simulator configuration the WESAD-like loader trains on."""
    return SignalSimulator(
        sampling_rate=SAMPLING_RATE,
        window_seconds=WINDOW_SAMPLES / SAMPLING_RATE,
        noise_level=0.9,
        class_overlap=0.03,
        rng=rng,
    )


def wesad_split(seed: int):
    """``(dataset, X_train, X_test, y_train, y_test)`` for one seed."""
    dataset = load_wesad(seed=seed)
    X_train, X_test, y_train, y_test = dataset.split(rng=seed)
    return dataset, X_train, X_test, y_train, y_test


def fit_model(X_train: np.ndarray, y_train: np.ndarray, seed: int) -> BoostHD:
    return BoostHD(total_dim=TOTAL_DIM, n_learners=N_LEARNERS, seed=seed).fit(
        X_train, y_train
    )


class SessionStreams:
    """Per-session raw chunk sources, deterministic in ``(seed, session)``.

    Session ``s`` streams WESAD state ``s % 3`` for a subject drawn from its
    own seeded simulator, so chunk contents do not depend on the order in
    which sessions are advanced.
    """

    def __init__(self, seed: int, n_sessions: int = N_SESSIONS) -> None:
        children = np.random.SeedSequence([seed, 0x5EED]).spawn(n_sessions)
        self.ids = [f"s{index:02d}" for index in range(n_sessions)]
        self._sources = []
        for index, child in enumerate(children):
            source = simulator(np.random.default_rng(child))
            subject = source.random_subject()
            state = WESAD_STATES[index % len(WESAD_STATES)]
            self._sources.append(
                source.stream_chunks(state, subject, chunk_samples=CHUNK_SAMPLES)
            )

    def next_round(self) -> list[np.ndarray]:
        """One chunk per session, in session order."""
        return [next(source) for source in self._sources]


class WindowLedger:
    """Raw samples each session was fed, for the offline-pipeline oracle.

    Holds only the samples that windows not yet checked still need, so the
    ledger stays small however long a run is.
    """

    def __init__(self, ids) -> None:
        self.buffers = {sid: [] for sid in ids}
        self.offsets = {sid: 0 for sid in ids}
        self.fed = {sid: 0 for sid in ids}

    def record(self, session_id: str, chunk: np.ndarray) -> None:
        self.buffers[session_id].append(chunk)
        self.fed[session_id] += chunk.shape[1]

    def complete_windows(self, session_id: str) -> int:
        """Number of windows the samples fed so far complete."""
        fed = self.fed[session_id]
        if fed < WINDOW_SAMPLES:
            return 0
        return (fed - WINDOW_SAMPLES) // STEP_SAMPLES + 1

    def take(self, session_id: str, indices) -> np.ndarray:
        """Raw windows ``indices`` (ascending) of one session; drops older samples."""
        parts = self.buffers[session_id]
        stream = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        offset = self.offsets[session_id]
        starts = [index * STEP_SAMPLES - offset for index in indices]
        windows = np.stack([stream[:, start : start + WINDOW_SAMPLES] for start in starts])
        keep_from = (indices[-1] + 1) * STEP_SAMPLES
        self.buffers[session_id] = [stream[:, keep_from - offset :]]
        self.offsets[session_id] = keep_from
        return windows


def offline_scores(windows: np.ndarray, scaler, engine) -> np.ndarray:
    """The paper pipeline: ``extract_features -> scaler -> engine`` scores."""
    return engine.decision_function(scaler.transform(extract_features(windows)))


#: Reference top-2 score margins below this are ties within the rounding of
#: the compared paths (float32 encode, 1e-9 incremental features moving an
#: int16 query code); a label disagreement there is not a defect.
TIE_MARGIN = 1e-4


def label_mismatches(reference_scores: np.ndarray, classes, labels) -> tuple[int, int]:
    """``(mismatches, near_ties)`` of ``labels`` against reference scores.

    A label differing from the reference argmax is a mismatch unless the
    reference's top-2 margin is below :data:`TIE_MARGIN`; those are counted
    as near ties instead.
    """
    reference = np.asarray(classes)[np.argmax(reference_scores, axis=1)]
    ordered = np.sort(reference_scores, axis=1)
    margins = ordered[:, -1] - ordered[:, -2]
    differ = reference != np.asarray(labels)
    near = differ & (margins < TIE_MARGIN)
    return int(np.sum(differ & ~near)), int(np.sum(near))


# ------------------------------------------------------------- statistics
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sustained(values, better: str) -> float:
    """The level held in nine repetitions out of ten.

    The 10th percentile of a higher-is-better figure, the 90th of a
    lower-is-better one.  The hosts this runs on drift between speed states
    for seconds at a time; the median of a run's repetitions follows
    whichever state the run happened to meet, while this quantile stays on
    the slow state that nearly every run contains.
    """
    return percentile(values, 10 if better == "higher" else 90)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(labels) -> str:
    """Short stable fingerprint of a label sequence."""
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]


# --------------------------------------------------------------- reporting
def provenance(workload: str, seed: int, trace: bool, pinned) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {name: os.environ.get(name) for name in pinned},
        "commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_report(name: str, report: dict) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return path


class Checks:
    """Named oracle outcomes; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}
        self.notes: dict[str, object] = {}

    def check(self, name: str, ok: bool, note=None) -> None:
        self.results[name] = bool(ok)
        if note is not None:
            self.notes[name] = note
        if not ok:
            log(f"oracle FAILED: {name} {note if note is not None else ''}")

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(self.results.values())

