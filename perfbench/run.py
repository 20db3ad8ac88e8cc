"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Prints progress to stderr, a provenance line and then, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Exits non-zero (after printing the result) when a
correctness oracle fails, and without a result when the program under test
cannot be found or the run cannot complete.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "stream-raw": "stream_raw",
    "batch-score": "batch_score",
    "gateway-fabric": "gateway_fabric",
}


#: Pinned before numpy is imported anywhere, and recorded in every result.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_SCORE_THREADS": "1",
}
PRECISIONS = ("float64", "fixed16", "packed", "cascade")

#: Every per-layer metric and its unit.  A traced run reports all of them;
#: a layer its workload does not load reports 0.
LAYER_UNITS = {
    "session.busy_s": "s",
    "session.us_per_sample": "us",
    "session.push_calls": "count",
    "session.samples_in": "count",
    "session.windows_out": "count",
    "service.transform_s": "s",
    "scheduler.submit_s": "s",
    "scheduler.pump_s": "s",
    "scheduler.batches": "count",
    "scheduler.mean_batch": "windows",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.queue_wait_p99_ms": "ms",
    "scheduler.shed": "count",
    "scheduler.dead": "count",
    "scheduler.score_failures": "count",
    "engine.decide_s": "s",
    **{f"engine.encode_s.{p}": "s" for p in PRECISIONS},
    **{f"engine.score_s.{p}": "s" for p in PRECISIONS},
    **{f"engine.compile_s.{p}": "s" for p in PRECISIONS},
    **{f"score_wps.{p}": "windows/s" for p in PRECISIONS},
    "engine.cascade.rerank_frac": "ratio",
    "engine.rows_per_call": "rows",
    "fit_s": "s",
    "train.encode_s": "s",
    "train.bundle_s": "s",
    "train.pass_s": "s",
    "train.passes": "count",
    "registry.save_s": "s",
    "registry.load_s": "s",
    "shm.publish_s": "s",
    "shm.segment_bytes": "bytes",
    "fabric.push_p50_ms": "ms",
    "fabric.push_p99_ms": "ms",
    "fabric.swap_ms": "ms",
    "fabric.restarts": "count",
    "fabric.timeouts": "count",
    "gateway.parse_s": "s",
    "gateway.self_p50_ms": "ms",
    "gateway.accepted": "count",
    "gateway.rejected_429": "count",
    "gateway.rejected_503": "count",
    "gateway.late_responses": "count",
    "swap_p50_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.stage_sum_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so cleanup (the gateway process) runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name, value in PINNED_ENV.items():
        os.environ[name] = value
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common

    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    trace = bool(args.trace)
    outcome = workload.run(args.seed, args.seconds, trace)

    checks = outcome["checks"]
    provenance = common.provenance(args.workload, args.seed, trace, PINNED_ENV)
    if trace:
        unknown = set(outcome["layer"]) - set(LAYER_UNITS)
        if unknown:
            raise KeyError(f"per-layer metrics missing from LAYER_UNITS: {sorted(unknown)}")
        metrics = {
            name: common.metric(outcome["layer"].get(name, 0.0), unit)
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = outcome["metrics"]
    report = {
        "provenance": provenance,
        "checks": checks.results,
        "check_notes": checks.notes,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "details": outcome["report"],
    }
    path = common.write_report(
        f"{args.workload}-seed{args.seed}-trace{int(trace)}", report
    )
    print(
        json.dumps(
            {
                "provenance": provenance,
                "checks": checks.results,
                "report": str(path.relative_to(ROOT)),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": checks.ok,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
