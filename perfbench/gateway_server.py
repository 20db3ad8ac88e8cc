"""Gateway process of the ``gateway-fabric`` workload.

``python3 perfbench/gateway_server.py CONFIG.json`` serves a registry model
at ``fixed16`` through a :class:`repro.gateway.Gateway` over a 2-worker
:class:`repro.serving.ServingFabric`, with ``/v1/model/swap`` backed by the
same registry.  Once listening it writes ``{"port", "pid", "worker_pids"}``
to the config's ``ready`` path.  SIGTERM drains and exits; the process then
writes its report (and, when tracing, its spans) to the configured paths.

With ``trace`` set, SIGUSR1 installs span wrappers around the parent-side
layer calls (fabric push and swap, shm publish, registry loads, HTTP
parsing), so one process can serve an untraced phase and then a traced one.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.gateway.http as http  # noqa: E402
import repro.serving.fabric as fabric_module  # noqa: E402
from repro.gateway import Gateway  # noqa: E402
from repro.serving import ModelRegistry, ServingFabric  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402


def install_tracer(tracer: Tracer, segment_bytes: list) -> None:
    tracer.wrap(
        ServingFabric,
        "push",
        "fabric.push",
        ident=lambda self, session_id, samples: (session_id, float(samples[0][0])),
    )
    tracer.wrap(ServingFabric, "swap", "fabric.swap")
    tracer.wrap(
        fabric_module,
        "publish_engine",
        "shm.publish",
        on_result=lambda shared, args: segment_bytes.append(shared.nbytes),
    )
    tracer.wrap(ModelRegistry, "load_compiled", "registry.load")
    tracer.wrap(http, "parse_request_head", "gateway.parse")
    tracer.wrap(http.Request, "json", "gateway.parse.json")


async def serve(config: dict) -> dict:
    with open(config["scaler"], "rb") as handle:
        scaler = pickle.load(handle)
    registry = ModelRegistry(config["registry"])
    fabric = ServingFabric.from_registry(
        registry,
        config["name"],
        config["version"],
        precision="fixed16",
        n_workers=config["workers"],
        transform=scaler.transform,
        **config["service"],
    )
    gateway = Gateway(fabric, registry=registry, registry_name=config["name"])
    await gateway.start()

    tracer, segment_bytes = Tracer(), []
    if config["trace"]:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGUSR1, install_tracer, tracer, segment_bytes
        )
    ready = {"port": gateway.port, "pid": os.getpid(), "worker_pids": fabric.worker_pids()}
    partial = Path(config["ready"]).with_suffix(".partial")
    partial.write_text(json.dumps(ready), encoding="utf-8")
    partial.replace(config["ready"])

    await gateway.serve_forever()
    tracer.restore()
    if config["trace"]:
        tracer.dump(config["spans"])
    return {
        "gateway": gateway.stats.as_dict(),
        "restarts": fabric.restarts,
        "timeouts": fabric.timeouts,
        "segment_bytes": max(segment_bytes, default=0),
    }


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    report = asyncio.run(serve(config))
    Path(config["report"]).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main()
