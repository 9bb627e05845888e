"""``repro serve`` with the benchmark's probes running inside the daemon.

Usage::

    python3 perfbench/daemon.py OUT.json [--trace] serve [repro serve options]

Runs the unmodified ``repro`` CLI.  A sampler thread in the daemon times
``hostspeed.speed_probe`` on its own CPU clock every 100 ms, so the
daemon's CPU costs can be scaled by the speed of the CPUs they ran on.
With ``--trace`` the service wrappers from ``tracing.py`` are installed
before the daemon imports its request handlers.  Probes and spans are
written to ``OUT.json`` when the daemon exits (send SIGINT).  Pool
workers are forked from the daemon, so under ``--trace`` their compiles
pay the wrapper cost, but only the daemon's own spans are kept; cold
compiles in workers are seen as one ``compiler.pool`` span from submit
to result.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402
import tracing  # noqa: E402

#: pause between two speed probes.
PROBE_EVERY_S = 0.1


def trace_pool(tracer: tracing.Tracer) -> None:
    """Time each pool task from submit until its result is back."""
    from repro.compiler import pool

    original = pool.submit

    def submit(fn, payload, **kwargs):
        start = time.monotonic()
        future = original(fn, payload, **kwargs)

        def done(finished) -> None:
            worker_ms = 0.0
            if not finished.cancelled() and finished.exception() is None:
                events = finished.result().get("events") or {}
                # hierarchy stages (with a round) nest inside "hierarchy"
                worker_ms = sum(
                    event["wall_ms"]
                    for event in events.get("passes", ())
                    if "round" not in event
                )
            tracer.record(
                "compiler.pool", start, time.monotonic(),
                {"worker_ms": worker_ms},
            )

        future.add_done_callback(done)
        return future

    pool.submit = submit


def sample_speed(probes: list) -> None:
    while True:
        probes.append(
            (time.monotonic(), hostspeed.speed_probe(time.thread_time))
        )
        time.sleep(PROBE_EVERY_S)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        tracer.install(tracing.SERVICE_WRAPS)
        trace_pool(tracer)
    probes: list = []
    threading.Thread(target=sample_speed, args=(probes,), daemon=True).start()

    def dump() -> None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"probes": list(probes), "spans": list(tracer.spans)}, handle)

    atexit.register(dump)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
