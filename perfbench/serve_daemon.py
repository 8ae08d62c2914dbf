"""The serve-echo daemon, run in its own child process.

Starts a :class:`~repro.serve.TransferServer` (thread backend, two codec
workers, echo re-encode at level NO), prints ``{"host", "port"}`` once
it accepts, then answers one JSON line per command read from stdin:

``stats``  process CPU, per-thread CPU of the loop and codec threads,
           codec job and error counters, buffer-pool stats, peak RSS and,
           with ``--trace 1``, the daemon side of the layer ledger;
``quit``   the same after a drained stop; then the process exits.

The daemon lives in its own process so that the client's interpreter
lock can neither be credited to nor steal from the server.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger as ledger_mod  # noqa: E402
from workloads import peak_rss_mb  # noqa: E402


def thread_cpu(prefix: str) -> float:
    return sum(
        ledger_mod.thread_cpu_seconds(t)
        for t in threading.enumerate()
        if t.name.startswith(prefix) and t.is_alive()
    )


def stats(server, ledger) -> dict:
    status = server.status()
    codec = status["codec"]
    out = {
        "cpu": time.process_time(),
        "loop_cpu": thread_cpu("repro-serve-loop"),
        "codec_cpu": thread_cpu("repro-serve-codec"),
        "codec_jobs": codec["jobs_completed"],
        "job_failures": codec["job_failures"],
        "internal_errors": status["internal_errors"],
        "buffer_pool": status["buffer_pool"],
        "max_rss_mb": peak_rss_mb(),
    }
    if ledger is not None:
        out["ledger"] = ledger.totals()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.serve import ServeConfig, TransferServer

    ledger = levels = patches = None
    if args.trace:
        ledger = ledger_mod.Ledger()
        patches = ledger_mod.install(ledger)
        levels = ledger_mod.timed_level_table(ledger)
    config = ServeConfig(port=0, codec_workers=2, codec_backend="thread", level="NO")
    server = TransferServer(config, levels=levels).start()
    try:
        host, port = server.address[:2]
        print(json.dumps({"host": host, "port": port}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(stats(server, ledger)), flush=True)
            elif command == "quit":
                final = stats(server, ledger)
                server.stop(drain=True, timeout=10.0)
                print(json.dumps(final), flush=True)
                return 0
        return 0
    finally:
        server.stop(drain=False, timeout=5.0)
        if patches is not None:
            patches.undo()


if __name__ == "__main__":
    sys.exit(main())
