"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

Imports what the workload's units call, starts what they need before
the first unit can run (a codec pool for pack-unpack, the daemon child
for serve-echo), prints ``ready`` and tears it down.  The parent times
from spawning this interpreter to reading ``ready``; input generation
is not part of it.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(workload: str) -> int:
    if workload == "pack-unpack":
        from repro.core.pipeline import CodecThreadPool
        from repro.io import streams  # noqa: F401

        pool = CodecThreadPool(2)
        print("ready", flush=True)
        pool.close()
    elif workload == "serve-echo":
        from repro.serve import ServeClient  # noqa: F401
        from workloads import Daemon

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        daemon = Daemon(root, traced=False)
        print("ready", flush=True)
        daemon.close()
    elif workload == "sim-fleet":
        from repro.sim import fleet  # noqa: F401

        print("ready", flush=True)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
