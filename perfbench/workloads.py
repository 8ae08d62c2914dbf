"""The three workloads: seeded inputs, one unit of work, its checks.

``pack-unpack``  compress_file(LIGHT, workers=2) + decompress_file(workers=2)
                 of a seeded HIGH/MODERATE/LOW file; codec-dominated.
``serve-echo``   ServeClient.echo of a seeded payload (repeated
                 ``ECHO_REPEAT`` times) at level NO through a daemon in its
                 own child process; forwarding-dominated.
``sim-fleet``    one open-loop run_fleet_scenario per unit, cycling the
                 four fleet policies; simulator-dominated.

Every unit is checked; a failed check marks the unit failed and the run
goes on.  Inputs are made from the seed only and cached per seed, so
markov text generation stays out of set-up and out of the units.

Run as a script, this module writes the input files for one seed:
``python3 perfbench/workloads.py <dir> <seed> <bytes-per-class>``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
KIB = 1024
MIB = 1024 * KIB
BLOCK = 128 * KIB

#: Bytes of each compressibility class in the pack-unpack file; the
#: echo payload holds twice as much of each.
FULL_CLASS_BYTES = 3 * MIB // 2
SMOKE_CLASS_BYTES = 2 * BLOCK
#: The echo payload is the seeded echo input this many times over, so a
#: unit lasts long enough (~0.15 s) that a few-ms scheduling stall of
#: the client or the daemon does not make it a tail sample by itself.
ECHO_REPEAT = 4
INPUT_FORMAT = 3

POLICIES = (None, "fair-share", "greedy-throughput", "hill-climb")

#: Open-loop fleet: 200 flows of 64 MiB arriving every 5 simulated
#: seconds around a live target of 70 (peak 133 live), long enough for
#: Algorithm 1 to probe and the controller to rebalance.
FULL_FLEET = dict(total_flows=200, flow_mib=64, mean=70.0, swing=35.0)
SMOKE_FLEET = dict(total_flows=8, flow_mib=8, mean=4.0, swing=2.0)
#: Seed of the simulator's own random streams (arrivals, jitter).  The
#: benchmark seed orders the flow templates instead: the first arrival
#: burst is ``mean ** N(1.05, 0.04)`` flows, so a seeded arrival stream
#: alone moves peak concurrency, and with it the work, by +-20%.
SCENARIO_SEED = 7


def child_env(root: str) -> Dict[str, str]:
    """Environment for every child interpreter: the program from
    ``src/`` and a fixed string hash, so a seed fixes the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Unit:
    """One timed unit of work and the outcome of its checks."""

    wall: float
    cpu: float
    mb: float
    ok: bool
    error: str = ""
    #: Per-unit exact counts and layer samples, workload-specific.
    detail: Dict[str, float] = field(default_factory=dict)
    #: Host-speed factor from measured to nominal seconds (``hostspeed``),
    #: set by the loop that ran the unit.
    scale: float = 1.0


# -- inputs -------------------------------------------------------------


def make_inputs(directory: str, seed: int, class_bytes: int) -> None:
    """Write ``pack.bin``, ``echo.bin`` and ``expected.json`` for a seed.

    The LOW share is half corpus LOW data (zlib-1 still shrinks it a
    little) and half seeded random bytes, which zlib expands, so those
    blocks take the stored fallback.  MODERATE text, the slow class to
    generate, is made at half length and repeated: codecs see
    independent 128 KiB blocks, so a repeat 768 KiB away changes no
    block's work.
    """
    from repro.data.corpus import Compressibility, generate

    high = generate(Compressibility.HIGH, 2 * class_bytes, seed)
    moderate = generate(Compressibility.MODERATE, class_bytes // 2, seed) * 2
    low = generate(Compressibility.LOW, class_bytes, seed)
    noise = random.Random(seed).randbytes(class_bytes)
    half = class_bytes // 2
    pack = high[:class_bytes] + moderate + low[:half] + noise[:half]
    echo = high + moderate + moderate + low + noise
    # Oracle for the pack file at LIGHT (zlib level 1), computed with
    # zlib directly: which blocks take the stored fallback, and the
    # exact framed stream size.
    fallback = 0
    stream = 0
    for off in range(0, len(pack), BLOCK):
        block = pack[off : off + BLOCK]
        packed = len(zlib.compress(block, 1))
        if packed >= len(block):
            fallback += 1
            packed = len(block)
        stream += 20 + packed
    expected = {
        "blocks": math.ceil(len(pack) / BLOCK),
        "fallback_blocks": fallback,
        "stream_bytes": stream,
        "echo_blocks": math.ceil(len(echo) / BLOCK),
    }
    os.makedirs(directory, exist_ok=True)
    for name, data in (("pack.bin", pack), ("echo.bin", echo)):
        with open(os.path.join(directory, name), "wb") as fp:
            fp.write(data)
    with open(os.path.join(directory, "expected.json"), "w") as fp:
        json.dump(expected, fp)


def ensure_inputs(root: str, work: str, seed: int, class_bytes: int) -> str:
    """Return the cached input directory for ``seed``, generating it in
    a child interpreter first if needed (keeps its memory out of the
    measured process's peak RSS)."""
    directory = os.path.join(work, "inputs", f"v{INPUT_FORMAT}-{class_bytes}-{seed}")
    if os.path.exists(os.path.join(directory, "expected.json")):
        return directory
    tmp = directory + ".tmp"
    for stale in (tmp, directory):
        shutil.rmtree(stale, ignore_errors=True)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), tmp, str(seed), str(class_bytes)],
        env=child_env(root),
        check=True,
        timeout=170,
    )
    os.replace(tmp, directory)
    return directory


# -- pack-unpack --------------------------------------------------------


class PackUnpack:
    name = "pack-unpack"

    def __init__(self, root: str, work: str, seed: int, class_bytes: int) -> None:
        from repro.core.levels import PAPER_LEVEL_NAMES
        from repro.io import streams

        self._streams = streams
        self._light = PAPER_LEVEL_NAMES.index("LIGHT")
        inputs = ensure_inputs(root, work, seed, class_bytes)
        self._src = os.path.join(inputs, "pack.bin")
        with open(self._src, "rb") as fp:
            self._data = fp.read()
        with open(os.path.join(inputs, "expected.json")) as fp:
            self._expected = json.load(fp)
        self._packed = os.path.join(work, "pack.ab")
        self._out = os.path.join(work, "pack.out")
        self.levels = None  # a timing level table in the traced phase

    def run_unit(self) -> Unit:
        streams = self._streams
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = ""
        try:
            streams.compress_file(
                self._src, self._packed, static_level=self._light, workers=2,
                levels=self.levels,
            )
            t1 = time.perf_counter()
            streams.decompress_file(self._packed, self._out, workers=2)
        except Exception as exc:  # noqa: BLE001 - a failed unit, not a crash
            error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        t2 = time.perf_counter()
        cpu = time.process_time() - c0
        if not error:
            error = self._check()
        for path in (self._packed, self._out):
            if os.path.exists(path):
                os.unlink(path)
        return Unit(
            wall=t2 - t0,
            cpu=cpu,
            mb=len(self._data) / 1e6,
            ok=not error,
            error=error,
            detail={"compress_s": t1 - t0, "decompress_s": t2 - t1},
        )

    def _check(self) -> str:
        from repro.codecs.inspect import scan_block_stream

        with open(self._out, "rb") as fp:
            if fp.read() != self._data:
                return "unpacked bytes differ from the input"
        with open(self._packed, "rb") as fp:
            info = scan_block_stream(fp)
        exp = self._expected
        got = (info.blocks, info.fallback_blocks, info.stream_bytes)
        want = (exp["blocks"], exp["fallback_blocks"], exp["stream_bytes"])
        if got != want:
            return f"(blocks, fallback, stream bytes) {got} != expected {want}"
        return ""

    def warm_up(self) -> None:
        self.run_unit()

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- serve-echo ---------------------------------------------------------


class Daemon:
    """The serve daemon child: JSON lines over its stdin/stdout."""

    def __init__(self, root: str, traced: bool) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_daemon.py"), "--trace", str(int(traced))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(root),
            text=True,
        )
        try:
            hello = self._read()
        except Exception:
            self.close()
            raise
        self.address = (hello["host"], hello["port"])

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("serve daemon exited")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the daemon (drained) and wait for it to exit."""
        if self._proc.poll() is None:
            try:
                self.ask("quit")
                self._proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall through to kill
                pass
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            stream.close()


class ServeEcho:
    name = "serve-echo"

    def __init__(self, root: str, work: str, seed: int, class_bytes: int) -> None:
        from repro.serve import ServeClient

        self._client_cls = ServeClient
        self._root = root
        inputs = ensure_inputs(root, work, seed, class_bytes)
        with open(os.path.join(inputs, "echo.bin"), "rb") as fp:
            self._data = fp.read() * ECHO_REPEAT
        self.levels = None
        self.daemon: Optional[Daemon] = None
        self.start(traced=False)

    def start(self, traced: bool) -> None:
        """(Re)start the daemon, traced or not."""
        self.close()
        self.daemon = Daemon(self._root, traced)
        self._last = self.daemon.ask("stats")

    def run_unit(self) -> Unit:
        client = self._client_cls(*self.daemon.address, levels=self.levels)
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = ""
        result = None
        try:
            result = client.echo(self._data, server_level="NO", level="NO", collect=False)
        except Exception as exc:  # noqa: BLE001 - a failed unit, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        client_cpu = time.process_time() - c0
        stats = self.daemon.ask("stats")
        last, self._last = self._last, stats
        delta = {k: stats[k] - last[k] for k in ("cpu", "codec_jobs", "job_failures", "internal_errors")}
        if not error and (delta["job_failures"] or delta["internal_errors"]):
            error = f"daemon job_failures={delta['job_failures']} internal_errors={delta['internal_errors']}"
        detail = {"client_cpu": client_cpu, "codec_jobs": delta["codec_jobs"]}
        if result is not None:
            detail["wire_bytes"] = result.trailer.get("wire_bytes_in", 0)
        return Unit(
            wall=wall,
            cpu=client_cpu + delta["cpu"],
            mb=len(self._data) / 1e6,
            ok=not error,
            error=error,
            detail=detail,
        )

    def warm_up(self) -> None:
        self.run_unit()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    def peak_rss_mb(self) -> float:
        return self._last["max_rss_mb"]


# -- sim-fleet ----------------------------------------------------------


class SimFleet:
    name = "sim-fleet"

    def __init__(self, seed: int, fleet: dict) -> None:
        from repro.data.corpus import Compressibility
        from repro.sim import fleet as fleet_mod

        self._fleet = fleet_mod
        self._total = fleet["total_flows"]
        self._flow_bytes = fleet["flow_mib"] * MIB
        classes = [c for c in Compressibility for _ in range(4)]
        random.Random(seed).shuffle(classes)
        self._specs = [
            fleet_mod.FleetFlowSpec(f"f{i}-{c.name}", c, self._flow_bytes)
            for i, c in enumerate(classes)
        ]
        self._arrivals = fleet_mod.FleetArrivalSpec(
            total_flows=self._total, interval=5.0, mean=fleet["mean"], swing=fleet["swing"]
        )
        self._reference: Dict[Optional[str], tuple] = {}
        self.next_policy = 0
        self.levels = None

    def run_unit(self) -> Unit:
        policy = POLICIES[self.next_policy % len(POLICIES)]
        self.next_policy += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = ""
        result = None
        try:
            result = self._fleet.run_fleet_scenario(
                self._specs, policy=policy, arrivals=self._arrivals, seed=SCENARIO_SEED
            )
        except Exception as exc:  # noqa: BLE001 - a failed unit, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        detail: Dict[str, float] = {}
        mb = 0.0
        if result is not None:
            error = self._check(policy, result)
            mb = result.total_app_bytes / 1e6
            detail = {
                "events": result.events_processed,
                "rebalances": result.rebalances,
                "makespan": result.makespan,
                "goodput_mb_s": result.aggregate_goodput / 1e6,
                "peak_live": result.peak_live,
            }
        return Unit(wall=wall, cpu=cpu, mb=mb, ok=not error, error=error, detail=detail)

    def _check(self, policy: Optional[str], result) -> str:
        if result.flows_spawned != self._total or len(result.flows) != self._total:
            return f"spawned {result.flows_spawned}, finished {len(result.flows)} of {self._total}"
        short = [f.flow_id for f in result.flows if f.app_bytes != self._flow_bytes]
        if short or not all(math.isfinite(f.completion_time) for f in result.flows):
            return f"flows not completed: {short[:5]}"
        # Same seed and policy must replay exactly.
        key = (result.events_processed, result.makespan)
        first = self._reference.setdefault(policy, key)
        if key != first:
            return f"policy {policy}: (events, makespan) {key} != first run {first}"
        return ""

    def warm_up(self) -> None:
        """One small scenario: trains the corpus text model once per
        process, as a long-lived simulator would."""
        small = SMOKE_FLEET
        self._fleet.run_fleet_scenario(
            self._specs[:1],
            arrivals=self._fleet.FleetArrivalSpec(
                total_flows=small["total_flows"], mean=small["mean"], swing=small["swing"]
            ),
            seed=SCENARIO_SEED,
        )

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


def open_workload(name: str, root: str, work: str, seed: int, smoke: bool = False):
    class_bytes = SMOKE_CLASS_BYTES if smoke else FULL_CLASS_BYTES
    if name == "pack-unpack":
        return PackUnpack(root, work, seed, class_bytes)
    if name == "serve-echo":
        return ServeEcho(root, work, seed, class_bytes)
    if name == "sim-fleet":
        return SimFleet(seed, SMOKE_FLEET if smoke else FULL_FLEET)
    raise ValueError(f"unknown workload {name!r}")


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
