"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload pack-unpack --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed.
Their timings are in nominal seconds: scaled by a host-speed probe taken
between units (``hostspeed.py``), with the measured values kept in the
provenance line.
``--trace 1`` measures half the time untraced and then the same units
with the per-layer hooks of ``ledger.py``, and reports the layer ledger
(the first half only prices the hooks: ``trace.overhead_frac``).

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is ``{"provenance": ...}`` (commit, cores, Python, seed, run length,
repeat counts and each metric's median and quartiles).  See
``perfbench/README.md`` for the workloads, the metrics and what each
layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from hostspeed import NOMINAL_PROBE_S, HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pack-unpack", "serve-echo", "sim-fleet")
#: Seed kept out of tuning, for checking a claimed gain.
HELD_OUT_SEED = 9001
SETUP_PROBES = 7

E2E_UNITS = {
    "setup_s": "s",
    "app_mb_per_s": "MB/s",
    "app_mb_per_cpu_s": "MB/cpu-s",
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "codecs.compress_cpu_s": "s",
    "codecs.decompress_cpu_s": "s",
    "codecs.frame_cpu_s": "s",
    "codecs.blocks.NO": "count",
    "codecs.blocks.LIGHT": "count",
    "codecs.stored_fallback_blocks": "count",
    "codecs.ratio": "ratio",
    "core.pipeline.submit_wait_s": "s",
    "core.pipeline.reorder_wait_s": "s",
    "core.pipeline.worker_busy_frac": "frac",
    "core.pipeline.codec_jobs": "count",
    "core.pipeline.job_failures": "count",
    "io.streams.compress_file_ms_p50": "ms",
    "io.streams.decompress_file_ms_p50": "ms",
    "io.streams.other_cpu_s": "s",
    "serve.loop_cpu_s": "s",
    "serve.loop_busy_frac": "frac",
    "serve.codec_cpu_s": "s",
    "serve.client_cpu_s": "s",
    "serve.flow_setup_ms_p50": "ms",
    "serve.buffer_pool_hit_ratio": "frac",
    "serve.codec_jobs": "count",
    "serve.wire_bytes": "bytes",
    "serve.internal_errors": "count",
    "sim.link.cpu_s": "s",
    "sim.link.calls": "count",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.self_s": "s",
    "schemes.decide_s": "s",
    "schemes.decide_calls": "count",
    "control.tick_s": "s",
    "control.rebalances": "count",
    "data.corpus_s": "s",
    "sim.makespan_s": "s",
    "sim.goodput_mb_s": "MB/s",
    "sim.peak_live": "count",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(pct) - 1]


def spread(values: List[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


def setup_seconds(workload: str, env: Dict[str, str]) -> List[float]:
    """Time ``SETUP_PROBES`` fresh-interpreter set-ups of ``workload``,
    in nominal seconds."""
    clock = HostClock()
    spans = []
    for _ in range(SETUP_PROBES):
        clock.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if line.strip() != "ready" or proc.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up probe for {workload} failed")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        spans.append((t0, t0 + elapsed))
    clock.probe()
    return [(b - a) * clock.scale(a, b) for a, b in spans]


def run_units(wl, seconds: float, each=None, count: Optional[int] = None) -> list:
    """Closed loop: the next unit starts when the previous one is done.
    A unit starts only if it should end within half a unit of the
    deadline, so runs of long units last ``seconds`` on average; with
    ``count``, exactly that many units run.  ``each(run)`` wraps every
    unit (the traced phase samples around it).  Host-speed probes are
    taken between units and set each unit's ``scale``."""
    clock = HostClock()
    units = []
    spans = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return len(units) < count
        return not units or time.perf_counter() + units[-1].wall / 2 < deadline

    while more():
        clock.maybe_probe()
        start = time.perf_counter()
        units.append(each(wl.run_unit) if each else wl.run_unit())
        spans.append((start, time.perf_counter()))
    clock.probe()
    for unit, (start, end) in zip(units, spans):
        unit.scale = clock.scale(start, end)
    return units


def rates(units, nominal: bool = True) -> Dict[str, List[float]]:
    """Per-unit samples, in nominal seconds unless ``nominal`` is false."""
    scale = [u.scale if nominal else 1.0 for u in units]
    return {
        "app_mb_per_s": [u.mb / (u.wall * k) if u.ok else 0.0 for u, k in zip(units, scale)],
        "app_mb_per_cpu_s": [u.mb / (u.cpu * k) if u.ok else 0.0 for u, k in zip(units, scale)],
        "wall_ms": [u.wall * k * 1000.0 for u, k in zip(units, scale)],
    }


def app_rate(units, clock: str = "wall", nominal: bool = True) -> float:
    """Verified application MB over the summed ``wall`` (or ``cpu``)
    seconds of the units.  A ratio of totals moves in proportion to the
    share of the run the shared host spent slow; a median of per-unit
    rates jumps between its fast and slow modes instead."""
    seconds = sum(getattr(u, clock) * (u.scale if nominal else 1.0) for u in units)
    return sum(u.mb for u in units if u.ok) / seconds


def uncalibrated(units) -> Dict[str, float]:
    """The timing metrics in measured rather than nominal seconds."""
    wall_ms = rates(units, nominal=False)["wall_ms"]
    return {
        "app_mb_per_s": app_rate(units, nominal=False),
        "app_mb_per_cpu_s": app_rate(units, "cpu", nominal=False),
        "unit_p50_ms": percentile(wall_ms, 50),
        "unit_p90_ms": percentile(wall_ms, 90),
        "host_scale_mean": statistics.fmean(u.scale for u in units),
    }


def end_to_end(units, setup: List[float], rss_mb: float):
    r = rates(units)
    ok = sum(u.ok for u in units)
    samples = {
        "setup_s": setup,
        "app_mb_per_s": r["app_mb_per_s"],
        "app_mb_per_cpu_s": r["app_mb_per_cpu_s"],
        "unit_p50_ms": r["wall_ms"],
        "unit_p90_ms": r["wall_ms"],
        "ok_frac": [ok / len(units)],
        "peak_rss_mb": [rss_mb],
    }
    values = {
        "setup_s": statistics.median(setup),
        "app_mb_per_s": app_rate(units),
        "app_mb_per_cpu_s": app_rate(units, "cpu"),
        "unit_p50_ms": percentile(r["wall_ms"], 50),
        "unit_p90_ms": percentile(r["wall_ms"], 90),
        "ok_frac": ok / len(units),
        "peak_rss_mb": rss_mb,
    }
    return values, {k: spread(v) for k, v in samples.items()}


def _diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _exact(units, key: str) -> float:
    """Mean per unit of a count that repeats exactly for a seed."""
    return sum(u.detail.get(key, 0) for u in units) / len(units)


def traced_phase(wl, seconds: float) -> dict:
    """Install the hooks, run the traced units, return the ledger view."""
    import ledger as ledger_mod

    ledger = ledger_mod.Ledger()
    sim = wl.name == "sim-fleet"
    serve = wl.name == "serve-echo"
    patches = ledger_mod.install(ledger, sim=sim)
    try:
        wl.levels = ledger_mod.timed_level_table(ledger)
        if serve:
            wl.start(traced=True)
        if sim:
            # Exactly one cycle of the four policies, so every per-unit
            # count averages the same four scenarios on every run.
            wl.next_policy = 0
            units = run_units(wl, 0, count=4)
            return {"units": units, "totals": ledger.totals(), "ledger": ledger}
        wl.run_unit()  # warm the wrapped paths and a fresh daemon
        before = ledger.totals()
        daemon_before = wl.daemon.ask("stats") if serve else None

        def sample_flow_setup(run_unit):
            start = ledger.totals()
            unit = run_unit()
            flow = _diff(ledger.totals(), start)
            ledger.sample(
                "serve.setup", flow.get("serve.connect.wall", 0.0) + flow.get("serve.handshake.wall", 0.0)
            )
            return unit

        units = run_units(wl, seconds, sample_flow_setup if serve else None)
        totals = _diff(ledger.totals(), before)
        view = {"units": units, "totals": totals, "ledger": ledger}
        if serve:
            daemon_after = wl.daemon.ask("stats")
            view["daemon"] = {
                k: daemon_after[k] - daemon_before[k]
                for k in ("loop_cpu", "codec_cpu", "internal_errors")
            }
            view["daemon"]["buffer_pool"] = daemon_after["buffer_pool"]
            side = _diff(daemon_after["ledger"], daemon_before["ledger"])
            side.pop("cover.wall", None)
            for k, v in side.items():
                totals[k] = totals.get(k, 0.0) + v
        return view
    finally:
        patches.undo()
        wl.levels = None


def layer_metrics(wl, base_units, view) -> Dict[str, float]:
    units = view["units"]
    tot = view["totals"]
    n = len(units)
    wall = sum(u.wall for u in units)
    cpu = sum(u.cpu for u in units)

    def t(key: str) -> float:
        return tot.get(key, 0.0)

    codec_cpu = t("codec.compress.cpu") + t("codec.decompress.cpu")
    frame_cpu = t("frame.encode.self_cpu") + t("frame.decode.self_cpu")
    m: Dict[str, float] = dict.fromkeys(LAYER_UNITS, 0.0)
    m.update(
        {
            "codecs.compress_cpu_s": t("codec.compress.cpu") / n,
            "codecs.decompress_cpu_s": t("codec.decompress.cpu") / n,
            "codecs.frame_cpu_s": frame_cpu / n,
            "codecs.blocks.NO": t("codecs.blocks.NO") / n,
            "codecs.blocks.LIGHT": t("codecs.blocks.LIGHT") / n,
            "codecs.stored_fallback_blocks": t("codecs.stored_fallback_blocks") / n,
            "codecs.ratio": t("codecs.bytes_out") / t("codecs.bytes_in") if t("codecs.bytes_in") else 0.0,
            "core.pipeline.submit_wait_s": t("pipeline.submit.wall") / n,
            "core.pipeline.reorder_wait_s": t("pipeline.reorder.wall") / n,
            "core.pipeline.worker_busy_frac": (
                t("pipeline.worker_cpu") / t("pipeline.worker_wall") if t("pipeline.worker_wall") else 0.0
            ),
            "core.pipeline.codec_jobs": t("pipeline.codec_jobs") / n,
            "core.pipeline.job_failures": t("pipeline.job_failures"),
            "trace.unaccounted_frac": 1.0 - t("cover.wall") / wall,
        }
    )
    base = app_rate(base_units)
    traced = app_rate(units)
    m["trace.overhead_frac"] = 1.0 - traced / base if base else 0.0

    if wl.name == "pack-unpack":
        m["io.streams.compress_file_ms_p50"] = 1000 * statistics.median(u.detail["compress_s"] for u in units)
        m["io.streams.decompress_file_ms_p50"] = 1000 * statistics.median(u.detail["decompress_s"] for u in units)
        m["io.streams.other_cpu_s"] = (cpu - codec_cpu - frame_cpu) / n
    elif wl.name == "serve-echo":
        d = view["daemon"]
        pool = d["buffer_pool"]
        m.update(
            {
                "serve.loop_cpu_s": d["loop_cpu"] / n,
                "serve.loop_busy_frac": d["loop_cpu"] / wall,
                "serve.codec_cpu_s": d["codec_cpu"] / n,
                "serve.client_cpu_s": sum(u.detail["client_cpu"] for u in units) / n,
                "serve.flow_setup_ms_p50": 1000 * statistics.median(view["ledger"].samples("serve.setup")),
                "serve.buffer_pool_hit_ratio": pool["hits"] / max(1, pool["hits"] + pool["misses"]),
                "serve.codec_jobs": _exact(units, "codec_jobs"),
                "serve.wire_bytes": _exact(units, "wire_bytes"),
                "serve.internal_errors": d["internal_errors"],
            }
        )
    else:
        children = t("sim.link.cpu") + t("schemes.decide.cpu") + t("control.tick.cpu") + t("data.corpus.cpu")
        m.update(
            {
                "sim.link.cpu_s": t("sim.link.cpu") / n,
                "sim.link.calls": t("sim.link.n") / n,
                "sim.engine.events": _exact(units, "events"),
                "sim.engine.events_per_s": sum(u.detail.get("events", 0) for u in units) / wall,
                "sim.engine.self_s": (cpu - children) / n,
                "schemes.decide_s": t("schemes.decide.cpu") / n,
                "schemes.decide_calls": t("schemes.decide.n") / n,
                "control.tick_s": t("control.tick.cpu") / n,
                "control.rebalances": _exact(units, "rebalances"),
                "data.corpus_s": t("data.corpus.cpu") / n,
                "sim.makespan_s": _exact(units, "makespan"),
                "sim.goodput_mb_s": _exact(units, "goodput_mb_s"),
                "sim.peak_live": max(u.detail.get("peak_live", 0) for u in units),
            }
        )
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result and its provenance."""
    from workloads import child_env, open_workload

    env = child_env(ROOT)
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    setup = setup_seconds(workload, env)
    wl = open_workload(workload, ROOT, work, seed, smoke=smoke)
    try:
        wl.warm_up()
        if trace:
            base = run_units(wl, seconds / 2)
            view = traced_phase(wl, seconds / 2)
            units = base + view["units"]
            values = layer_metrics(wl, base, view)
            stats = {}
            unit_names = LAYER_UNITS
        else:
            units = run_units(wl, seconds)
            values, stats = end_to_end(units, setup, wl.peak_rss_mb())
            unit_names = E2E_UNITS
    finally:
        wl.close()
    failed = [u for u in units if not u.ok]
    for u in failed[:5]:
        print(f"failed unit: {u.error}", file=sys.stderr)
    provenance = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "units": len(units),
        "setup_probes": SETUP_PROBES,
        "nominal_probe_s": NOMINAL_PROBE_S,
        "uncalibrated": uncalibrated(units),
        "metrics": stats,
        **environment(),
    }
    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in unit_names.items()},
    }
    return {"provenance": provenance, "result": result}


def environment() -> dict:
    """Where and on what the numbers were taken."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fp:
                    digest.update(fp.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The corpus generators hash strings: fix the hash so a seed
        # always makes the same inputs.
        from workloads import child_env

        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], child_env(ROOT))
    sys.path.insert(1, os.path.join(ROOT, "src"))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
