"""Tests of the benchmark itself: names, smoke runs, injected faults.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def test_metric_names_match_benchmark_json():
    bench = spec()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    for name in [*e2e, *layers, *(w["name"] for w in bench["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["paths"] == ["perfbench"]


def test_host_clock_scales_by_the_probes_around_a_span():
    clock = hostspeed.HostClock()
    nominal = hostspeed.NOMINAL_PROBE_S
    clock.at = [0.0, 1.0, 2.0, 3.0]
    clock.cost = [nominal, 2 * nominal, 2 * nominal, nominal]
    # From the last probe before the span to the first one after it.
    assert clock.scale(0.2, 0.8) == pytest.approx(1 / 1.5)
    assert clock.scale(1.5, 2.5) == pytest.approx(3 / 5)
    assert clock.scale(1.0, 2.0) == pytest.approx(1 / 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct(workload):
    out = run.measure(workload, seed=3, seconds=0.3, trace=False, smoke=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert out["provenance"]["held_out_seed"] == run.HELD_OUT_SEED
    assert set(out["provenance"]["uncalibrated"]) >= {"app_mb_per_s", "host_scale_mean"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_fills_the_ledger(workload):
    out = run.measure(workload, seed=3, seconds=0.3, trace=True, smoke=True)
    result = out["result"]
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.LAYER_UNITS)
    if workload == "pack-unpack":
        blocks = 3 * workloads.SMOKE_CLASS_BYTES // workloads.BLOCK
        assert m["codecs.blocks.LIGHT"] == blocks
        assert m["codecs.stored_fallback_blocks"] == blocks // 6
        assert m["core.pipeline.codec_jobs"] == 2 * blocks
        assert m["codecs.compress_cpu_s"] > 0 and m["codecs.decompress_cpu_s"] > 0
    elif workload == "serve-echo":
        blocks = 6 * workloads.SMOKE_CLASS_BYTES // workloads.BLOCK * workloads.ECHO_REPEAT
        assert m["codecs.blocks.NO"] == 2 * blocks
        assert m["serve.codec_jobs"] == 2 * blocks
        assert m["serve.loop_cpu_s"] > 0 and m["serve.flow_setup_ms_p50"] > 0
    else:
        assert m["sim.engine.events"] > 0 and m["sim.link.calls"] > 0
        assert m["schemes.decide_calls"] > 0 and m["data.corpus_s"] > 0


def _flip(path: str) -> None:
    with open(path, "r+b") as fp:
        fp.seek(os.path.getsize(path) // 2)
        byte = fp.read(1)
        fp.seek(-1, 1)
        fp.write(bytes([byte[0] ^ 0x40]))


def test_pack_byte_flip_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.open_workload("pack-unpack", ROOT, str(tmp_path), seed=3, smoke=True)
    assert wl.run_unit().ok
    real = wl._streams.decompress_file

    def corrupt_then_decompress(src, dst, **kwargs):
        _flip(src)
        return real(src, dst, **kwargs)

    monkeypatch.setattr(wl._streams, "decompress_file", corrupt_then_decompress)
    unit = wl.run_unit()
    assert not unit.ok and "CRC" in unit.error

    def decompress_then_corrupt(src, dst, **kwargs):
        n = real(src, dst, **kwargs)
        _flip(dst)
        return n

    monkeypatch.setattr(wl._streams, "decompress_file", decompress_then_corrupt)
    unit = wl.run_unit()
    assert not unit.ok and "differ" in unit.error


def test_flipped_units_are_counted_not_fatal(monkeypatch):
    from repro.io import streams

    real = streams.decompress_file

    def decompress_then_corrupt(src, dst, **kwargs):
        n = real(src, dst, **kwargs)
        _flip(dst)
        return n

    monkeypatch.setattr(streams, "decompress_file", decompress_then_corrupt)
    result = run.measure("pack-unpack", seed=3, seconds=0.3, trace=False, smoke=True)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_serve_echo_byte_flip_counts_as_failure(tmp_path, monkeypatch):
    import repro.serve.client as client

    wl = workloads.open_workload("serve-echo", ROOT, str(tmp_path), seed=3, smoke=True)
    try:
        assert wl.run_unit().ok
        real = client.decode_payload

        def flipped(*args, **kwargs):
            data = bytearray(real(*args, **kwargs))
            data[0] ^= 0x01
            return bytes(data)

        monkeypatch.setattr(client, "decode_payload", flipped)
        unit = wl.run_unit()
        assert not unit.ok and "CRC" in unit.error
    finally:
        wl.close()


def test_sim_fleet_lost_flow_and_replay_drift_count_as_failures(tmp_path, monkeypatch):
    wl = workloads.open_workload("sim-fleet", ROOT, str(tmp_path), seed=3, smoke=True)
    real = wl._fleet.run_fleet_scenario
    assert wl.run_unit().ok

    def lose_a_flow(*args, **kwargs):
        result = real(*args, **kwargs)
        result.flows.pop()
        return result

    monkeypatch.setattr(wl._fleet, "run_fleet_scenario", lose_a_flow)
    assert not wl.run_unit().ok

    def drift(*args, **kwargs):
        result = real(*args, **kwargs)
        result.events_processed += 1
        return result

    monkeypatch.setattr(wl._fleet, "run_fleet_scenario", drift)
    wl.next_policy = 0  # same policy as the first, passing unit
    unit = wl.run_unit()
    assert not unit.ok and "first run" in unit.error


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack-unpack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
