"""Tests for the contended-fleet simulation harness."""

from __future__ import annotations

import gc
import hashlib
import threading

import pytest

import repro.sim.fleet as fleet_mod
from repro.control import FleetController
from repro.data import Compressibility
from repro.sim import FleetArrivalSpec, FleetFlowSpec, run_fleet_scenario
from repro.sim.engine import Process
from repro.sim.transfer import TransferSim

MB = 10**6
POLICIES = (None, "fair-share", "greedy-throughput", "hill-climb")


def specs(n_high=2, n_low=1, hi=150 * MB, lo=80 * MB):
    out = [
        FleetFlowSpec(f"hi{i}", Compressibility.HIGH, hi) for i in range(n_high)
    ]
    out += [FleetFlowSpec(f"lo{i}", Compressibility.LOW, lo) for i in range(n_low)]
    return out


def run(flows, **kw):
    # Short epochs and control rounds so multi-second fleets still see
    # plenty of epochs and policy passes.
    kw.setdefault("epoch_seconds", 0.5)
    kw.setdefault("control_interval", 1.0)
    return run_fleet_scenario(flows, **kw)


class TestUncontrolledBaseline:
    def test_fleet_drains_and_accounts_every_byte(self):
        fleet = run(specs(), seed=3)
        assert fleet.policy is None
        assert fleet.rebalances == 0
        assert len(fleet.flows) == 3
        assert fleet.makespan > 0
        assert fleet.total_app_bytes == pytest.approx(sum(s.total_bytes for s in specs()))
        assert fleet.aggregate_goodput > 0
        for flow in fleet.flows:
            assert flow.completion_time <= fleet.makespan
            assert sum(flow.level_epochs.values()) > 0

    def test_deterministic_under_seed(self):
        a = run(specs(), seed=11)
        b = run(specs(), seed=11)
        assert a.makespan == b.makespan
        assert [f.completion_time for f in a.flows] == [
            f.completion_time for f in b.flows
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            run([])
        with pytest.raises(ValueError):
            run(specs(), cores=0.0)


class TestControlledFleet:
    def test_fair_share_matches_uncontrolled_decisions(self):
        base = run(specs(), seed=7)
        fair = run(specs(), policy="fair-share", seed=7)
        assert fair.policy == "fair-share"
        assert fair.rebalances > 0
        # Same weights, same per-flow schemes: identical outcome.
        assert fair.makespan == pytest.approx(base.makespan, rel=1e-9)

    def test_greedy_pins_the_incompressible_flow(self):
        fleet = run(specs(n_high=1, n_low=1), policy="greedy-throughput", cores=1.0, seed=7)
        low = next(f for f in fleet.flows if f.compressibility == "LOW")
        epochs_at_no = low.level_epochs.get(0, 0)
        assert epochs_at_no / sum(low.level_epochs.values()) > 0.6
        assert fleet.rebalances > 0

    def test_policy_instance_accepted(self):
        from repro.control import GreedyThroughputPolicy

        fleet = run(specs(n_high=1, n_low=0), policy=GreedyThroughputPolicy(), seed=1)
        assert fleet.policy == "greedy-throughput"


class TestPercentiles:
    def test_nearest_rank(self):
        fleet = run(specs(), seed=5)
        times = sorted(f.completion_time for f in fleet.flows)
        assert fleet.completion_percentile(100) == times[-1]
        assert fleet.completion_percentile(1) == times[0]
        assert fleet.completion_percentile(50) in times


class TestThroughputTelemetry:
    def test_events_and_wall_seconds_populated(self):
        fleet = run(specs(), seed=3)
        assert fleet.events_processed > 0
        assert fleet.wall_seconds > 0
        assert fleet.events_per_second > 0
        assert fleet.flows_spawned == 3
        assert fleet.peak_live == 3  # closed batch: all live at t=0


class TestOpenLoopArrivals:
    def _arrivals(self, total, **kw):
        from repro.sim import FleetArrivalSpec

        kw.setdefault("interval", 2.0)
        kw.setdefault("mean", 4.0)
        kw.setdefault("swing", 2.0)
        kw.setdefault("period", 60.0)
        return FleetArrivalSpec(total_flows=total, **kw)

    def test_spawns_exactly_total_flows(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(12),
            seed=5,
        )
        assert fleet.flows_spawned == 12
        assert len(fleet.flows) == 12
        assert 1 <= fleet.peak_live <= 12
        # Specs cycle as templates: ids beyond the spec list reuse names.
        names = {f.name for f in fleet.flows}
        assert names == {s.name for s in specs()}

    def test_flows_arrive_over_time(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(12),
            seed=5,
        )
        starts = sorted(f.started_at for f in fleet.flows)
        assert starts[0] == 0.0
        assert starts[-1] > 0.0  # not a closed batch
        for f in fleet.flows:
            assert f.completion_time >= f.started_at

    def test_deterministic_from_seed(self):
        kw = dict(arrivals=self._arrivals(10), seed=11)
        a = run(specs(hi=30 * MB, lo=20 * MB), **kw)
        b = run(specs(hi=30 * MB, lo=20 * MB), **kw)
        assert [f.started_at for f in a.flows] == [f.started_at for f in b.flows]
        assert [f.completion_time for f in a.flows] == [
            f.completion_time for f in b.flows
        ]
        assert a.makespan == b.makespan

    def test_controlled_open_loop_fleet(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(10),
            policy="fair-share",
            seed=7,
        )
        assert fleet.policy == "fair-share"
        assert fleet.flows_spawned == 10
        assert fleet.total_app_bytes > 0

    def test_arrival_spec_validation(self):
        from repro.sim import FleetArrivalSpec

        with pytest.raises(ValueError):
            FleetArrivalSpec(total_flows=0)
        with pytest.raises(ValueError):
            FleetArrivalSpec(total_flows=5, interval=0.0)


# -- share actuation --------------------------------------------------------


def small_open_loop(policy):
    """An open-loop fleet of 16 flows of 40 MB (at most 9 live): long
    enough that every policy rebalances and greedy / hill-climb change
    the outcome."""
    templates = [
        FleetFlowSpec(f"{c.name.lower()}{k}", c, 40 * MB)
        for k in range(2)
        for c in Compressibility
    ]
    arrivals = FleetArrivalSpec(
        total_flows=16, interval=2.0, mean=6.0, swing=3.0, period=60.0
    )
    return run(templates, policy=policy, arrivals=arrivals, cores=1.0, seed=5)


def completion_digest(fleet):
    text = ",".join(f.completion_time.hex() for f in fleet.flows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: (events_processed, makespan, rebalances) and completion-time digest of
#: ``small_open_loop(policy)``, computed with the per-assignment share
#: pass this module used before shares were batched: batching must not
#: move a single float.
PARITY = {
    None: ((588, 6.616324937928543, 0), "01fe51de98827219"),
    "fair-share": ((595, 6.616324937928543, 6), "01fe51de98827219"),
    "greedy-throughput": ((475, 6.713856182591041, 6), "e25104c23bbe2317"),
    "hill-climb": ((582, 7.960890642600632, 7), "5cccf014fa37b15d"),
}


class ShareSpy:
    """Watches every ``cpu_share`` write of the fleet's TransferSims.

    A counting TransferSim subclass is patched into ``repro.sim.fleet``
    and ``Process._resume`` is wrapped, so ``check`` runs before every
    process step.  Every share pass (a control pass, an arrival burst, a
    finish) happens inside one process step, so the check between steps
    sees the state each batch left behind.
    """

    def __init__(self, monkeypatch, cores):
        self.cores = cores
        self.sims = []
        self.weights = {}
        self.max_writes_per_step = 0
        self.share_writes = 0
        self.checks = 0
        spy = self

        class CountingSim(TransferSim):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.writes = 0  # the constructor's default does not count
                self.finished = False
                spy.sims.append(self)

            @property
            def cpu_share(self):
                return self._share

            @cpu_share.setter
            def cpu_share(self, value):
                self._share = value
                self.writes = getattr(self, "writes", 0) + 1

            def run(self):
                result = yield from super().run()
                self.finished = True
                return result

        real_tick = FleetController.on_tick
        real_resume = Process._resume

        def on_tick(controller, now):
            applied = real_tick(controller, now)
            for fid, asg in (applied or {}).items():
                spy.weights[fid] = asg.weight
            return applied

        def resume(process, event):
            spy.check()
            return real_resume(process, event)

        monkeypatch.setattr(fleet_mod, "TransferSim", CountingSim)
        monkeypatch.setattr(FleetController, "on_tick", on_tick)
        monkeypatch.setattr(Process, "_resume", resume)

    def check(self):
        self.checks += 1
        live = [s for s in self.sims if not s.finished]
        if live:
            w = [self.weights.get(s.flow_id, 1.0) for s in live]
            total = sum(w)
            for sim, weight in zip(live, w):
                assert sim.cpu_share == min(1.0, self.cores * weight / total), (
                    f"flow {sim.flow_id} share {sim.cpu_share} is stale"
                )
        for sim in self.sims:
            self.max_writes_per_step = max(self.max_writes_per_step, sim.writes)
            self.share_writes += sim.writes
            sim.writes = 0


class TestShareActuation:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_per_assignment_reference(self, policy):
        fleet = small_open_loop(policy)
        key = (fleet.events_processed, fleet.makespan, fleet.rebalances)
        assert (key, completion_digest(fleet)) == PARITY[policy]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shares_follow_live_weights_after_every_batch(self, monkeypatch, policy):
        spy = ShareSpy(monkeypatch, cores=1.0)
        fleet = small_open_loop(policy)
        spy.check()  # the last finish is not followed by a process step
        assert len(spy.sims) == fleet.flows_spawned == 16
        assert all(s.finished for s in spy.sims)
        assert spy.checks > fleet.events_processed // 2
        assert spy.share_writes > 0
        if policy is not None:
            assert fleet.rebalances > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_batch_writes_each_share_at_most_once(self, monkeypatch, policy):
        spy = ShareSpy(monkeypatch, cores=1.0)
        small_open_loop(policy)
        spy.check()
        assert spy.max_writes_per_step == 1


class TestTeardown:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_scenario_leaves_nothing_for_the_cyclic_gc(self, policy):
        arrivals = FleetArrivalSpec(
            total_flows=20, interval=2.0, mean=6.0, swing=3.0, period=60.0
        )
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fleet = run(specs(hi=30 * MB, lo=20 * MB), policy=policy, arrivals=arrivals, seed=1)
            unreachable = gc.collect()
            in_cycles = sorted(
                {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("repro.")}
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert fleet.flows_spawned == 20
        assert in_cycles == []
        if threading.active_count() == 1:
            # Nothing else in the process could have made cyclic garbage.
            assert unreachable == 0
