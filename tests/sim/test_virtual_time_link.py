"""Virtual-time ``SharedLink`` against the frozen prefix-fill reference.

The virtual-time link keeps the same max-min semantics as
:class:`~tests.sim.prefix_fill_link.PrefixFillLink` but different
arithmetic: progress is a product of a shared virtual clock instead of
a per-flow running sum, and the water level comes from running sums
instead of a fresh fill.  So it is checked within stated tolerances,
not bit for bit:

* completion times: relative 1e-9;
* link ``total_bytes``: relative 1e-12;
* at every event, each transmitting flow's rate against the stateless
  reference allocator ``_water_fill``: relative 1e-9;
* a finished flow's ``bytes_done``: exactly the bytes it asked for;
* no pending engine events once the run drains.

The driver scripts are the completion-time parity suite's strategies.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, SharedLink

from .prefix_fill_link import PrefixFillLink
from .test_waterfill_parity import (
    _replay,
    _step,
    dyadic_capacity,
    dyadic_demand,
    dyadic_weight,
)

TIME_REL = 1e-9
BYTES_REL = 1e-12
RATE_REL = 1e-9

_fleet = st.lists(st.tuples(dyadic_weight, dyadic_demand), min_size=1, max_size=6)
_steps = st.lists(_step, min_size=1, max_size=30)


def _open(link, fleet):
    return [
        link.open_flow(f"f{i}", weight=w, demand=d) for i, (w, d) in enumerate(fleet)
    ]


class TestAgainstPrefixFill:
    @given(fleet=_fleet, capacity=dyadic_capacity, steps=_steps)
    @settings(max_examples=200, deadline=None)
    def test_runs_match_the_reference(self, fleet, capacity, steps):
        ref_link = PrefixFillLink(Environment(), capacity=capacity)
        link = SharedLink(Environment(), capacity=capacity)
        ref_flows = _open(ref_link, fleet)
        flows = _open(link, fleet)
        sizes: Dict[int, List[float]] = {i: [] for i in range(len(flows))}
        real_transmit = link.transmit

        def transmit(flow, nbytes):
            sizes[flows.index(flow)].append(float(nbytes))
            return real_transmit(flow, nbytes)

        link.transmit = transmit  # record what each flow asked for
        mismatches: List[str] = []

        def check_rates() -> None:
            active = [f for f in flows if f.transmitting]
            expected = link._water_fill(active)
            for f in active:
                want = expected[id(f)]
                if f.rate != pytest.approx(want, rel=RATE_REL, abs=1e-12):
                    mismatches.append(f"{f.name} at t={link.env.now}: {f.rate} != {want}")

        ref_done = _replay(ref_link, ref_flows, steps)
        done = _replay(link, flows, steps, on_event=check_rates)

        assert not mismatches, mismatches[:3]
        assert [i for i, _ in sorted(done)] == [i for i, _ in sorted(ref_done)]
        for (_, t), (_, t_ref) in zip(sorted(done), sorted(ref_done)):
            assert t == pytest.approx(t_ref, rel=TIME_REL)
        assert link.total_bytes == pytest.approx(ref_link.total_bytes, rel=BYTES_REL)
        for i, f in enumerate(flows):
            if f.transmitting:
                # Stalled at a zero demand cap when the run drained.
                assert f.bytes_done == pytest.approx(ref_flows[i].bytes_done, rel=TIME_REL)
            else:
                assert f.bytes_done == sum(sizes[i])
        assert link.env.pending_events == 0

    @given(fleet=_fleet, capacity=dyadic_capacity, steps=_steps)
    @settings(max_examples=50, deadline=None)
    def test_replay_is_deterministic(self, fleet, capacity, steps):
        """Heap ties break on per-link sequence numbers, never ``id()``."""
        runs = []
        for _ in range(2):
            link = SharedLink(Environment(), capacity=capacity)
            runs.append((_replay(link, _open(link, fleet), steps), link.total_bytes))
        assert runs[0] == runs[1]


class TestDerivedState:
    def test_remaining_rate_and_bytes_done_are_read_live(self):
        env = Environment()
        link = SharedLink(env, capacity=100.0)
        a = link.open_flow("a")
        b = link.open_flow("b", demand=20.0)
        link.transmit(a, 1000.0)
        link.transmit(b, 100.0)
        env.run(until=2.0)
        assert (a.rate, b.rate) == (80.0, 20.0)
        assert a.remaining == pytest.approx(840.0)
        assert b.bytes_done == pytest.approx(40.0)
        assert link.total_bytes == pytest.approx(200.0)
        env.run(until=6.0)  # b finished at t=5: a gets the whole link
        assert not b.transmitting and b.bytes_done == 100.0
        assert a.rate == 100.0
        assert a.remaining == pytest.approx(1000.0 - 80.0 * 5 - 100.0)

    def test_demand_change_moves_a_flow_across_the_cap_boundary(self):
        env = Environment()
        link = SharedLink(env, capacity=100.0)
        a, b = link.open_flow("a"), link.open_flow("b", demand=10.0)
        link.transmit(a, 1e6)
        link.transmit(b, 1e6)
        assert (a.rate, b.rate) == (90.0, 10.0)
        b.set_demand(80.0)  # above the fair share: stops binding
        assert (a.rate, b.rate) == (50.0, 50.0)
        b.set_demand(None)
        assert (a.rate, b.rate) == (50.0, 50.0)
        b.set_demand(5.0)
        assert (a.rate, b.rate) == (95.0, 5.0)

    def test_preview_does_not_mutate(self):
        env = Environment()
        link = SharedLink(env, capacity=100.0)
        flows = [link.open_flow(f"f{i}", demand=10.0 * (i + 1)) for i in range(4)]
        for f in flows:
            link.transmit(f, 1e6)
        before = [f.rate for f in flows]
        # A probe lowers the level: the caps of 30 and 40 stop binding.
        for demand in (None, 0.0, 5.0, 25.0, 1e9):
            probe = type("P", (), {"weight": 1.0, "demand": demand})()
            ref = link._water_fill(flows + [probe])[id(probe)]
            assert link.allocation_preview(demand) == pytest.approx(ref, rel=1e-12)
        assert [f.rate for f in flows] == before
        assert env.pending_events == 1  # the single wake-up timer
