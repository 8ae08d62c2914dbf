"""Fluid-flow model of a shared network link.

Co-located virtual machines "in fact share the I/O resources of the
host system" (Section I); Table II's background scenarios are 1–3
concurrent TCP connections saturating the sender host's NIC.  This
module models that contention with the classic *fluid* approximation:
at any instant, each active flow receives a weighted max-min fair share
of the link capacity, subject to its own demand cap (a flow whose
sender is compression-bound does not use its full share; the spare
capacity is redistributed to the other flows).

Calibration: the paper's Table II NO-compression rows imply the
foreground flow's share of the 1 GbE link was consistently *larger*
than a 1/(c+1) fair split — 0.63/0.41/0.35 of the link for c=1/2/3
background connections.  A foreground weight of 1.5 (background weight
1.0) reproduces those fractions to within a few percent; see
:mod:`repro.sim.calibration`.

Scale: :class:`SharedLink` is a GPS-style weighted fair queue kept in
*virtual time*, so the cost of an event does not grow with the number
of flows (see docs/simulator.md, "Performance and scale").  A flow's
rate is ``min(demand, level * weight)``, where the water level ``level``
is the capacity left over by the flows whose cap binds, divided by the
weight of the others:

* flows whose cap does not bind share one virtual clock that advances
  at ``level``; each holds a finish tag ``V + remaining / weight`` in a
  heap, so nothing is updated per flow when time passes or the level
  moves;
* flows whose cap binds run at their demand and hold a real-time
  finish ``t + remaining / demand`` in a second heap;
* flows with a demand cap are kept in a list sorted by
  ``demand / weight`` (``bisect``); the capped ones are a prefix of it.
  Running sums of the capped demand and the free weight give the level,
  and when it moves only the flows that cross the prefix boundary
  switch representation.

Advancing the clock is O(1); a transmit, completion or demand change
costs O(log N) heap work, one ``bisect`` and one step per flow that
crosses the boundary.  Per-flow ``remaining``, ``bytes_done`` and
``rate`` are derived when read.

:func:`_fill_level` (driven by :meth:`SharedLink._water_fill`) is the
stateless reference allocator: the same max-min fill computed from
scratch over a flow list, in the seed allocator's operation order.

Rates are bytes/second, sizes are bytes, time is seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Generator, List, Optional, Tuple

from .engine import Environment, Event, Timeout

#: Residual bytes below which a transmission counts as finished.  Float
#: error of ``remaining - rate * dt`` leaves residues around
#: ``size * 1e-10``; treating anything under a hundredth of a byte as
#: done absorbs those without measurably distorting multi-KB transfers.
_COMPLETION_EPS = 1e-2

#: Never schedule a completion wake-up closer than this: at large
#: simulation times, ``now + tiny`` can round back to ``now`` and
#: starve the event loop at a single timestamp.
_MIN_WAKE_DELAY = 1e-9

#: Stale heap entries (left behind by flows that finished early, changed
#: demand or crossed the cap boundary) tolerated before both heaps are
#: rebuilt without them; a rebuild also needs them to be the majority.
_COMPACT_MIN = 64

# Flow modes.
_IDLE = 0
_FREE = 1  # rate follows the water level: level * weight
_CAPPED = 2  # rate is the flow's own demand

_Entry = Tuple[float, int, "Flow"]


class Flow:
    """One logical connection riding the link."""

    __slots__ = (
        "link",
        "name",
        "weight",
        "demand",
        "completion",
        "_seq",
        "_mode",
        "_tag",
        "_t0",
        "_rem",
        "_size",
        "_done",
        "_key",
        "_entry",
    )

    def __init__(
        self,
        link: "SharedLink",
        name: str,
        weight: float = 1.0,
        demand: Optional[float] = None,
        seq: int = 0,
    ) -> None:
        self.link = link
        self.name = name
        self.weight = weight
        #: Demand cap in bytes/s; ``None`` means the flow will use whatever
        #: share it is allocated.
        self.demand = demand
        self.completion: Optional[Event] = None
        self._seq = seq  # open order on the link: tie-break everywhere
        self._mode = _IDLE
        # ``_rem`` bytes were left at clock reading ``_t0``, and the finish
        # is due at reading ``_tag``: the virtual clock for free flows,
        # real time for capped ones.
        self._tag = 0.0
        self._t0 = 0.0
        self._rem = 0.0
        self._size = 0.0  # bytes requested by the transmission in flight
        self._done = 0.0  # bytes of completed transmissions
        self._key: Optional[Tuple[float, int]] = None  # sorted-list key
        self._entry = -1  # sequence number of the live heap entry, or -1

    def __repr__(self) -> str:
        return (
            f"Flow(name={self.name!r}, weight={self.weight!r}, "
            f"demand={self.demand!r}, transmitting={self.transmitting})"
        )

    @property
    def transmitting(self) -> bool:
        return self._mode != _IDLE

    @property
    def remaining(self) -> float:
        """Bytes of the current transmission still to cross the link."""
        return self.link._remaining(self) if self._mode else 0.0

    @property
    def rate(self) -> float:
        """Instantaneous allocated rate (bytes/s); 0 while idle."""
        mode = self._mode
        if mode == _CAPPED:
            return self.demand
        if mode == _FREE:
            link = self.link
            weight = link._free_weight
            return link._cap * self.weight / weight if weight > 0.0 else 0.0
        return 0.0

    @property
    def bytes_done(self) -> float:
        """Bytes this flow has moved across the link, in-flight included."""
        if self._mode:
            return self._done + (self._size - self.link._remaining(self))
        return self._done

    def set_demand(self, demand: Optional[float]) -> None:
        """Update the demand cap (takes effect immediately)."""
        if demand is not None and demand < 0:
            raise ValueError("demand must be >= 0 or None")
        if demand == self.demand:
            return  # allocation unchanged; skip the re-price
        if not self._mode:
            # An idle flow's cap does not enter the allocation until it
            # transmits; no need to advance or re-price the fleet.
            self.demand = demand
            return
        link = self.link
        link._advance()
        rem = link._unlink(self)
        self.demand = demand
        link._link(self, rem)
        link._reprice()


def _norm_demand(flow) -> float:
    """Water-fill sort key: the share level at which the cap binds."""
    return flow.demand / flow.weight


#: Position of a flow in the link's sorted demand-capped list.
_sort_key = attrgetter("_key")

#: C-level weight accumulator; ``sum(map(...))`` adds left-to-right with
#: a 0 start, bit-identical to the explicit loop it replaces.
_get_weight = attrgetter("weight")


def _fill_level(demanders: List, total_weight: float, cap: float):
    """Water-fill core over demand-capped flows sorted by ``demand/weight``.

    Replays the classic round structure — cap every flow whose demand is
    below its current fair share, redistribute, repeat — but because the
    capped set of each round is a prefix of the normalized-demand order,
    a single advancing pointer visits each flow once: O(N) after the
    sort, and the per-flow arithmetic is identical to the seed
    allocator's (same expressions, same operands), so allocations match
    it bit for bit away from ulp-boundary ties.

    Returns ``(k, cap, total_weight)``: the first ``k`` demanders are
    capped at their own demand; every other flow's rate is
    ``cap * weight / total_weight``.
    """
    i = 0
    n = len(demanders)
    while total_weight > 0.0:
        start = i
        while i < n:
            f = demanders[i]
            if f.demand < cap * f.weight / total_weight:
                i += 1
            else:
                break
        if i == start:
            break  # fixed point: no flow's cap binds at this level
        for f in demanders[start:i]:
            cap -= f.demand
            total_weight -= f.weight
        if cap < 0.0:
            cap = 0.0
    return i, cap, total_weight


class SharedLink:
    """A single bottleneck link shared by weighted max-min fair flows."""

    def __init__(
        self,
        env: Environment,
        capacity: float,
        name: str = "link",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._capacity_factor = 1.0
        self._open_seq = itertools.count()
        self._entry_seq = itertools.count()
        #: Open flows by ``id(flow)``, for O(1) membership checks only:
        #: nothing that orders work (heaps, the sorted list) keys on
        #: ``id()``, which differs between otherwise identical runs.
        self._flows: Dict[int, Flow] = {}
        #: Transmitting flows with a demand cap, sorted by
        #: ``(demand / weight, open seq)``; the first ``_k`` are capped.
        self._demanders: List[Flow] = []
        self._k = 0
        #: Σ demand over the capped prefix.
        self._capped_demand = 0.0
        #: Flows whose rate follows the water level, and Σ their weight.
        self._n_free = 0
        self._free_weight = 0.0
        #: Capacity left to the free flows; their rate is
        #: ``_cap * weight / _free_weight``, i.e. ``_level * weight``.
        self._cap = 0.0
        self._level = 0.0
        #: Virtual clock of the free flows at real time ``_last_update``.
        self._vtime = 0.0
        self._last_update = env.now
        self._free_heap: List[_Entry] = []
        self._capped_heap: List[_Entry] = []
        self._stale = 0
        self._completed_bytes = 0.0
        self._wake: Optional[Timeout] = None
        self._wake_at = math.inf

    # -- flow management ---------------------------------------------

    def open_flow(
        self, name: str, weight: float = 1.0, demand: Optional[float] = None
    ) -> Flow:
        if weight <= 0:
            raise ValueError("weight must be positive")
        seq = next(self._open_seq)
        flow = Flow(self, name, weight, demand, seq)
        self._flows[id(flow)] = flow
        return flow

    def close_flow(self, flow: Flow) -> None:
        if flow.transmitting:
            raise RuntimeError(f"flow {flow.name!r} still transmitting")
        if self._flows.get(id(flow)) is not flow:
            raise RuntimeError(
                f"flow {flow.name!r} is not open on this link "
                "(never opened, or already closed)"
            )
        # An idle flow holds no allocation: closing it cannot change any
        # other flow's rate, so the fleet is not re-priced.
        del self._flows[id(flow)]

    @property
    def effective_capacity(self) -> float:
        return self.capacity * self._capacity_factor

    @property
    def total_bytes(self) -> float:
        """Bytes that have crossed the link (for conservation tests)."""
        in_flight = 0.0
        for f in self._flows.values():
            if f._mode:
                in_flight += f._size - self._remaining(f)
        return self._completed_bytes + in_flight

    def set_capacity_factor(self, factor: float) -> None:
        """Scale the link capacity (driven by fluctuation processes)."""
        if factor < 0:
            raise ValueError("capacity factor must be >= 0")
        if factor == self._capacity_factor:
            return
        self._advance()
        self._capacity_factor = factor
        self._reprice()

    # -- transmission ------------------------------------------------

    def transmit(self, flow: Flow, nbytes: float) -> Event:
        """Event that fires when ``nbytes`` have crossed the link."""
        if self._flows.get(id(flow)) is not flow:
            raise RuntimeError(f"flow {flow.name!r} not open on this link")
        if flow.transmitting:
            raise RuntimeError(f"flow {flow.name!r} already transmitting")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        event = self.env.event()
        if nbytes == 0:
            event.succeed()
            return event
        self._advance()
        flow.completion = event
        flow._size = float(nbytes)
        self._link(flow, flow._size)
        self._reprice()
        return event

    def send(self, flow: Flow, nbytes: float) -> Generator[Event, None, None]:
        """Process-style convenience wrapper around :meth:`transmit`."""
        yield self.transmit(flow, nbytes)

    def current_rate(self, flow: Flow) -> float:
        """The flow's instantaneous allocated rate (bytes/s)."""
        return flow.rate

    def allocation_preview(self, extra_demand: Optional[float] = None) -> float:
        """Rate a hypothetical foreground transmission would get *now*.

        Used by the epoch-granularity transfer model to price a send
        without mutating link state.  The probe (weight 1) joins the free
        flows, which lowers the level; the capped prefix is walked down
        over the flows whose cap stops binding, exactly as a real
        arrival would.  The probe's own cap binds iff it is below the
        resulting share.
        """
        cap_total = self.effective_capacity
        demanders = self._demanders
        k = self._k
        capped = self._capped_demand
        weight = self._free_weight + 1.0
        while k:
            f = demanders[k - 1]
            rest = capped - f.demand
            cap = cap_total - rest
            if cap < 0.0:
                cap = 0.0
            if f.demand < cap * f.weight / (weight + f.weight):
                break
            k -= 1
            capped = rest
            weight += f.weight
        cap = cap_total - capped if k else cap_total
        if cap < 0.0:
            cap = 0.0
        share = cap / weight
        if extra_demand is not None and extra_demand < share:
            return extra_demand
        return share

    # -- internals ----------------------------------------------------

    def _advance(self) -> None:
        """Move the virtual clock to now: O(1), no per-flow work."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            self._vtime += self._level * dt
            self._last_update = now

    def _remaining(self, f: Flow) -> float:
        if f._mode == _FREE:
            vnow = self._vtime + self._level * (self.env.now - self._last_update)
            rem = f._rem - (vnow - f._t0) * f.weight
        else:
            rem = f._rem - f.demand * (self.env.now - f._t0)
        return rem if rem > 0.0 else 0.0

    def _run_free(self, f: Flow, rem: float) -> None:
        """(Re)enter ``f`` as a level-following flow with ``rem`` bytes left."""
        self._drop_entry(f)
        f._mode = _FREE
        f._t0 = vtime = self._vtime
        f._rem = rem
        f._tag = tag = vtime + rem / f.weight
        f._entry = seq = next(self._entry_seq)
        heapq.heappush(self._free_heap, (tag, seq, f))

    def _run_capped(self, f: Flow, rem: float) -> None:
        """(Re)enter ``f`` as a demand-rate flow with ``rem`` bytes left."""
        self._drop_entry(f)
        f._mode = _CAPPED
        now = self.env.now
        f._t0 = now
        f._rem = rem
        if f.demand > 0.0:
            f._tag = finish = now + rem / f.demand
            f._entry = seq = next(self._entry_seq)
            heapq.heappush(self._capped_heap, (finish, seq, f))
        else:
            f._tag = math.inf  # a zero cap never finishes

    def _drop_entry(self, f: Flow) -> None:
        """Orphan ``f``'s heap entry; compact once orphans dominate."""
        if f._entry < 0:
            return
        f._entry = -1
        self._stale += 1
        free, capped = self._free_heap, self._capped_heap
        if self._stale > _COMPACT_MIN and 2 * self._stale > len(free) + len(capped):
            free[:] = [e for e in free if e[1] == e[2]._entry]
            capped[:] = [e for e in capped if e[1] == e[2]._entry]
            heapq.heapify(free)
            heapq.heapify(capped)
            self._stale = 0

    def _top(self, heap: List[_Entry]) -> Optional[_Entry]:
        """Earliest live entry of ``heap``, popping orphans on the way."""
        while heap:
            entry = heap[0]
            if entry[1] == entry[2]._entry:
                return entry
            heapq.heappop(heap)
            self._stale -= 1
        return None

    def _link(self, f: Flow, rem: float) -> None:
        """Add transmitting ``f`` to the allocation (sums only; the
        level is settled by the caller's :meth:`_reprice`)."""
        d = f.demand
        if d is not None:
            f._key = key = (d / f.weight, f._seq)
            pos = bisect_left(self._demanders, key, key=_sort_key)
            self._demanders.insert(pos, f)
            if pos < self._k:
                # Below a binding cap in the sort order: binds as well.
                self._k += 1
                self._capped_demand += d
                self._run_capped(f, rem)
                return
        self._n_free += 1
        self._free_weight += f.weight
        self._run_free(f, rem)

    def _unlink(self, f: Flow) -> float:
        """Remove ``f`` from the allocation; return its remaining bytes."""
        rem = self._remaining(f)
        if f._mode == _FREE:
            self._n_free -= 1
            self._free_weight -= f.weight
        else:
            self._k -= 1
            self._capped_demand -= f.demand
        if f._key is not None:
            del self._demanders[bisect_left(self._demanders, f._key, key=_sort_key)]
            f._key = None
        self._drop_entry(f)
        f._mode = _IDLE
        return rem

    def _finish_due(self) -> None:
        """Complete every transmission at the head of either heap that
        is within :data:`_COMPLETION_EPS` of done."""
        due: List[Flow] = []
        for heap in (self._free_heap, self._capped_heap):
            while True:
                entry = self._top(heap)
                if entry is None or self._remaining(entry[2]) > _COMPLETION_EPS:
                    break
                heapq.heappop(heap)
                entry[2]._entry = -1
                due.append(entry[2])
        if len(due) > 1:
            due.sort(key=attrgetter("_seq"))
        for f in due:
            # The sub-epsilon residue is credited: a finished
            # transmission has moved exactly the bytes it asked for.
            self._unlink(f)
            self._completed_bytes += f._size
            f._done += f._size
            f._size = 0.0
            event, f.completion = f.completion, None
            assert event is not None
            event.succeed()

    def _settle(self) -> None:
        """Walk the cap boundary to the max-min fixed point; set the level.

        A capped flow stops binding once its demand is no longer below
        the share it would get as a free flow; a free flow with a cap
        starts binding once its demand drops below its share.  The sort
        order makes both sets contiguous, so only the boundary moves.
        """
        cap_total = self.capacity * self._capacity_factor
        demanders = self._demanders
        k = self._k
        capped = self._capped_demand
        weight = self._free_weight
        while k:
            f = demanders[k - 1]
            rest = capped - f.demand
            cap = cap_total - rest
            if cap < 0.0:
                cap = 0.0
            if f.demand < cap * f.weight / (weight + f.weight):
                break
            k -= 1
            capped = rest
            weight += f.weight
            self._n_free += 1
            self._run_free(f, self._remaining(f))
        n = len(demanders)
        while k < n:
            f = demanders[k]
            cap = cap_total - capped
            if cap < 0.0:
                cap = 0.0
            if not (weight > 0.0 and f.demand < cap * f.weight / weight):
                break
            rem = self._remaining(f)
            k += 1
            capped += f.demand
            weight -= f.weight
            self._n_free -= 1
            self._run_capped(f, rem)
        # Empty sets restart their running sums from exact zeros, so
        # float drift cannot outlive a quiet moment on the link.
        if not k:
            capped = 0.0
        if not self._n_free:
            weight = 0.0
            if self._free_heap:
                self._stale -= len(self._free_heap)
                self._free_heap.clear()
            self._vtime = 0.0
        self._k = k
        self._capped_demand = capped
        self._free_weight = weight
        cap = cap_total - capped
        self._cap = cap if cap > 0.0 else 0.0
        self._level = self._cap / weight if weight > 0.0 else 0.0

    def _reprice(self) -> None:
        """Finish due transmissions, settle the level, re-arm the wake-up.

        Call after :meth:`_advance` and any change to the allocation.
        """
        self._finish_due()
        self._settle()
        next_done = math.inf
        entry = self._top(self._free_heap)
        if entry is not None and self._level > 0.0:
            next_done = (entry[0] - self._vtime) / self._level
        entry = self._top(self._capped_heap)
        now = self.env.now
        if entry is not None and entry[0] - now < next_done:
            next_done = entry[0] - now

        if next_done == math.inf:
            if self._wake is not None:
                self._wake.cancel()
                self._wake = None
                self._wake_at = math.inf
            return
        delay = max(next_done, _MIN_WAKE_DELAY)
        at = now + delay
        if self._wake is not None:
            if self._wake_at == at:
                return  # reuse the already-scheduled timer: no churn
            self._wake.cancel()
        wake = self.env.timeout(delay)
        wake.callbacks.append(self._on_wake)
        self._wake = wake
        self._wake_at = at

    def _on_wake(self, _event: Event) -> None:
        self._wake = None
        self._wake_at = math.inf
        self._advance()
        self._reprice()

    def _water_fill(self, active: List) -> Dict[int, float]:
        """Weighted max-min allocation with per-flow demand caps.

        The stateless reference allocator (parity tests, benchmarks):
        sorts and fills from scratch on every call.  Keys are
        ``id(flow)``.
        """
        demanders = [f for f in active if f.demand is not None]
        demanders.sort(key=_norm_demand)
        weight = sum(map(_get_weight, active))
        k, cap, rweight = _fill_level(demanders, weight, self.effective_capacity)
        if rweight > 0.0:
            alloc = {id(f): cap * f.weight / rweight for f in active}
        else:
            alloc = {id(f): 0.0 for f in active}
        for f in demanders[:k]:
            alloc[id(f)] = f.demand
        return alloc
