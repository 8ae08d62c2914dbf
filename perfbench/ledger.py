"""Per-layer ledger: timing hooks installed from outside the program.

Every number here is taken by wrapping a public function, method or
object of one layer and timing the call; nothing inside ``src/`` is
edited.  The hooks are only installed for a traced run
(``--trace 1``); the end-to-end metrics always come from an untraced
run.

Each wrapped call reads two clocks:

* the calling thread's CPU clock (``time.thread_time``), for the
  ``*_cpu_s`` layer metrics and for self time.  A call's self CPU is its
  CPU minus the CPU of the timed calls nested inside it on the same
  thread (framing minus the codec call it makes);
* the wall clock, for waiting layers and for coverage: wall time spent
  in outermost timed calls on the thread that drives the units.  What
  that coverage leaves over is ``trace.unaccounted_frac``.

Calls of a key that is already open on the thread (``close`` calling
``flush``) pass through untimed, so no interval is counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.codecs import block as block_mod
from repro.codecs.base import Codec
from repro.codecs.block import HEADER_SIZE
from repro.codecs.registry import DEFAULT_REGISTRY
from repro.core.levels import CompressionLevelTable, default_level_table
from repro.core.pipeline import CodecThreadPool, ParallelBlockDecoder, ParallelBlockEncoder
from repro.serve.client import ServeClient

_perf = time.perf_counter
_cpu = time.thread_time


def thread_cpu_seconds(thread: threading.Thread) -> float:
    """CPU seconds a live thread has used, read from its own clock."""
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


class Ledger:
    """Accumulators filled by the hooks; one shard per thread, no lock
    on the hot path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: List[Dict[str, float]] = []
        self._samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self.unit_thread = threading.current_thread()

    def _state(self):
        local = self._local
        if not hasattr(local, "shard"):
            local.shard = defaultdict(float)
            local.stack = []
            with self._lock:
                self._shards.append(local.shard)
        return local

    def add(self, key: str, value: float) -> None:
        self._state().shard[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self._samples[key].append(value)

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        with self._lock:
            for shard in self._shards:
                for key, value in list(shard.items()):
                    out[key] += value
        return dict(out)

    def samples(self, key: str) -> List[float]:
        with self._lock:
            return list(self._samples.get(key, ()))

    def timed(self, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call adds to ``key.cpu``/``key.self_cpu``/
        ``key.wall``/``key.n``; ``after(result)`` may count outcomes."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = ledger._state()
            stack = state.stack
            if any(frame[0] == key for frame in stack):
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            w0 = _perf()
            c0 = _cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = _cpu() - c0
                wall = _perf() - w0
                stack.pop()
                shard = state.shard
                shard[key + ".cpu"] += cpu
                shard[key + ".self_cpu"] += cpu - frame[1]
                shard[key + ".wall"] += wall
                shard[key + ".n"] += 1
                if stack:
                    stack[-1][1] += cpu
                elif threading.current_thread() is ledger.unit_thread:
                    shard["cover.wall"] += wall
            if after is not None:
                after(result)
            return result

        return wrapper


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        had_own = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class TimedCodec(Codec):
    """A level-table codec that times ``compress`` and counts blocks per
    level; behaviour and codec id are the wrapped codec's."""

    def __init__(self, inner: Codec, level_name: str, ledger: Ledger) -> None:
        self.info = inner.info
        self._inner = inner
        self._count_key = "codecs.blocks." + level_name
        self._compress = ledger.timed("codec.compress", inner.compress)
        self._ledger = ledger

    def compress(self, data):
        self._ledger.add(self._count_key, 1)
        return self._compress(data)

    def decompress(self, data):
        return self._inner.decompress(data)


def timed_level_table(ledger: Ledger):
    """The paper's level ladder with every codec wrapped for timing, for
    the public ``levels=`` argument of writers, servers and clients."""
    base = default_level_table()
    return CompressionLevelTable.from_codecs(
        [TimedCodec(lvl.codec, lvl.name, ledger) for lvl in base], names=list(base.names)
    )


def _rebind_everywhere(patches: Patches, original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module-level binding of ``original`` at
    ``wrapper`` (consumers import the framing functions by name)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapper)


def _count_encoded(ledger: Ledger):
    def after(block) -> None:
        header = block.header
        ledger.add("codecs.bytes_in", header.uncompressed_len)
        ledger.add("codecs.bytes_out", header.compressed_len + HEADER_SIZE)
        if header.stored_fallback:
            ledger.add("codecs.stored_fallback_blocks", 1)

    return after


def install(ledger: Ledger, *, sim: bool = False) -> Patches:
    """Install every hook; returns the patches to ``undo()`` afterwards.

    ``sim=True`` adds the simulator-side hooks (link, schemes, control,
    corpus), which are pure overhead on the real-I/O workloads.
    """
    patches = Patches()

    # codecs: decompress wrappers swapped into the default registry's
    # codec objects (instance attributes shadow the class method).
    for codec in DEFAULT_REGISTRY:
        patches.set(codec, "decompress", ledger.timed("codec.decompress", codec.decompress))

    # codecs: framing (header, CRC, fallback, frame copy) around the codec.
    count = _count_encoded(ledger)
    for name, key, after in (
        ("encode_block", "frame.encode", count),
        ("encode_block_parts", "frame.encode", count),
        ("decode_payload", "frame.decode", None),
    ):
        original = getattr(block_mod, name)
        _rebind_everywhere(patches, original, ledger.timed(key, original, after))

    # core.pipeline: producer-side window waits and the pools' threads.
    for cls, names, key in (
        (ParallelBlockEncoder, ("write_block", "flush", "close"), "pipeline.submit"),
        (ParallelBlockDecoder, ("read_block", "close"), "pipeline.reorder"),
    ):
        for name in names:
            patches.set(cls, name, ledger.timed(key, vars(cls)[name]))

    # pool -> (start time, its worker threads), for busy fractions.
    pools: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    pool_init = vars(CodecThreadPool)["__init__"]
    pool_close = vars(CodecThreadPool)["close"]

    def init(self, workers, *, name="repro-codec", **kwargs):
        before = set(threading.enumerate())
        pool_init(self, workers, name=name, **kwargs)
        threads = [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith(name + "-")
        ]
        pools[self] = (_perf(), threads)

    def close(self):
        entry = pools.pop(self, None)
        if entry is None or self.closed:
            return pool_close(self)
        started, threads = entry
        cpu = sum(thread_cpu_seconds(t) for t in threads if t.is_alive())
        try:
            return pool_close(self)
        finally:
            stats = self.stats()
            ledger.add("pipeline.worker_cpu", cpu)
            ledger.add("pipeline.worker_wall", self.workers * (_perf() - started))
            ledger.add("pipeline.codec_jobs", stats["jobs_completed"])
            ledger.add("pipeline.job_failures", stats["job_failures"])

    patches.set(CodecThreadPool, "__init__", init)
    patches.set(CodecThreadPool, "close", close)

    # serve client: connect, then hello until the admission ack.
    for name, key in (("_connect", "serve.connect"), ("_handshake", "serve.handshake")):
        patches.set(ServeClient, name, ledger.timed(key, vars(ServeClient)[name]))

    if sim:
        _install_sim(ledger, patches)
    return patches


def _scheme_classes():
    from repro.schemes.base import CompressionScheme

    seen, todo = [], [CompressionScheme]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _install_sim(ledger: Ledger, patches: Patches) -> None:
    import repro.sim.fleet  # noqa: F401 - registers the fleet's scheme subclasses
    from repro.control import FleetController
    from repro.data.corpus import SyntheticCorpus
    from repro.sim.link import Flow, SharedLink

    for name in (
        "open_flow",
        "close_flow",
        "transmit",
        "set_capacity_factor",
        "current_rate",
        "allocation_preview",
    ):
        patches.set(SharedLink, name, ledger.timed("sim.link", vars(SharedLink)[name]))
    patches.set(Flow, "set_demand", ledger.timed("sim.link", vars(Flow)["set_demand"]))
    # The simulator calls ``on_epoch`` directly; ``decide`` wraps it for
    # the real-I/O paths.  Both count as one decision layer.
    for cls in _scheme_classes():
        for name in ("decide", "on_epoch"):
            fn = vars(cls).get(name)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patches.set(cls, name, ledger.timed("schemes.decide", fn))
    patches.set(
        FleetController, "on_tick", ledger.timed("control.tick", vars(FleetController)["on_tick"])
    )
    patches.set(
        SyntheticCorpus, "payload", ledger.timed("data.corpus", vars(SyntheticCorpus)["payload"])
    )
