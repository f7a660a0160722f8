"""Per-layer host time and work counts for the benchmark's traced run.

The tracer installs spans, from outside the program, around the public
entry points of each ``repro`` layer (the layers are the package's
modules).  A span's self time is its duration minus the time of its
child spans, so the self times of all spans tile the traced replay.

Work that the DES kernel dispatches is charged to the module that
defined it, not to ``sim``: a process resume to the module of the
resumed generator, and a scheduled call or event callback to the module
of the callable.  ``topology`` route books are charged to ``routing``.

Spans are aggregated in memory by name (count, total and self seconds)
and written out when the run ends.  The timed runs install nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from harness import SRC

# Report order.  Modules not listed here are charged to ``other``.
LAYERS = (
    "sim", "net", "memory", "telemetry", "dataplane", "platform",
    "storage", "routing", "workflow", "functions", "scheduler", "traces",
    "other",
)
_ALIASES = {"topology": "routing"}
_PACKAGE = str(SRC / "repro") + os.sep


def layer_of_file(filename: str) -> str:
    """The layer a source file of ``repro`` belongs to."""
    if not filename.startswith(_PACKAGE):
        return "other"
    top = filename[len(_PACKAGE):].split(os.sep, 1)[0]
    if top.endswith(".py"):
        top = top[:-3]
    top = _ALIASES.get(top, top)
    return top if top in LAYERS else "other"


def code_of(fn):
    """The code object behind a function, bound method or partial."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__code__", None)


class LayerTracer:
    """Span stack, per-span aggregates and the patches that feed them."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # [start, child seconds]
        self.spans: dict[str, list] = {}  # name -> [count, total, self]
        self._dispatch: dict = {}  # code object -> span aggregate
        self._patches: list[tuple[object, str, object, bool]] = []
        self.stale_pops = 0
        self.bytes_passed = 0.0

    # -- span bookkeeping ---------------------------------------------------
    def aggregate(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def timed(self, fn, stats: list):
        """*fn* wrapped in a span that feeds the aggregate *stats*."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _dispatch_aggregate(self, code) -> list:
        stats = self._dispatch.get(code)
        if stats is None:
            layer = layer_of_file(code.co_filename)
            stats = self._dispatch[code] = self.aggregate(
                f"{layer}.<dispatched>"
            )
        return stats

    def _dispatched(self, fn):
        """*fn* charged to its defining module, or as is if that is sim."""
        code = code_of(fn)
        if code is None:
            return fn
        stats = self._dispatch_aggregate(code)
        if stats is self.spans.get("sim.<dispatched>"):
            return fn
        return self.timed(fn, stats)

    # -- patching -----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, layer: str, before=None) -> None:
        """Span every call of ``cls.attr`` (a method or property)."""
        stats = self.aggregate(f"{layer}.{cls.__name__}.{attr}")
        original = vars(cls).get(attr, getattr(cls, attr))
        if isinstance(original, property):
            self._set(cls, attr, property(
                self.timed(original.fget, stats), original.fset,
                original.fdel, original.__doc__,
            ))
            return
        fn = original
        if before is not None:
            def fn(*args, _inner=original, **kwargs):
                before(*args, **kwargs)
                return _inner(*args, **kwargs)
        self._set(cls, attr, functools.wraps(original)(self.timed(fn, stats)))

    def function(self, module, attr: str, layer: str) -> None:
        """Span a module function at every ``repro`` module that binds it."""
        original = getattr(module, attr)
        traced = functools.wraps(original)(self.timed(
            original, self.aggregate(f"{layer}.{attr}")
        ))
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- the layers' entry points -------------------------------------------
    def install(self) -> None:
        from repro.dataplane.base import DataPlane
        from repro.memory.elastic import FunctionHistogram
        from repro.memory.pool import MemoryPool
        from repro.net.network import FlowNetwork
        from repro.net.transfer import TransferEngine
        from repro.platform.platform import ServerlessPlatform
        from repro.platform.queueing import PendingQueue, StageQueue
        from repro.routing import harvest, nvlink
        from repro.sim.core import Environment, Event, Process, ScheduledCall
        from repro.storage.catalog import DataCatalog
        from repro.storage.stores import GpuStore, HostStore
        from repro.telemetry.bus import EventBus
        from repro.telemetry.sinks import JsonlEventSink
        from repro.topology.routebook import ClusterRouteBook, NodeRouteBook
        from repro.traces.azure import ArrivalStream
        from repro.workflow.dag import Workflow

        self._install_kernel(Environment, Event, Process, ScheduledCall)
        self.method(Environment, "run", "sim")

        for attr in ("start_flow", "start_macro_flow", "cancel_flow"):
            self.method(FlowNetwork, attr, "net")
        self.method(TransferEngine, "transfer", "net")

        def count_put(plane, ctx, size, *args, **kwargs):
            self.bytes_passed += size

        def count_get(plane, ctx, ref, *args, **kwargs):
            self.bytes_passed += ref.size

        self.method(DataPlane, "put", "dataplane", before=count_put)
        self.method(DataPlane, "get", "dataplane", before=count_get)
        for attr in ("ingress_put", "release_claim"):
            self.method(DataPlane, attr, "dataplane")

        for attr in ("submit", "run_trace_streaming"):
            self.method(ServerlessPlatform, attr, "platform")
        for attr in ("enqueue", "finish", "bind_object", "position_of"):
            self.method(PendingQueue, attr, "platform")
        for attr in ("enter", "leave"):
            self.method(StageQueue, attr, "platform")

        for attr in ("alloc", "free", "trim"):
            self.method(MemoryPool, attr, "memory")
        self.method(FunctionHistogram, "reservation", "memory")

        for cls in (GpuStore, HostStore):
            for attr in ("store", "remove"):
                self.method(cls, attr, "storage")
        for attr in ("register", "lookup", "unregister"):
            self.method(DataCatalog, attr, "storage")

        for attr in ("select_pcie_routes", "select_nic_routes"):
            self.function(harvest, attr, "routing")
        for attr in ("select_parallel_nvlink_paths",
                     "best_single_nvlink_path"):
            self.function(nvlink, attr, "routing")
        for attr in ("nvlink_paths", "out_capacity", "gpu_to_host",
                     "host_to_gpu", "gpu_p2p"):
            self.method(NodeRouteBook, attr, "routing")
        for attr in ("gdr_path", "host_to_host"):
            self.method(ClusterRouteBook, attr, "routing")

        for attr in ("entry_stages", "exit_stages", "topological_order",
                     "predecessors", "successors", "edge", "in_edges",
                     "out_edges"):
            self.method(Workflow, attr, "workflow")

        self.method(EventBus, "publish", "telemetry")
        for attr in ("handle", "flush", "close"):
            self.method(JsonlEventSink, attr, "telemetry")

        arrivals = self.aggregate("traces.ArrivalStream.next")
        stream_iter = ArrivalStream.__iter__
        end = object()

        def traced_iter(stream):
            arrival = stream_iter(stream).__next__
            return iter(self.timed(arrival, arrivals), end)

        self._set(ArrivalStream, "__iter__", traced_iter)

    def _install_kernel(self, Environment, Event, Process, ScheduledCall):
        """Span ``Environment.step`` and charge what it dispatches."""
        stack = self._stack
        clock = time.perf_counter
        self.aggregate("sim.<dispatched>")
        step = self.timed(
            Environment.step, self.aggregate("sim.Environment.step")
        )
        resume = Process._resume
        dispatch = self._dispatch
        dispatch_aggregate = self._dispatch_aggregate
        dispatched = self._dispatched

        def traced_step(env):
            # The head of the queue is the entry this step pops.
            queue = env._queue
            if queue:
                entry = queue[0][2]
                if isinstance(entry, ScheduledCall):
                    if entry.cancelled:
                        self.stale_pops += 1
                    else:
                        entry.call = dispatched(entry.call)
                elif isinstance(entry, Event) and entry.callbacks:
                    entry.callbacks = [dispatched(c) for c in entry.callbacks]
            step(env)

        # Inlined span: the dispatching module is only known per call.
        def traced_resume(process, value, exc):
            code = process._generator.gi_code
            stats = dispatch.get(code) or dispatch_aggregate(code)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                resume(process, value, exc)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        self._set(Environment, "step", traced_step)
        self._set(Process, "_resume", traced_resume)

    # -- results -----------------------------------------------------------
    def count(self, *names: str) -> int:
        return sum(self.spans.get(name, (0,))[0] for name in names)

    def count_prefix(self, prefix: str) -> int:
        return sum(s[0] for n, s in self.spans.items() if n.startswith(prefix))

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, every layer present."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_count, _total, self_s) in self.spans.items():
            out[name.split(".", 1)[0]] += self_s
        return out
