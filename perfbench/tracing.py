"""Span tracing for the benchmark's traced run, installed from outside.

:class:`Tracer` patches public entry points of the program's classes for
the duration of a ``with`` block and restores them on exit.  Two kinds of
span are recorded:

* every callback handed to the engine's scheduling calls runs under a
  span named for its owner's module (the layer), which also covers
  private tick loops only reachable that way;
* the public cross-layer calls listed in :data:`PUBLIC_CALLS`, plus
  ZooKeeper reads and writes, endpoint handlers and the router's
  ``start_request``, get nested spans named ``layer:function``.

Spans are kept in memory as parallel arrays -- name, parent, start, end
-- and a layer's self time is its span time minus the time of its child
spans.  Tracing observes only: it schedules no events and draws no
random numbers, so a traced run must reproduce the untraced outcome.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from types import ModuleType
from typing import Callable, Dict, List, Optional

from repro.app.client import WorkloadRecorder
from repro.cluster.twine import Twine
from repro.coordination.zookeeper import ZooKeeper
from repro.core.allocator import Allocator
from repro.core.shard_map import AssignmentTable
from repro.core.task_controller import SMTaskController
from repro.discovery.router import ServiceRouter
from repro.discovery.service_discovery import ServiceDiscovery
from repro.sim.engine import Engine, Process
from repro.sim.network import Endpoint, Network
from repro.solver.local_search import LocalSearch

ENGINE = "sim.engine"
REQUEST_PATH = ("sim.network", "discovery.router", "app.client",
                "app.scatter", "app.server")
CONTROL_PLANE = ("core.orchestrator", "core.allocator", "solver",
                 "core.shard_map", "coordination.zookeeper",
                 "discovery.service_discovery")

#: (class, method, span name) for the public calls that get nested spans.
PUBLIC_CALLS = (
    (Network, "rpc", "sim.network:rpc"),
    (ServiceRouter, "on_map_update", "discovery.router:on_map_update"),
    (WorkloadRecorder, "record", "app.client:record"),
    (Allocator, "emergency_plan", "core.allocator:emergency_plan"),
    (Allocator, "build_problem", "core.allocator:build_problem"),
    (Allocator, "periodic_plan", "core.allocator:periodic_plan"),
    (LocalSearch, "solve", "solver:solve"),
    (AssignmentTable, "snapshot_delta", "core.shard_map:snapshot_delta"),
    (ServiceDiscovery, "publish", "discovery.service_discovery:publish"),
    (SMTaskController, "review_ops", "core.task_controller:review_ops"),
    (Twine, "start_rolling_upgrade", "cluster.twine:start_rolling_upgrade"),
    (Twine, "fail_region", "cluster.twine:fail_region"),
    (Twine, "repair_region", "cluster.twine:repair_region"),
)
ZK_READS = ("get", "exists", "children", "version")
ZK_WRITES = ("create", "set", "delete")

_MISSING = object()


def layer_of_module(module: Optional[str]) -> str:
    """``repro.core.allocator`` -> ``core.allocator``; solver submodules
    fold into ``solver``; code outside the program is ``other``."""
    if not module or not module.startswith("repro."):
        return "other"
    if module.startswith("repro.solver"):
        return "solver"
    return module[len("repro."):]


class SpanLog:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        stack = self.stack
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        start, end, parent, name = self.start, self.end, self.parent, \
            self.name
        count = len(name)
        child = [0.0] * count
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        width = len(self.names)
        calls, total, own = [0] * width, [0.0] * width, [0.0] * width
        for index in range(count):
            nid = name[index]
            duration = end[index] - start[index]
            calls[nid] += 1
            total[nid] += duration
            own[nid] += duration - child[index]
        return {self.names[nid]: {"calls": calls[nid], "total_s": total[nid],
                                  "self_s": own[nid]}
                for nid in range(width) if calls[nid]}

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        import numpy

        numpy.savez(path, names=numpy.array(self.names),
                    name=numpy.frombuffer(self.name, dtype=numpy.int32),
                    parent=numpy.frombuffer(self.parent, dtype=numpy.int32),
                    start=numpy.frombuffer(self.start),
                    end=numpy.frombuffer(self.end))


class _Callback:
    """A scheduled callback that runs under its owner layer's span."""

    __slots__ = ("fn", "nid", "log")

    def __init__(self, fn: Callable, nid: int, log: SpanLog) -> None:
        self.fn = fn
        self.nid = nid
        self.log = log

    def __call__(self, *args):
        return self.log.call(self.nid, self.fn, *args)


class Tracer:
    """Context manager installing the span wrappers; see the module doc."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts: Dict[str, int] = {
            "server.requests": 0, "server.forwarded": 0,
            "server.rejected": 0, "shard_map.changed": 0}
        self.subscriptions: List = []
        self._undo: List[tuple] = []
        self._owner_cache: Dict[object, int] = {}
        self._process_layer: Dict[int, tuple] = {}

    # -- owner resolution ---------------------------------------------------

    def _owner(self, fn: Callable) -> int:
        owner = getattr(fn, "__self__", None)
        if owner is not None and not isinstance(owner, ModuleType):
            if isinstance(owner, Process):
                entry = self._process_layer.get(id(owner))
                return entry[1] if entry else self.log.intern(ENGINE)
            key = (type(owner), getattr(fn, "__func__", None) or fn.__name__)
            nid = self._owner_cache.get(key)
            if nid is None:
                nid = self._owner_cache[key] = self.log.intern(
                    layer_of_module(type(owner).__module__))
            return nid
        if isinstance(fn, functools.partial):
            return self._owner(fn.func)
        code = getattr(fn, "__code__", None)
        if code is not None and fn.__module__ == Engine.__module__:
            # ``every()`` ticks: the owner is the callback they repeat.
            for var, cell in zip(code.co_freevars, fn.__closure__ or ()):
                if var == "callback":
                    return self._owner(cell.cell_contents)
        key = code if code is not None else type(fn)
        nid = self._owner_cache.get(key)
        if nid is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            nid = self._owner_cache[key] = self.log.intern(
                layer_of_module(module))
        return nid

    def wrap(self, fn: Callable) -> Callable:
        if type(fn) is _Callback:
            return fn
        return _Callback(fn, self._owner(fn), self.log)

    # -- patching -----------------------------------------------------------

    def _patch(self, cls: type, attr: str, make: Callable) -> None:
        original = getattr(cls, attr)
        self._undo.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, make(original))

    def _span(self, cls: type, attr: str, name: str,
              outermost_of: Optional[set] = None) -> None:
        log = self.log
        nid = log.intern(name)

        def make(original):
            if outermost_of is None:
                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    return log.call(nid, original, *args, **kwargs)
            else:
                outermost_of.add(nid)

                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    stack = log.stack
                    if stack and log.name[stack[-1]] in outermost_of:
                        return original(*args, **kwargs)
                    return log.call(nid, original, *args, **kwargs)
            return wrapper

        self._patch(cls, attr, make)

    def __enter__(self) -> "Tracer":
        tracer, log = self, self.log
        wrap = self.wrap
        engine_nid = log.intern(ENGINE)

        def scheduling(original):
            @functools.wraps(original)
            def schedule(engine, when, callback, *rest, **kwargs):
                return original(engine, when, wrap(callback), *rest, **kwargs)
            return schedule

        self._patch(Engine, "call_at", scheduling)
        self._patch(Engine, "call_after", scheduling)
        if hasattr(Engine, "_schedule_immediate"):
            # Signal wakes (RPC completions, process joins) are scheduled
            # here; without it their work would count as engine time.
            def immediate(original):
                @functools.wraps(original)
                def schedule(engine, callback, *rest, **kwargs):
                    return original(engine, wrap(callback), *rest, **kwargs)
                return schedule

            self._patch(Engine, "_schedule_immediate", immediate)

        def run(original):
            @functools.wraps(original)
            def traced_run(*args, **kwargs):
                return log.call(engine_nid, original, *args, **kwargs)
            return traced_run

        self._patch(Engine, "run", run)

        def process(original):
            @functools.wraps(original)
            def traced_process(engine, generator, *rest, **kwargs):
                frame = getattr(generator, "gi_frame", None)
                module = frame.f_globals.get("__name__") if frame else None
                nid = log.intern(layer_of_module(module))
                proc = log.call(nid, original, engine, generator, *rest,
                                **kwargs)
                tracer._process_layer[id(proc)] = (proc, nid)
                return proc
            return traced_process

        self._patch(Engine, "process", process)

        def on(original):
            @functools.wraps(original)
            def traced_on(endpoint, method, handler):
                nid = tracer._owner(handler)
                if method != "app.request":
                    return original(endpoint, method,
                                    _Callback(handler, nid, log))
                counts = tracer.counts

                def app_request(message):
                    counts["server.requests"] += 1
                    if message.get("forwarded"):
                        counts["server.forwarded"] += 1
                    try:
                        return log.call(nid, handler, message)
                    except Exception:
                        counts["server.rejected"] += 1
                        raise

                return original(endpoint, method, app_request)
            return traced_on

        self._patch(Endpoint, "on", on)

        start_nid = log.intern("discovery.router:start_request")

        def start_request(original):
            @functools.wraps(original)
            def traced_start(router, key, payload, method="app.request",
                             prefer_primary=True, on_done=None):
                if on_done is not None:
                    on_done = wrap(on_done)
                return log.call(start_nid, original, router, key, payload,
                                method, prefer_primary, on_done)
            return traced_start

        self._patch(ServiceRouter, "start_request", start_request)

        for cls, attr, name in PUBLIC_CALLS:
            self._span(cls, attr, name)
        zk_spans: set = set()
        for attr in ZK_READS:
            self._span(ZooKeeper, attr, "coordination.zookeeper:read", zk_spans)
        for attr in ZK_WRITES:
            self._span(ZooKeeper, attr, "coordination.zookeeper:write",
                       zk_spans)

        def snapshot_delta(original):
            @functools.wraps(original)
            def counted(table, *args, **kwargs):
                snapshot, delta = original(table, *args, **kwargs)
                tracer.counts["shard_map.changed"] += len(delta.changed)
                return snapshot, delta
            return counted

        self._patch(AssignmentTable, "snapshot_delta", snapshot_delta)

        def subscribe(original):
            @functools.wraps(original)
            def collected(discovery, *args, **kwargs):
                subscription = original(discovery, *args, **kwargs)
                tracer.subscriptions.append(subscription)
                return subscription
            return collected

        self._patch(ServiceDiscovery, "subscribe", subscribe)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            cls, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, saved)
        self._process_layer.clear()


class SolveLog:
    """Collects every :class:`LocalSearch` result while installed.

    Cheap enough for the timed runs (one append per solve); the results
    expose solver timeouts, which make simulated outcomes depend on host
    speed.
    """

    def __init__(self) -> None:
        self.results: List = []

    def __enter__(self) -> "SolveLog":
        results = self.results
        original = LocalSearch.solve
        self._saved = LocalSearch.__dict__["solve"]

        @functools.wraps(original)
        def solve(search, *args, **kwargs):
            result = original(search, *args, **kwargs)
            results.append(result)
            return result

        LocalSearch.solve = solve
        return self

    def __exit__(self, *exc) -> None:
        LocalSearch.solve = self._saved
