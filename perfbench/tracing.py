"""Boundary tracing for the benchmark's traced run.

The tracer patches the public entry points of each ``repro`` layer from
outside (nothing under ``src/`` knows about it) and records host-time
spans: a span's self time is its duration minus the time covered by its
child spans, credited to the span's layer.  ``Simulation.run`` is the
root span; every process step is a span credited to the layer whose
module defines the process's generator, so the layers' self times plus
the time outside any root span add up to the traced window exactly.

Coroutine entry points (the apiserver verbs, the syncer reconcilers) are
timed per resume: each ``send``/``throw`` into the wrapped generator is
one span.  Serde is timed at the API types' ``from_dict``/``to_dict``
(tens of thousands of calls a run), which is what ``objects.self_s``
measures; the hottest leaf functions (deep copy, ``Quantity.parse``,
``Family.labels``, watch fan-out: millions of calls) are only counted.

Spans are kept in memory (up to :data:`SPAN_CAP`; aggregates are exact
past the cap) and written out by :meth:`Tracer.write` after the run.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: Self-time buckets.  ``other`` holds the layers the benchmark does not
#: break out (kubelet, core outside the syncer, workloads, network,
#: chaos, scenarios, telemetry processes, the benchmark's own coroutines).
LAYERS = ("simkernel", "storage", "apiserver", "objects", "clientgo",
          "syncer", "scheduler", "controllers", "virtualkubelet",
          "analysis", "other")

#: Spans kept in memory for :meth:`Tracer.write`.
SPAN_CAP = 100_000

_PROXY = object()


def layer_of_file(filename):
    """Layer of a source file: its ``repro`` package, ``other`` if none."""
    if filename.startswith("<serde "):
        return "objects"  # generated serde code (repro.objects.base)
    marker = "/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return "other"
    rel = filename[index + len(marker):]
    if rel.startswith("core/syncer/"):
        return "syncer"
    package = rel.split("/", 1)[0]
    return package if package in LAYERS else "other"


class Tracer:
    """Span stack, per-layer self time, call and error counts."""

    def __init__(self):
        self.clock = time.perf_counter
        self._patches = []
        self._code_info = {}
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.by_name = defaultdict(lambda: [0, 0.0, 0.0])
        self.reset()

    def reset(self):
        """Forget everything recorded so far (between set-up and the
        traced window; no span may be open).  Containers are cleared in
        place because the installed wrappers hold them."""
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.calls.clear()
        self.errors.clear()
        self.by_name.clear()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.root_s = 0.0
        self.next_id = 0
        self.process_layer = "other"
        self.vk_status_updates = 0

    # ------------------------------------------------------------------
    # Span bookkeeping (hot path)
    # ------------------------------------------------------------------

    def enter(self, name, layer):
        self.next_id += 1
        self.stack.append([name, layer, self.next_id, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        stack = self.stack
        name, layer, span_id, start, child = stack.pop()
        duration = end - start
        own = duration - child
        self.self_s[layer] += own
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_id = parent[2]
        else:
            self.root_s += duration
            parent_id = 0
        aggregate = self.by_name[name]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, start, end))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _proxy(self, gen, name, layer):
        """Drive ``gen`` on behalf of its caller, one span per resume."""
        enter, exit_ = self.enter, self.exit
        value = None
        pending = None
        while True:
            enter(name, layer)
            try:
                if pending is None:
                    out = gen.send(value)
                else:
                    exc, pending = pending, None
                    out = gen.throw(exc)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException as exc:
                exit_()
                self.errors[name, type(exc).__name__] += 1
                raise
            exit_()
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the caller
                pending, value = exc, None

    def timed(self, fn, name, layer):
        """Wrap ``fn`` so each call (each resume, for a generator
        function) is a span of ``layer``; calls and escaping exceptions
        are counted under ``name``."""
        calls, errors = self.calls, self.errors
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            proxy = self._proxy

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                wrapped = proxy(gen, name, layer)
                # Process names default to the generator's name.
                wrapped.__name__ = gen.__name__
                wrapped.__qualname__ = gen.__qualname__
                return wrapped
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                enter(name, layer)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    exit_()
                    errors[name, type(exc).__name__] += 1
                    raise
                exit_()
                return result
        return wrapper

    def counted(self, fn, name, truthy=False):
        """Wrap ``fn`` to count calls (or only truthy results)."""
        calls = self.calls
        if truthy:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result:
                    calls[name] += 1
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` (class or module) by ``make(original)``,
        keeping classmethod/staticmethod wrapping; undone by
        :meth:`uninstall`."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def patch_everywhere(self, fn, make):
        """Replace every ``repro`` module global bound to ``fn``."""
        new = make(fn)
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, new)
                    self._patches.append((module, attr, fn))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _info(self, gen):
        code = gen.gi_code
        info = self._code_info.get(code)
        if info is None:
            if code is Tracer._proxy.__code__:
                info = _PROXY
            else:
                info = (f"step {gen.__qualname__}",
                        layer_of_file(code.co_filename))
            self._code_info[code] = info
        if info is _PROXY:
            local = gen.gi_frame.f_locals
            return f"step {local['name']}", local["layer"]
        return info

    def install(self):
        """Patch every layer boundary the traced run measures."""
        from repro.analysis.bisect import ReplayRecorder
        from repro.analysis.racedetect import RaceDetector
        from repro.apiserver.server import APIServer
        from repro.clientgo import client as client_module
        from repro.clientgo.cache import ObjectCache
        from repro.clientgo.fairqueue import FairWorkQueue
        from repro.clientgo.informer import SharedInformer
        from repro.clientgo.workqueue import WorkQueue
        from repro.controllers.garbage_collector import GarbageCollector
        from repro.core.syncer.reconcilers import (
            DownwardReconciler,
            UpwardReconciler,
        )
        from repro.core.syncer.scanner import PeriodicScanner
        from repro.core.syncer.vnode import VNodeManager
        from repro.objects import BUILTIN_TYPES
        from repro.objects.base import fast_deep_copy
        from repro.objects.quantity import Quantity
        from repro.scheduler.plugins import FilterPlugin, ScorePlugin
        from repro.simkernel.loop import Simulation
        from repro.simkernel.process import Process
        from repro.storage.etcd import EtcdStore, Watch
        from repro.telemetry.registry import Family

        timed, counted = self.timed, self.counted

        def span(layer, name):
            return lambda fn: timed(fn, name, layer)

        self.patch(Simulation, "run", span("simkernel", "simkernel.run"))
        self._patch_step(Process)

        for verb in ("create", "get", "try_get", "update", "delete", "txn",
                     "list_prefix", "count_prefix", "watch"):
            self.patch(EtcdStore, verb, span("storage", f"storage.{verb}"))
        self.patch(Watch, "wants",
                   lambda fn: counted(fn, "storage.watch_events",
                                      truthy=True))

        for verb in ("create", "get", "list", "patch", "delete",
                     "transaction", "watch", "bind_pod"):
            self.patch(APIServer, verb, span("apiserver", f"apiserver.{verb}"))
        self.patch(APIServer, "update", self._apiserver_update)

        for obj_type in BUILTIN_TYPES:
            for method in ("from_dict", "to_dict"):
                self.patch(obj_type, method, span(
                    "objects", f"objects.{obj_type.__name__}.{method}"))
        self.patch_everywhere(
            fast_deep_copy, lambda fn: counted(fn, "objects.deep_copy"))
        self.patch(Quantity, "parse",
                   lambda fn: counted(fn, "objects.quantity_parse"))
        self.patch(Family, "labels",
                   lambda fn: counted(fn, "telemetry.labels"))

        self.patch(SharedInformer, "on_event",
                   span("clientgo", "clientgo.informer.on_event"))
        self.patch(ObjectCache, "upsert",
                   span("clientgo", "clientgo.cache.upsert"))
        for queue in (WorkQueue, FairWorkQueue):
            for verb in ("add", "get", "done"):
                self.patch(queue, verb, span(
                    "clientgo", f"clientgo.{queue.__name__}.{verb}"))
        self.patch(client_module, "is_retryable",
                   lambda fn: counted(fn, "clientgo.client_retries",
                                      truthy=True))

        for base, verb in ((DownwardReconciler, "sync_down"),
                           (UpwardReconciler, "sync_up")):
            for cls in _with_subclasses(base):
                if verb in cls.__dict__:
                    self.patch(cls, verb, span(
                        "syncer", f"syncer.{cls.__name__}.{verb}"))
        self.patch(PeriodicScanner, "scan_tenant",
                   span("syncer", "syncer.scan_tenant"))
        self.patch(VNodeManager, "reconcile_tenant",
                   span("syncer", "syncer.vnode.reconcile_tenant"))

        for base, verb in ((FilterPlugin, "filter"), (ScorePlugin, "score")):
            for cls in _with_subclasses(base):
                if verb in cls.__dict__:
                    self.patch(cls, verb, span(
                        "scheduler", f"scheduler.{verb}.{cls.__name__}"))

        for name, value in sorted(vars(RaceDetector).items()):
            if inspect.isfunction(value) and not name.startswith("_"):
                self.patch(RaceDetector, name,
                           span("analysis", f"analysis.race.{name}"))
        self.patch(ReplayRecorder, "record",
                   span("analysis", "analysis.replay.record"))
        self.gc_scan_step = f"step {GarbageCollector._scan_loop.__qualname__}"

    def _patch_step(self, process_cls):
        """Each process step is a span of the generator's own layer."""
        tracer = self
        enter, exit_, info = self.enter, self.exit, self._info

        def make(step):
            @functools.wraps(step)
            def wrapper(process, value, throw):
                name, layer = info(process._generator)
                previous = tracer.process_layer
                tracer.process_layer = layer
                enter(name, layer)
                try:
                    step(process, value, throw)
                finally:
                    exit_()
                    tracer.process_layer = previous
            return wrapper

        self.patch(process_cls, "_step", make)

    def _apiserver_update(self, fn):
        """``APIServer.update`` span that also counts status writes made
        by virtual-kubelet processes (node heartbeats, Pod acks)."""
        timed_update = self.timed(fn, "apiserver.update", "apiserver")
        tracer = self

        @functools.wraps(fn)
        def wrapper(server, credential, obj, subresource=None):
            if (subresource == "status"
                    and tracer.process_layer == "virtualkubelet"):
                tracer.vk_status_updates += 1
            return timed_update(server, credential, obj,
                                subresource=subresource)
        return wrapper

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def calls_matching(self, prefix):
        return sum(count for name, count in self.calls.items()
                   if name.startswith(prefix))

    def errors_matching(self, prefix, kinds=None):
        return sum(count for (name, kind), count in self.errors.items()
                   if name.startswith(prefix)
                   and (kinds is None or kind in kinds))

    def write(self, path, meta):
        """Write the aggregates and the retained spans as JSON."""
        payload = {
            "meta": meta,
            "self_s": self.self_s,
            "calls": dict(sorted(self.calls.items())),
            "errors": {f"{name}:{kind}": count for (name, kind), count
                       in sorted(self.errors.items())},
            "by_name": {name: {"spans": agg[0], "total_s": agg[1],
                               "self_s": agg[2]}
                        for name, agg in sorted(self.by_name.items())},
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans_kept": len(self.spans),
            "spans_total": self.next_id,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _with_subclasses(base):
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: (cls.__module__,
                                               cls.__qualname__))
