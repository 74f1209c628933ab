"""Shared informer: reflector + cache + fan-out event handlers.

Controllers register add/update/delete handlers; the informer maintains
the read-only cache that reconcilers consult instead of hitting the
apiserver (paper Fig. 3 and Fig. 5).
"""

from repro.telemetry import telemetry_of

from .cache import ObjectCache
from .reflector import ADDED, DELETED, MODIFIED, Reflector


class EventHandlers:
    """One subscriber's callbacks (all optional)."""

    __slots__ = ("on_add", "on_update", "on_delete")

    def __init__(self, on_add=None, on_update=None, on_delete=None):
        self.on_add = on_add
        self.on_update = on_update
        self.on_delete = on_delete


class SharedInformer:
    """Cache + handler fan-out for a single resource type."""

    def __init__(self, sim, client, plural, namespace=None,
                 label_selector=None, field_selector=None, size_factor=0.0,
                 size_overhead=0, handler_cost=0.0, cpu_account=None):
        self.sim = sim
        self.plural = plural
        self.cache = ObjectCache(size_factor=size_factor,
                                 size_overhead=size_overhead)
        detector = getattr(sim, "race_detector", None)
        if detector is not None:
            self.cache.set_race_probe(
                detector.cache_probe(f"cache:{plural}"))
        self._handlers = []
        self._handler_cost = handler_cost
        self._cpu_account = cpu_account
        self.reflector = Reflector(sim, client, plural, self,
                                   namespace=namespace,
                                   label_selector=label_selector,
                                   field_selector=field_selector)
        self.events_seen = 0
        self._events_counter = telemetry_of(sim).counter(
            "informer_events_total", "watch events seen by informers",
            labels=("resource",)).labels(resource=plural)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        return self.reflector.start()

    def stop(self):
        self.reflector.stop()

    @property
    def has_synced(self):
        return self.reflector.has_synced

    def add_handlers(self, on_add=None, on_update=None, on_delete=None):
        self._handlers.append(EventHandlers(on_add, on_update, on_delete))

    # ------------------------------------------------------------------
    # Reflector delegate interface
    # ------------------------------------------------------------------

    def on_replace(self, objs):
        old_keys = set(self.cache.keys())
        new_keys = set()
        for obj in objs:
            new_keys.add(obj.key)
            existed = obj.key in self.cache
            old = self.cache.get(obj.key)
            self.cache.upsert(obj)
            if existed:
                self._fanout("update", old, obj)
            else:
                self._fanout("add", None, obj)
        # sorted(): the leftover-key set iterates in hash order, which
        # for string keys varies with PYTHONHASHSEED across processes —
        # delete fan-out order must not (linter rule D003).
        for key in sorted(old_keys - new_keys):
            old = self.cache.get(key)
            self.cache.delete(key)
            self._fanout("delete", None, old)

    def on_event(self, kind, obj):
        self.events_seen += 1
        self._events_counter.inc()
        self._charge()
        if kind == ADDED:
            self.cache.upsert(obj)
            self._fanout("add", None, obj)
        elif kind == MODIFIED:
            old = self.cache.get(obj.key)
            self.cache.upsert(obj)
            if old is None:
                # First sight of this object (e.g. a field-selector watch
                # where the object started matching on an update): an add
                # from this watcher's perspective, as in real client-go.
                self._fanout("add", None, obj)
            else:
                self._fanout("update", old, obj)
        elif kind == DELETED:
            existed = obj.key in self.cache
            self.cache.delete(obj.key)
            if existed:
                self._fanout("delete", None, obj)

    def _charge(self):
        if self._cpu_account is not None and self._handler_cost:
            self._cpu_account.charge(self._handler_cost)

    def _fanout(self, kind, old, new):
        for handlers in self._handlers:
            if kind == "add" and handlers.on_add:
                handlers.on_add(new)
            elif kind == "update" and handlers.on_update:
                handlers.on_update(old, new)
            elif kind == "delete" and handlers.on_delete:
                handlers.on_delete(new)


class InformerFactory:
    """Creates and tracks one informer per resource for a client."""

    def __init__(self, sim, client, size_factor=0.0, size_overhead=0,
                 handler_cost=0.0, cpu_account=None):
        self.sim = sim
        self.client = client
        self._size_factor = size_factor
        self._size_overhead = size_overhead
        self._handler_cost = handler_cost
        self._cpu_account = cpu_account
        self.informers = {}

    def informer(self, plural, namespace=None, field_selector=None):
        key = (plural, namespace,
               tuple(sorted((field_selector or {}).items())))
        if key not in self.informers:
            self.informers[key] = SharedInformer(
                self.sim, self.client, plural, namespace=namespace,
                field_selector=field_selector,
                size_factor=self._size_factor,
                size_overhead=self._size_overhead,
                handler_cost=self._handler_cost,
                cpu_account=self._cpu_account)
        return self.informers[key]

    def start_all(self):
        for informer in self.informers.values():
            if informer.reflector._process is None:
                informer.start()

    def stop_all(self):
        for informer in self.informers.values():
            informer.stop()

    def wait_for_sync(self):
        """Coroutine: poll until every informer has listed once."""
        while not all(inf.has_synced for inf in self.informers.values()):
            yield self.sim.timeout(0.01)

    @property
    def total_cache_bytes(self):
        return sum(inf.cache.total_bytes for inf in self.informers.values())
