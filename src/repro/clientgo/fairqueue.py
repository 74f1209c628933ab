"""Fair work queue: per-tenant sub-queues + weighted round-robin.

The paper (§III-C) extends the standard client-go worker queue with per
tenant sub-queues and weighted round-robin dispatch so that one greedy
tenant's burst cannot starve regular tenants (evaluated in Fig. 11).

Items are ``(tenant, key)`` pairs.  Dedup semantics match
:class:`~repro.clientgo.workqueue.WorkQueue`: a pending item is not
enqueued twice, and an item re-added while being processed is re-queued
once its worker calls :meth:`done`.

When ``fair=False`` the queue degrades to one shared FIFO — the
configuration used for the Fig. 11(b) comparison.

With ``shards=N`` (DESIGN.md §9) tenants hash to one of N dispatch
rings (stable ``crc32(tenant) % N``); ``get(shard)`` serves one ring, so
each ring's workers have their own critical section.
"""

import zlib
from collections import defaultdict, deque

from repro.simkernel.events import Event
from repro.telemetry import telemetry_of

from .workqueue import ShutDown

__all__ = ["FairWorkQueue", "shard_hash"]


class _Ring:
    """One dispatch shard: WRR order and cursor, the ``fair=False`` FIFO,
    and the workers blocked in ``get()`` on this shard."""

    __slots__ = ("order", "cursor", "fifo", "waiters")

    def __init__(self):
        self.order = []
        self.cursor = 0
        self.fifo = deque()
        self.waiters = deque()


class FairWorkQueue:
    """WRR multi-queue with client-go dedup semantics.

    Dedup state, weights and credits are queue-wide; only dispatch order
    is per ring.  That stays exact because a ``(tenant, key)`` item only
    ever lives on its tenant's ring.
    """

    def __init__(self, sim, name="fair-queue", default_weight=1, fair=True,
                 shards=1):
        self.sim = sim
        self.name = name
        self.fair = fair
        self.default_weight = default_weight
        self._rings = [_Ring() for _ in range(max(1, int(shards)))]
        self._ring_of = {}
        self._weights = {}
        self._subqueues = {}
        self._credits = {}
        self._dirty = set()
        self._processing = set()
        self._enqueue_times = {}
        # Producer stamps per queued item for the race detector (see
        # WorkQueue._item_stamps).
        self._item_stamps = {}
        self._shutdown = False
        self.added_total = 0
        self.deduped_total = 0
        self.wait_time_by_tenant = defaultdict(float)
        self.dispatched_by_tenant = defaultdict(int)
        telemetry = telemetry_of(sim)
        self._adds_counter = telemetry.counter(
            "fairqueue_adds_total", "fair-queue adds (dedup hits included)",
            labels=("queue",)).labels(queue=name)
        self._deduped_counter = telemetry.counter(
            "fairqueue_deduped_total", "adds absorbed by dedup",
            labels=("queue",)).labels(queue=name)
        self._dispatch_counter = telemetry.counter(
            "fairqueue_dispatch_total", "items dispatched per tenant",
            labels=("queue", "tenant"))
        self._wait_hist = telemetry.histogram(
            "fairqueue_wait_seconds", "time queued before dispatch",
            labels=("queue",)).labels(queue=name)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def register_tenant(self, tenant, weight=None):
        """Create the tenant's sub-queue (idempotent).

        ``weight=None`` means the queue default; an explicit weight must
        be positive — a zero-weight tenant would never be served and a
        negative one would wedge the WRR credit loop.
        """
        if weight is not None and weight <= 0:
            raise ValueError(
                f"{self.name}: tenant weight must be positive, "
                f"got {weight!r} for {tenant!r}")
        if tenant not in self._subqueues:
            self._subqueues[tenant] = deque()
            ring = self._rings[shard_hash(tenant) % len(self._rings)]
            self._ring_of[tenant] = ring
            ring.order.append(tenant)
            self._weights[tenant] = (weight if weight is not None
                                     else self.default_weight)
            self._credits[tenant] = self._weights[tenant]

    def remove_tenant(self, tenant):
        """Drop a tenant's sub-queue (its pending items are discarded)."""
        pending = self._subqueues.pop(tenant, None)
        if pending is None:
            return
        ring = self._ring_of.pop(tenant)
        if not self.fair:
            pending = [key for owner, key in ring.fifo if owner == tenant]
            ring.fifo = deque(item for item in ring.fifo
                              if item[0] != tenant)
        for key in pending:
            self._dirty.discard((tenant, key))
            self._enqueue_times.pop((tenant, key), None)
            self._item_stamps.pop((tenant, key), None)
        index = ring.order.index(tenant)
        del ring.order[index]
        if index < ring.cursor:
            # Removing an entry before the cursor shifts every later
            # tenant left one slot; without pulling the cursor back it
            # lands one past the tenant whose turn is next, silently
            # skipping that tenant's WRR turn.
            ring.cursor -= 1
        self._weights.pop(tenant, None)
        self._credits.pop(tenant, None)
        if ring.cursor >= len(ring.order):
            ring.cursor = 0

    @property
    def tenants(self):
        return list(self._subqueues)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def __len__(self):
        return sum(self._ring_depth(ring) for ring in self._rings)

    def depth(self, tenant):
        if self.fair:
            queue = self._subqueues.get(tenant)
            return len(queue) if queue is not None else 0
        ring = self._ring_of.get(tenant)
        if ring is None:
            return 0
        return sum(1 for owner, _ in ring.fifo if owner == tenant)

    def add(self, tenant, key):
        """Enqueue ``key`` for ``tenant`` with dedup."""
        if self._shutdown:
            return
        self.register_tenant(tenant)
        item = (tenant, key)
        self.added_total += 1
        self._adds_counter.inc()
        detector = self.sim.race_detector
        if detector is not None:
            self._item_stamps[item] = detector.merge_stamps(
                self._item_stamps.get(item), detector.current_stamp())
        if item in self._dirty:
            self.deduped_total += 1
            self._deduped_counter.inc()
            return
        self._dirty.add(item)
        if item in self._processing:
            return
        self._enqueue_times.setdefault(item, self.sim.now)
        ring = self._ring_of[tenant]
        waiter = self._pop_live_waiter(ring)
        if waiter is not None:
            self._dispatch(item, waiter)
            return
        if self.fair:
            self._subqueues[tenant].append(key)
        else:
            ring.fifo.append(item)

    def get(self, shard=0):
        """Event resolving to ``(tenant, key, enqueued_at)`` from one
        dispatch ring."""
        event = Event(self.sim)
        if self._shutdown:
            event.fail(ShutDown(self.name))
            return event
        ring = self._rings[shard % len(self._rings)]
        item = self._pick(ring)
        if item is not None:
            self._dispatch(item, event)
        else:
            ring.waiters.append(event)
        return event

    def done(self, tenant, key):
        """Worker finished the item; re-queue if it went dirty meanwhile.

        Safe to call after :meth:`shutdown` or :meth:`remove_tenant` — a
        late ``done()`` must never raise nor resurrect a removed tenant's
        sub-queue.
        """
        item = (tenant, key)
        self._processing.discard(item)
        if item in self._dirty:
            self._dirty.discard(item)
            if not self._shutdown and tenant in self._subqueues:
                self.add(tenant, key)

    def shutdown(self):
        """Wake every blocked ``get()`` waiter with :class:`ShutDown`."""
        self._shutdown = True
        for ring in self._rings:
            while ring.waiters:
                event = ring.waiters.popleft()
                if event.callbacks:
                    event.fail(ShutDown(self.name))

    @staticmethod
    def _pop_live_waiter(ring):
        """Next waiter event that still has a process listening; a worker
        interrupted while blocked in ``get()`` leaves a dead event behind,
        and dispatching to it would strand the item as processing."""
        while ring.waiters:
            event = ring.waiters.popleft()
            if event.callbacks:
                return event
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ring_depth(self, ring):
        if self.fair:
            return sum(len(self._subqueues[t]) for t in ring.order)
        return len(ring.fifo)

    def _dispatch(self, item, event):
        tenant, key = item
        stamp = self._item_stamps.pop(item, None)
        if stamp is not None:
            event._race_acc = stamp
        self._dirty.discard(item)
        self._processing.add(item)
        queued_at = self._enqueue_times.pop(item, self.sim.now)
        self.wait_time_by_tenant[tenant] += self.sim.now - queued_at
        self.dispatched_by_tenant[tenant] += 1
        self._dispatch_counter.labels(queue=self.name, tenant=tenant).inc()
        self._wait_hist.observe(self.sim.now - queued_at)
        event.succeed((tenant, key, queued_at))

    def _pick(self, ring):
        """Weighted round-robin selection over one ring (O(n) in tenants,
        as the paper notes; with equal weights it degenerates to plain
        round-robin)."""
        if not self.fair:
            if ring.fifo:
                return ring.fifo.popleft()
            return None
        order = ring.order
        if not order or not any(self._subqueues[t] for t in order):
            return None
        attempts = 0
        while True:
            if ring.cursor >= len(order):
                ring.cursor = 0
            tenant = order[ring.cursor]
            queue = self._subqueues[tenant]
            if queue and self._credits[tenant] > 0:
                self._credits[tenant] -= 1
                if self._credits[tenant] == 0:
                    # Weight exhausted for this round: move to the next
                    # tenant (plain round-robin when all weights are 1).
                    ring.cursor += 1
                return (tenant, queue.popleft())
            ring.cursor += 1
            attempts += 1
            if attempts >= len(order):
                # Full pass without service: refill every credit (new
                # WRR round) and scan again — an item is known to exist.
                for t in order:
                    self._credits[t] = self._weights[t]
                attempts = 0

    def stats(self):
        return {
            "depth": len(self),
            "added": self.added_total,
            "deduped": self.deduped_total,
            "tenants": len(self._subqueues),
            "processing": len(self._processing),
            "shards": len(self._rings),
            "depth_by_shard": [self._ring_depth(ring)
                               for ring in self._rings],
        }


def shard_hash(tenant):
    """Stable (process-independent) tenant hash for shard routing.

    Requires a ``str``: ``str()`` of an arbitrary object falls back to
    the default repr — which embeds a memory address — so routing would
    silently differ across processes (linter rule D006).  crc32 over the
    tenant name's UTF-8 bytes is identical in every process.
    """
    if not isinstance(tenant, str):
        raise TypeError(
            f"shard_hash needs the tenant name as str, "
            f"got {type(tenant).__name__}")
    return zlib.crc32(tenant.encode("utf-8"))
