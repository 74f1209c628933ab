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
"""

import zlib
from collections import defaultdict, deque

from repro.simkernel.events import Event
from repro.telemetry import telemetry_of

from .workqueue import ShutDown

__all__ = ["FairWorkQueue", "ShardedFairWorkQueue", "shard_hash"]


class FairWorkQueue:
    """WRR multi-queue with client-go dedup semantics."""

    def __init__(self, sim, name="fair-queue", default_weight=1, fair=True):
        self.sim = sim
        self.name = name
        self.fair = fair
        self.default_weight = default_weight
        self._weights = {}
        self._subqueues = {}
        self._rr_order = []
        self._rr_index = 0
        self._credits = {}
        self._shared = deque()  # used when fair=False
        self._dirty = set()
        self._processing = set()
        self._waiters = deque()
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
            self._rr_order.append(tenant)
            self._weights[tenant] = (weight if weight is not None
                                     else self.default_weight)
            self._credits[tenant] = self._weights[tenant]

    def remove_tenant(self, tenant):
        """Drop a tenant's sub-queue (its pending items are discarded)."""
        queue = self._subqueues.pop(tenant, None)
        if queue is None:
            return
        for item in queue:
            self._dirty.discard((tenant, item))
            self._enqueue_times.pop((tenant, item), None)
            self._item_stamps.pop((tenant, item), None)
        index = self._rr_order.index(tenant)
        del self._rr_order[index]
        if index < self._rr_index:
            # Removing an entry before the cursor shifts every later
            # tenant left one slot; without pulling the cursor back it
            # lands one past the tenant whose turn is next, silently
            # skipping that tenant's WRR turn.
            self._rr_index -= 1
        self._weights.pop(tenant, None)
        self._credits.pop(tenant, None)
        if self._rr_index >= len(self._rr_order):
            self._rr_index = 0

    @property
    def tenants(self):
        return list(self._rr_order)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def __len__(self):
        if self.fair:
            return sum(len(q) for q in self._subqueues.values())
        return len(self._shared)

    def depth(self, tenant):
        if self.fair:
            queue = self._subqueues.get(tenant)
            return len(queue) if queue is not None else 0
        return sum(1 for t, _ in self._shared if t == tenant)

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
        waiter = self._pop_live_waiter()
        if waiter is not None:
            self._dispatch(item, waiter)
            return
        if self.fair:
            self._subqueues[tenant].append(key)
        else:
            self._shared.append(item)

    def get(self):
        """Event resolving to ``(tenant, key, enqueued_at)``."""
        event = Event(self.sim)
        if self._shutdown:
            event.fail(ShutDown(self.name))
            return event
        item = self._pick()
        if item is not None:
            self._dispatch(item, event)
        else:
            self._waiters.append(event)
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
            if not self._shutdown and (not self.fair
                                       or tenant in self._subqueues):
                self.add(tenant, key)

    def shutdown(self):
        """Wake every blocked ``get()`` waiter with :class:`ShutDown`."""
        self._shutdown = True
        while self._waiters:
            event = self._waiters.popleft()
            if event.callbacks:
                event.fail(ShutDown(self.name))

    def _pop_live_waiter(self):
        """Next waiter event that still has a process listening; a worker
        interrupted while blocked in ``get()`` leaves a dead event behind,
        and dispatching to it would strand the item as processing."""
        while self._waiters:
            event = self._waiters.popleft()
            if event.callbacks:
                return event
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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

    def _pick(self):
        """Weighted round-robin selection (O(n) in tenants, as the paper
        notes; with equal weights it degenerates to plain round-robin)."""
        if not self.fair:
            if self._shared:
                return self._shared.popleft()
            return None
        order = self._rr_order
        if not order or not any(self._subqueues[t] for t in order):
            return None
        attempts = 0
        while True:
            if self._rr_index >= len(order):
                self._rr_index = 0
            tenant = order[self._rr_index]
            queue = self._subqueues[tenant]
            if queue and self._credits[tenant] > 0:
                self._credits[tenant] -= 1
                if self._credits[tenant] == 0:
                    # Weight exhausted for this round: move to the next
                    # tenant (plain round-robin when all weights are 1).
                    self._rr_index += 1
                return (tenant, queue.popleft())
            self._rr_index += 1
            attempts += 1
            if attempts >= len(order):
                # Full pass without service: refill every credit (new
                # WRR round) and scan again — an item is known to exist.
                for t in order:
                    self._credits[t] = self._weights[t]
                attempts = 0

    def drain_pending(self, tenant):
        """Remove and return the tenant's pending keys (rebalance support).

        Items currently being processed are untouched — their ``done()``
        is still owed to this queue.  The returned keys are no longer
        dirty here, so re-adding them to another shard is not a dedup hit.
        """
        drained = []
        if self.fair:
            queue = self._subqueues.get(tenant)
            if queue:
                drained = list(queue)
                queue.clear()
        else:
            kept = deque()
            for item_tenant, key in self._shared:
                if item_tenant == tenant:
                    drained.append(key)
                else:
                    kept.append((item_tenant, key))
            self._shared = kept
        detector = self.sim.race_detector
        for key in drained:
            self._dirty.discard((tenant, key))
            self._enqueue_times.pop((tenant, key), None)
            stamp = self._item_stamps.pop((tenant, key), None)
            if detector is not None and stamp is not None:
                # The rebalancer re-adds these keys elsewhere; absorbing
                # the producers' stamps keeps them ordered before the
                # new shard's workers.
                detector.absorb(stamp)
        return drained

    def stats(self):
        return {
            "depth": len(self),
            "added": self.added_total,
            "deduped": self.deduped_total,
            "tenants": len(self._rr_order),
            "processing": len(self._processing),
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


class ShardedFairWorkQueue:
    """N fair work queues with stable per-tenant shard routing.

    The single :class:`FairWorkQueue` serializes every dispatch through
    one critical section — the contention the paper blames for the ~21%
    throughput degradation.  Sharding splits tenants across ``shards``
    independent sub-queues (stable ``crc32(tenant) % shards`` routing) so
    each shard owns its own dispatch path and lock, while weighted
    fairness is preserved: a tenant's items always land on one shard,
    whose :class:`FairWorkQueue` runs WRR over exactly the tenants it
    hosts.  Dedup stays exact because a ``(tenant, key)`` item can only
    ever live on its tenant's shard.

    ``deactivate_shard`` rebalances a shard whose workers died (chaos
    worker-kill): its tenants are re-routed among the remaining active
    shards and their pending items move with them.

    With ``shards=1`` this is byte-for-byte the unsharded behavior — the
    configuration every paper-reproduction benchmark uses.
    """

    def __init__(self, sim, name="fair-queue", shards=1, default_weight=1,
                 fair=True):
        self.sim = sim
        self.name = name
        self.fair = fair
        self.default_weight = default_weight
        self.num_shards = max(1, int(shards))
        self.shards = [
            FairWorkQueue(sim, name=f"{name}-shard{i}",
                          default_weight=default_weight, fair=fair)
            for i in range(self.num_shards)
        ]
        self._active = list(range(self.num_shards))
        self._tenant_shard = {}
        self._tenant_weight = {}
        self._shutdown = False
        self.rebalances = 0

    # ------------------------------------------------------------------
    # Tenant routing
    # ------------------------------------------------------------------

    def shard_of(self, tenant):
        """The shard index serving ``tenant`` (assigns on first use)."""
        shard = self._tenant_shard.get(tenant)
        if shard is None:
            shard = self._active[shard_hash(tenant) % len(self._active)]
            self._tenant_shard[tenant] = shard
            self.shards[shard].register_tenant(
                tenant, weight=self._tenant_weight.get(tenant))
        return shard

    def register_tenant(self, tenant, weight=None):
        if weight is not None and weight <= 0:
            raise ValueError(
                f"{self.name}: tenant weight must be positive, "
                f"got {weight!r} for {tenant!r}")
        self._tenant_weight[tenant] = (weight if weight is not None
                                       else self.default_weight)
        self.shard_of(tenant)

    def remove_tenant(self, tenant):
        shard = self._tenant_shard.pop(tenant, None)
        self._tenant_weight.pop(tenant, None)
        if shard is not None:
            self.shards[shard].remove_tenant(tenant)

    @property
    def tenants(self):
        return sorted(self._tenant_shard)

    # ------------------------------------------------------------------
    # Queue operations (FairWorkQueue-compatible, plus a shard for get)
    # ------------------------------------------------------------------

    def add(self, tenant, key):
        if self._shutdown:
            return
        self.shards[self.shard_of(tenant)].add(tenant, key)

    def get(self, shard=0):
        """Event resolving to ``(tenant, key, enqueued_at)`` from a shard."""
        return self.shards[shard % self.num_shards].get()

    def done(self, tenant, key):
        shard = self._tenant_shard.get(tenant)
        if shard is not None:
            self.shards[shard].done(tenant, key)
            return
        # Late done() after remove_tenant/rebalance: every shard treats
        # an unknown item as a no-op, so sweep them all.
        for queue in self.shards:
            queue.done(tenant, key)

    def shutdown(self):
        self._shutdown = True
        for queue in self.shards:
            queue.shutdown()

    # ------------------------------------------------------------------
    # Rebalance
    # ------------------------------------------------------------------

    def deactivate_shard(self, shard):
        """Re-route a dead shard's tenants (and pending items) elsewhere."""
        if shard not in self._active or len(self._active) <= 1:
            return
        self._active.remove(shard)
        queue = self.shards[shard]
        for tenant in list(queue.tenants):
            pending = queue.drain_pending(tenant)
            queue.remove_tenant(tenant)
            del self._tenant_shard[tenant]
            self.shard_of(tenant)  # re-route among remaining active shards
            for key in pending:
                self.add(tenant, key)
        self.rebalances += 1

    def activate_shard(self, shard):
        """Bring a shard back into the routing pool (new tenants only)."""
        if shard not in self._active and 0 <= shard < self.num_shards:
            self._active.append(shard)
            self._active.sort()

    @property
    def active_shards(self):
        return list(self._active)

    # ------------------------------------------------------------------
    # Introspection (aggregated over shards)
    # ------------------------------------------------------------------

    def __len__(self):
        return sum(len(queue) for queue in self.shards)

    def depth(self, tenant):
        shard = self._tenant_shard.get(tenant)
        return self.shards[shard].depth(tenant) if shard is not None else 0

    @property
    def added_total(self):
        return sum(queue.added_total for queue in self.shards)

    @property
    def deduped_total(self):
        return sum(queue.deduped_total for queue in self.shards)

    @property
    def wait_time_by_tenant(self):
        merged = defaultdict(float)
        for queue in self.shards:
            for tenant, wait in queue.wait_time_by_tenant.items():
                merged[tenant] += wait
        return merged

    @property
    def dispatched_by_tenant(self):
        merged = defaultdict(int)
        for queue in self.shards:
            for tenant, count in queue.dispatched_by_tenant.items():
                merged[tenant] += count
        return merged

    def stats(self):
        return {
            "depth": len(self),
            "added": self.added_total,
            "deduped": self.deduped_total,
            "tenants": len(self._tenant_shard),
            "processing": sum(len(q._processing) for q in self.shards),
            "shards": self.num_shards,
            "active_shards": len(self._active),
            "rebalances": self.rebalances,
            "depth_by_shard": [len(q) for q in self.shards],
        }
