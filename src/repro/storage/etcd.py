"""An etcd-like MVCC key-value store.

Provides exactly the semantics the Kubernetes apiserver depends on:

- a single monotonically-increasing revision counter shared by all keys;
- per-key ``mod_revision`` recorded on every write;
- compare-and-swap updates (optimistic concurrency);
- prefix range reads;
- watches that can replay history from a given revision and then stream
  live events, failing with :class:`RevisionCompacted` when the requested
  start revision has been compacted away.

Values are plain dicts (the wire form of API objects).  The store always
deep-copies values in and out, like a real store serializes to bytes, so
callers can never alias stored state.
"""

from bisect import bisect_left

from repro.objects.base import fast_deep_copy
from repro.telemetry import telemetry_of

from .errors import (
    CompactedError,
    FencingRevoked,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionCompacted,
    RevisionConflict,
    StoreUnavailable,
)

EVENT_PUT = "PUT"
EVENT_DELETE = "DELETE"


class StoredValue:
    """A value plus its MVCC bookkeeping."""

    __slots__ = ("value", "create_revision", "mod_revision", "version")

    def __init__(self, value, create_revision, mod_revision, version):
        self.value = value
        self.create_revision = create_revision
        self.mod_revision = mod_revision
        self.version = version


class WatchEvent:
    """One change notification."""

    __slots__ = ("type", "key", "value", "revision", "prev_value")

    def __init__(self, type, key, value, revision, prev_value=None):
        self.type = type
        self.key = key
        self.value = value
        self.revision = revision
        self.prev_value = prev_value

    def __repr__(self):
        return f"<WatchEvent {self.type} {self.key} @{self.revision}>"


class Watch:
    """A registered watcher; events arrive on :attr:`channel`.

    ``predicate`` (on the raw :class:`WatchEvent`) filters events at emit
    time — this is how the apiserver implements server-side field/label
    selector filtering for watches, so a kubelet watching
    ``spec.nodeName=node-7`` never receives other nodes' pod events.
    """

    def __init__(self, store, prefix, channel, predicate=None):
        self.store = store
        self.prefix = prefix
        self.channel = channel
        self.predicate = predicate
        self.cancelled = False

    def wants(self, event):
        if not event.key.startswith(self.prefix):
            return False
        return self.predicate is None or self.predicate(event)

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self.store._watches.pop(self, None)
            self.channel.close()


class EtcdStore:
    """The MVCC store.

    ``history_limit`` bounds how many events are kept for watch replay;
    older events are compacted (watches starting before the compaction
    revision fail, as in real etcd).
    """

    def __init__(self, sim, name="etcd", history_limit=100000, wal=None):
        self.sim = sim
        self.name = name
        # Optional write-ahead log (repro.storage.wal): the disk that
        # survives a kill -9 while this object's memory does not.  None
        # (the default) keeps the seed's pure in-memory behavior.
        self.wal = wal
        self._powered_off = False
        self.recoveries = 0
        # Armed by the chaos KillStore fault: crash after N more txn ops.
        self._kill_after_ops = None
        self._on_killed = None
        self._unavailable_factory = None
        self._data = {}
        # Secondary index: keys bucketed by their first two path segments
        # (e.g. "/registry/pods"), so per-resource range reads don't scan
        # the whole keyspace.
        self._buckets = {}
        self._revision = 0
        self._history = []
        self._compacted_revision = 0
        self._history_limit = history_limit
        # Registration-ordered (dict-as-ordered-set): watch fan-out in
        # _emit must not depend on set hash order, which varies with
        # PYTHONHASHSEED across processes (linter rule D003).
        self._watches = {}
        # Fencing tokens: domain -> highest token observed (see
        # :meth:`check_fence`).  Survives snapshot/restore.
        self._fences = {}
        self.fencing_rejections = 0
        # Multi-op transaction accounting (see :meth:`txn`).
        self.txns = 0
        self.txn_ops = 0
        self.largest_txn = 0
        telemetry = telemetry_of(sim)
        self._tracer = telemetry.tracer
        ops = telemetry.counter("etcd_ops_total",
                                "etcd operations by type",
                                labels=("store", "op"))
        # Pre-bound children so the hot path pays one float add per op.
        self._ops_write = ops.labels(store=name, op="write")
        self._ops_read = ops.labels(store=name, op="read")
        self._ops_txn = ops.labels(store=name, op="txn")
        telemetry.gauge("etcd_keys", "live keys per store",
                        labels=("store",)).labels(
            store=name).set_function(lambda: len(self._data))
        telemetry.gauge("etcd_revision", "store revision",
                        labels=("store",)).labels(
            store=name).set_function(lambda: self._revision)
        self._recoveries_metric = telemetry.counter(
            "store_recoveries_total",
            "store recoveries by source (wal replay / snapshot restore)",
            labels=("store", "source")).labels(store=name, source="wal")

    # ------------------------------------------------------------------
    # Liveness (kill -9 surface; see power_off/recover_from_wal below)
    # ------------------------------------------------------------------

    @property
    def available(self):
        return not self._powered_off

    def set_unavailable_factory(self, factory):
        """Let the apiserver substitute its retryable error type for
        :class:`StoreUnavailable` (dependency inversion: storage cannot
        import apiserver errors)."""
        self._unavailable_factory = factory

    def _unavailable(self, message):
        if self._unavailable_factory is not None:
            return self._unavailable_factory(message)
        return StoreUnavailable(message)

    def _check_alive(self):
        if self._powered_off:
            raise self._unavailable(f"{self.name}: store is down")

    @staticmethod
    def _bucket_of(key):
        parts = key.split("/", 3)
        return "/".join(parts[:3])

    # Buckets hold their keys as persistently *sorted* lists maintained by
    # bisect on write, so prefix reads are a binary search + slice instead
    # of the full re-sort the old set-based index paid on every
    # list_prefix/count_prefix call.  Keys sharing a prefix are contiguous
    # in sorted order, which also makes count_prefix allocation-free.

    def _index_add(self, key):
        keys = self._buckets.setdefault(self._bucket_of(key), [])
        index = bisect_left(keys, key)
        if index == len(keys) or keys[index] != key:
            keys.insert(index, key)

    def _index_remove(self, key):
        keys = self._buckets.get(self._bucket_of(key))
        if keys is not None:
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index]

    def _prefix_range(self, prefix):
        """(keys, lo, hi) bounding the sorted bucket run under ``prefix``.

        The upper bound appends a max-codepoint sentinel: every key that
        starts with ``prefix`` sorts below it (store keys are ASCII
        registry paths, which can never begin a suffix with U+10FFFF).
        """
        keys = self._buckets.get(self._bucket_of(prefix))
        if keys is None:
            return (), 0, 0
        lo = bisect_left(keys, prefix)
        hi = bisect_left(keys, prefix + "\U0010ffff", lo=lo)
        return keys, lo, hi

    def _keys_under(self, prefix):
        keys, lo, hi = self._prefix_range(prefix)
        return keys[lo:hi] if keys else []

    # ------------------------------------------------------------------
    # Basic KV operations (synchronous; latency is charged by the caller)
    # ------------------------------------------------------------------

    @property
    def revision(self):
        return self._revision

    # Race-detector probes (no-ops unless a RaceDetector is attached to
    # the sim).  create and CAS-guarded update/delete are release-writes:
    # the revision check serializes them, so they synchronize rather
    # than conflict; blind writes are checked for concurrency.

    def _race_write(self, key, release):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_write(self.name, key, release=release)

    def _race_read(self, key):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_read(self.name, key)

    def _race_scan(self, prefix):
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.on_scan(self.name, prefix)

    def create(self, key, value):
        """Insert a new key; fails if present. Returns the new revision."""
        self._check_alive()
        if key in self._data:
            raise KeyAlreadyExists(key)
        self._race_write(key, release=True)
        self._ops_write.inc()
        self._revision += 1
        stored = StoredValue(fast_deep_copy(value), self._revision,
                             self._revision, 1)
        self._data[key] = stored
        self._index_add(key)
        self._emit(WatchEvent(EVENT_PUT, key, fast_deep_copy(value),
                              self._revision))
        return self._revision

    def get(self, key):
        """Return (value, mod_revision); raises KeyNotFound."""
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        self._race_read(key)
        self._ops_read.inc()
        return fast_deep_copy(stored.value), stored.mod_revision

    def try_get(self, key):
        """Like :meth:`get` but returns (None, 0) for a missing key."""
        stored = self._data.get(key)
        if stored is None:
            return None, 0
        self._race_read(key)
        return fast_deep_copy(stored.value), stored.mod_revision

    def update(self, key, value, expected_revision=None):
        """Replace a key's value, optionally as a CAS on mod_revision."""
        self._check_alive()
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        if (expected_revision is not None
                and stored.mod_revision != expected_revision):
            raise RevisionConflict(key, expected_revision,
                                   stored.mod_revision)
        self._race_write(key, release=expected_revision is not None)
        self._ops_write.inc()
        self._revision += 1
        prev = stored.value
        stored.value = fast_deep_copy(value)
        stored.mod_revision = self._revision
        stored.version += 1
        self._emit(WatchEvent(EVENT_PUT, key, fast_deep_copy(value),
                              self._revision, prev_value=fast_deep_copy(prev)))
        return self._revision

    def delete(self, key, expected_revision=None):
        """Remove a key, optionally as a CAS on mod_revision."""
        self._check_alive()
        stored = self._data.get(key)
        if stored is None:
            raise KeyNotFound(key)
        if (expected_revision is not None
                and stored.mod_revision != expected_revision):
            raise RevisionConflict(key, expected_revision,
                                   stored.mod_revision)
        self._race_write(key, release=expected_revision is not None)
        self._ops_write.inc()
        self._revision += 1
        del self._data[key]
        self._index_remove(key)
        self._emit(WatchEvent(EVENT_DELETE, key,
                              fast_deep_copy(stored.value), self._revision))
        return self._revision

    def txn(self, ops):
        """Apply a multi-op write transaction.

        ``ops`` is a list of zero-arg callables, each performing one write
        against this store (the apiserver prepares them with its own
        read-validate-write logic, like an etcd txn's compare guards).
        Ops apply sequentially at consecutive revisions — exactly the
        state a sequence of single writes would produce — with per-op
        error capture instead of all-or-nothing abort: the result list
        holds each op's return value or the exception it raised.
        """
        self._check_alive()
        self.txns += 1
        self.txn_ops += len(ops)
        self.largest_txn = max(self.largest_txn, len(ops))
        self._ops_txn.inc()
        results = []
        with self._tracer.span("etcd.txn", ops=len(ops)):
            for op in ops:
                if self._kill_after_ops is not None:
                    if self._kill_after_ops <= 0:
                        self._kill_mid_txn()
                    self._kill_after_ops -= 1
                try:
                    results.append(op())
                except Exception as exc:  # noqa: BLE001 - captured per op
                    results.append(exc)
        return results

    def arm_kill(self, after_ops, callback=None):
        """Arm a kill -9 that fires after ``after_ops`` more txn ops.

        The sim cannot preempt synchronous code, so a mid-``txn`` crash
        is modeled as a latch: the next transaction applies ``after_ops``
        writes (each durable in the WAL) and then the process dies —
        already-applied ops are committed, the rest never happen, and the
        client sees the whole request fail retryably.
        """
        self._kill_after_ops = max(0, after_ops)
        self._on_killed = callback

    def disarm_kill(self):
        """Clear an armed mid-txn kill that never fired."""
        self._kill_after_ops = None
        self._on_killed = None

    def _kill_mid_txn(self):
        self._kill_after_ops = None
        callback, self._on_killed = self._on_killed, None
        self.power_off()
        if callback is not None:
            callback(self)
        raise self._unavailable(f"{self.name}: killed mid-txn")

    def list_prefix(self, prefix):
        """All (key, value, mod_revision) under a prefix, plus the revision.

        Returns ``(items, revision)`` — the revision is the store revision
        at list time, which list+watch reflectors use as their start point.
        """
        self._check_alive()
        self._race_scan(prefix)
        self._ops_read.inc()
        items = []
        for key in self._keys_under(prefix):
            stored = self._data[key]
            items.append((key, fast_deep_copy(stored.value),
                          stored.mod_revision))
        return items, self._revision

    def count_prefix(self, prefix):
        """Number of keys under a prefix, without materializing them.

        A pure bisect over the sorted bucket: no per-call sort (the old
        implementation sorted the whole bucket just to take ``len()``)
        and no list allocation.
        """
        _keys, lo, hi = self._prefix_range(prefix)
        return hi - lo

    # ------------------------------------------------------------------
    # Watch
    # ------------------------------------------------------------------

    def watch(self, prefix, from_revision=None, channel_factory=None,
              predicate=None):
        """Register a watch on a key prefix.

        When ``from_revision`` is given, history events after that revision
        are replayed into the channel first; raises
        :class:`RevisionCompacted` when they are no longer available.
        """
        from repro.simkernel.resources import Channel

        self._check_alive()
        factory = channel_factory or (lambda: Channel(self.sim,
                                                      name=f"watch:{prefix}"))
        channel = factory()
        watch = Watch(self, prefix, channel, predicate=predicate)
        if from_revision is not None and from_revision < self._revision:
            if from_revision < self._compacted_revision:
                raise RevisionCompacted(from_revision,
                                        self._compacted_revision)
            for event in self._history:
                if event.revision > from_revision and watch.wants(event):
                    channel.try_put(event)
        self._watches[watch] = None
        return watch

    def _emit(self, event):
        recorder = getattr(self.sim, "replay_recorder", None)
        if recorder is not None:
            recorder.record(self.name, event)
        if self.wal is not None:
            # The record carries the writer's vector-clock stamp so a
            # follower (or recovery) applying it absorbs a happens-before
            # edge from this mutation.
            detector = getattr(self.sim, "race_detector", None)
            stamp = detector.current_stamp() if detector is not None else None
            self.wal.append_event(event, stamp=stamp)
        self._history.append(event)
        if len(self._history) > self._history_limit:
            self.compact(keep=self._history_limit // 2)
        for watch in list(self._watches):
            if watch.wants(event):
                watch.channel.try_put(event)

    def compact(self, keep=1000):
        """Drop history older than the last ``keep`` events."""
        if len(self._history) > keep:
            dropped = self._history[:-keep] if keep else self._history
            if dropped:
                self._compacted_revision = dropped[-1].revision
            self._history = self._history[-keep:] if keep else []

    # ------------------------------------------------------------------
    # Fencing (leader election split-brain protection)
    # ------------------------------------------------------------------

    def check_fence(self, domain, token):
        """Admit a write stamped with a fencing token, or reject it.

        Tokens are monotonic per acquisition of the leader lease for
        ``domain``.  The first token seen for a domain (and any higher
        token) is admitted and becomes the floor; a *lower* token means
        the writer was deposed after a successor already wrote — its
        in-flight work must be dropped, so :class:`FencingRevoked` is
        raised.  A new leader establishes its floor by issuing an empty
        fenced transaction (a fence barrier) before serving.
        """
        current = self._fences.get(domain)
        if current is not None and token < current:
            self.fencing_rejections += 1
            raise FencingRevoked(domain, token, current)
        advanced = current is None or token > current
        self._fences[domain] = token
        if advanced and self.wal is not None:
            # Floor advances are durable: a recovered store must bounce a
            # deposed leader's stale token just like the one that crashed.
            detector = getattr(self.sim, "race_detector", None)
            stamp = detector.current_stamp() if detector is not None else None
            self.wal.append_fence(domain, token, self._revision, stamp=stamp)

    # ------------------------------------------------------------------
    # Snapshot / restore (durability for crashed control planes)
    # ------------------------------------------------------------------

    def snapshot(self):
        """A revision-consistent, fully-detached copy of the store.

        Captures data, the revision counter, the compaction floor and
        the fencing floors — everything needed to rebuild an equivalent
        store.  Watch registrations and replay history are deliberately
        excluded: they belong to live sessions, which a restore severs.
        """
        return {
            "name": self.name,
            "revision": self._revision,
            "compacted_revision": self._compacted_revision,
            "fences": dict(self._fences),
            "data": {
                key: (fast_deep_copy(stored.value), stored.create_revision,
                      stored.mod_revision, stored.version)
                for key, stored in self._data.items()
            },
        }

    def restore(self, snapshot, replay=()):
        """Replace all state from a snapshot, then replay a WAL tail.

        ``replay`` is a sequence of :class:`WatchEvent` (typically from
        :meth:`events_since` captured on another store, or buffered by
        the operator) applied at their recorded revisions — events at or
        below the snapshot revision are skipped, so handing the full
        tail back is idempotent.

        Every open watch is cancelled: watchers cannot observe a
        consistent stream across the discontinuity, so their channels
        close and reflectors relist.  The compaction floor then moves to
        the post-replay revision, which makes any stale watch *resume*
        (``from_revision`` below the restore point) fail with
        :class:`RevisionCompacted` instead of silently missing events.

        Replay must be gap-free: events apply at consecutive revisions
        starting from the snapshot, so a tail that begins *above*
        ``snapshot revision + 1`` (part of it was compacted away) raises
        :class:`CompactedError` before any state is touched — silently
        skipping the gap would resurrect a store missing committed
        writes.  Events at or below the snapshot revision are still
        skipped (idempotent full-history replay).

        Returns the store revision after the restore.
        """
        expected = snapshot["revision"]
        for event in replay:
            if event.revision <= expected:
                continue
            if event.revision != expected + 1:
                raise CompactedError(expected, event.revision)
            expected = event.revision
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            # Discontinuity: pre-restore accesses no longer describe
            # reachable state, so the access graph restarts.
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        for key, (value, create_rev, mod_rev, version) in \
                snapshot["data"].items():
            self._data[key] = StoredValue(fast_deep_copy(value), create_rev,
                                          mod_rev, version)
            self._index_add(key)
        self._revision = snapshot["revision"]
        self._fences = dict(snapshot.get("fences", {}))
        self._history = []
        for event in replay:
            if event.revision > self._revision:
                self._apply_replayed(event)
        self._compacted_revision = self._revision
        self._powered_off = False
        if self.wal is not None:
            # The log must describe the store it sits under: anchor it to
            # the post-restore state and drop the divergent tail.
            self.wal.reset(anchor=self.snapshot())
        return self._revision

    def _apply_replayed(self, event):
        """Apply one WAL event at its recorded revision (no re-emit:
        restore cancelled every watch, and history restarts afterwards)."""
        if event.type == EVENT_PUT:
            stored = self._data.get(event.key)
            if stored is None:
                self._data[event.key] = StoredValue(
                    fast_deep_copy(event.value), event.revision,
                    event.revision, 1)
                self._index_add(event.key)
            else:
                stored.value = fast_deep_copy(event.value)
                stored.mod_revision = event.revision
                stored.version += 1
        elif event.type == EVENT_DELETE:
            if self._data.pop(event.key, None) is not None:
                self._index_remove(event.key)
        self._revision = max(self._revision, event.revision)

    def events_since(self, revision):
        """The WAL tail: detached copies of all events after ``revision``.

        Raises :class:`RevisionCompacted` when part of the tail has been
        compacted away — the caller must fall back to snapshot-only
        recovery (or take a fresh snapshot) instead of replaying a gap.
        """
        if revision < self._compacted_revision:
            raise RevisionCompacted(revision, self._compacted_revision)
        return [
            WatchEvent(event.type, event.key, fast_deep_copy(event.value),
                       event.revision,
                       prev_value=fast_deep_copy(event.prev_value)
                       if event.prev_value is not None else None)
            for event in self._history if event.revision > revision
        ]

    def wipe(self):
        """Simulate catastrophic data loss: everything gone, watches cut.

        Used by chaos' crash-control-plane fault; recovery is a
        :meth:`restore` from the last snapshot.
        """
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        self._history = []
        self._revision = 0
        self._compacted_revision = 0
        self._fences = {}
        self._powered_off = False
        if self.wal is not None:
            self.wal.reset()

    def power_off(self):
        """Kill -9: volatile memory is gone, the WAL (the disk) survives.

        Contrast with :meth:`wipe` (catastrophic loss, WAL included).
        The store rejects every operation until :meth:`recover_from_wal`
        or :meth:`restore` brings it back.
        """
        if self.wal is not None:
            self.wal.power_off()
        for watch in list(self._watches):
            watch.cancel()
        detector = getattr(self.sim, "race_detector", None)
        if detector is not None:
            detector.reset_object(self.name)
        self._data = {}
        self._buckets = {}
        self._history = []
        self._revision = 0
        self._compacted_revision = 0
        self._fences = {}
        self._powered_off = True

    def recover_from_wal(self):
        """Rebuild state from the WAL to the last durable revision.

        Raises :class:`CompactedError` when the log is empty or gapped —
        the caller falls back to snapshot-only recovery.  Returns the
        recovered revision.
        """
        if self.wal is None or self.wal.is_empty():
            raise CompactedError(0, 0)
        # Detach the WAL during replay: restore()/wipe() inside
        # recover_into must not reset the very log being replayed.
        wal, self.wal = self.wal, None
        try:
            # truncate=True: crash recovery drops the torn/volatile
            # suffix so post-recovery appends extend a clean log.
            revision = wal.recover_into(self, truncate=True)
        finally:
            self.wal = wal
        self._powered_off = False
        self.recoveries += 1
        self._recoveries_metric.inc()
        return revision

    def wal_durable_revision(self):
        return self.wal.durable_revision if self.wal is not None else 0

    def anchor_wal(self, snapshot):
        """Compact the WAL against a freshly-taken snapshot (no-op when
        the store has no log)."""
        if self.wal is not None:
            self.wal.compact(snapshot)

    def dump(self):
        """Canonical detached image of current data (tests/benchmarks)."""
        return {
            key: (fast_deep_copy(stored.value), stored.create_revision,
                  stored.mod_revision, stored.version)
            for key, stored in self._data.items()
        }

    # ------------------------------------------------------------------
    # Introspection / memory accounting
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._data)

    def stats(self):
        return {
            "keys": len(self._data),
            "revision": self._revision,
            "history": len(self._history),
            "watches": len(self._watches),
            "compacted_revision": self._compacted_revision,
            "txns": self.txns,
            "txn_ops": self.txn_ops,
            "largest_txn": self.largest_txn,
            "fences": dict(self._fences),
            "fencing_rejections": self.fencing_rejections,
            "recoveries": self.recoveries,
            "wal": self.wal.stats() if self.wal is not None else None,
        }

