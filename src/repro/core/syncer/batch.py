"""Batched downward writes (DESIGN.md §9).

Every downward reconcile used to issue its super-cluster write as its own
apiserver request — one request overhead, one inflight slot and one etcd
round trip per object.  The :class:`DownwardBatchWriter` coalesces writes
from concurrent DWS workers into multi-op transactions: a worker submits
its op and suspends on an event; a flusher ships up to ``batch_max`` ops
as one ``client.transaction`` call after at most ``batch_linger`` seconds,
then resolves each submitter's event with its own result (or raises its
own :class:`ApiError` at the submitter's yield point, so reconcilers'
existing ``except AlreadyExists/NotFound/Conflict`` handling is unchanged).

With ``downward_batch_max <= 1`` (the default — paper-faithful behavior)
the writer is a transparent pass-through to the plain client calls.

When the syncer runs as an HA replica (``syncer.current_fence()`` is not
None), every write — batched or pass-through — travels as a fenced
transaction stamped with the leader's (domain, token), so a deposed
leader's in-flight writes die at the store with
:class:`~repro.apiserver.errors.FencingConflict` instead of racing its
successor (split-brain protection, DESIGN.md §10).
"""

from repro.apiserver.errors import ServerUnavailable
from repro.simkernel.events import Event


class DownwardBatchWriter:
    """Coalesces super-cluster writes into multi-op transactions."""

    def __init__(self, syncer):
        self.syncer = syncer
        self.sim = syncer.sim
        cfg = syncer.config.syncer
        self.batch_max = max(1, cfg.downward_batch_max)
        self.linger = cfg.downward_batch_linger
        self.enabled = self.batch_max > 1
        self.client = syncer.super_client
        self._pending = []          # [(op_tuple, Event)]
        self._flusher = None
        self._stopped = False
        self.batches_flushed = 0
        self.ops_batched = 0
        self.largest_batch = 0
        self.fenced_writes = 0

    # ------------------------------------------------------------------
    # Write API (mirrors the Client write verbs; all coroutines)
    # ------------------------------------------------------------------

    def _fence(self):
        """The owner's (domain, token) stamp, or None outside HA.  Kept
        getattr-soft so writer tests can stub the syncer."""
        current = getattr(self.syncer, "current_fence", None)
        return current() if current is not None else None

    def create(self, obj, namespace=None):
        return (yield from self._write(
            ("create", obj, namespace),
            lambda: self.client.create(obj, namespace=namespace)))

    def update(self, obj):
        return (yield from self._write(
            ("update", obj, None), lambda: self.client.update(obj)))

    def update_status(self, obj):
        return (yield from self._write(
            ("update", obj, "status"),
            lambda: self.client.update_status(obj)))

    def delete(self, plural, name, namespace=None):
        return (yield from self._write(
            ("delete", plural, name, namespace),
            lambda: self.client.delete(plural, name, namespace=namespace)))

    def _write(self, op, direct):
        """Route one write: into a batch when batching is on, else the
        plain client call ``direct()``, or a fenced 1-op transaction when
        the owner is an HA replica."""
        if self.enabled:
            return (yield from self._submit(op))
        fence = self._fence()
        if fence is None:
            return (yield from direct())
        return (yield from self._fenced_single(op, fence))

    def _fenced_single(self, op, fence):
        """Pass-through write as a 1-op fenced transaction: same CAS and
        validation cores, plus the split-brain guard; the per-op error
        re-raises so reconcilers' existing handling is unchanged."""
        results = yield from self.client.transaction([op], fencing=fence)
        self.fenced_writes += 1
        result = results[0]
        if isinstance(result, Exception):
            raise result
        return result

    # ------------------------------------------------------------------
    # Batching machinery
    # ------------------------------------------------------------------

    def _submit(self, op):
        if self._stopped:
            raise ServerUnavailable("batch writer stopped")
        event = Event(self.sim)
        self._pending.append((op, event))
        if self._flusher is None:
            self._flusher = self.sim.spawn(self._flush_loop(),
                                           name="dws-batch-flusher")
        result = yield event
        return result

    def _flush_loop(self):
        while self._pending and not self._stopped:
            if len(self._pending) < self.batch_max and self.linger:
                # Give concurrent workers a beat to join the batch.
                yield self.sim.timeout(self.linger)
            batch, self._pending = (self._pending[:self.batch_max],
                                    self._pending[self.batch_max:])
            if not batch:
                break
            fence = self._fence()
            try:
                results = yield from self.client.transaction(
                    [op for op, _event in batch], fencing=fence)
            except Exception as exc:  # noqa: BLE001 - fanned out to waiters
                for _op, event in batch:
                    event.fail(exc)
                    event.defused = True
                continue
            if fence is not None:
                self.fenced_writes += 1
            self.batches_flushed += 1
            self.ops_batched += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
            for (_op, event), result in zip(batch, results):
                if isinstance(result, Exception):
                    event.fail(result)
                else:
                    event.succeed(result)
        self._flusher = None

    def start(self):
        """(Re-)arm the writer; a deposed leader that wins a later term
        reuses the same instance."""
        self._stopped = False

    def stop(self):
        self._stopped = True
        pending, self._pending = self._pending, []
        for _op, event in pending:
            if not event.triggered:
                event.fail(ServerUnavailable("batch writer stopped"))
                event.defused = True

    def stats(self):
        return {
            "enabled": self.enabled,
            "batch_max": self.batch_max,
            "batches_flushed": self.batches_flushed,
            "ops_batched": self.ops_batched,
            "largest_batch": self.largest_batch,
            "pending": len(self._pending),
            "fenced_writes": self.fenced_writes,
        }
