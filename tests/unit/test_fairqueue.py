"""Unit tests for the fair (WRR) work queue — the paper's §III-C extension."""

import pytest

from repro.clientgo import FairWorkQueue, ShutDown
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


def drain_all(sim, queue, count):
    """Take ``count`` items sequentially; returns [(tenant, key)]."""
    taken = []

    def worker():
        for _ in range(count):
            tenant, key, _enqueued = yield queue.get()
            taken.append((tenant, key))
            queue.done(tenant, key)

    process = sim.process(worker())
    sim.run(until=process)
    return taken


class TestRoundRobin:
    def test_equal_weights_interleave(self, sim):
        queue = FairWorkQueue(sim)
        for i in range(3):
            queue.add("A", f"a{i}")
        for i in range(3):
            queue.add("B", f"b{i}")
        taken = drain_all(sim, queue, 6)
        tenants = [tenant for tenant, _key in taken]
        # Strict alternation with equal weights.
        assert tenants == ["A", "B", "A", "B", "A", "B"]

    def test_burst_tenant_cannot_starve_others(self, sim):
        queue = FairWorkQueue(sim)
        for i in range(100):
            queue.add("greedy", f"g{i}")
        queue.add("regular", "r0")
        taken = drain_all(sim, queue, 4)
        # The regular tenant's single item is served within one WRR round.
        positions = [i for i, (tenant, _key) in enumerate(taken)
                     if tenant == "regular"]
        assert positions and positions[0] <= 1

    def test_weighted_dispatch_ratio(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("heavy", weight=3)
        queue.register_tenant("light", weight=1)
        for i in range(30):
            queue.add("heavy", f"h{i}")
        for i in range(30):
            queue.add("light", f"l{i}")
        taken = drain_all(sim, queue, 16)
        heavy = sum(1 for tenant, _k in taken if tenant == "heavy")
        light = sum(1 for tenant, _k in taken if tenant == "light")
        assert heavy == pytest.approx(3 * light, abs=2)

    def test_unfair_mode_is_fifo(self, sim):
        queue = FairWorkQueue(sim, fair=False)
        for i in range(50):
            queue.add("greedy", f"g{i}")
        queue.add("regular", "r0")
        taken = drain_all(sim, queue, 51)
        assert taken[-1] == ("regular", "r0")

    def test_empty_tenant_skipped(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("empty")
        queue.add("busy", "b0")
        assert drain_all(sim, queue, 1) == [("busy", "b0")]


class TestDedup:
    def test_dedup_same_key(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        queue.add("A", "k")
        assert len(queue) == 1
        assert queue.deduped_total == 1

    def test_same_key_different_tenants_not_deduped(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        queue.add("B", "k")
        assert len(queue) == 2

    def test_readd_while_processing(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        order = []

        def worker():
            tenant, key, _t = yield queue.get()
            order.append("first")
            queue.add(tenant, key)
            queue.done(tenant, key)
            tenant, key, _t = yield queue.get()
            order.append("second")
            queue.done(tenant, key)

        sim.run(until=sim.process(worker()))
        assert order == ["first", "second"]


class TestLifecycle:
    def test_blocking_get(self, sim):
        queue = FairWorkQueue(sim)
        got = []

        def worker():
            tenant, key, _t = yield queue.get()
            got.append((tenant, key, sim.now))

        def producer():
            yield sim.timeout(2)
            queue.add("T", "x")

        sim.process(worker())
        sim.process(producer())
        sim.run()
        assert got == [("T", "x", 2)]

    def test_shutdown(self, sim):
        queue = FairWorkQueue(sim)
        failures = []

        def worker():
            try:
                yield queue.get()
            except ShutDown:
                failures.append(True)

        sim.process(worker())

        def closer():
            yield sim.timeout(1)
            queue.shutdown()

        sim.process(closer())
        sim.run()
        assert failures == [True]

    def test_remove_tenant_discards_pending(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "a0")
        queue.add("B", "b0")
        queue.remove_tenant("A")
        assert len(queue) == 1
        assert drain_all(sim, queue, 1) == [("B", "b0")]

    def test_unfair_remove_tenant_discards_pending(self, sim):
        """Regression: in fair=False mode the shared FIFO kept a removed
        tenant's items, so they were still dispatched."""
        queue = FairWorkQueue(sim, fair=False)
        queue.add("A", "a0")
        queue.add("A", "a1")
        queue.add("B", "b0")
        queue.remove_tenant("A")
        assert queue.depth("A") == 0
        assert len(queue) == 1
        assert drain_all(sim, queue, 1) == [("B", "b0")]

    def test_unfair_late_done_does_not_resurrect_tenant(self, sim):
        """Regression: in fair=False mode a done() for an item re-added
        while processing re-queued it even after remove_tenant()."""
        queue = FairWorkQueue(sim, fair=False)
        queue.add("A", "a0")
        taken = []

        def worker():
            tenant, key, _enqueued = yield queue.get()
            taken.append((tenant, key))

        sim.run(until=sim.process(worker()))
        queue.add("A", "a0")  # dirty while processing
        queue.remove_tenant("A")
        queue.done("A", "a0")
        assert "A" not in queue.tenants
        assert len(queue) == 0

    def test_remove_before_cursor_preserves_rotation(self, sim):
        """Regression: removing a tenant that sits *before* the WRR
        cursor must pull the cursor back one slot, or the tenant whose
        turn is next silently loses it."""
        queue = FairWorkQueue(sim)
        for tenant in ("A", "B", "C"):
            for i in range(2):
                queue.add(tenant, f"{tenant.lower()}{i}")
        # Serve exactly one item (A's), advancing the cursor past A.
        assert drain_all(sim, queue, 1) == [("A", "a0")]
        queue.remove_tenant("A")
        # B's turn is next; the old code left the cursor pointing at C.
        assert drain_all(sim, queue, 4) == [
            ("B", "b0"), ("C", "c0"), ("B", "b1"), ("C", "c1")]

    def test_remove_at_cursor_serves_next_tenant(self, sim):
        queue = FairWorkQueue(sim)
        for tenant in ("A", "B", "C"):
            queue.add(tenant, f"{tenant.lower()}0")
        # Cursor still on A (nothing served); removing A hands the turn
        # to B without skipping anyone.
        queue.remove_tenant("A")
        assert drain_all(sim, queue, 2) == [("B", "b0"), ("C", "c0")]

    def test_wait_time_by_tenant_tracked(self, sim):
        queue = FairWorkQueue(sim)

        def producer():
            queue.add("A", "x")
            yield sim.timeout(0)

        def worker():
            yield sim.timeout(5)
            tenant, key, enqueued = yield queue.get()
            queue.done(tenant, key)

        sim.process(producer())
        process = sim.process(worker())
        sim.run(until=process)
        assert queue.wait_time_by_tenant["A"] == pytest.approx(5)
        assert queue.dispatched_by_tenant["A"] == 1

    def test_stats(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "x")
        stats = queue.stats()
        assert stats["depth"] == 1
        assert stats["tenants"] == 1


class TestWeightValidation:
    """Regression: ``weight=0`` used to be silently coerced to the
    default weight (``weight or default``); non-positive weights are now
    rejected instead of either starving the tenant or masking the bug."""

    def test_zero_weight_rejected(self, sim):
        queue = FairWorkQueue(sim)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=0)
        assert "T" not in queue.tenants

    def test_negative_weight_rejected(self, sim):
        queue = FairWorkQueue(sim)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=-3)

    def test_explicit_weight_not_coerced(self, sim):
        queue = FairWorkQueue(sim, default_weight=4)
        queue.register_tenant("T", weight=2)
        assert queue._weights["T"] == 2

    def test_none_weight_uses_default(self, sim):
        queue = FairWorkQueue(sim, default_weight=4)
        queue.register_tenant("T")
        assert queue._weights["T"] == 4

    def test_sharded_zero_weight_rejected(self, sim):
        queue = FairWorkQueue(sim, shards=2)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=0)
        assert "T" not in queue.tenants

    def test_sharded_explicit_weight_propagates(self, sim):
        queue = FairWorkQueue(sim, shards=2, default_weight=4)
        queue.register_tenant("T", weight=2)
        assert queue._weights["T"] == 2
