"""Unit tests for the simulation kernel's execution machinery: the
hierarchical timer wheel, orphan-timer cancellation, the
kernel-correctness bugfix sweep (late-failing ``any_of`` losers,
waiter-abandonment defusing, the Event-wide undefused-failure check),
dispatch accounting, and run-to-run reproducibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulation
from repro.simkernel.timerwheel import GRANULARITY, MIN_WHEEL_DELAY, SPAN


# ----------------------------------------------------------------------
# Timer wheel
# ----------------------------------------------------------------------


class TestTimerWheel:
    def test_far_timers_are_staged_off_the_heap(self):
        sim = Simulation()
        fired = []
        for delay in (1.0, 10.0, 300.0):
            sim.timeout(delay).add_callback(
                lambda e, d=delay: fired.append((sim.now, d)))
        stats = sim.kernel_stats()
        assert stats["wheel_scheduled"] == 3
        assert len(sim._heap) == 0  # nothing due: all staged in the wheel
        sim.run()
        assert fired == [(1.0, 1.0), (10.0, 10.0), (300.0, 300.0)]

    def test_near_timers_bypass_the_wheel(self):
        sim = Simulation()
        sim.timeout(MIN_WHEEL_DELAY / 2).add_callback(lambda e: None)
        assert sim.kernel_stats()["wheel_scheduled"] == 0
        assert len(sim._heap) == 1

    def test_wheel_and_heap_tie_fires_in_creation_order(self):
        """Same fire time, one entry staged in the wheel and one in the
        heap: the original (time, seq) keys decide, not the staging path."""
        sim = Simulation()
        order = []
        # seq 1: delay 0.5 from t=0 -> wheel.
        sim.timeout(0.5).add_callback(lambda e: order.append("wheel"))
        sim.run(until=0.3)
        # seq 2: delay 0.2 from t=0.3 -> heap, same fire time 0.5.
        sim.timeout(0.2).add_callback(lambda e: order.append("heap"))
        sim.run()
        assert sim.now == 0.5
        assert order == ["wheel", "heap"]

    def test_same_time_wheel_entries_keep_seq_order(self):
        sim = Simulation()
        order = []
        for name in ("a", "b", "c"):
            sim.timeout(2.0).add_callback(
                lambda e, n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_long_timers_cascade_across_levels(self):
        # Level 1 starts at GRANULARITY * SPAN, level 2 at
        # GRANULARITY * SPAN**2; both must step down and fire exactly.
        level1_delay = GRANULARITY * SPAN * 3      # 48 s
        level2_delay = GRANULARITY * SPAN ** 2 * 2  # 2048 s
        sim = Simulation()
        fired = []
        sim.timeout(level2_delay).add_callback(
            lambda e: fired.append(sim.now))
        sim.timeout(level1_delay).add_callback(
            lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [level1_delay, level2_delay]
        assert sim.now == level2_delay

    def test_interleaved_near_and_far_timers_dispatch_in_time_order(self):
        sim = Simulation()
        fired = []
        delays = [0.1, 7.0, 0.26, 100.0, 3.0, 0.24, 17.0, 0.5]
        for delay in delays:
            sim.timeout(delay).add_callback(
                lambda e, d=delay: fired.append((sim.now, d)))
        sim.run()
        assert fired == sorted((d, d) for d in delays)

    def test_peek_sees_wheel_entries(self):
        sim = Simulation()
        sim.timeout(5.0).add_callback(lambda e: None)
        assert sim.peek() == 5.0
        sim.run()
        assert sim.peek() is None

    def test_pending_counts_wheel_entries(self):
        sim = Simulation()
        sim.timeout(5.0).add_callback(lambda e: None)
        sim.timeout(0.1).add_callback(lambda e: None)
        assert sim.kernel_stats()["pending"] == 2


# ----------------------------------------------------------------------
# Orphan cancellation (the any_of-loser Timeout satellite)
# ----------------------------------------------------------------------


class TestOrphanCancellation:
    def test_any_of_loser_in_wheel_is_cancelled(self):
        """A losing Timeout staged in the wheel never reaches the heap:
        the run ends at the winner's time, not the loser's deadline."""
        sim = Simulation()

        def proc():
            yield sim.any_of([sim.timeout(1.0, value="fast"),
                              sim.timeout(600.0, value="slow")])

        sim.process(proc())
        sim.run()
        assert sim.now == 1.0  # pre-fix: the loop idled until t=600
        assert sim.kernel_stats()["timers_cancelled"] == 1
        assert sim.kernel_stats()["pending"] == 0

    def test_any_of_loser_in_heap_is_skipped(self):
        sim = Simulation()

        def proc():
            # Both delays below MIN_WHEEL_DELAY: both go to the heap, so
            # the loser is skipped at pop time instead of flush time.
            yield sim.any_of([sim.timeout(0.1, value="fast"),
                              sim.timeout(0.2, value="slow")])

        sim.process(proc())
        sim.run()
        assert sim.kernel_stats()["orphans_skipped"] >= 1

    def test_detached_condition_still_delivers_to_other_waiter(self):
        """Orphaning only drops the *condition's* callback: another
        process waiting on the loser directly still gets its value."""
        sim = Simulation()
        seen = []

        def waiter(event):
            value = yield event
            seen.append((sim.now, value))

        def racer(event):
            yield sim.any_of([sim.timeout(1.0, value="fast"), event])

        slow = sim.timeout(10.0, value="slow")
        sim.process(racer(slow))
        sim.process(waiter(slow))
        sim.run()
        assert seen == [(10.0, "slow")]


# ----------------------------------------------------------------------
# Bugfix sweep regressions
# ----------------------------------------------------------------------


class TestUndefusedFailures:
    def test_late_failure_of_any_of_loser_surfaces(self):
        """A constituent that fails *after* the condition already
        triggered must not be swallowed by Condition._on_event: with no
        other waiter, the undefused failure crashes the run loudly."""
        sim = Simulation()

        def loser():
            yield sim.timeout(5)
            raise RuntimeError("late boom")

        def racer():
            yield sim.any_of([sim.timeout(1), sim.process(loser())])

        sim.process(racer())
        with pytest.raises(RuntimeError, match="late boom"):
            sim.run()

    def test_late_failure_with_direct_waiter_is_delivered(self):
        sim = Simulation()
        caught = []

        def loser():
            yield sim.timeout(5)
            raise RuntimeError("late boom")

        def racer(proc):
            yield sim.any_of([sim.timeout(1), proc])

        def handler(proc):
            try:
                yield proc
            except RuntimeError as exc:
                caught.append(str(exc))

        proc = sim.process(loser())
        sim.process(racer(proc))
        sim.process(handler(proc))
        sim.run()
        assert caught == ["late boom"]

    def test_plain_event_unobserved_failure_crashes_run(self):
        """The undefused-failure check covers every Event, not only
        Process: a failed bare event with no waiter stops the run."""
        sim = Simulation()
        sim.event().fail(RuntimeError("nobody watching"))
        with pytest.raises(RuntimeError, match="nobody watching"):
            sim.run()

    def test_defused_event_failure_passes_silently(self):
        sim = Simulation()
        event = sim.event()
        event.fail(RuntimeError("handled elsewhere"))
        event.defused = True
        sim.run()
        assert sim.kernel_stats()["pending"] == 0

    def test_detaching_last_waiter_defuses_failed_event(self):
        """Walking away from a failed event (e.g. an interrupted worker
        abandoning a queue wait) counts as handling it."""
        sim = Simulation()
        event = sim.event()
        callback = lambda e: None  # noqa: E731
        event.add_callback(callback)
        event.fail(RuntimeError("queue shut down"))
        event._detach(callback)
        assert event.defused
        sim.run()  # must not raise

    def test_detaching_from_pending_event_does_not_defuse(self):
        sim = Simulation()
        event = sim.event()
        callback = lambda e: None  # noqa: E731
        event.add_callback(callback)
        event._detach(callback)
        assert not event.defused


# ----------------------------------------------------------------------
# Dispatch accounting
# ----------------------------------------------------------------------


def _stop_run(stop_early):
    """Five processes on 1 s timeouts; the first one succeeds ``stop``.
    Runs to completion, first to ``stop`` if ``stop_early``."""
    sim = Simulation()
    stop = sim.event()
    order = []

    def proc(index):
        yield sim.timeout(1.0)
        order.append(index)
        if index == 0:
            stop.succeed()

    for index in range(5):
        sim.process(proc(index))
    if stop_early:
        sim.run(until=stop)
    sim.run()
    return order, sim.kernel_stats()


class TestDispatchAccounting:
    def test_stop_mid_batch_does_not_double_count(self):
        """Entries re-pushed when ``run(until=event)`` stops mid-batch
        are counted once, when they are popped again."""
        plain_order, plain = _stop_run(stop_early=False)
        stopped_order, stopped = _stop_run(stop_early=True)
        assert stopped_order == plain_order
        assert plain["dispatched"] == 16
        assert stopped["dispatched"] == plain["dispatched"]

    def test_batch_abort_leaves_serial_heap_state(self):
        """An undefused failure mid-batch re-pushes the untouched tail
        with original keys; every event is counted exactly once."""
        sim = Simulation()
        order = []
        for index in range(6):
            event = sim.event()
            if index == 2:
                event.fail(RuntimeError("boom"))
            else:
                event.succeed(index)
                event.add_callback(lambda e: order.append(e.value))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert order == [0, 1]
        assert sim.kernel_stats()["dispatched"] == 3
        sim.run()  # resume: the re-pushed tail dispatches in order
        assert order == [0, 1, 3, 4, 5]
        assert sim.kernel_stats()["dispatched"] == 6

    def test_run_until_event_stops_mid_batch(self):
        sim = Simulation()
        order = []

        def maker(name):
            yield sim.timeout(1.0)
            order.append(name)
            return name

        sim.process(maker("a"))
        stopper = sim.process(maker("b"))
        sim.process(maker("c"))
        assert sim.run(until=stopper) == "b"
        assert order == ["a", "b", "c"]
        sim.run()
        assert order == ["a", "b", "c"]

    def test_callback_pushes_count_toward_peak_heap(self):
        """Late subscribers are scheduled as bare callbacks; those heap
        pushes must show in ``peak_heap`` like any other."""
        sim = Simulation()
        event = sim.event()
        event.succeed()
        sim.run()
        for _ in range(10):
            event.add_callback(lambda e: None)
        assert len(sim._heap) == 10
        assert sim.kernel_stats()["peak_heap"] == 10
        sim.run()
        assert sim.kernel_stats()["pending"] == 0


# ----------------------------------------------------------------------
# Reproducibility
# ----------------------------------------------------------------------

DELAYS = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 17.0]


def _kernel_trace(seed, num_procs, steps):
    """Run a batching-heavy kernel workload; return its dispatch trace."""
    sim = Simulation(seed=seed)
    trace = []

    def worker(index):
        for step in range(steps):
            delay = sim.rng.choice(DELAYS)
            yield sim.timeout(delay)
            trace.append((round(sim.now, 9), index, step))

    for index in range(num_procs):
        sim.process(worker(index))
    sim.run()
    return trace


class TestKernelTraceEquality:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_serial_kernel_is_reproducible(self, seed):
        assert _kernel_trace(seed, 6, 5) == _kernel_trace(seed, 6, 5)
