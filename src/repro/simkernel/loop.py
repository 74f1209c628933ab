"""The discrete-event simulation loop.

:class:`Simulation` owns the virtual clock and the scheduled-event heap.
All components of the reproduced system (apiservers, controllers, kubelets,
the syncer, ...) run as :class:`~repro.simkernel.process.Process` instances
inside one simulation, which makes large-scale stress tests deterministic
and far faster than wall-clock execution.
"""

import heapq
import random

from .accounting import Accounting
from .errors import SimulationDeadlock, StopSimulation
from .events import Event, Timeout, all_of, any_of
from .process import Process
from .timerwheel import MIN_WHEEL_DELAY, TimerWheel

_CALLBACK = object()


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned random generator.  Every run with the
        same seed and workload produces identical timelines.
    """

    def __init__(self, seed=0, perturb_swap=None):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._active_process = None
        self.rng = random.Random(seed)
        self._process_count = 0
        # Far-future timers are staged in a hierarchical wheel instead of
        # the heap; `_wheel_next` caches the earliest bucket boundary so
        # the hot loop pays one float compare per pop.
        self._wheel = TimerWheel()
        self._wheel_next = None
        self._batches = 0
        self._orphans_skipped = 0
        self._peak_heap = 0
        # Analysis hooks (repro.analysis): a RaceDetector stamps events
        # with vector clocks, a ReplayRecorder hashes store emissions.
        self.race_detector = None
        self.replay_recorder = None
        self._dispatched = 0
        # Divergence fixture: dispatch the (K+1)-th ready item before
        # the K-th, once — flips exactly one event order so the replay
        # bisector has a real divergence to localize.  Never set outside
        # tests/diagnostics.
        self._perturb_swap = perturb_swap
        self.accounting = Accounting(self)
        # Unified telemetry hub (repro.telemetry imports nothing from
        # repro.*, so this is cycle-free).
        from repro.telemetry import Telemetry

        self.telemetry = Telemetry(self)

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being stepped, if any."""
        return self._active_process

    def _schedule(self, event, delay=0):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        if self.race_detector is not None:
            self.race_detector.stamp_event(event)
        self._seq += 1
        if delay >= MIN_WHEEL_DELAY:
            start = self._wheel.add(self._now + delay, self._seq, event,
                                    self._now)
            if self._wheel_next is None or start < self._wheel_next:
                self._wheel_next = start
            return
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, self._seq, event))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _schedule_callback(self, fn, delay=0):
        """Schedule a bare callable (used for late subscribers, interrupts)."""
        if self.race_detector is not None:
            self.race_detector.stamp_callback(fn)
        self._seq += 1
        self._push((self._now + delay, self._seq, (_CALLBACK, fn)))

    def _push(self, entry):
        """Push a heap entry, keeping ``_peak_heap`` (``_schedule`` inlines
        this on the hot path)."""
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self):
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Event succeeding ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events):
        """Event succeeding when any of ``events`` succeeds."""
        return any_of(self, events)

    def all_of(self, events):
        """Event succeeding when all of ``events`` succeed."""
        return all_of(self, events)

    def process(self, generator, name=None):
        """Start a new process from ``generator`` and return it."""
        self._process_count += 1
        return Process(self, generator, name=name)

    # Alias that reads better at call sites spawning background work.
    spawn = process

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        stop_at = None
        stop_event = None
        if isinstance(until, Event):
            stop_event = until
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        heap = self._heap
        try:
            while True:
                wheel_next = self._wheel_next
                if wheel_next is not None and \
                        (not heap or wheel_next <= heap[0][0]):
                    self._advance_wheel()
                if not heap:
                    if stop_at is not None:
                        self._now = stop_at
                    break
                when, seq, item = heap[0]
                if stop_at is not None and when > stop_at:
                    self._now = stop_at
                    break
                heapq.heappop(heap)
                self._now = when
                self._dispatched += 1
                self._batches += 1
                if self._perturb_swap is not None:
                    if (self._dispatched >= self._perturb_swap and heap):
                        self._perturb_swap = None
                        _when2, _seq2, early = heapq.heappop(heap)
                        self._dispatch_item(early)
                    self._dispatch_item(item)
                    continue
                if heap and heap[0][0] == when:
                    # Drain the whole ready batch at this timestamp.  Items
                    # scheduled *by* these dispatches carry higher seqs, so
                    # finishing the batch before re-draining preserves the
                    # exact serial order.
                    batch = [(when, seq, item)]
                    while heap and heap[0][0] == when:
                        batch.append(heapq.heappop(heap))
                    self._run_batch(batch)
                else:
                    self._dispatch_ready(item)
        except StopSimulation as stop:
            event = stop.args[0]
            if not event.ok:
                event.defused = True
                raise event.value
            return event.value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationDeadlock(
                    "run(until=event): event never triggered and no events remain"
                )
            if not stop_event.ok:
                stop_event.defused = True
                raise stop_event.value
            return stop_event.value
        return None

    def _advance_wheel(self):
        """Flush due wheel buckets so the heap head is the global minimum.

        Loops because a flush can cancel orphans (leaving the heap empty)
        or cascade entries between levels; terminates since each pass
        strictly raises the earliest bucket boundary.
        """
        heap = self._heap
        wheel = self._wheel
        while True:
            upto = heap[0][0] if heap else self._wheel_next
            wheel.advance(upto, heap)
            wheel_next = wheel.earliest_boundary()
            self._wheel_next = wheel_next
            if wheel_next is None or (heap and wheel_next > heap[0][0]):
                break
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _run_batch(self, batch):
        """Dispatch a same-timestamp batch in seq order.

        The caller has counted the head entry; the rest are counted here
        up to the one whose dispatch raised, so an entry that an abort
        re-pushes is counted once, when it is popped again.
        """
        index = 0
        try:
            for index in range(len(batch)):
                self._dispatch_ready(batch[index][2])
        except BaseException:
            # Leave exactly the state a pop-one-at-a-time loop would
            # have: undispatched items back in the heap, original keys.
            for entry in batch[index + 1:]:
                self._push(entry)
            raise
        finally:
            self._dispatched += index

    def _dispatch_ready(self, item):
        """Dispatch one popped item, skipping orphaned events.

        An event that is triggered-ok with zero callbacks left (e.g. an
        ``any_of``-loser ``Timeout`` the winning condition detached from)
        would process as a pure no-op; marking it processed without the
        dispatch bookkeeping is observationally identical and cheaper.
        """
        if type(item) is not tuple:
            callbacks = item.callbacks
            if item._ok and callbacks is not None and not callbacks:
                item.callbacks = None
                self._orphans_skipped += 1
                return
        self._dispatch_item(item)

    def _dispatch_item(self, item):
        """Dispatch one popped heap item (event or bare callback)."""
        detector = self.race_detector
        if isinstance(item, tuple) and item[0] is _CALLBACK:
            fn = item[1]
            if detector is not None:
                detector.begin_dispatch(getattr(fn, "_race_stamp", None))
                try:
                    fn()
                finally:
                    detector.end_dispatch()
            else:
                fn()
            return
        if detector is not None:
            detector.begin_dispatch(getattr(item, "_race_stamp", None))
            try:
                item._process()
            finally:
                detector.end_dispatch()
        else:
            item._process()
        # "Undefused failures crash loudly": any failed event nobody
        # handled — not just a Process — stops the run.  A waiter (or a
        # Condition watching the event) defuses on delivery; a failure
        # with no observer is a bug in the workload, not background noise.
        if not item.ok and not item.defused:
            raise item.value

    @staticmethod
    def _stop_callback(event):
        raise StopSimulation(event)

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none remain."""
        heap = self._heap
        wheel_next = self._wheel_next
        if wheel_next is not None and (not heap or wheel_next <= heap[0][0]):
            self._advance_wheel()
        return heap[0][0] if heap else None

    def kernel_stats(self):
        """Counters describing how the kernel executed (perf tooling)."""
        wheel = self._wheel
        return {
            "dispatched": self._dispatched,
            "batches": self._batches,
            "peak_heap": self._peak_heap,
            "pending": len(self._heap) + len(wheel),
            "wheel_scheduled": wheel.staged,
            "timers_cancelled": wheel.cancelled,
            "orphans_skipped": self._orphans_skipped,
            # The kernel is serial; perfbench still reads this key.
            "workers": 0,
        }

    def __repr__(self):
        pending = len(self._heap) + len(self._wheel)
        return f"<Simulation now={self._now:.6f} pending={pending}>"
