"""Per-Pod creation tracing: the five phases of Fig. 8 / Table I.

Every tenant Pod's path through the system is timestamped at the phase
boundaries the paper defines:

1. DWS-Queue   — time in the downward worker queue;
2. DWS-Process — downward synchronization (create in super cluster);
3. Super-Sched — time in the super cluster until Running/Ready;
4. UWS-Queue   — time in the upward worker queue;
5. UWS-Process — upward synchronization (status back to the tenant).

The store keeps exactly one :class:`PodTrace` per Pod plus the list of
completed traces in completion order; every aggregate iterates that
list.  Marking ``uws_done`` completes a trace exactly once: a boundary
still unset at that point takes the previous boundary's value (a
zero-length phase), and marks after completion are no-ops.
"""

PHASES = ("DWS-Queue", "DWS-Process", "Super-Sched", "UWS-Queue",
          "UWS-Process")
# The stamps between ``created`` and ``uws_done``, in phase order.
_BOUNDARIES = ("dws_dequeue", "dws_done", "super_ready", "uws_dequeue")


class PodTrace:
    """Timestamps for one tenant Pod's creation round trip."""

    __slots__ = ("tenant", "pod_key", "created", "dws_dequeue", "dws_done",
                 "super_ready", "uws_dequeue", "uws_done")

    def __init__(self, tenant, pod_key, created):
        self.tenant = tenant
        self.pod_key = pod_key
        self.created = created
        self.dws_dequeue = None
        self.dws_done = None
        self.super_ready = None
        self.uws_dequeue = None
        self.uws_done = None

    @property
    def complete(self):
        return self.uws_done is not None

    @property
    def total(self):
        """End-to-end Pod creation time (the paper's headline metric)."""
        if not self.complete:
            return None
        return self.uws_done - self.created

    def phases(self):
        """Dict of phase name -> duration (None until complete)."""
        if not self.complete:
            return None
        return {
            "DWS-Queue": self.dws_dequeue - self.created,
            "DWS-Process": self.dws_done - self.dws_dequeue,
            "Super-Sched": self.super_ready - self.dws_done,
            "UWS-Queue": self.uws_dequeue - self.super_ready,
            "UWS-Process": self.uws_done - self.uws_dequeue,
        }


class TraceStore:
    """All Pod traces for one syncer.

    ``telemetry``
        optional :class:`~repro.telemetry.Telemetry` hub; completed
        traces observe ``pod_creation_seconds{tenant}`` and
        ``pod_phase_seconds{phase}`` histograms.
    """

    def __init__(self, telemetry=None):
        self._traces = {}
        self._completed = []  # completion order
        self._creation_hist = None
        self._phase_hist = None
        if telemetry is not None:
            self._creation_hist = telemetry.histogram(
                "pod_creation_seconds", "end-to-end Pod creation time",
                labels=("tenant",))
            self._phase_hist = telemetry.histogram(
                "pod_phase_seconds", "Pod creation time per phase",
                labels=("phase",))

    def begin(self, tenant, pod_key, created):
        key = (tenant, pod_key)
        if key not in self._traces:
            self._traces[key] = PodTrace(tenant, pod_key, created)
        return self._traces[key]

    def get(self, tenant, pod_key):
        return self._traces.get((tenant, pod_key))

    def mark(self, tenant, pod_key, field, now):
        # First write wins; completion fills every boundary, so marks
        # after ``uws_done`` are no-ops.
        trace = self._traces.get((tenant, pod_key))
        if trace is None or getattr(trace, field) is not None:
            return
        setattr(trace, field, now)
        if trace.complete:
            self._complete(trace)

    def _complete(self, trace):
        # Boundaries an out-of-order stamp left unset (e.g. the upward
        # item that delivered Ready was dequeued before the super Pod
        # was Ready) become zero-length phases.
        previous = trace.created
        for field in _BOUNDARIES:
            if getattr(trace, field) is None:
                setattr(trace, field, previous)
            previous = getattr(trace, field)
        self._completed.append(trace)
        if self._creation_hist is not None:
            self._creation_hist.labels(tenant=trace.tenant).observe(
                trace.total)
            for phase, value in trace.phases().items():
                self._phase_hist.labels(phase=phase).observe(value)

    def completed(self):
        """Completed traces in completion order."""
        return list(self._completed)

    @property
    def completed_count(self):
        return len(self._completed)

    def all(self):
        return list(self._traces.values())

    def __len__(self):
        return len(self._traces)

    # ------------------------------------------------------------------
    # Aggregations used by the benchmark harness
    # ------------------------------------------------------------------

    def creation_times(self):
        return [trace.total for trace in self._completed]

    def mean_phase_breakdown(self):
        """Average seconds per phase across completed traces (Fig. 8)."""
        if not self._completed:
            return {phase: 0.0 for phase in PHASES}
        sums = dict.fromkeys(PHASES, 0.0)
        for trace in self._completed:
            for phase, value in trace.phases().items():
                sums[phase] += value
        count = len(self._completed)
        return {phase: sums[phase] / count for phase in PHASES}

    def phase_bucket_counts(self, bucket_width=2.0, bucket_count=5):
        """Table I: per-phase counts in fixed-width time buckets."""
        buckets = {phase: [0] * bucket_count for phase in PHASES}
        for trace in self._completed:
            for phase, value in trace.phases().items():
                slot = min(int(value // bucket_width), bucket_count - 1)
                buckets[phase][slot] += 1
        return buckets

    def mean_creation_time_by_tenant(self):
        """Fig. 11: average Pod creation time per tenant."""
        sums = {}
        counts = {}
        for trace in self._completed:
            sums[trace.tenant] = sums.get(trace.tenant, 0.0) + trace.total
            counts[trace.tenant] = counts.get(trace.tenant, 0) + 1
        return {tenant: sums[tenant] / counts[tenant] for tenant in sums}
