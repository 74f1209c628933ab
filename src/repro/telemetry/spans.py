"""Cross-component span tracing.

Times arbitrary operations: an apiserver request, an etcd transaction,
a syncer DWS/UWS item, a scheduler bind, a kubelet pod start.  The
Fig. 8 / Table I Pod phases stay in ``core/syncer/tracing.py``: spans
are no-ops when telemetry is disabled, while run termination waits on
the trace store's completed count.  Each :class:`Span` records its
operation name, tenant attribution, start/end in simulated time, and a
link to its parent span.

Parent propagation uses per-process span stacks: the simulation kernel
runs one generator chain per process, and synchronous calls plus
``yield from`` delegation stay within that chain, so "the innermost
open span of the active process" is exactly the semantic parent.  When
the syncer's DWS worker (one process) calls the apiserver (a plain
``yield from``), the apiserver's request span auto-parents to the DWS
span — no context threading through call signatures.

The tracer keeps only a bounded ring of finished spans (for inspection
and the export CLI) while folding every finished span into exact
aggregate counters and registry histograms, so soaks can't leak memory
through tracing either.
"""

from collections import deque


class Span:
    """One timed operation, attributed to a tenant, linked to a parent."""

    __slots__ = ("span_id", "parent_id", "name", "tenant", "start",
                 "end", "attrs")

    def __init__(self, span_id, parent_id, name, tenant, start, attrs=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tenant = tenant
        self.start = start
        self.end = None
        self.attrs = attrs or {}

    @property
    def duration(self):
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self):
        dur = "open" if self.end is None else f"{self.duration:.6f}s"
        parent = f" parent={self.parent_id}" if self.parent_id else ""
        return (f"Span({self.span_id} {self.name} tenant={self.tenant} "
                f"{dur}{parent})")


class _SpanContext:
    """``with tracer.span(...)`` guard; safe across generator yields."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer.finish(self.span, error=exc_type is not None)
        return False


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class SpanTracer:
    """Span factory with per-process parent stacks and exact aggregates.

    ``clock``
        callable returning current simulated time.
    ``active_context``
        callable returning a hashable key for the currently running
        process (or None outside any process); parent lookup and stack
        push/pop are scoped per key so interleaved processes never see
        each other's open spans as parents.
    ``registry``
        optional :class:`~repro.telemetry.registry.MetricsRegistry`;
        finished spans observe into ``span_duration_seconds{name=...}``
        and count into ``spans_total{name=...}``.
    """

    def __init__(self, clock, active_context=None, registry=None,
                 retain=512, enabled=True):
        self.clock = clock
        self.active_context = active_context or (lambda: None)
        self.enabled = enabled
        self.retain = retain
        self._next_id = 0
        self._stacks = {}            # context key -> [open spans]
        self.finished = deque(maxlen=retain)
        # Exact aggregates, never evicted: name -> [count, errors, sum].
        self._agg = {}
        if registry is not None and enabled:
            self._spans_total = registry.counter(
                "spans_total", "finished spans", labels=("name",))
            self._span_errors = registry.counter(
                "span_errors_total", "spans finished with an exception",
                labels=("name",))
            self._span_duration = registry.histogram(
                "span_duration_seconds", "span durations",
                labels=("name",))
        else:
            self._spans_total = None
            self._span_errors = None
            self._span_duration = None

    # ------------------------------------------------------------------

    def span(self, name, tenant="", **attrs):
        """Open a span as a context manager; auto-parents to the
        innermost open span of the active process."""
        if not self.enabled:
            return _NOOP_CONTEXT
        return _SpanContext(self, self.start(name, tenant=tenant, **attrs))

    def start(self, name, tenant="", **attrs):
        """Open a span explicitly (pair with :meth:`finish`)."""
        self._next_id += 1
        key = self.active_context()
        stack = self._stacks.get(key)
        parent = stack[-1] if stack else None
        span = Span(self._next_id,
                    parent.span_id if parent is not None else None,
                    name,
                    tenant or (parent.tenant if parent is not None else ""),
                    self.clock(), attrs=attrs or None)
        if stack is None:
            stack = []
            self._stacks[key] = stack
        stack.append(span)
        return span

    def finish(self, span, error=False):
        span.end = self.clock()
        key = self.active_context()
        stack = self._stacks.get(key)
        # Remove from whichever stack holds it; nested with-blocks make
        # this the top of the active stack in practice.
        if stack and span in stack:
            stack.remove(span)
            if not stack:
                del self._stacks[key]
        else:
            for other_key, other in list(self._stacks.items()):
                if span in other:
                    other.remove(span)
                    if not other:
                        del self._stacks[other_key]
                    break
        self.finished.append(span)
        agg = self._agg.get(span.name)
        if agg is None:
            agg = [0, 0, 0.0]
            self._agg[span.name] = agg
        agg[0] += 1
        agg[2] += span.duration
        if error:
            agg[1] += 1
        if self._spans_total is not None:
            self._spans_total.labels(name=span.name).inc()
            self._span_duration.labels(name=span.name).observe(span.duration)
            if error:
                self._span_errors.labels(name=span.name).inc()

    # ------------------------------------------------------------------

    def open_spans(self):
        """Spans started but not finished (debugging aid)."""
        return [span for stack in self._stacks.values() for span in stack]

    def children_of(self, span):
        """Finished spans whose parent is ``span`` (retained ring only)."""
        return [s for s in self.finished if s.parent_id == span.span_id]

    def aggregates(self):
        """Exact per-name aggregates (survive ring eviction), sorted.

        Returns ``{name: {"count", "errors", "total_seconds",
        "mean_seconds"}}`` — the deterministic span section of the
        telemetry snapshot (raw span ids are process-run dependent and
        deliberately excluded).
        """
        out = {}
        for name in sorted(self._agg):
            count, errors, total = self._agg[name]
            out[name] = {
                "count": count,
                "errors": errors,
                "total_seconds": total,
                "mean_seconds": total / count if count else 0.0,
            }
        return out
