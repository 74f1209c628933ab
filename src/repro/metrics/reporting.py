"""ASCII reporting helpers used by the benchmark harness.

The benchmarks print the same rows/series the paper reports; these
helpers render them readably in pytest output and EXPERIMENTS.md.
"""


def format_table(headers, rows, title=None):
    """Render a fixed-width ASCII table."""
    columns = [str(h) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(col.ljust(width)
                            for col, width in zip(columns, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_histogram(samples, bucket_width=1.0, max_width=50, title=None):
    """Render a horizontal ASCII histogram of creation times (Fig. 7)."""
    if not samples:
        return "(no samples)"
    counts = {}
    for value in samples:
        bucket = int(value // bucket_width)
        counts[bucket] = counts.get(bucket, 0) + 1
    peak = max(counts.values())
    lines = [title] if title else []
    for bucket in range(max(counts) + 1):
        count = counts.get(bucket, 0)
        bar = "#" * max(1 if count else 0,
                        round(count / peak * max_width))
        low = bucket * bucket_width
        high = low + bucket_width
        lines.append(f"  [{low:5.1f},{high:5.1f}) {count:6d} {bar}")
    return "\n".join(lines)


def format_phase_breakdown(phase_means, title="Phase breakdown"):
    """Render the Fig. 8 style breakdown with percentages."""
    total = sum(phase_means.values()) or 1.0
    rows = [(phase, seconds, 100.0 * seconds / total)
            for phase, seconds in phase_means.items()]
    return format_table(["phase", "mean (s)", "share (%)"], rows,
                        title=title)


def format_bucket_table(phase_buckets, bucket_width=2.0,
                        title="Time bucket counts (Table I)"):
    """Render the Table I layout: phases x time buckets."""
    bucket_count = len(next(iter(phase_buckets.values())))
    headers = ["phase"] + [
        f"[{int(i * bucket_width)},{int((i + 1) * bucket_width)}]"
        for i in range(bucket_count)
    ]
    rows = [[phase] + counts for phase, counts in phase_buckets.items()]
    return format_table(headers, rows, title=title)


def format_syncer_health(syncer, title="Syncer health"):
    """Render per-tenant circuit state plus watchdog restart counts.

    One row per tenant the syncer has health data for: breaker state,
    consecutive failures, total opens/probes, items currently parked,
    and accumulated time in a degraded (non-closed) state.  A trailing
    section lists worker restart counts from the watchdog.
    """
    rows = [
        [tenant, entry["state"], entry["consecutive_failures"],
         entry["opens_total"], entry["probes_total"], entry["parked"],
         entry["time_degraded"]]
        for tenant, entry in sorted(syncer.health.stats().items())
    ]
    if not rows:
        rows = [["(no tenants)", "-", 0, 0, 0, 0, 0.0]]
    table = format_table(
        ["tenant", "circuit", "consec", "opens", "probes", "parked",
         "degraded (s)"],
        rows, title=title)
    restarts = syncer.worker_restarts
    total = sum(restarts.values())
    lines = [table, f"worker restarts: {total}"]
    for label, count in sorted(restarts.items()):
        lines.append(f"  {label}: {count}")
    return "\n".join(lines)


def format_failover(ha, title="Syncer HA failover"):
    """Render the failover log of a :class:`SyncerHA` group: one row per
    leadership term (identity, fencing token, time-to-sync, MTTR), plus
    the elector counters and the fenced-write / fencing-rejection totals
    that prove the split-brain guard ran (DESIGN.md §10)."""
    rows = [
        [record["identity"], record["token"],
         f"{record['elected_at']:.2f}", f"{record['serving_at']:.2f}",
         f"{record['sync_seconds']:.3f}",
         "-" if record["mttr"] is None else f"{record['mttr']:.3f}"]
        for record in ha.failovers
    ]
    if not rows:
        rows = [["(no leader yet)", "-", "-", "-", "-", "-"]]
    table = format_table(
        ["leader", "token", "elected", "serving", "sync (s)", "MTTR (s)"],
        rows, title=title)
    lines = [table]
    for elector in ha.electors:
        stats = elector.stats()
        lines.append(
            f"  {stats['identity']}: acquisitions={stats['acquisitions']} "
            f"renewals={stats['renewals']} losses={stats['losses']}"
            + (" [leading]" if stats["is_leader"] else ""))
    store = ha.super_cluster.api.store
    lines.append(f"fenced writes: {ha.stats()['fenced_writes']}  "
                 f"fencing rejections: {store.fencing_rejections}")
    return "\n".join(lines)


def format_durability(store, title="Store durability"):
    """Render a :class:`~repro.storage.ReplicatedStore` group's health:
    one row per replica (role, applied revision, lag, WAL size), the
    recovery log (who died, who took over, MTTR, committed writes
    lost — the number that must stay 0), and the stale-read counter
    from the follower-read path (DESIGN.md §13)."""
    stats = store.stats()
    rows = []
    for replica in stats.get("replicas", []):
        wal = replica["wal"] or {}
        rows.append([
            replica["name"], replica["role"],
            "up" if replica["alive"] else "down",
            replica["applied_revision"], replica["lag"],
            replica["records_applied"],
            wal.get("records", 0), wal.get("torn_records", 0),
        ])
    if not rows:
        rows = [["(single store)", "-", "-", stats.get("revision", 0),
                 0, 0, 0, 0]]
    table = format_table(
        ["replica", "role", "state", "applied", "lag", "streamed",
         "wal recs", "torn"],
        rows, title=title)
    lines = [table]
    for record in stats.get("recoveries_log", []):
        mttr = record.get("mttr")
        lines.append(
            f"  {record['victim']} died ({record['reason']}) "
            f"@{record['killed_at']:.2f}s -> {record.get('promoted', '?')} "
            f"token={record.get('token', '?')} "
            f"MTTR={'-' if mttr is None else f'{mttr:.3f}s'} "
            f"lost_writes={record.get('lost_writes', '?')}")
    lines.append(
        f"failovers: {stats.get('failovers', 0)}  "
        f"stale reads rejected: {stats.get('stale_reads', 0)}  "
        f"store recoveries: {stats.get('recoveries', 0)}")
    return "\n".join(lines)


def format_apf(limiter, title="APF admission (priority & fairness)"):
    """Render an :class:`~repro.apiserver.APFLimiter`'s per-level stats:
    seats vs. peak concurrency (borrowing shows as peak > seats),
    dispatched/shed counts split by shed reason (queue overflow vs.
    bounded-wait timeout), and mean queue wait (DESIGN.md §15)."""
    rows = []
    for level in limiter.snapshot():
        seats = "exempt" if level["exempt"] else level["seats"]
        rows.append([
            level["level"], seats, level["peak_in_use"],
            level["borrowed_peak"], level["dispatched"],
            level["rejected_queue_full"], level["rejected_timeout"],
            f"{level['mean_wait']*1000:.1f}ms",
        ])
    table = format_table(
        ["level", "seats", "peak", "borrowed", "dispatched",
         "shed(full)", "shed(timeout)", "mean wait"],
        rows, title=title)
    return table


def format_swapper(swapper, title="Scale-to-zero swapper"):
    """Render an :class:`~repro.core.IdleSwapper`'s fleet state: how
    many tracked planes are swapped out, resident memory, wake counts
    split warm/cold, and the wake-latency p99 against the SLO."""
    total = len(swapper._tracked)
    swapped = swapper.swapped_count()
    wakes = len(swapper.wake_samples)
    warm = sum(1 for _t, kind, _e in swapper.wake_samples
               if kind == "warm")
    p99 = swapper.wake_p99()
    rows = [
        ["tracked planes", total],
        ["swapped out", f"{swapped} ({100.0*swapped/total:.1f}%)"
         if total else "0"],
        ["resident bytes", f"{swapper.total_resident_bytes():,.0f}"],
        ["swap-outs", swapper.swap_out_count],
        ["wakes (warm/cold)", f"{wakes} ({warm}/{wakes - warm})"],
        ["wake p99", f"{p99:.3f}s" if wakes else "-"],
        ["wake SLO", "-" if swapper.wake_slo is None
         else f"{swapper.wake_slo:.3f}s"],
    ]
    return format_table(["metric", "value"], rows, title=title)


def summarize(result):
    """One-line summary of a StressResult."""
    return (f"{result.mode}: pods={result.num_pods} "
            f"tenants={result.num_tenants} duration={result.duration:.1f}s "
            f"throughput={result.throughput:.0f}/s mean={result.mean:.2f}s "
            f"p99={result.percentile(99):.2f}s")


def pods_per_node(syncer):
    """Super pods currently bound to each physical node.

    Reads the pods cache's node index (one posting lookup per node)
    instead of scanning every cached pod per node — the same index the
    hot-path report uses to surface placement skew.
    """
    from repro.core.syncer.conversion import INDEX_NODE, node_index

    pods = syncer.super_informer("pods").cache
    pods.add_index(INDEX_NODE, node_index)  # idempotent
    return {node: len(pods.index_keys(INDEX_NODE, node))
            for node in syncer.super_informer("nodes").cache.keys()}


def format_telemetry(snapshot, title="Telemetry", families=None,
                     max_series=8):
    """Render a registry snapshot (``Telemetry.snapshot()``) compactly.

    One row per series: counters/gauges show their value, histograms
    their count / mean / p99.  ``families`` restricts the listing (e.g.
    the chaos report shows only the core families); per family at most
    ``max_series`` series print, the rest collapse into a ``(+N more)``
    row with the family total so big label spaces stay readable.
    """
    wanted = set(families) if families is not None else None
    rows = []
    for family in snapshot.get("families", ()):
        if wanted is not None and family["name"] not in wanted:
            continue
        series = family["series"]
        for entry in series[:max_series]:
            labelset = ",".join(f"{k}={v}"
                                for k, v in sorted(entry["labels"].items()))
            name = family["name"] + (f"{{{labelset}}}" if labelset else "")
            if family["kind"] == "histogram":
                count = entry["count"]
                mean = entry["sum"] / count if count else 0.0
                rows.append([name, f"n={count} mean={mean:.4f}s"])
            else:
                rows.append([name, entry["value"]])
        if len(series) > max_series:
            if family["kind"] == "histogram":
                total = sum(entry["count"] for entry in series)
            else:
                total = sum(entry["value"] for entry in series)
            rows.append([f"{family['name']} (+{len(series) - max_series} "
                         f"more)", f"total={total}"])
    if not rows:
        rows = [["(no metrics)", "-"]]
    lines = [format_table(["series", "value"], rows, title=title)]
    spans = snapshot.get("spans") or {}
    if spans:
        span_rows = [
            [name, agg["count"], agg["errors"], agg["mean_seconds"]]
            for name, agg in spans.items()
        ]
        lines.append(format_table(
            ["span", "count", "errors", "mean (s)"], span_rows,
            title="Span aggregates"))
    return "\n".join(lines)


def format_hotpath(syncer, title="Syncer hot path"):
    """Render the DESIGN.md §9 hot-path counters: dispatch sharding,
    downward write batching, and per-node placement from the pod index."""
    stats = syncer.stats()
    downward = stats["downward"]
    rows = [
        ["dispatch shards", stats["dispatch_shards"]],
        ["dws depth by shard", downward["depth_by_shard"]],
        ["dws lock contentions", stats["dws_lock_contentions"]],
        ["uws lock contentions", stats["uws_lock_contentions"]],
    ]
    batching = stats["downward_batching"]
    rows.append(["downward batching",
                 "on" if batching["enabled"] else "off (pass-through)"])
    if batching["enabled"]:
        rows.extend([
            ["  batches flushed", batching["batches_flushed"]],
            ["  ops batched", batching["ops_batched"]],
            ["  largest batch", batching["largest_batch"]],
        ])
    table = format_table(["metric", "value"], rows, title=title)
    placement = pods_per_node(syncer)
    busiest = sorted(placement.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    lines = [table, "busiest nodes (pods via node index):"]
    if busiest:
        for node, count in busiest:
            lines.append(f"  {node}: {count}")
    else:
        lines.append("  (no nodes)")
    return "\n".join(lines)
