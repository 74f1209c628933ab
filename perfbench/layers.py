"""Per-layer metrics of a traced iteration.

Counts come from the program's public outputs (``kernel_stats()``, the
telemetry registry, ``syncer.stats()``, the trace store's phase means)
or from the boundary wrappers of :mod:`perfbench.tracing`.  All of them
cover the measured phase only: program counters (:func:`counters`) are
read at the end of set-up and subtracted from those the iteration's
outcome copied out of each env after its run.  Every ``*.self_s`` is
traced host self time; ``sim_*`` values are simulated seconds.
"""

STORAGE_READS = ("storage.get", "storage.try_get", "storage.list_prefix",
                 "storage.count_prefix")
STORAGE_WRITES = ("storage.create", "storage.update", "storage.delete",
                  "storage.txn")
STORAGE_CONFLICTS = ("RevisionConflict", "KeyAlreadyExists")


def storage_writes(tracer):
    return sum(tracer.calls[name] for name in STORAGE_WRITES)


def _family_total(registry, name):
    family = registry.get(name)
    return 0.0 if family is None else family.total()


def _histogram_sum(registry, name):
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(child.sum for _labels, child in family.children())


TOTALS = ("workqueue_adds_total", "fairqueue_adds_total",
          "workqueue_deduped_total", "fairqueue_deduped_total",
          "apf_rejected_total", "reflector_lists_total",
          "syncer_items_total", "vnode_heartbeats_total",
          "scheduler_binds_total", "scheduler_bind_failures_total")
HISTOGRAM_SUMS = ("apf_queue_wait_seconds", "workqueue_wait_seconds",
                  "fairqueue_wait_seconds")


def counters(env):
    """The program counters of ``env`` that the per-layer metrics use."""
    registry = env.sim.telemetry.registry
    out = {name: int(_family_total(registry, name)) for name in TOTALS}
    out.update((name, _histogram_sum(registry, name))
               for name in HISTOGRAM_SUMS)
    stats = env.sim.kernel_stats()
    for key in ("timers_cancelled", "orphans_skipped"):
        out[key] = stats[key]
    syncer = env.syncer.stats()
    out["lock_contentions"] = (syncer["dws_lock_contentions"]
                               + syncer["uws_lock_contentions"])
    return out


def per_layer_metrics(tracer, outcome, before, traced, wall_on,
                      telemetry_overhead_s):
    """``{name: {"value", "unit"}}`` for every per-layer metric.

    ``before`` is :func:`counters` at the end of set-up, summed over the
    envs that existed then; ``traced`` is the traced iteration and
    ``wall_on`` the untraced wall time.
    """
    calls, self_s = tracer.calls, tracer.self_s
    delta = {name: value - before.get(name, 0)
             for name, value in outcome.counters.items()}
    phases = outcome.phase_means
    adds = delta["workqueue_adds_total"] + delta["fairqueue_adds_total"]
    deduped = (delta["workqueue_deduped_total"]
               + delta["fairqueue_deduped_total"])
    values = [
        ("simkernel.dispatched", outcome.dispatched, "count"),
        ("simkernel.host_us_per_dispatch",
         wall_on / max(1, outcome.dispatched) * 1e6, "us"),
        ("simkernel.peak_heap", outcome.peak_heap, "count"),
        ("simkernel.timers_cancelled", delta["timers_cancelled"], "count"),
        ("simkernel.orphans_skipped", delta["orphans_skipped"], "count"),
        ("simkernel.self_s", self_s["simkernel"], "s"),
        ("storage.reads", sum(calls[name] for name in STORAGE_READS),
         "count"),
        ("storage.writes", storage_writes(tracer), "count"),
        ("storage.watch_events", calls["storage.watch_events"], "count"),
        ("storage.conflicts",
         tracer.errors_matching("storage.", STORAGE_CONFLICTS), "count"),
        ("storage.self_s", self_s["storage"], "s"),
        ("apiserver.requests", tracer.calls_matching("apiserver."),
         "count"),
        ("apiserver.lists", calls["apiserver.list"], "count"),
        ("apiserver.errors", tracer.errors_matching("apiserver."), "count"),
        ("apiserver.apf_rejected", delta["apf_rejected_total"], "count"),
        ("apiserver.apf_wait_s", delta["apf_queue_wait_seconds"], "s"),
        ("apiserver.self_s", self_s["apiserver"], "s"),
        ("objects.decodes_per_pod",
         calls["objects.Pod.from_dict"] / max(1, outcome.pods_synced),
         "count"),
        ("objects.deep_copies", calls["objects.deep_copy"], "count"),
        ("objects.quantity_parses", calls["objects.quantity_parse"],
         "count"),
        ("objects.self_s", self_s["objects"], "s"),
        ("clientgo.informer_events", calls["clientgo.informer.on_event"],
         "count"),
        ("clientgo.queue_adds", calls["clientgo.WorkQueue.add"]
         + calls["clientgo.FairWorkQueue.add"], "count"),
        ("clientgo.queue_dedup_ratio", deduped / adds if adds else 0.0,
         "ratio"),
        ("clientgo.reflector_relists", delta["reflector_lists_total"],
         "count"),
        ("clientgo.client_retries", calls["clientgo.client_retries"],
         "count"),
        ("clientgo.sim_queue_wait_s", delta["workqueue_wait_seconds"]
         + delta["fairqueue_wait_seconds"], "s"),
        ("clientgo.self_s", self_s["clientgo"], "s"),
        ("syncer.items", delta["syncer_items_total"], "count"),
        ("syncer.scans", calls["syncer.scan_tenant"], "count"),
        ("syncer.vnode_heartbeats", delta["vnode_heartbeats_total"],
         "count"),
        ("syncer.lock_contentions", delta["lock_contentions"], "count"),
        ("syncer.sim_dws_queue_s", phases.get("DWS-Queue", 0.0), "s"),
        ("syncer.sim_dws_process_s", phases.get("DWS-Process", 0.0), "s"),
        ("syncer.sim_uws_queue_s", phases.get("UWS-Queue", 0.0), "s"),
        ("syncer.sim_uws_process_s", phases.get("UWS-Process", 0.0), "s"),
        ("syncer.self_s", self_s["syncer"], "s"),
        ("scheduler.binds", delta["scheduler_binds_total"], "count"),
        ("scheduler.bind_failures", delta["scheduler_bind_failures_total"],
         "count"),
        ("scheduler.filter_calls",
         tracer.calls_matching("scheduler.filter."), "count"),
        ("scheduler.sim_super_sched_s", phases.get("Super-Sched", 0.0),
         "s"),
        ("scheduler.self_s", self_s["scheduler"], "s"),
        ("controllers.gc_scans", tracer.by_name[tracer.gc_scan_step][0],
         "count"),
        ("controllers.self_s", self_s["controllers"], "s"),
        ("virtualkubelet.status_updates", tracer.vk_status_updates,
         "count"),
        ("virtualkubelet.self_s", self_s["virtualkubelet"], "s"),
        ("telemetry.label_lookups", calls["telemetry.labels"], "count"),
        ("telemetry.overhead_s", telemetry_overhead_s, "s"),
        ("analysis.self_s", self_s["analysis"], "s"),
        ("other.self_s", self_s["other"], "s"),
        ("trace.overhead_s", traced.wall_s - wall_on, "s"),
        ("unattributed.self_s", traced.raw_wall_s - tracer.root_s, "s"),
    ]
    return {name: {"value": value, "unit": unit}
            for name, value, unit in values}
