"""Compile a :class:`Scenario` onto the simulator and run it.

The pipeline has two halves with a sharp boundary:

1. **Compilation is pure.**  :func:`compile_load` turns every workload's
   shape into an action plan *before* any simulation exists, drawing
   jitter from a per-workload ``random.Random`` whose seed derives from
   ``(scenario.seed, tenant, workload)`` via crc32 of the canonical
   names (stable across runs and processes — never ``hash()``).  Two
   calls with the same scenario produce identical plans.
2. **Execution is seeded.**  :func:`run_scenario` builds the familiar
   recorded stack — ``Simulation(seed)`` → :class:`ReplayRecorder` (and
   optional :class:`RaceDetector`) → :class:`VirtualClusterEnv` — then
   lays the scenario onto it: node pools (with shared
   :class:`~repro.network.NetworkLink` uplinks and elastic staged
   joins), tenants, the chaos overlay, and finally the compiled load.
   The run advances to the horizon, waits for convergence on a fixed
   polling grid, and captures the converged-state digest.

Because every RNG in the stack is derived from the scenario seed and
every wait lands on the deterministic simulation clock, the digest is a
pure function of the scenario — which is what lets the corpus pin
golden digests at all.
"""

import random
import zlib

from repro.analysis.bisect import ReplayRecorder
from repro.analysis.racedetect import RaceDetector
from repro.apiserver.errors import ApiError
from repro.chaos.engine import ChaosEngine, check_convergence
from repro.chaos.faults import (
    ApiRequestFault,
    ApiServerCrash,
    ForcedCompaction,
    NetworkPartition,
    TenantStorm,
    WatchDrop,
    WorkerCrash,
)
from repro.chaos.schedule import OneShot, Periodic, RandomWindows
from repro.config import DEFAULT_CONFIG
from repro.core.env import VirtualClusterEnv
from repro.network import NetworkLink
from repro.simkernel import Simulation
from repro.workloads import LoadGenerator, TenantLoadPattern, TimedActions

from .errors import GoldenMismatch, ScenarioError
from .model import GoldenSpec


def derive_seed(base, *parts):
    """A child seed from the scenario seed and canonical name parts.

    crc32 over the utf-8 of the joined parts (D006-canonical — never
    ``hash()``, which is salted per process), mixed with the base seed.
    """
    return (int(base) + zlib.crc32(":".join(parts).encode("utf-8"))) \
        & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Pure compilation
# ----------------------------------------------------------------------


class CompiledWorkload:
    """One workload's executable plan plus its launch offset."""

    def __init__(self, tenant, workload, plan, start=0.0):
        self.tenant = tenant
        self.workload = workload
        self.plan = plan
        self.start = start

    @property
    def actions(self):
        return getattr(self.plan, "actions", None)


def compile_load(scenario):
    """Compile every workload to a plan.  Pure; deterministic per seed."""
    compiled = []
    for tenant in scenario.tenants:
        for workload in tenant.workloads:
            rng = random.Random(
                derive_seed(scenario.seed, "load", tenant.name,
                            workload.name))
            actions, concurrent = workload.shape.compile(
                rng, jitter=workload.jitter)
            if actions is None:
                # Closed-loop (sequential): no precomputable times.
                shape = workload.shape
                plan = TenantLoadPattern(
                    count=shape.count, mode="sequential", think=shape.think,
                    namespace=workload.namespace,
                    name_prefix=workload.name)
                compiled.append(CompiledWorkload(
                    tenant.name, workload.name, plan, start=workload.start))
            else:
                shifted = sorted(
                    ((workload.start + when, op, index)
                     for when, op, index in actions),
                    key=lambda action: action[0])
                plan = TimedActions(
                    shifted, namespace=workload.namespace,
                    name_prefix=workload.name, concurrent=concurrent,
                    labels={"app": workload.name,
                            "scenario": scenario.name})
                compiled.append(CompiledWorkload(
                    tenant.name, workload.name, plan))
    return compiled


def compile_schedule(spec):
    """ScheduleSpec → a `repro.chaos.schedule` instance."""
    if spec.type == "oneshot":
        return OneShot(at=spec.at, duration=spec.duration)
    if spec.type == "periodic":
        return Periodic(period=spec.period, duration=spec.duration,
                        count=spec.count, offset=spec.offset)
    return RandomWindows(
        mean_gap=spec.mean_gap,
        duration_range=tuple(spec.duration_range or (0.5, 3.0)),
        count=spec.count)


def _compile_fault(entry, env, handles, tenant_specs=None):
    """ChaosSpec → a bound-able fault against the live env."""
    params = entry.params
    tenant_specs = tenant_specs or {}
    if entry.target == "super":
        target = env.super_cluster
        label = "super"
    elif entry.target == "syncer":
        target = None
        label = "syncer"
    else:
        handle = handles[entry.target]
        target = handle.control_plane
        label = entry.target
    if entry.fault == "apiserver-crash":
        return ApiServerCrash(target, name=f"crash:{label}")
    if entry.fault == "request-fault":
        verbs = params.get("verbs")
        return ApiRequestFault(
            target, verbs=tuple(verbs) if verbs else None,
            error_rate=params.get("error_rate", 1.0),
            extra_latency=params.get("extra_latency", 0.0),
            name=f"reqfault:{label}")
    if entry.fault == "watch-drop":
        return WatchDrop(target, fraction=params.get("fraction", 1.0),
                         name=f"watchdrop:{label}")
    if entry.fault == "compaction":
        return ForcedCompaction(target, keep=int(params.get("keep", 0)),
                                name=f"compact:{label}")
    if entry.fault == "partition":
        handle = handles[entry.target]
        client = env.syncer.tenants[handle.key].client
        return NetworkPartition(client, name=f"partition:{label}")
    if entry.fault == "worker-crash":
        return WorkerCrash(env.syncer, count=int(params.get("count", 1)))
    if entry.fault == "tenant-storm":
        # The abuser floods the *super* apiserver under a per-tenant
        # storm identity; its tier defaults to the tenant's declared
        # tier so APF classifies (and sheds) it accordingly.
        tier = params.get("tier")
        if tier is None:
            spec = tenant_specs.get(entry.target)
            tier = spec.tier if spec is not None else None
        return TenantStorm(
            env.super_cluster, user=f"storm-{label}",
            qps=float(params.get("qps", 400.0)),
            concurrency=int(params.get("concurrency", 200)),
            tier=tier, name=f"storm:{label}")
    raise ScenarioError(f"unknown fault {entry.fault!r}")  # pragma: no cover


def scenario_config(control):
    """ControlSpec → a latency/behavior config for the env."""
    from dataclasses import replace

    config = DEFAULT_CONFIG
    if control.optimized:
        # The §9 hot-path optimizations (indexes, sharded dispatch,
        # batched downward writes) — the configuration every corpus
        # scenario runs.
        config = config.with_overrides(syncer=replace(
            config.syncer, use_cache_indexes=True, dispatch_shards=2,
            downward_batch_max=8))
    overrides = {}
    if control.apf:
        overrides["apf"] = replace(config.apf, enabled=True)
    if control.scale_to_zero:
        swapper = replace(config.swapper, enabled=True)
        if control.idle_threshold is not None:
            # Keep the poll cadence proportional so short thresholds
            # are actually observed within a scenario horizon.
            swapper = replace(
                swapper, idle_threshold=control.idle_threshold,
                check_interval=max(0.5, control.idle_threshold / 5.0))
        overrides["swapper"] = swapper
    if overrides:
        config = config.with_overrides(**overrides)
    return config


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


class ScenarioResult:
    """Everything one run produced: digest, counters, verdicts."""

    def __init__(self, scenario, digest, store_events, sim_time, converged,
                 convergence_detail, pods_created, load_errors, telemetry,
                 failures, race_report=None, chaos_report=None):
        self.scenario = scenario
        self.digest = digest
        self.store_events = store_events
        self.sim_time = sim_time
        self.converged = converged
        self.convergence_detail = convergence_detail
        self.pods_created = pods_created
        self.load_errors = load_errors
        self.telemetry = telemetry
        self.failures = failures
        self.race_report = race_report
        self.chaos_report = chaos_report

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "scenario": self.scenario.name,
            "digest": self.digest,
            "store_events": self.store_events,
            "sim_time": round(self.sim_time, 6),
            "converged": self.converged,
            "pods_created": self.pods_created,
            "load_errors": self.load_errors,
            "telemetry": self.telemetry,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def run_scenario(scenario, race_check=None):
    """Build, run, and judge one scenario.  Returns a ScenarioResult.

    ``race_check`` overrides ``scenario.race_check`` when not None.
    Expectation violations land in ``result.failures`` (the golden
    digest is *not* checked here — see :func:`verify_scenario`).
    """
    scenario.validate()
    want_races = (scenario.race_check if race_check is None
                  else bool(race_check))
    compiled = compile_load(scenario)

    sim = Simulation(seed=scenario.seed)
    recorder = ReplayRecorder(sim)
    detector = RaceDetector(sim) if want_races else None
    control = scenario.control
    env = VirtualClusterEnv(
        seed=scenario.seed, config=scenario_config(control), sim=sim,
        num_virtual_nodes=0, fair_queuing=control.fair_queuing,
        dws_workers=control.dws_workers, uws_workers=control.uws_workers,
        scan_interval=control.scan_interval)
    env.bootstrap()

    # -- topology: node pools, uplinks, elastic staged joins ------------
    for pool in scenario.topology.pools:
        link = None
        if pool.link is not None:
            link = NetworkLink(
                sim, latency=pool.link.latency, jitter=pool.link.jitter,
                loss=pool.link.loss,
                seed=derive_seed(scenario.seed, "link", pool.name),
                name=f"{scenario.name}/{pool.name}")
        initial = pool.elastic.initial if pool.elastic else pool.nodes
        for index in range(initial):
            env.run_coroutine(
                env.add_virtual_node(f"{pool.name}-{index:03d}", link=link),
                name=f"add-node-{pool.name}-{index}")
        if pool.elastic is not None and initial < pool.nodes:
            sim.spawn(_staged_joins(env, pool, link, initial),
                      name=f"pool-join-{pool.name}")

    # -- tenants and their extra namespaces -----------------------------
    handles = {}
    for tenant in scenario.tenants:
        handles[tenant.name] = env.run_coroutine(
            env.create_tenant(tenant.name, weight=tenant.weight,
                              tier=tenant.tier),
            name=f"create-{tenant.name}")
    for tenant in scenario.tenants:
        for namespace in sorted({w.namespace for w in tenant.workloads
                                 if w.namespace != "default"}):
            env.run_coroutine(
                _ensure_namespace(handles[tenant.name], namespace),
                name=f"ns-{tenant.name}-{namespace}")

    # -- chaos overlay ---------------------------------------------------
    engine = ChaosEngine(env, seed=derive_seed(scenario.seed, "chaos"),
                         name=f"chaos-{scenario.name}")
    tenant_specs = {t.name: t for t in scenario.tenants}
    for entry in scenario.chaos:
        engine.add(compile_schedule(entry.schedule),
                   _compile_fault(entry, env, handles, tenant_specs))
    engine.start()

    # -- load ------------------------------------------------------------
    generator = LoadGenerator(sim)
    finished = []
    for index, job in enumerate(compiled):
        sim.spawn(_drive_job(sim, generator, handles[job.tenant], job,
                             finished),
                  name=f"load-{job.tenant}-{job.workload}")

    env.run_for(scenario.horizon)
    engine.stop()
    env.run_until(lambda: len(finished) >= len(compiled),
                  timeout=scenario.convergence_timeout, poll=0.25)

    # -- convergence + digest capture ------------------------------------
    try:
        detail = engine.verify_convergence(
            timeout=scenario.convergence_timeout, poll=0.5)
        converged = True
    except TimeoutError:
        converged, detail = check_convergence(env)

    telemetry = {}
    for expect in scenario.expect.telemetry:
        family = sim.telemetry.registry.get(expect.metric)
        telemetry[expect.metric] = family.total() if family else 0.0

    failures = _judge(scenario, converged, detail, generator, telemetry,
                      detector)
    return ScenarioResult(
        scenario=scenario, digest=recorder.final_digest,
        store_events=len(recorder.digests), sim_time=sim.now,
        converged=converged, convergence_detail=detail,
        pods_created=generator.submitted, load_errors=generator.errors,
        telemetry=telemetry, failures=failures,
        race_report=(detector.report() if detector else None),
        chaos_report=engine.report() if scenario.chaos else None)


def _staged_joins(env, pool, link, initial):
    """Coroutine: the remaining pool nodes join one per interval."""
    for index in range(initial, pool.nodes):
        yield env.sim.timeout(pool.elastic.interval)
        yield from env.add_virtual_node(f"{pool.name}-{index:03d}",
                                        link=link)


def _ensure_namespace(handle, namespace):
    try:
        yield from handle.create_namespace(namespace)
    except ApiError:
        pass  # already there


def _drive_job(sim, generator, handle, job, finished):
    try:
        if job.start > 0:
            yield sim.timeout(job.start)
        if isinstance(job.plan, TimedActions):
            yield from generator.run_timed(handle.client, job.plan)
        else:
            yield from generator.run_tenant_load(handle.client, job.plan)
    finally:
        finished.append(job.workload)


def _judge(scenario, converged, detail, generator, telemetry, detector):
    """Evaluate the declared expectations; return failure strings."""
    failures = []
    expect = scenario.expect
    if expect.converged and not converged:
        problems = []
        for key in ("missing", "orphaned", "open_circuits"):
            if detail.get(key):
                problems.append(f"{key}={len(detail[key])}")
        queues = detail.get("queues") or {}
        for key, depth in sorted(queues.items()):
            if depth:
                problems.append(f"{key}={depth}")
        failures.append(
            "did not converge within "
            f"{scenario.convergence_timeout:g}s ({', '.join(problems)})")
    if generator.submitted < expect.min_pods_created:
        failures.append(
            f"created {generator.submitted} pods, expected at least "
            f"{expect.min_pods_created}")
    for bound in expect.telemetry:
        total = telemetry.get(bound.metric, 0.0)
        if bound.min is not None and total < bound.min:
            failures.append(
                f"telemetry {bound.metric}={total:g} below expected "
                f"minimum {bound.min:g}")
        if bound.max is not None and total > bound.max:
            failures.append(
                f"telemetry {bound.metric}={total:g} above expected "
                f"maximum {bound.max:g}")
    if detector is not None and not detector.ok:
        failures.append(
            f"race detector flagged {len(detector.conflicts)} "
            f"conflict(s): {detector.conflicts[0].format()}")
    return failures


# ----------------------------------------------------------------------
# Golden record / verify
# ----------------------------------------------------------------------


def record_scenario(scenario):
    """Run once and stamp ``scenario.golden`` from the result.

    Raises :class:`ScenarioError` if the run fails its own declared
    expectations — a golden digest for a broken scenario is worthless.
    """
    result = run_scenario(scenario)
    if not result.ok:
        raise ScenarioError(
            f"refusing to record {scenario.name!r}: the run fails its "
            f"own expectations: {'; '.join(result.failures)}")
    scenario.golden = GoldenSpec(digest=result.digest,
                                 store_events=result.store_events,
                                 sim_time=round(result.sim_time, 6))
    return result


def verify_scenario(scenario, runs=2):
    """Replay ``runs`` times against the recorded golden.

    Every run must reproduce the golden digest exactly (else
    :class:`GoldenMismatch`) and meet the scenario's expectations (else
    :class:`ScenarioError`).  Returns the results.
    """
    if scenario.golden is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} has no golden block; run "
            f"'python -m repro.scenarios record' first")
    results = []
    for _run in range(runs):
        result = run_scenario(scenario)
        if result.digest != scenario.golden.digest:
            raise GoldenMismatch(
                scenario.name, scenario.golden.digest, result.digest,
                expected_events=scenario.golden.store_events,
                actual_events=result.store_events)
        if not result.ok:
            raise ScenarioError(
                f"scenario {scenario.name!r} failed expectations: "
                f"{'; '.join(result.failures)}")
        results.append(result)
    return results
