"""Stress harness: the paper's §IV experiments as reusable functions.

``run_vc_stress``        — Pods created through tenant control planes
                           (the VirtualCluster pipeline);
``run_baseline_stress``  — the same load submitted directly to the super
                           cluster (the paper's baseline);
``run_fairness_stress``  — the Fig. 11 greedy/regular tenant mix.

Each returns a :class:`StressResult` with everything needed to regenerate
the paper's figures: per-Pod creation times, phase breakdowns, bucket
counts, throughput, and syncer resource usage.
"""

from dataclasses import dataclass, field

from repro.core import VirtualClusterEnv

from .loadgen import LoadGenerator, TenantLoadPattern, even_split


@dataclass
class StressResult:
    mode: str
    num_pods: int
    num_tenants: int
    creation_times: list = field(default_factory=list)
    duration: float = 0.0
    throughput: float = 0.0
    phase_means: dict = None
    phase_buckets: dict = None
    cpu_seconds: float = 0.0
    peak_memory_bytes: int = 0
    wall_start: float = 0.0
    wall_end: float = 0.0
    per_tenant_mean: dict = None
    syncer_stats: dict = None
    # Full registry + span-aggregate export (Telemetry.snapshot()), taken
    # at the end of the run.
    telemetry: dict = None

    @property
    def mean(self):
        if not self.creation_times:
            return 0.0
        return sum(self.creation_times) / len(self.creation_times)

    def percentile(self, pct):
        if not self.creation_times:
            return 0.0
        ordered = sorted(self.creation_times)
        index = min(len(ordered) - 1,
                    max(0, round(pct / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def histogram(self, bucket_width=1.0, max_buckets=30):
        """(bucket_start, count) pairs of creation times (Fig. 7)."""
        counts = {}
        for value in self.creation_times:
            bucket = min(int(value // bucket_width), max_buckets - 1)
            counts[bucket] = counts.get(bucket, 0) + 1
        return sorted((bucket * bucket_width, count)
                      for bucket, count in counts.items())


def _build_env(num_tenants, dws_workers, uws_workers, fair, seed,
               num_nodes, scan_interval, config=None):
    env = VirtualClusterEnv(
        seed=seed, config=config, num_virtual_nodes=num_nodes,
        fair_queuing=fair, dws_workers=dws_workers,
        uws_workers=uws_workers, scan_interval=scan_interval)
    env.bootstrap()
    return env


def run_vc_stress(num_pods, num_tenants, dws_workers=20, uws_workers=100,
                  fair=True, submission_rate=1000.0, num_nodes=100,
                  seed=0, timeout=600.0, scan_interval=60.0, env=None,
                  keep_env=False, config=None):
    """The VirtualCluster stress run (Figs. 7-10 VC series)."""
    env = env or _build_env(num_tenants, dws_workers, uws_workers, fair,
                            seed, num_nodes, scan_interval, config=config)

    tenants = []

    def create_tenants():
        for index in range(num_tenants):
            tenant = yield from env.create_tenant(f"tenant-{index:03d}")
            tenants.append(tenant)

    env.run_coroutine(create_tenants(), name="create-tenants")
    env.run_for(1.0)  # let informers settle

    generator = LoadGenerator(env.sim)
    counts = even_split(num_pods, num_tenants)
    per_tenant_rate = submission_rate / num_tenants
    jobs = [
        (tenant.client,
         TenantLoadPattern(count, mode="paced", rate=per_tenant_rate,
                           name_prefix=f"p{i:03d}"))
        for i, (tenant, count) in enumerate(zip(tenants, counts))
    ]

    start = env.sim.now
    env.run_coroutine(generator.run_all(jobs), name="loadgen")

    def all_done():
        return env.syncer.trace_store.completed_count >= num_pods

    env.run_until(all_done, timeout=timeout)
    end = env.sim.now

    traces = env.syncer.trace_store
    result = StressResult(
        mode="virtualcluster",
        num_pods=num_pods,
        num_tenants=num_tenants,
        creation_times=traces.creation_times(),
        duration=end - start,
        throughput=num_pods / (end - start) if end > start else 0.0,
        phase_means=traces.mean_phase_breakdown(),
        phase_buckets=traces.phase_bucket_counts(),
        cpu_seconds=env.syncer.cpu.seconds,
        peak_memory_bytes=env.syncer.mem.peak,
        wall_start=start,
        wall_end=end,
        per_tenant_mean=traces.mean_creation_time_by_tenant(),
        syncer_stats=env.syncer.stats(),
        telemetry=env.sim.telemetry.snapshot(),
    )
    if keep_env:
        result.env = env
    return result


def run_baseline_stress(num_pods, num_threads, submission_rate=1000.0,
                        num_nodes=100, seed=0, timeout=600.0, config=None):
    """The baseline: the same load submitted directly to the super cluster.

    One namespace per submission thread (as one would per tenant), with
    the same aggregate submission rate as the VC run.
    """
    env = VirtualClusterEnv(seed=seed, config=config,
                            num_virtual_nodes=num_nodes)
    env.bootstrap()
    admin = env.super_admin_client()

    namespaces = [f"load-{i:03d}" for i in range(num_threads)]

    def make_namespaces():
        from repro.objects import make_namespace

        for namespace in namespaces:
            yield from admin.create(make_namespace(namespace))

    env.run_coroutine(make_namespaces(), name="baseline-ns")

    generator = LoadGenerator(env.sim)
    counts = even_split(num_pods, num_threads)
    per_thread_rate = submission_rate / num_threads
    jobs = [
        (env.super_admin_client(),
         TenantLoadPattern(count, mode="paced", rate=per_thread_rate,
                           namespace=namespace, name_prefix=f"b{i:03d}"))
        for i, (namespace, count) in enumerate(zip(namespaces, counts))
    ]

    start = env.sim.now
    env.run_coroutine(generator.run_all(jobs), name="baseline-loadgen")

    pods_cache = env.syncer.super_informer("pods").cache

    def all_ready():
        ready = 0
        for pod in pods_cache.items():
            if (pod.metadata.namespace or "").startswith("load-") \
                    and pod.status.is_ready:
                ready += 1
        return ready >= num_pods

    env.run_until(all_ready, timeout=timeout, poll=0.25)
    end = env.sim.now

    creation_times = []
    for pod in pods_cache.items():
        if not (pod.metadata.namespace or "").startswith("load-"):
            continue
        condition = pod.status.get_condition("Ready")
        if condition is None or condition.status != "True":
            continue
        ready_at = condition.last_transition_time
        created_at = pod.metadata.creation_timestamp
        if ready_at is not None and created_at is not None:
            creation_times.append(ready_at - created_at)

    return StressResult(
        mode="baseline",
        num_pods=num_pods,
        num_tenants=num_threads,
        creation_times=creation_times,
        duration=end - start,
        throughput=num_pods / (end - start) if end > start else 0.0,
        wall_start=start,
        wall_end=end,
        telemetry=env.sim.telemetry.snapshot(),
    )


def run_fairness_stress(num_greedy=10, num_regular=40, greedy_pods=900,
                        regular_pods=10, fair=True, num_nodes=100, seed=0,
                        timeout=1200.0, config=None):
    """The Fig. 11 experiment: greedy bursts vs regular sequential users."""
    num_tenants = num_greedy + num_regular
    env = _build_env(num_tenants, 20, 100, fair, seed, num_nodes, 60.0,
                     config=config)

    tenants = []

    def create_tenants():
        for index in range(num_tenants):
            tenant = yield from env.create_tenant(f"tenant-{index:03d}")
            tenants.append(tenant)

    env.run_coroutine(create_tenants(), name="create-tenants")
    env.run_for(1.0)

    greedy = tenants[:num_greedy]
    regular = tenants[num_greedy:]
    generator = LoadGenerator(env.sim)
    jobs = []
    for i, tenant in enumerate(greedy):
        jobs.append((tenant.client,
                     TenantLoadPattern(greedy_pods, mode="burst",
                                       name_prefix=f"g{i:03d}")))
    for i, tenant in enumerate(regular):
        jobs.append((tenant.client,
                     TenantLoadPattern(regular_pods, mode="sequential",
                                       name_prefix=f"r{i:03d}")))

    total = num_greedy * greedy_pods + num_regular * regular_pods
    start = env.sim.now
    env.run_coroutine(generator.run_all(jobs), name="fairness-loadgen")
    env.run_until(
        lambda: env.syncer.trace_store.completed_count >= total,
        timeout=timeout, poll=0.5)
    end = env.sim.now

    per_tenant = env.syncer.trace_store.mean_creation_time_by_tenant()
    greedy_keys = {tenant.key for tenant in greedy}
    result = StressResult(
        mode=f"fairness-{'on' if fair else 'off'}",
        num_pods=total,
        num_tenants=num_tenants,
        creation_times=env.syncer.trace_store.creation_times(),
        duration=end - start,
        throughput=total / (end - start) if end > start else 0.0,
        per_tenant_mean=per_tenant,
        syncer_stats=env.syncer.stats(),
        telemetry=env.sim.telemetry.snapshot(),
    )
    result.greedy_means = {key: value for key, value in per_tenant.items()
                           if key in greedy_keys}
    result.regular_means = {key: value for key, value in per_tenant.items()
                            if key not in greedy_keys}
    return result
