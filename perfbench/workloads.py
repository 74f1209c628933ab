"""The benchmark's three workloads.

Each workload splits one iteration into ``setup`` (not part of the
measured phase, timed as ``setup_s``), ``measure`` (the measured phase)
and ``check`` (correctness checks, run after the timed phase).  Every
workload is built only from the library's public entry points and its
inputs come from the benchmark seed.

``measure`` calls ``tick()`` at fixed points of the deterministic run
(every ``step`` simulated seconds, or after each scenario), cutting the
measured phase into segments that do identical work in every iteration
of one seed.  What the metrics need from an env is copied out by
:func:`summarize` once the env has converged, so no env outlives its
own run.

- ``vc-create``: the Fig. 7-10 Pod create pipeline at 2,000 Pods, 20
  tenants, 20 virtual nodes and 200 Pods/s offered (the parameters of
  ``repro.workloads.run_vc_stress`` with the default, paper-faithful
  config).  Closed loop per tenant: create, wait for the ack, sleep.
- ``idle-fleet``: 50 tenants with 4 Pods each, then 600 simulated
  seconds of hold.  Work is periodic: node heartbeats and their vNode
  broadcast, scanner and GC passes, kernel timers.
- ``corpus``: the golden scenario corpus through ``run_scenario`` —
  the behaviour gate, and the only workload that reaches APF, network
  links, the swapper, chaos faults and the race detector.
"""

import hashlib
import json
import os

from repro.chaos.engine import check_convergence
from repro.core import VirtualClusterEnv
from repro.scenarios import load_corpus
from repro.scenarios import runner as scenario_runner
from repro.simkernel import Event, Simulation
from repro.telemetry import Telemetry
from repro.workloads import LoadGenerator, TenantLoadPattern, even_split

#: Seed whose corpus inputs are the YAML files as written, so the golden
#: digests apply.  Any other seed shifts every scenario's seed.
DEFAULT_SEED = 0

CORPUS_DIR = os.path.join("scenarios", "corpus")

#: Simulated seconds per measured segment inside a corpus scenario.
CORPUS_STEP = 1.0

#: Simulated seconds after which a paced run that has not synced every
#: Pod stops and leaves the missing Pods to the checks.
PACED_TIMEOUT = 600.0


def store_digest(store):
    """sha256 of a store's converged image (keys, values, revisions)."""
    image = json.dumps(store.dump(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(image.encode("utf-8")).hexdigest()


class Checks:
    """Correctness-check tally: every check counts as attempted; a failed
    one is recorded with a message instead of raising."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


def summarize(env):
    """What the metrics and checks need from one env, copied out of it.

    Taken once the env's run is over, so the env itself can be freed
    as it would be without the benchmark.
    """
    from perfbench.layers import counters

    traces = env.syncer.trace_store
    stats = env.sim.kernel_stats()
    return {"creation_times": traces.creation_times(),
            "completed": traces.completed_count,
            "phase_means": traces.mean_phase_breakdown(),
            "dispatched": stats["dispatched"],
            "workers": stats["workers"],
            "peak_heap": stats["peak_heap"],
            "counters": counters(env)}


class Outcome:
    """What one measured iteration produced, for metrics and checks:
    the :func:`summarize` records of its envs, combined."""

    def __init__(self, summaries, sim_seconds, digest, dispatched_before=0):
        self.creation_times = [value for summary in summaries
                               for value in summary["creation_times"]]
        self.pods_synced = sum(summary["completed"] for summary in summaries)
        self.sim_seconds = sim_seconds
        self.dispatched = (sum(summary["dispatched"] for summary in summaries)
                           - dispatched_before)
        self.digest = digest
        self.workers = [summary["workers"] for summary in summaries]
        self.peak_heap = max(summary["peak_heap"] for summary in summaries)
        self.counters = {}
        phase_sums = {}
        for summary in summaries:
            for name, value in summary["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for phase, mean in summary["phase_means"].items():
                phase_sums[phase] = (phase_sums.get(phase, 0.0)
                                     + mean * summary["completed"])
        self.phase_means = {phase: total / max(1, self.pods_synced)
                            for phase, total in phase_sums.items()}


class PacedTenants:
    """Tenants on virtual nodes, each creating Pods in a paced closed loop.

    ``hold`` simulated seconds follow the last Pod's upward sync.  The
    simulation advances in ``step``-second segments.
    ``delete_before_ready`` (self-test fault) deletes the first tenant's
    first Pod as soon as the tenant's apiserver has it.
    """

    def __init__(self, name, pods, tenants, nodes, rate, scan_interval,
                 step, hold=0.0, delete_before_ready=False):
        self.name = name
        self.pods = pods
        self.tenants = tenants
        self.nodes = nodes
        self.rate = rate
        self.scan_interval = scan_interval
        self.step = step
        self.hold = hold
        self.delete_before_ready = delete_before_ready

    def setup(self, seed, telemetry=True):
        sim = Simulation(seed=seed)
        if not telemetry:
            sim.telemetry = Telemetry(sim, enabled=False)
        env = VirtualClusterEnv(
            seed=seed, sim=sim, num_virtual_nodes=self.nodes,
            fair_queuing=True, dws_workers=20, uws_workers=100,
            scan_interval=self.scan_interval)
        env.bootstrap()
        handles = []

        def create_tenants():
            for index in range(self.tenants):
                handle = yield from env.create_tenant(f"tenant-{index:03d}")
                handles.append(handle)

        env.run_coroutine(create_tenants(), name="create-tenants")
        env.run_for(1.0)  # let informers settle
        counts = even_split(self.pods, self.tenants)
        per_tenant_rate = self.rate / self.tenants
        jobs = [(handle.client,
                 TenantLoadPattern(count, mode="paced", rate=per_tenant_rate,
                                   name_prefix=f"p{index:03d}"))
                for index, (handle, count) in enumerate(zip(handles, counts))]
        return {"env": env, "handles": handles, "jobs": jobs,
                "start": sim.now,
                "dispatched": sim.kernel_stats()["dispatched"]}

    def setup_envs(self, state):
        """The envs that exist at the end of set-up."""
        return [state["env"]]

    def measure(self, state, tick):
        env = state["env"]
        sim = env.sim
        jobs = state["jobs"]
        if self.delete_before_ready:
            sim.spawn(_delete_first_pod(env, state["handles"][0],
                                        jobs[0][1]),
                      name="selftest-delete")
        loadgen = sim.process(LoadGenerator(sim).run_all(jobs),
                              name="loadgen")
        traces = env.syncer.trace_store
        expected = self.pods - (1 if self.delete_before_ready else 0)
        deadline = sim.now + PACED_TIMEOUT
        while not (loadgen.triggered and traces.completed_count >= expected):
            if sim.now >= deadline:
                break
            sim.run(until=sim.now + self.step)
            tick()
        end = sim.now + self.hold
        while sim.now < end:
            sim.run(until=min(end, sim.now + self.step))
            tick()

    def outcome(self, state):
        env = state["env"]
        return Outcome([summarize(env)],
                       sim_seconds=env.sim.now - state["start"],
                       digest=store_digest(env.super_cluster.api.store),
                       dispatched_before=state["dispatched"])

    def check(self, state):
        """Every requested Pod is Ready in its tenant; the env converged."""
        checks = Checks()
        env = state["env"]
        for handle, (_client, pattern) in zip(state["handles"],
                                              state["jobs"]):
            reader = handle.control_plane.api.reader
            for index in range(pattern.count):
                name = f"{pattern.name_prefix}-{index:05d}"
                pod = reader.read("pods", "default", name)
                checks.check(pod is not None and pod.status.is_ready,
                             f"{handle.name}: pod default/{name} is "
                             f"{'missing' if pod is None else 'not Ready'}")
        ok, detail = check_convergence(env)
        checks.check(ok, f"check_convergence failed: "
                         f"{ {k: v for k, v in detail.items() if v} }")
        return checks


def _delete_first_pod(env, handle, pattern):
    """Self-test fault: delete a Pod as soon as the tenant has it."""
    name = f"{pattern.name_prefix}-00000"
    while handle.control_plane.api.reader.read("pods", "default",
                                               name) is None:
        yield env.sim.timeout(0.001)
    yield from handle.client.delete("pods", name, namespace="default")


class Corpus:
    """Every scenario of the golden corpus, one ``run_scenario`` each.

    With :data:`DEFAULT_SEED` the scenarios run as written and each must
    reproduce its golden digest and meet its whole ``expect`` block.  Any
    other seed is added to each scenario's own seed; then the goldens do
    not apply, and neither do the ``expect.telemetry`` bounds, which are
    floors on random events (e.g. at least one packet lost on a flaky
    link) calibrated for the scenario's own seed.  Each scenario must
    still converge, create its minimum of Pods and pass its race check.

    Set-up only loads the YAML files: ``run_scenario`` validates and
    compiles each scenario itself, inside the measured phase.  Numeric
    ``Simulation.run(until=t)`` calls are split into
    :data:`CORPUS_STEP` simulated seconds (the same events in the same
    order) so the measured phase has fine segments.  ``only`` restricts
    the corpus to the named scenarios; ``wrong_digest`` (self-test fault)
    names a scenario whose golden is replaced by a wrong one.
    """

    name = "corpus"

    def __init__(self, only=None, wrong_digest=None):
        self.only = only
        self.wrong_digest = wrong_digest
        self._env = None
        self._telemetry = True

    def _capture_env(self, *args, **kwargs):
        """Stand-in for the runner's env constructor: applies the
        telemetry on/off choice and remembers the env until its scenario
        has been summarized."""
        sim = kwargs["sim"]
        if not self._telemetry:
            sim.telemetry = Telemetry(sim, enabled=False)
        self._env = VirtualClusterEnv(*args, **kwargs)
        return self._env

    def setup(self, seed, telemetry=True):
        """Load every scenario."""
        scenarios = []
        for _path, scenario in load_corpus(CORPUS_DIR):
            if self.only is not None and scenario.name not in self.only:
                continue
            if seed != DEFAULT_SEED:
                scenario.seed = (scenario.seed + seed) & 0xFFFFFFFF
            scenarios.append(scenario)
        self._telemetry = telemetry
        return {"seed": seed, "scenarios": scenarios, "results": [],
                "summaries": []}

    def setup_envs(self, state):
        """The envs that exist at the end of set-up: none, each scenario
        builds its own in the measured phase."""
        return []

    def measure(self, state, tick):
        run = Simulation.run

        def stepped_run(sim, until=None):
            if until is None or isinstance(until, Event):
                return run(sim, until)
            until = float(until)
            while sim.now + CORPUS_STEP < until:
                run(sim, sim.now + CORPUS_STEP)
                tick()
            return run(sim, until)

        def release_env():
            state["summaries"].append(summarize(self._env))
            self._env = None

        scenario_runner.VirtualClusterEnv = self._capture_env
        Simulation.run = stepped_run
        try:
            for scenario in state["scenarios"]:
                state["results"].append(
                    scenario_runner.run_scenario(scenario))
                tick(release_env)
        finally:
            Simulation.run = run
            scenario_runner.VirtualClusterEnv = VirtualClusterEnv
            self._env = None

    def outcome(self, state):
        digest = hashlib.sha256("".join(
            result.digest for result in state["results"]).encode()).hexdigest()
        return Outcome(
            state["summaries"],
            sim_seconds=sum(result.sim_time for result in state["results"]),
            digest=digest)

    def check(self, state):
        checks = Checks()
        golden = state["seed"] == DEFAULT_SEED
        for result in state["results"]:
            scenario = result.scenario
            if golden:
                expected = scenario.golden.digest
                if scenario.name == self.wrong_digest:
                    expected = "0" * 64
                checks.check(result.digest == expected,
                             f"{scenario.name}: digest {result.digest[:12]} "
                             f"!= golden {expected[:12]}")
            failures = result.failures
            if not golden:
                failures = [failure for failure in failures
                            if not failure.startswith("telemetry ")]
            checks.check(not failures and result.converged,
                         f"{scenario.name}: {'; '.join(failures)}")
        return checks


def make(name, **overrides):
    """The named workload at benchmark scale (``overrides`` shrink it)."""
    if name == "vc-create":
        params = dict(pods=2000, tenants=20, nodes=20, rate=200.0,
                      scan_interval=60.0, step=0.1)
        params.update(overrides)
        return PacedTenants("vc-create", **params)
    if name == "idle-fleet":
        params = dict(pods=200, tenants=50, nodes=20, rate=50.0,
                      scan_interval=30.0, step=2.0, hold=600.0)
        params.update(overrides)
        return PacedTenants("idle-fleet", **params)
    if name == "corpus":
        return Corpus(**overrides)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("vc-create", "idle-fleet", "corpus")
