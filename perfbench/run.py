#!/usr/bin/env python3
"""Repository benchmark: host cost of the VirtualCluster simulator.

Run from the repository root::

    python3 perfbench/run.py --workload vc-create --seed 0 --trace 0
    python3 perfbench/run.py --workload corpus --trace 1
    python3 perfbench/run.py            # every workload, untraced
    python3 perfbench/selftest.py       # tiny-scale self-test

Workloads (``perfbench/workloads.py``): ``vc-create``, ``idle-fleet`` and
``corpus``, each run in this one process on the serial kernel.  One
iteration is set-up, the measured phase and the correctness checks (run
after the timed phase; a failed check counts toward ``failed``, it does
not stop the run).  A run makes a fixed number of iterations, set by
``--seconds`` and the workload's nominal iteration time
(:data:`ITERATION_S`), so every run at one ``--seconds`` takes the same
statistics over the same count.

End-to-end metrics (``--trace 0``):

- ``wall_s``/``cpu_s``: host wall and CPU time of the measured phase.
  The phase is cut into segments that do identical work in every
  iteration of a seed; each segment is timed in reference-host seconds
  (:class:`SpeedClock`) and contributes its fastest iteration.
- ``setup_s``: median over iterations of the set-up time (env build,
  bootstrap, tenants, informer settle; for ``corpus``, loading the
  scenario files), in reference-host seconds.
- ``peak_rss_mb``: peak resident memory of the process.
- ``pods_per_s``: Pods Ready and synced upward per ``wall_s`` second.
- ``sim_s_per_s``: simulated seconds advanced per ``wall_s`` second.
- ``sim_create_p50_s``/``sim_create_tail_s``: Pod creation latency in
  simulated seconds, tenant create to upward-synced Ready (Fig. 7): the
  median, and the highest of p99/p95/p90 with at least 10 samples beyond
  it (printed with its sample count).  Exact for a seed.

The failed-check ratio is printed as ``fail_ratio``; it is 0 on a
correct program, so the JSON carries it as ``failed``/``attempted``.

``--trace 1`` runs a warm-up iteration, the same number of untraced
iterations with telemetry on and with it off, then one iteration under
the boundary tracer of ``perfbench/tracing.py``, and prints the
per-layer metrics of ``perfbench/layers.py``; the spans go to
``.perfbench/``.

The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Variables that select another build of the measured program; every
#: run clears them so it measures the default serial kernel.
PINNED_ENV = ("REPRO_WORKERS", "REPRO_KERNEL_LEGACY", "REPRO_SCALE")

OUT_DIR = ".perfbench"

#: Nominal host seconds of one iteration (set-up, measured phase and
#: checks) of each workload; a run makes ``seconds // ITERATION_S``
#: iterations, at least one.
ITERATION_S = {"vc-create": 10.0, "idle-fleet": 7.0, "corpus": 6.0}

#: ``sim_create_tail_s`` is the highest of p99/p95/p90 with at least
#: this many samples beyond it.
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pods_per_s": "1/s",
    "sim_s_per_s": "s/s",
    "sim_create_p50_s": "s",
    "sim_create_tail_s": "s",
}

#: Which end-to-end metrics each workload is meant to move (the others
#: are still reported, flagged "n/a" in the human-readable table).
APPLIES = {
    "vc-create": set(END_TO_END_UNITS) - {"sim_s_per_s"},
    "idle-fleet": set(END_TO_END_UNITS) - {"pods_per_s"},
    "corpus": set(END_TO_END_UNITS) - {"sim_s_per_s"},
}


def _bootstrap():
    """Pin the environment and put the sources on the path.

    Exits with status 2 (printing no result) when run outside a full
    checkout of the repository.
    """
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    missing = [path for path in ("src/repro", "scenarios/corpus")
               if not os.path.isdir(os.path.join(ROOT, path))]
    if missing:
        sys.stderr.write(f"perfbench: not a full checkout, missing "
                         f"{', '.join(missing)} under {ROOT}\n")
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)


def _cpu_seconds():
    """CPU time of this process and of any waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: Host times are reported in seconds of a reference host on which one
#: ``_probe()`` takes this long (a 2-vCPU x86-64 VM under CPython 3.11,
#: at its fastest).
PROBE_REF_S = 125e-6


class _ProbeObject:
    def __init__(self, index):
        self.name = f"p{index}"
        self.labels = {"app": "web", "index": index}
        self.spec = [index, index + 1, "x"]


def _probe():
    """The host's current speed: fastest of three runs of a fixed
    pure-Python loop that allocates small objects and copies them into
    dicts, as the simulator's object layer does.  It tracked the
    simulator's own speed changes more closely than a loop over one
    small dict."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        items = [_ProbeObject(index) for index in range(150)]
        copies = [{"name": item.name, "labels": dict(item.labels),
                   "spec": list(item.spec)} for item in items]
        total = 0
        for copy in copies:
            total += copy["labels"]["index"] + len(copy["name"])
        best = min(best, time.perf_counter() - started)
    return best


class SpeedClock:
    """Times consecutive segments in reference-host seconds.

    The host this runs on changes speed by up to 1.9x within seconds
    (measured on a shared 2-vCPU VM), for minutes at a time, which no
    statistic over raw times filters out; the changes are real at the
    scale of one segment (a median of neighbouring probes tracked them
    worse than the pair around each segment).  So each segment's wall and
    CPU seconds are scaled by ``PROBE_REF_S`` over the mean of the probes
    taken just before and just after it.  A change in the program shows
    in full; a change in host speed cancels.  Probe time is excluded
    from the segments.
    """

    def __init__(self):
        self.segments = []
        self.raw_wall_s = 0.0
        self._probe = _probe()
        self._wall, self._cpu = time.perf_counter(), _cpu_seconds()

    def tick(self, between=None):
        """Close the current segment and start the next; ``between``,
        if given, is called in the gap, outside both segments."""
        wall, cpu = time.perf_counter(), _cpu_seconds()
        if between is not None:
            between()
        probe = _probe()
        scale = PROBE_REF_S / ((self._probe + probe) / 2)
        self.segments.append(((wall - self._wall) * scale,
                              (cpu - self._cpu) * scale))
        self.raw_wall_s += wall - self._wall
        self._probe = probe
        self._wall, self._cpu = time.perf_counter(), _cpu_seconds()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """(label, value, samples beyond) for the highest of p99/p95/p90 with
    at least :data:`TAIL_MIN_BEYOND` samples above it; nearest-rank
    percentiles.  Falls back to the median with fewer samples than
    that."""
    ordered = sorted(values)
    count = len(ordered)
    for pct in (99, 95, 90):
        rank = -(-pct * count // 100)  # ceil
        beyond = count - rank
        if rank >= 1 and beyond >= TAIL_MIN_BEYOND:
            return f"p{pct}", ordered[rank - 1], beyond
    rank = max(1, -(-count // 2))
    return "p50", ordered[rank - 1], count - rank


def source_record():
    """Git commit (read from ``.git`` when present), a digest of the
    sources, interpreter and host load, recorded with every result."""
    commit = None
    git = os.path.join(ROOT, ".git")
    if os.path.isfile(os.path.join(git, "HEAD")):
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            commit = handle.read().strip()
        ref = os.path.join(git, commit[len("ref: "):])
        if commit.startswith("ref: ") and os.path.isfile(ref):
            with open(ref, encoding="utf-8") as handle:
                commit = handle.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }


class Iteration:
    """Timings and results of one set-up + measured phase.

    ``setup`` and ``measured`` are the :class:`SpeedClock` of each; the
    measured phase has one segment per ``tick`` of the workload.
    """

    def __init__(self, setup, measured, outcome, before=None):
        self.setup_s = setup.segments[0][0]
        self.raw_setup_s = setup.raw_wall_s
        self.segments = measured.segments
        self.wall_s = sum(wall for wall, _cpu in self.segments)
        self.raw_wall_s = measured.raw_wall_s
        self.before = before
        self.creation_times = outcome.creation_times
        self.pods_synced = outcome.pods_synced
        self.sim_seconds = outcome.sim_seconds
        self.dispatched = outcome.dispatched
        self.digest = outcome.digest


def run_iteration(workload, seed, checks, telemetry=True, tracer=None):
    """Set up, measure and check one iteration.

    With ``tracer`` the boundary tracer is installed for the whole
    iteration and reset after set-up, so it records the measured phase;
    the program's counters at that point are kept in ``iteration.before``.
    Returns ``(iteration, outcome)``.
    """
    from perfbench.layers import counters

    gc.collect()
    before = None
    if tracer is not None:
        tracer.install()
    try:
        setup = SpeedClock()
        state = workload.setup(seed, telemetry=telemetry)
        setup.tick()
        if tracer is not None:
            before = {}
            for env in workload.setup_envs(state):
                for name, value in counters(env).items():
                    before[name] = before.get(name, 0) + value
            tracer.reset()
        measured = SpeedClock()
        workload.measure(state, measured.tick)
        measured.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = workload.outcome(state)
    for workers in outcome.workers:
        checks.check(workers == 0, f"kernel ran with {workers} workers")
    if telemetry:
        checks.merge(workload.check(state))
    return Iteration(setup, measured, outcome, before), outcome


def fastest_replica(iterations):
    """(wall, cpu) reference seconds of the measured phase: for each
    segment, the fastest of the iterations, summed.

    The iterations of one seed replay the identical event sequence, so a
    segment does the same work in each.  What :class:`SpeedClock` does
    not cancel (interrupts, a speed change inside a segment) only ever
    adds time, so each segment's minimum is its least disturbed reading.
    The minimum falls as iterations are added, so it is only comparable
    between runs with the same count: see :func:`iteration_count`.
    """
    segments = list(zip(*(it.segments for it in iterations)))
    wall = sum(min(wall for wall, _cpu in replicas) for replicas in segments)
    cpu = sum(min(cpu for _wall, cpu in replicas) for replicas in segments)
    return wall, cpu


def iteration_count(workload, seconds):
    """Iterations per mode in a run of ``seconds``: fixed for a workload
    and ``seconds``, whatever the host's speed."""
    return max(1, int(seconds // ITERATION_S[workload.name]))


def timed_iterations(workload, seed, seconds, checks, modes=(True,)):
    """:func:`iteration_count` rounds of iterations; ``modes`` cycles
    telemetry on/off per iteration.  Returns
    ``{telemetry_on: [Iteration, ...]}``."""
    runs = {mode: [] for mode in modes}
    for _ in range(iteration_count(workload, seconds)):
        for mode in modes:
            iteration, _outcome = run_iteration(workload, seed, checks,
                                                telemetry=mode)
            reference = runs[modes[0]][0] if runs[modes[0]] else iteration
            checks.check(iteration.digest == reference.digest,
                         f"iteration digest {iteration.digest[:12]} != first "
                         f"{reference.digest[:12]} (telemetry "
                         f"{'on' if mode else 'off'})")
            checks.check(len(iteration.segments) == len(reference.segments),
                         f"{len(iteration.segments)} segments != first "
                         f"{len(reference.segments)}")
            runs[mode].append(iteration)
    return runs


class Report:
    """One workload's result: checks, ``{name: {"value", "unit"}}``
    metrics and human-readable detail lines."""

    def __init__(self, checks, metrics, lines, traced_wall_s=None,
                 tracer=None):
        self.checks = checks
        self.metrics = metrics
        self.lines = lines
        self.traced_wall_s = traced_wall_s
        self.tracer = tracer


def end_to_end(iterations):
    """The end-to-end metrics of one seed's iterations, and a line on
    which percentile ``sim_create_tail_s`` is."""
    first = iterations[0]
    label, tail, beyond = tail_percentile(first.creation_times)
    wall, cpu = fastest_replica(iterations)
    values = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "peak_rss_mb": _peak_rss_mb(),
        "pods_per_s": first.pods_synced / wall,
        "sim_s_per_s": first.sim_seconds / wall,
        "sim_create_p50_s": statistics.median(first.creation_times),
        "sim_create_tail_s": tail,
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    detail = (f"sim_create_tail_s is {label} of {len(first.creation_times)} "
              f"samples, {beyond} beyond it")
    return metrics, detail


def fingerprint(result, tracer=None):
    """Exact behaviour counts of an iteration or outcome: identical
    between two runs of one seed, and between a host-only change and its
    parent."""
    from perfbench.layers import storage_writes

    record = {"digest": result.digest,
              "simkernel.dispatched": result.dispatched,
              "pods_synced": result.pods_synced}
    if tracer is not None:
        record["storage.writes"] = storage_writes(tracer)
        record["objects.decodes_per_pod"] = (
            tracer.calls["objects.Pod.from_dict"]
            / max(1, result.pods_synced))
    return record


def run_untraced(workload, seed, seconds):
    """End-to-end metrics: timed iterations with tracing off."""
    from perfbench.workloads import Checks

    checks = Checks()
    runs = timed_iterations(workload, seed, seconds, checks)
    metrics, detail = end_to_end(runs[True])
    lines = ["fingerprint: "
             + json.dumps(fingerprint(runs[True][0]), sort_keys=True),
             detail,
             f"iterations: {len(runs[True])}; per iteration wall_s "
             + " ".join(f"{it.wall_s:.3f}" for it in runs[True])
             + ", setup_s "
             + " ".join(f"{it.setup_s:.3f}" for it in runs[True])
             + "; raw host seconds "
             + " ".join(f"{it.raw_wall_s:.3f}" for it in runs[True])
             + ", setup "
             + " ".join(f"{it.raw_setup_s:.3f}" for it in runs[True])]
    return Report(checks, metrics, lines)


def run_traced(workload, seed, seconds):
    """Per-layer metrics: a warm-up iteration, untraced iterations
    alternating telemetry on and off, then one traced iteration.

    The first iteration in a process runs faster than the later ones (by
    ~10% in reference seconds), so it is discarded here: the on/off
    comparison would otherwise favour whichever mode ran first.
    """
    from perfbench.layers import per_layer_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import Checks

    checks = Checks()
    run_iteration(workload, seed, checks)
    runs = timed_iterations(workload, seed, seconds, checks,
                            modes=(True, False))
    wall_on = fastest_replica(runs[True])[0]
    telemetry_overhead_s = wall_on - fastest_replica(runs[False])[0]
    tracer = Tracer()
    traced, outcome = run_iteration(workload, seed, checks, tracer=tracer)
    checks.check(traced.digest == runs[True][0].digest,
                 f"traced digest {traced.digest[:12]} != untraced "
                 f"{runs[True][0].digest[:12]}")
    metrics = per_layer_metrics(tracer, outcome, traced.before, traced,
                                wall_on, telemetry_overhead_s)
    record = fingerprint(outcome, tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "traced_window_s": traced.raw_wall_s,
                        "untraced_wall_s": wall_on,
                        "fingerprint": record, **source_record()})
    lines = ["fingerprint: " + json.dumps(record, sort_keys=True),
             f"traced window {traced.raw_wall_s:.3f} s = layers "
             f"{sum(tracer.self_s.values()):.3f} s + unattributed "
             f"{metrics['unattributed.self_s']['value']:.3f} s; "
             f"{tracer.next_id} spans, written to {path}",
             f"iterations: warm-up 1, telemetry on {len(runs[True])}, "
             f"off {len(runs[False])}, traced 1"]
    return Report(checks, metrics, lines, traced_wall_s=traced.raw_wall_s,
                  tracer=tracer)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="host-time benchmark of the VirtualCluster simulator")
    parser.add_argument("--workload", default="all",
                        help="vc-create, idle-fleet, corpus or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default 0: the corpus goldens "
                             "apply)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Checks, make

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)} or all")

    print("environment: " + json.dumps(source_record(), sort_keys=True))
    total = Checks()
    metrics = {}
    run = run_traced if args.trace else run_untraced
    for name in names:
        report = run(make(name), seed, args.seconds)
        checks = report.checks
        total.merge(checks)
        print(f"== {name} (seed {seed}, trace {args.trace})")
        for key, entry in report.metrics.items():
            applies = ("" if args.trace or key in APPLIES[name]
                       else "  (n/a: not a target on this workload)")
            print(f"  {key:<34} {entry['value']:>14.6f} "
                  f"{entry['unit']}{applies}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = entry
        print(f"  {'fail_ratio':<34} "
              f"{checks.failed / max(1, checks.attempted):>14.6f} ratio "
              f"({checks.failed}/{checks.attempted} checks)")
        for line in report.lines:
            print("  " + line)
        for message in checks.messages[:20]:
            print(f"  FAILED: {message}")
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
