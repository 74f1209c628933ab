#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (well under a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload shrunk, untraced and traced, through the same
code as ``perfbench/run.py`` and asserts that:

- every metric named in ``BENCHMARK.json`` is emitted with its unit;
- a clean run fails no correctness check;
- exact per-layer counts repeat between two traced runs of one seed;
- the tracer's root spans agree with an independent timing of the
  ``Simulation.run`` calls they wrap, and the time outside them
  (``unattributed.self_s``) is a small share of the traced window;
- two injected faults raise ``fail_ratio`` above 0: a Pod deleted before
  it is Ready, and a scenario checked against a wrong golden digest.

Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import run, tracing  # noqa: E402  (path set up above)

TINY = {
    "vc-create": dict(pods=40, tenants=4, nodes=4, rate=40.0),
    "idle-fleet": dict(pods=8, tenants=4, nodes=4, rate=4.0, hold=60.0),
    "corpus": dict(only=("constant-baseline", "idle-fleet-wakeup")),
}
SEED = 0
SECONDS = 0.1

#: Largest share of the traced window that may lie outside every root
#: span.
UNATTRIBUTED_SHARE = 0.1


class RunTimer:
    """Independent timing of the outermost ``Simulation.run`` calls,
    installed beneath the tracer's own wrapper: records each call's
    ``(start, end)`` on the tracer's clock."""

    def __init__(self):
        from repro.simkernel.loop import Simulation

        self.owner = Simulation
        self.original = Simulation.__dict__["run"]
        self.intervals = []
        self.depth = 0
        timer, original = self, self.original

        def run(sim, *args, **kwargs):
            timer.depth += 1
            start = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                timer.depth -= 1
                if timer.depth == 0:
                    timer.intervals.append((start, time.perf_counter()))

        Simulation.run = run

    def uninstall(self):
        self.owner.run = self.original

    def total_within(self, first, last):
        """Seconds of the recorded calls inside ``[first, last]``."""
        return sum(end - start for start, end in self.intervals
                   if start >= first and end <= last)


def check_attribution(report, expect, label):
    """Root ``Simulation.run`` spans against :class:`RunTimer` (other
    root spans are layer calls made outside the event loop, such as
    store reads for a digest); unattributed share."""
    tracer = report.tracer
    runs = [(start, end) for _id, parent, name, start, end
            in tracer.spans if parent == 0 and name == "simkernel.run"]
    expect(len(tracer.spans) < tracing.SPAN_CAP and runs,
           f"{label}: every span kept ({len(tracer.spans)}), "
           f"{len(runs)} root Simulation.run spans")
    if not runs:
        return
    spanned = sum(end - start for start, end in runs)
    independent = report.run_timer.total_within(runs[0][0], runs[-1][1])
    expect(independent <= spanned <= independent * 1.01 + 1e-3,
           f"{label}: root Simulation.run spans {spanned:.6f} s match "
           f"the independently timed calls {independent:.6f} s")
    unattributed = report.metrics["unattributed.self_s"]["value"]
    expect(0 <= unattributed <= UNATTRIBUTED_SHARE * report.traced_wall_s,
           f"{label}: unattributed {unattributed:.6f} s is at most "
           f"{UNATTRIBUTED_SHARE:.0%} of the traced window "
           f"{report.traced_wall_s:.6f} s")
    negative = {layer: value for layer, value in tracer.self_s.items()
                if value < 0}
    expect(not negative, f"{label}: no negative self time {negative}")


def traced(name):
    """``run.run_traced`` with a :class:`RunTimer` beneath the tracer."""
    timer = RunTimer()
    try:
        report = run.run_traced(make(name, **TINY[name]), SEED, SECONDS)
    finally:
        timer.uninstall()
    report.run_timer = timer
    return report


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def make(name, **params):
    from perfbench.workloads import make as make_workload

    return make_workload(name, **params)


def main():
    run._bootstrap()
    from perfbench.workloads import WORKLOADS

    spec = _spec()
    failures = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    def check_metrics(report, declared, label):
        for entry in declared:
            got = report.metrics.get(entry["name"])
            expect(got is not None and got["unit"] == entry["unit"],
                   f"{label}: {entry['name']} emitted in {entry['unit']}"
                   f" (got {got})")

    for name in WORKLOADS:
        report = run.run_untraced(make(name, **TINY[name]), SEED, SECONDS)
        check_metrics(report, spec["end_to_end"], f"{name} trace 0")
        expect(report.checks.failed == 0 and report.checks.attempted > 0,
               f"{name} trace 0: {report.checks.failed}/"
               f"{report.checks.attempted} checks failed "
               f"{report.checks.messages[:2]}")

        first = traced(name)
        second = traced(name)
        check_metrics(first, spec["per_layer"], f"{name} trace 1")
        expect(first.checks.failed == 0,
               f"{name} trace 1: {first.checks.failed} checks failed "
               f"{first.checks.messages[:2]}")
        counts = {key: entry["value"] for key, entry in first.metrics.items()
                  if entry["unit"] == "count"}
        again = {key: second.metrics[key]["value"] for key in counts}
        differ = {key: (value, again[key]) for key, value in counts.items()
                  if value != again[key]}
        expect(not differ,
               f"{name} trace 1: exact counts repeat for one seed {differ}")
        check_attribution(first, expect, f"{name} trace 1")

    faulty = run.run_untraced(
        make("vc-create", delete_before_ready=True, **TINY["vc-create"]),
        SEED, SECONDS)
    expect(faulty.checks.failed > 0,
           f"pod deleted before Ready: fail_ratio "
           f"{faulty.checks.failed}/{faulty.checks.attempted} > 0")
    faulty = run.run_untraced(
        make("corpus", wrong_digest="constant-baseline", **TINY["corpus"]),
        SEED, SECONDS)
    expect(faulty.checks.failed > 0,
           f"wrong golden digest: fail_ratio "
           f"{faulty.checks.failed}/{faulty.checks.attempted} > 0")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
