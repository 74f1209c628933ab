"""Orphan-timer cancellation at benchmark scale.

N processes race a short wait against a long watchdog Timeout.  A kernel
that carried every losing timer in the ready heap until its deadline
would hold all N losers at once and idle to t=600 popping no-ops.  With
the timer wheel and orphan cancellation the losers never reach the heap
and the run ends when the last winner fires.  The counters are
deterministic, so they are asserted exactly.
"""

from benchmarks.conftest import once
from repro.simkernel import Simulation

RACERS = 4000


def _race(racers):
    sim = Simulation(seed=0)

    def racer(index):
        fast = sim.timeout(0.5 + (index % 100) * 0.01)
        slow = sim.timeout(600.0)  # the loser: a long watchdog deadline
        yield sim.any_of([fast, slow])

    def launcher():
        # Staggered starts, as a real workload would arrive: the heap
        # should only ever hold the in-flight sliver, never the losers.
        for index in range(racers):
            sim.process(racer(index))
            yield sim.timeout(0.001)

    sim.process(launcher())
    sim.run()
    return sim.now, sim.kernel_stats()


def test_orphan_cancellation_keeps_heap_small(benchmark):
    now, stats = once(benchmark, lambda: _race(RACERS))
    benchmark.extra_info["peak_heap"] = stats["peak_heap"]
    benchmark.extra_info["timers_cancelled"] = stats["timers_cancelled"]
    # Every loser is cancelled at flush, never dispatched...
    assert stats["timers_cancelled"] == RACERS
    # ...so the run ends at the last winner, not the loser deadline.
    assert now < 10.0
    assert stats["peak_heap"] < RACERS / 10
