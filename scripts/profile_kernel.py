#!/usr/bin/env python
"""cProfile harness for the sim kernel's hot paths.

Runs the Fig. 10-style VirtualCluster stress (Pods created through
tenant control planes, synced down by the centralized syncer) under
cProfile and prints the top-N hot spots by cumulative and by internal
time, so perf PRs start from data instead of guesses.

Usage::

    PYTHONPATH=src python scripts/profile_kernel.py
    PYTHONPATH=src python scripts/profile_kernel.py --pods 2000 --tenants 20
    PYTHONPATH=src python scripts/profile_kernel.py --top 30

``--pods 10000 --tenants 100 --nodes 100`` reproduces the paper-scale
Fig. 10 point (slow: a few minutes of wall clock on one core).
"""

import argparse
import cProfile
import io
import pstats
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python scripts/profile_kernel.py",
        description="profile the Fig. 10 stress run's kernel hot spots")
    parser.add_argument("--pods", type=int, default=2000)
    parser.add_argument("--tenants", type=int, default=20)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="aggregate Pod submission rate (pods/s)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows per hot-spot table (default 20)")
    parser.add_argument("--sort", choices=["both", "cumulative", "tottime"],
                        default="both")
    args = parser.parse_args(argv)

    from repro.workloads import run_vc_stress

    def run():
        return run_vc_stress(
            num_pods=args.pods, num_tenants=args.tenants,
            submission_rate=args.rate, num_nodes=args.nodes,
            seed=args.seed, timeout=3600.0, keep_env=True)

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = run()
    profiler.disable()
    elapsed = time.perf_counter() - started

    sim = result.env.sim
    stats = sim.kernel_stats()
    print(f"profiled run: {args.pods} pods / {args.tenants} tenants / "
          f"{args.nodes} nodes, seed={args.seed}")
    print(f"  wall clock        : {elapsed:.2f} s")
    print(f"  simulated time    : {sim.now:.1f} s")
    print(f"  events dispatched : {stats['dispatched']}")
    print(f"  events/s (wall)   : {stats['dispatched'] / elapsed:,.0f}")
    for key in ("batches", "peak_heap", "pending", "wheel_scheduled",
                "timers_cancelled", "orphans_skipped"):
        print(f"  {key:<18}: {stats[key]}")
    print()

    sorts = (["cumulative", "tottime"] if args.sort == "both"
             else [args.sort])
    for sort in sorts:
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(
            args.top)
        print(f"=== top {args.top} by {sort} " + "=" * 40)
        print(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
