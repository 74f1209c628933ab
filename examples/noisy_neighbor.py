#!/usr/bin/env python
"""Noisy neighbor, before and after (paper Fig. 1 + Fig. 11).

A greedy tenant floods the platform with Pod creations while a regular
tenant deploys a handful.  With the syncer's fair queuing the regular
tenant barely notices; with a shared FIFO it queues behind the flood.

Run with:  python examples/noisy_neighbor.py
"""

from repro.core import VirtualClusterEnv
from repro.workloads import LoadGenerator, TenantLoadPattern


def run_scenario(fair):
    env = VirtualClusterEnv(num_virtual_nodes=10, fair_queuing=fair)
    env.bootstrap()
    greedy = env.run_coroutine(env.create_tenant("greedy-corp"))
    regular = env.run_coroutine(env.create_tenant("small-team"))
    env.run_for(1)

    generator = LoadGenerator(env.sim)
    jobs = [
        (greedy.client, TenantLoadPattern(800, mode="burst",
                                          name_prefix="flood")),
        (regular.client, TenantLoadPattern(8, mode="sequential",
                                           name_prefix="app")),
    ]
    env.run_coroutine(generator.run_all(jobs))
    env.run_until(
        lambda: env.syncer.trace_store.completed_count >= 808,
        timeout=600, poll=0.5)

    means = env.syncer.trace_store.mean_creation_time_by_tenant()
    return {
        "greedy": means[greedy.key],
        "regular": means[regular.key],
        "queue": dict(env.syncer.downward.wait_time_by_tenant),
    }


def main():
    print("greedy-corp bursts 800 pod creations; small-team deploys 8 "
          "pods sequentially\n")
    with_fq = run_scenario(fair=True)
    without_fq = run_scenario(fair=False)

    print("mean pod creation time (seconds):")
    print(f"  {'tenant':<14} {'fair queuing ON':>16} "
          f"{'fair queuing OFF':>17}")
    for tenant in ("regular", "greedy"):
        print(f"  {tenant:<14} {with_fq[tenant]:>16.2f} "
              f"{without_fq[tenant]:>17.2f}")

    slowdown = without_fq["regular"] / with_fq["regular"]
    print(f"\nwithout fair queuing the regular tenant is {slowdown:.1f}x "
          f"slower; with it, the greedy tenant bears its own burst "
          f"(weighted round-robin over per-tenant sub-queues).")


if __name__ == "__main__":
    main()
