#!/usr/bin/env python
"""Platform operations: the paper's §V roadmap, working.

Three operator-facing capabilities beyond the core framework:

1. **tenant weights** — a premium tenant gets a larger share of the
   syncer's weighted-round-robin dispatch under contention;
2. **CRD synchronization** — a tenant's custom resources flow to the
   super cluster so extended schedulers could act on them;
3. **idle control-plane swapping** — idle tenants' control planes shrink
   to a memory residual and transparently wake on the next request.

Run with:  python examples/platform_operations.py
"""

from repro.core import IdleSwapper, VirtualClusterEnv
from repro.core.crd import super_namespace
from repro.core.swapper import control_plane_memory
from repro.objects import CustomResourceDefinition
from repro.workloads import LoadGenerator, TenantLoadPattern


def main():
    env = VirtualClusterEnv(num_virtual_nodes=10, scan_interval=60.0)
    env.bootstrap()

    # --- 1. tenant weights -------------------------------------------------
    premium = env.run_coroutine(env.create_tenant("premium", weight=4))
    basic = env.run_coroutine(env.create_tenant("basic", weight=1))
    env.run_for(1)
    print(f"[{env.sim.now:6.1f}s] tenants: premium (weight 4), "
          f"basic (weight 1)")

    generator = LoadGenerator(env.sim)
    jobs = [(tenant.client, TenantLoadPattern(300, mode="burst",
                                              name_prefix=prefix))
            for tenant, prefix in ((premium, "p"), (basic, "b"))]
    env.run_coroutine(generator.run_all(jobs))
    env.run_until(lambda: env.syncer.trace_store.completed_count >= 600,
                  timeout=600, poll=0.5)
    means = env.syncer.trace_store.mean_creation_time_by_tenant()
    print(f"[{env.sim.now:6.1f}s] both burst 300 pods -> mean creation: "
          f"premium {means[premium.key]:.2f}s, "
          f"basic {means[basic.key]:.2f}s "
          f"(weight buys the premium tenant its share)")

    # --- 2. CRD synchronization ---------------------------------------------
    crd = CustomResourceDefinition()
    crd.metadata.name = "trainingjobs.acme.io"
    crd.spec.group = "acme.io"
    crd.spec.names.kind = "TrainingJob"
    crd.spec.names.plural = "trainingjobs"
    env.run_coroutine(premium.client.create(crd))
    job_type = premium.control_plane.api.registry.register_crd(crd)
    env.syncer.enable_crd_sync(premium.key, crd)

    job = job_type()
    job.metadata.name = "resnet-sweep"
    job.metadata.namespace = "default"
    job.spec = {"gpus": 8, "framework": "torch"}
    env.run_coroutine(premium.client.create(job))

    admin = env.super_admin_client()
    sns = super_namespace(premium.vc, "default")

    def job_synced():
        try:
            env.run_coroutine(admin.get("trainingjobs", "resnet-sweep",
                                        namespace=sns))
            return True
        except Exception:
            return False

    env.run_until(job_synced, timeout=60)
    synced = env.run_coroutine(admin.get("trainingjobs", "resnet-sweep",
                                         namespace=sns))
    print(f"[{env.sim.now:6.1f}s] tenant CRD object synced to super: "
          f"{synced.namespace}/{synced.name} spec={synced.spec}")

    # --- 3. idle control-plane swapping --------------------------------------
    swapper = IdleSwapper(env.sim, idle_threshold=20.0, check_interval=5.0,
                          wake_latency=0.8)
    swapper.start()
    idlers = [env.run_coroutine(env.create_tenant(f"idle-{index}"))
              for index in range(5)]
    for handle in idlers:
        swapper.track(handle.control_plane)
    before = swapper.total_resident_bytes()
    env.run_for(40)
    after = swapper.total_resident_bytes()
    print(f"[{env.sim.now:6.1f}s] five idle tenants swapped out: "
          f"control-plane RSS {before / 1e6:.0f} MB -> "
          f"{after / 1e6:.0f} MB")

    start = env.sim.now
    env.run_coroutine(idlers[0].client.list("pods", namespace="default"))
    print(f"[{env.sim.now:6.1f}s] first request after the nap took "
          f"{env.sim.now - start:.2f}s (page-in), tenant "
          f"{idlers[0].name!r} is awake: "
          f"{control_plane_memory(idlers[0].control_plane) / 1e6:.0f} MB")


if __name__ == "__main__":
    main()
