"""Fig. 14 / Table 1: the request-distribution experiment, reusable.

A two-machine cluster (SandyBridge + Woodcrest) serves a combined
GAE-Vosao + RSA-crypto workload (50/50 by load) at 95% of the volume the
simple balancer can sustain; each policy's energy rate and per-workload
response times are measured over the steady window.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.parallel import parallel_starmap
from repro.hardware.specs import SANDYBRIDGE, WOODCREST
from repro.server.cluster import HeterogeneousCluster
from repro.server.dispatch import (
    DispatchPolicy,
    Dispatcher,
    MachineHeterogeneityAwarePolicy,
    SimpleLoadBalancePolicy,
    WorkloadHeterogeneityAwarePolicy,
)
from repro.sim.rng import RngHub
from repro.workloads.gae import GaeVosaoWorkload
from repro.workloads.rsa import RsaCryptoWorkload

#: The three policies of Section 4.4, as (name, factory) pairs.
DISTRIBUTION_POLICIES: tuple[tuple[str, Callable[[], DispatchPolicy]], ...] = (
    ("simple load balance", SimpleLoadBalancePolicy),
    ("machine heterogeneity-aware",
     lambda: MachineHeterogeneityAwarePolicy("sandybridge", "woodcrest")),
    ("workload heterogeneity-aware",
     lambda: WorkloadHeterogeneityAwarePolicy("sandybridge", "woodcrest")),
)


def run_distribution_policy(
    policy: DispatchPolicy,
    calibrations: dict,
    duration: float = 10.0,
    warmup: float = 2.0,
    rate_scale: float = 0.95,
    seed: int = 7,
) -> dict:
    """Run one policy; returns energy rates, response times, dispatch counts."""
    cluster = HeterogeneousCluster()
    sb = cluster.add_machine(SANDYBRIDGE, calibrations["sandybridge"])
    wc = cluster.add_machine(WOODCREST, calibrations["woodcrest"])
    vosao, rsa = GaeVosaoWorkload(), RsaCryptoWorkload()
    cluster.build_workload(vosao)
    cluster.build_workload(rsa)

    # 50/50 *load* composition: request-count shares inversely weighted by
    # per-request demand.
    demand_vosao = vosao.mean_demand_seconds("sandybridge")
    demand_rsa = rsa.mean_demand_seconds("sandybridge")
    share_vosao = demand_rsa / (demand_vosao + demand_rsa)
    share_rsa = demand_vosao / (demand_vosao + demand_rsa)
    # Offered volume relative to the maximum the simple balancer sustains
    # (Woodcrest saturates first under an even split).
    mean_demand_wc = (
        share_vosao * vosao.mean_demand_seconds("woodcrest")
        + share_rsa * rsa.mean_demand_seconds("woodcrest")
    )
    rate = rate_scale * 2 * WOODCREST.n_cores / mean_demand_wc

    dispatcher = Dispatcher(
        cluster, [(vosao, share_vosao), (rsa, share_rsa)], policy, rate,
        RngHub(seed).stream("arrivals"),
    )
    dispatcher.start(duration)
    cluster.simulator.run_until(warmup)
    cluster.mark_energy()
    cluster.simulator.run_until(duration)
    for member in cluster.machines:
        member.facility.flush()
    window = duration - warmup
    return {
        "sb_watts": sb.active_joules_since_mark() / window,
        "wc_watts": wc.active_joules_since_mark() / window,
        "rt_vosao": dispatcher.mean_response_time("gae-vosao", since=warmup),
        "rt_rsa": dispatcher.mean_response_time("rsa-crypto", since=warmup),
        "dispatched": dict(dispatcher.dispatched_to),
    }


def _run_policy_by_index(index: int, calibrations: dict, kwargs: dict) -> dict:
    """Worker for the policy fan-out.

    Policies are identified by their index in :data:`DISTRIBUTION_POLICIES`
    because the policy *factories* are lambdas (not picklable); the index
    plus this module-level function is.
    """
    _name, factory = DISTRIBUTION_POLICIES[index]
    return run_distribution_policy(factory(), calibrations, **kwargs)


def run_all_distribution_policies(
    calibrations: dict, jobs: int | None = None, **kwargs
) -> dict:
    """Run all three Section 4.4 policies; returns name -> result dict.

    Each policy's cluster simulation is independent, so the three run in
    parallel worker processes (``jobs``); results are keyed and ordered as
    in :data:`DISTRIBUTION_POLICIES` regardless of completion order.
    """
    results = parallel_starmap(
        _run_policy_by_index,
        [(i, calibrations, kwargs) for i in range(len(DISTRIBUTION_POLICIES))],
        jobs=jobs,
    )
    return {
        name: result
        for (name, _factory), result in zip(DISTRIBUTION_POLICIES, results)
    }
