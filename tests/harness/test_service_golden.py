"""Committed digests of the cluster scheduler's decisions.

The determinism tests elsewhere compare two runs of the *same* code, so a
change that reorders dispatch would still pass them.  This module pins the
schedule itself: each scenario's outcome is reduced to a sha256 of
canonical JSON and compared against ``tests/golden/service_digests.json``.

* ``report.*`` digests cover full ``repro.service/1`` report documents from
  :func:`run_service` on an overloaded (rho ~ 1.5) Poisson plan, under every
  discipline, clean and with churn + flaps + poison + retries + breaker,
  plus one run with every protection guard armed.
* ``direct.*`` digests cover :class:`ClusterScheduler` runs on synthetic,
  tie-heavy job streams (equal arrivals, equal shares, weights 1/2/3,
  multi-slot head-of-line blocking, a requeueing preemption hook, an
  admission hook, a capacity abort), as a canonical dump of
  :class:`ServiceResult`.

A change that is meant to alter the schedule regenerates the file with::

    PYTHONPATH=src python tests/harness/test_service_golden.py
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from repro.cluster.scheduler import (
    ClusterScheduler,
    ServiceJob,
    max_queue_admission,
    max_wait_admission,
)
from repro.faults.plan import (
    ClusterFaults,
    FaultPlan,
    NodeChurn,
    ProtectionConfig,
    SlotFlap,
    TenantPoison,
)
from repro.harness.service import run_service
from repro.workloads.arrivals import ArrivalPlan, JobTemplate, TenantSpec

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "service_digests.json")

NODES = 4


def digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- report scenarios ---------------------------------------------------------


def overload_plan():
    """Four Poisson tenants (weights 1/1/2/3, one of them 2-slot) at rho ~ 1.5.

    Oracle service times: wordcount 0.02 ~ 12 s and 0.06 ~ 28 s on one
    slot, so ~85 slot-seconds arrive per unit of per-tenant rate and 0.07
    jobs/s per tenant offers ~1.5x the 4 nodes; ~280 jobs over 1,000 s.
    """
    mix = (JobTemplate(workload="wordcount", scale=0.02),
           JobTemplate(workload="wordcount", scale=0.06))
    shape = (("t0", 1.0, 1), ("t1", 1.0, 1), ("t2", 2.0, 2), ("t3", 3.0, 1))
    return ArrivalPlan(
        seed=11,
        horizon=1000.0,
        tenants=tuple(
            TenantSpec(name=name, weight=weight, slots=slots, mix=mix,
                       process=("poisson", 0.07, 0.0, None))
            for name, weight, slots in shape
        ),
    )


def churn_faults(protection):
    return FaultPlan(seed=5, cluster=ClusterFaults(
        node_churn=[
            NodeChurn(node_id=1, down_at=100.0, duration=60.0),
            NodeChurn(node_id=3, down_at=300.0, duration=120.0),
            NodeChurn(node_id=0, down_at=550.0, duration=40.0),
            NodeChurn(node_id=2, down_at=700.0, duration=200.0),
            NodeChurn(node_id=1, down_at=720.0, duration=30.0),
        ],
        slot_flaps=[SlotFlap(node_id=2, at=420.0, duration=30.0)],
        poison=[TenantPoison(tenant="t1", probability=0.3, max_poisoned=12)],
        protection=protection,
    )).to_dict()


def report_scenarios():
    scenarios = {}
    for discipline in ("fifo", "fair", "wfair"):
        scenarios[f"report.{discipline}.clean"] = dict(
            discipline=discipline, fault_plan_doc=None)
        scenarios[f"report.{discipline}.churn"] = dict(
            discipline=discipline,
            fault_plan_doc=churn_faults(
                ProtectionConfig(max_retries=2, breaker_failures=3)))
    scenarios["report.fair.protected"] = dict(
        discipline="fair",
        fault_plan_doc=churn_faults(ProtectionConfig(
            max_retries=2, breaker_failures=3, deadline=300.0,
            slo_latency=120.0, max_queue=28, max_wait=170.0,
            degrade_queue=14)))
    return scenarios


def report_digest(name):
    kwargs = report_scenarios()[name]
    report = run_service(overload_plan(), total_nodes=NODES, cores=8, **kwargs)
    return digest(report.doc)


# -- direct scheduler scenarios -----------------------------------------------


def job(job_id, tenant, arrival, slots=1, runtime=10.0, weight=1.0):
    return ServiceJob(job_id=job_id, tenant=tenant, workload="synthetic",
                      arrival=arrival, slots=slots, runtime=runtime,
                      tenant_weight=weight)


WEIGHTS = {"a": 1.0, "b": 2.0, "c": 3.0}


def tie_stream():
    """Bursts at equal times, equal runtimes, weights 1/2/3, 1-3 slot jobs.

    Every burst lands several tenants at the same instant with equal
    shares, so the tenant-name and (arrival, seq) tie-breaks decide; the
    3-slot jobs of tenant ``c`` block the head of the line.
    """
    jobs = []
    index = 0
    for burst in range(12):
        at = 5.0 * burst
        for tenant in ("c", "a", "b"):
            for _ in range(2):
                slots = 3 if (tenant == "c" and index % 4 == 0) else 1
                runtime = 7.0 if index % 3 else 11.0
                jobs.append(job(f"j{index:03d}", tenant, at, slots=slots,
                                runtime=runtime, weight=WEIGHTS[tenant]))
                index += 1
    return jobs


def preempt_hook():
    """Evict tenant ``a``'s earliest-started job whenever ``c`` waits."""
    budget = [6]

    def preempt(state):
        if budget[0] <= 0:
            return []
        if not any(queued.tenant == "c" for queued in state.queued):
            return []
        victims = [running for running in state.running
                   if running.tenant == "a"]
        if not victims:
            return []
        budget[0] -= 1
        return [min(victims, key=lambda j: (j.start, j.job_id))]

    return preempt


def capacity_stream():
    """A 3-slot job that can never fit once two of four nodes die for good."""
    jobs = [job(f"s{index}", "a", float(index), runtime=20.0)
            for index in range(6)]
    jobs.append(job("wide", "b", 3.0, slots=3, runtime=5.0))
    jobs.append(job("late", "b", 4.0, slots=1, runtime=5.0))
    return jobs


def requeue_order_stream():
    """Queued work whose float sum depends on the order it is summed in.

    ``x`` is killed by node churn and requeued behind ``a`` and ``b``, so
    insertion order (a, b, x) and arrival order (x, a, b) differ:
    0.1 + 0.1 + 0.4 = 0.6000000000000001 but 0.4 + 0.1 + 0.1 = 0.6.  With
    ``max_wait`` 0.6 on one live slot, the guard sheds ``d`` only when it
    sums in insertion order.
    """
    return [
        job("a0", "a", 0.0, runtime=0.4),
        job("w", "b", 0.0, runtime=1000.0),
        job("a1", "a", 0.5, runtime=0.1),
        job("a2", "a", 0.6, runtime=0.1),
        job("d", "b", 5.0, runtime=1.0),
    ]


def direct_scenarios():
    scenarios = {}
    for discipline in ("fifo", "fair", "wfair"):
        scenarios[f"direct.{discipline}.ties"] = lambda d=discipline: (
            ClusterScheduler(total_slots=4, discipline=d).run(tie_stream()))
        scenarios[f"direct.{discipline}.preempt"] = lambda d=discipline: (
            ClusterScheduler(total_slots=4, discipline=d,
                             preemption=preempt_hook()).run(tie_stream()))
    scenarios["direct.wfair.admission"] = lambda: ClusterScheduler(
        total_slots=4, discipline="wfair",
        admission=max_queue_admission(9)).run(tie_stream())
    scenarios["direct.fair.max_wait_hook"] = lambda: ClusterScheduler(
        total_slots=4, discipline="fair",
        admission=max_wait_admission(30.0)).run(tie_stream())
    scenarios["direct.fair.capacity_abort"] = lambda: ClusterScheduler(
        total_slots=4, discipline="fair",
        chaos=ClusterFaults(node_churn=[
            NodeChurn(node_id=2, down_at=2.0),
            NodeChurn(node_id=3, down_at=2.5),
        ]),
        chaos_seed=3).run(capacity_stream())
    scenarios["direct.fifo.max_wait_order"] = lambda: ClusterScheduler(
        total_slots=2, discipline="fifo",
        chaos=ClusterFaults(
            node_churn=[NodeChurn(node_id=0, down_at=0.2, duration=100.0)],
            protection=ProtectionConfig(max_wait=0.6)),
        chaos_seed=1).run(requeue_order_stream())
    scenarios["direct.wfair.degrade"] = lambda: ClusterScheduler(
        total_slots=4, discipline="wfair",
        chaos=ClusterFaults(
            node_churn=[NodeChurn(node_id=0, down_at=12.0, duration=9.0)],
            protection=ProtectionConfig(degrade_queue=6, deadline=40.0,
                                        max_queue=20)),
        chaos_seed=4).run([
            dataclasses.replace(j, runtime_by_slots={1: 17.0})
            if j.slots == 3 else j for j in tie_stream()])
    return scenarios


def canonical_result(result):
    """Everything a ServiceResult says, as JSON-safe data."""
    jobs = []
    for entry in result.jobs:
        row = {name: value for name, value in dataclasses.asdict(entry).items()
               if not name.startswith("_")}
        row["runtime_by_slots"] = sorted(entry.runtime_by_slots.items())
        jobs.append(row)
    return {
        "jobs": jobs,
        "discipline": result.discipline,
        "total_slots": result.total_slots,
        "makespan": result.makespan,
        "submitted": result.submitted,
        "completed": result.completed,
        "rejected": result.rejected,
        "preempted": result.preempted,
        "slot_seconds": result.slot_seconds,
        "wasted_slot_seconds": result.wasted_slot_seconds,
        "aborted": result.aborted,
        "retried": result.retried,
        "shed": result.shed,
        "slo_violations": result.slo_violations,
        "wasted_fault_slot_seconds": result.wasted_fault_slot_seconds,
        "degraded_grants": result.degraded_grants,
        "mttr": result.mttr,
        "breakers": result.breakers,
        "node_downtime": result.node_downtime,
        "metrics": result.registry.snapshot(),
    }


def direct_digest(name):
    return digest(canonical_result(direct_scenarios()[name]()))


# -- the check ------------------------------------------------------------------


def compute_all():
    digests = {name: report_digest(name) for name in report_scenarios()}
    digests.update(
        (name, direct_digest(name)) for name in direct_scenarios())
    return dict(sorted(digests.items()))


def load_golden():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_scenario():
    names = set(report_scenarios()) | set(direct_scenarios())
    assert set(load_golden()) == names


@pytest.mark.parametrize("name", sorted(report_scenarios()))
def test_report_digest(name):
    assert report_digest(name) == load_golden()[name]


@pytest.mark.parametrize("name", sorted(direct_scenarios()))
def test_direct_digest(name):
    assert direct_digest(name) == load_golden()[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(compute_all(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(f"wrote {os.path.normpath(GOLDEN)}\n")
