"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Every workload is a pass of two timed operations, ``op1`` and ``op2``:

* ``paper_fig8`` -- op1 is Terasort's Fig. 8 protocol, op2 PageRank's
  (``fig2_static_sweep`` over the paper's thread counts fanned over the
  sweep workers, then ``fig8_end_to_end`` for BestFit and dynamic).
* ``serve_steady`` / ``serve_overload`` -- op1 is ``run_service`` on a plan
  of exactly N jobs, op2 on a plan of exactly 4N jobs, so the pass also
  yields the growth exponent of run time against job count.

Each operation records its wall time and the CPU time of this process plus
its reaped children (the sweep workers); see ``cpu_seconds``.  The runner
normalises the CPU time by a reference kernel timed around the operation.

Setup (imports, oracle pricing, plan and chaos generation) happens before
the first timed operation; output checks run after each operation, outside
the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: Paper Fig. 8 runtime reductions vs default (Middleware 2019): the simulated
#: values at benchmark scale are printed beside these, never gated on.
PAPER_REDUCTIONS = {
    "terasort": {"bestfit": 0.475, "dynamic": 0.344},
    "pagerank": {"bestfit": 0.163, "dynamic": 0.541},
}

FIG8_APPS = ("terasort", "pagerank")
FIG8_SCALE = 0.1

SERVE_MIX = ("terasort", "wordcount")
SERVE_SCALE = 0.02
SERVE_TENANTS = 4
SERVE_SLOTS = 8
#: One executor slot per job: offered load is rate * E[S] / SERVE_SLOTS.
SERVE_JOB_SLOTS = 1
#: Jobs per node-churn episode in serve_overload (episodes scale with N).
CHURN_EVERY_JOBS = 125


def cpu_seconds() -> float:
    """CPU time of this process plus every finished, reaped child, in seconds.

    The sweep workers are reaped when their pool shuts down, inside the
    operation, so their CPU time counts.  Unlike wall time, CPU time leaves
    out the time a shared host runs other tenants on our cores (the kernel
    subtracts steal time), which would otherwise dominate the spread.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timer:
    """Wall and CPU time of one operation."""

    def __enter__(self) -> "Timer":
        self.wall_s = time.perf_counter()
        self.cpu_s = cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_s = cpu_seconds() - self.cpu_s
        self.wall_s = time.perf_counter() - self.wall_s


@dataclass
class OpResult:
    """One timed, checked operation: its times and output digest."""

    label: str
    timer: Timer
    digest: str
    info: Dict[str, Any] = field(default_factory=dict)
    #: CPU time of the reference kernel around this operation (0 if unset).
    ref_s: float = 0.0


def digest_of(doc: Any) -> str:
    """Stable hash of a JSON-able output, for bit-for-bit repeat checks."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_workers() -> int:
    """The sweep fan-out: two workers, or fewer on a smaller host."""
    return max(1, min(2, os.cpu_count() or 1))


# -- paper_fig8 -----------------------------------------------------------------


def fig8_setup(seed: int) -> Dict[str, Any]:
    """The Fig. 8 protocol takes no seed: the paper's cluster is homogeneous
    and ``fig2_static_sweep``/``fig8_end_to_end`` expose none, so the seed is
    recorded only."""
    import repro.harness.experiments  # noqa: F401  (import cost is setup)
    import repro.harness.parallel  # noqa: F401

    return {"seed": seed, "apps": FIG8_APPS, "scale": FIG8_SCALE,
            "workers": sweep_workers()}


def _fig8_output(sweep: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "sweep": {str(threads): run for threads, run in sweep["runs"].items()},
        "sweep_bestfit": sweep["bestfit"],
        "bestfit_sizes": {str(k): v for k, v in result["bestfit_sizes"].items()},
        "default": result["default"],
        "static_bestfit": result["static_bestfit"],
        "dynamic": result["dynamic"],
        "reduction_bestfit": result["reduction_bestfit"],
        "reduction_dynamic": result["reduction_dynamic"],
    }


def _fig8_check(sweep: Dict[str, Any], output: Dict[str, Any]) -> None:
    """Every run of the protocol completed all of its stages."""
    runs = list(sweep["_sweep_runs"].values())
    expected = len(runs[0].stages)
    for run in runs:
        if not all(stage.closed for stage in run.stages):
            raise ValueError(f"sweep run {run.key} left a stage open")
        if len(run.stages) != expected:
            raise ValueError(f"sweep run {run.key} ran {len(run.stages)} "
                             f"stages, expected {expected}")
    summaries = [output["sweep_bestfit"], output["default"],
                 output["static_bestfit"], output["dynamic"]]
    summaries += list(output["sweep"].values())
    for summary in summaries:
        stages = summary["stages"]
        if len(stages) != expected:
            raise ValueError(f"run completed {len(stages)} of {expected} stages")
        if not all(math.isfinite(d) and d > 0 for d in stages):
            raise ValueError(f"non-positive stage duration in {stages}")
        if not (math.isfinite(summary["total"]) and summary["total"] > 0):
            raise ValueError(f"bad runtime {summary['total']}")
    for key in ("reduction_bestfit", "reduction_dynamic"):
        if not math.isfinite(output[key]):
            raise ValueError(f"{key} is not finite")


def fig8_ops(inputs: Dict[str, Any]) -> List[Tuple[str, Callable[[int], OpResult]]]:
    from repro.harness.experiments import fig2_static_sweep, fig8_end_to_end

    scale, workers = inputs["scale"], inputs["workers"]

    def op(app: str) -> OpResult:
        with Timer() as timer:
            sweep = fig2_static_sweep(app, scale=scale, parallel=workers)
            result = fig8_end_to_end(app, scale=scale, sweep_result=sweep)
        output = _fig8_output(sweep, result)
        _fig8_check(sweep, output)
        return OpResult(app, timer, digest_of(output), info={
            "reduction_bestfit": output["reduction_bestfit"],
            "reduction_dynamic": output["reduction_dynamic"],
        })

    return [(app, lambda _repeat, app=app: op(app)) for app in inputs["apps"]]


def fig8_context(ops: List[OpResult]) -> List[str]:
    """Simulated reductions beside the paper's, at benchmark scale."""
    lines = []
    for result in ops:
        paper = PAPER_REDUCTIONS[result.label]
        for arm in ("bestfit", "dynamic"):
            measured = -100.0 * result.info[f"reduction_{arm}"]
            expected = -100.0 * paper[arm]
            lines.append(
                f"fig8 {result.label:8s} {arm:7s} runtime change "
                f"{measured:+6.1f}% (paper {expected:+5.1f}%, difference "
                f"{measured - expected:+6.1f} pp; scale {FIG8_SCALE}, "
                f"informational: ratios are not scale-invariant)")
    return lines


# -- serve_steady / serve_overload ------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    name: str
    rho: float
    jobs: int
    chaos: bool
    #: Distinct N-job plans op1 cycles through.  At small N the queue's
    #: random walk makes one plan's cost differ from another's by ±10 %, so
    #: op1 samples several plans drawn from the seed instead of one.
    op1_plans: int


SERVE_SPECS = {
    "serve_steady": ServeSpec("serve_steady", rho=0.7, jobs=8000, chaos=False,
                              op1_plans=4),
    "serve_overload": ServeSpec("serve_overload", rho=1.5, jobs=1250,
                                chaos=True, op1_plans=8),
}


def _sub_seeds(seed: int, variant: int) -> Dict[str, int]:
    """Job (inner cluster) seed from the workload seed; plan and chaos seeds
    from the workload seed and the plan variant."""
    rng = random.Random(f"{seed}/{variant}")
    seeds = {name: rng.randrange(2 ** 31) for name in ("plan", "chaos")}
    seeds["job"] = random.Random(seed).randrange(2 ** 31)
    return seeds


def _mean_service_time(job_seed: int) -> Tuple[float, Dict[str, float]]:
    """E[S] of the equal-weight template mix, priced by the runtime oracle."""
    from repro.harness.service import run_service
    from repro.workloads.arrivals import single_job_plan

    runtimes = {}
    for workload in SERVE_MIX:
        plan = single_job_plan(workload, scale=SERVE_SCALE,
                               slots=SERVE_JOB_SLOTS, job_seed=job_seed)
        report = run_service(plan, total_nodes=SERVE_JOB_SLOTS)
        runtimes[workload] = report.doc["jobs"][0]["runtime"]
    return sum(runtimes.values()) / len(runtimes), runtimes


def _exact_plans(rho: float, runtimes: Dict[str, float],
                 sizes: Tuple[int, ...], seeds: Dict[str, int]) -> list:
    """Poisson plans of exactly ``n`` jobs whose drawn work is exactly ρ.

    Per-tenant arrival times are drawn in sequence until they pass the
    horizon, so the arrivals before a horizon do not depend on it, and they
    scale with ``1 / rate``; the job-mix draws depend only on how many times
    were drawn.  One probe plan gives the gap between the n-th and the next
    arrival; a horizon inside that gap fixes the job count (and the drawn
    mix), and stretching rate and horizon together then makes the drawn
    jobs' total service time exactly ``rho * slots * horizon``.
    """
    from repro.workloads.arrivals import poisson_plan

    def plan(plan_rate: float, horizon: float):
        return poisson_plan(
            tenants=SERVE_TENANTS, rate=plan_rate / SERVE_TENANTS,
            horizon=horizon, workloads=SERVE_MIX, scale=SERVE_SCALE,
            slots=SERVE_JOB_SLOTS, seed=seeds["plan"], job_seed=seeds["job"])

    mean_service = sum(runtimes.values()) / len(runtimes)
    rate = rho * SERVE_SLOTS / (mean_service * SERVE_JOB_SLOTS)
    horizon = 1.2 * max(sizes) / rate
    while True:
        times = sorted(arrival.time for arrival in plan(rate, horizon).generate())
        if len(times) > max(sizes):
            break
        horizon *= 1.5
    plans = []
    for jobs in sizes:
        cut = (times[jobs - 1] + times[jobs]) / 2.0
        work = sum(runtimes[arrival.template.workload] * arrival.slots
                   for arrival in plan(rate, cut).generate())
        horizon = work / (rho * SERVE_SLOTS)
        plans.append(plan(rate * cut / horizon, horizon))
    return plans


def _chaos_doc(jobs: int, horizon: float, mean_service: float,
               chaos_seed: int) -> Dict[str, Any]:
    """Staggered node churn, retries with backoff and an armed breaker.

    One churn episode per ``CHURN_EVERY_JOBS`` jobs, one per equal slice of
    the horizon, so N and 4N see the same churn density.  No admission cap:
    the overload queue must stay deep.
    """
    from repro.faults.plan import (
        ClusterFaults,
        FaultPlan,
        NodeChurn,
        ProtectionConfig,
    )

    rng = random.Random(chaos_seed)
    episodes = max(1, jobs // CHURN_EVERY_JOBS)
    churn = [
        NodeChurn(node_id=rng.randrange(SERVE_SLOTS),
                  down_at=(index + rng.random()) * horizon / episodes,
                  duration=mean_service * rng.uniform(1.0, 3.0))
        for index in range(episodes)
    ]
    plan = FaultPlan(seed=chaos_seed, cluster=ClusterFaults(
        node_churn=churn,
        protection=ProtectionConfig(max_retries=3, breaker_failures=5),
    ))
    return plan.to_dict()


def serve_setup(spec: ServeSpec, seed: int) -> Dict[str, Any]:
    job_seed = _sub_seeds(seed, 0)["job"]
    mean_service, runtimes = _mean_service_time(job_seed)

    def size(jobs: int, plan, seeds: Dict[str, int]) -> Dict[str, Any]:
        chaos = (_chaos_doc(jobs, plan.horizon, mean_service, seeds["chaos"])
                 if spec.chaos else None)
        return {"jobs": jobs, "plan": plan, "chaos": chaos, "seeds": seeds}

    seeds = _sub_seeds(seed, 0)
    small, large = _exact_plans(spec.rho, runtimes, (spec.jobs, 4 * spec.jobs),
                                seeds)
    op1 = [size(spec.jobs, small, seeds)]
    for variant in range(1, spec.op1_plans):
        seeds = _sub_seeds(seed, variant)
        plan, = _exact_plans(spec.rho, runtimes, (spec.jobs,), seeds)
        op1.append(size(spec.jobs, plan, seeds))
    rate = spec.rho * SERVE_SLOTS / (mean_service * SERVE_JOB_SLOTS)
    return {"spec": spec, "seed": seed, "job_seed": job_seed,
            "mean_service": mean_service, "runtimes": runtimes, "rate": rate,
            "op1": op1, "op2": size(4 * spec.jobs, large, _sub_seeds(seed, 0))}


def serve_describe(inputs: Dict[str, Any]) -> List[str]:
    spec = inputs["spec"]
    mean_service = inputs["mean_service"]
    lines = [
        f"{spec.name}: E[S] {mean_service:.3f} s (oracle: "
        + ", ".join(f"{w} {s:.3f} s" for w, s in inputs["runtimes"].items())
        + f"), target rho {spec.rho}, arrival rate {inputs['rate']:.6f} jobs/s, "
        f"{SERVE_TENANTS} tenants, {SERVE_SLOTS} slots, job seed "
        f"{inputs['job_seed']}; op1 cycles {len(inputs['op1'])} plans"
    ]
    for size in inputs["op1"] + [inputs["op2"]]:
        plan = size["plan"]
        realised_rate = size["jobs"] / plan.horizon
        work_rho = sum(
            inputs["runtimes"][arrival.template.workload] * arrival.slots
            for arrival in plan.generate()) / (plan.horizon * SERVE_SLOTS)
        churn = (len(size["chaos"]["cluster"]["node_churn"])
                 if size["chaos"] else 0)
        lines.append(
            f"  plan {size['jobs']} jobs over {plan.horizon:.1f} s: realised "
            f"rate {realised_rate:.6f} jobs/s, rho {work_rho:.4f} with the "
            f"drawn mix, churn episodes {churn}, plan/chaos seeds "
            f"{size['seeds']['plan']}/{size['seeds']['chaos']}")
    return lines


def _serve_check(doc: Dict[str, Any], jobs: int, chaos: bool) -> None:
    from repro.harness.service import validate_report
    from repro.validation.cluster import validate_service_report

    validate_report(doc)
    report = validate_service_report(doc)
    if not report.ok:
        raise ValueError("cluster checkers: " + "; ".join(
            violation.message for violation in report.violations[:3]))
    totals = doc["totals"]
    if totals["submitted"] != jobs:
        raise ValueError(f"{totals['submitted']} jobs submitted, expected {jobs}")
    if not chaos and totals["completed"] != jobs:
        raise ValueError(f"{totals['completed']} of {jobs} jobs completed "
                         f"without chaos")


def queue_stats(doc: Dict[str, Any]) -> Tuple[float, float]:
    """(sum of queue delays, makespan) of one report, for Little's law."""
    delays = sum(row["queue_delay"] for row in doc["jobs"]
                 if row["queue_delay"] is not None)
    return delays, doc["makespan_s"]


def serve_ops(inputs: Dict[str, Any]) -> List[Tuple[str, Callable[[int], OpResult]]]:
    from repro.harness.service import run_service

    spec = inputs["spec"]

    def op(size: Dict[str, Any], variant: int = 0) -> OpResult:
        with Timer() as timer:
            report = run_service(size["plan"], total_nodes=SERVE_SLOTS,
                                 discipline="fair",
                                 fault_plan_doc=size["chaos"])
        doc = report.doc
        _serve_check(doc, size["jobs"], spec.chaos)
        resilience = doc.get("resilience") or {}
        delays, makespan = queue_stats(doc)
        return OpResult(f"{size['jobs']}jobs#{variant}", timer, digest_of(doc), info={
            "jobs": size["jobs"],
            "oracle_runs": doc["totals"]["distinct_engine_runs"],
            "retried": resilience.get("retries", 0),
            "aborted": resilience.get("aborted", 0),
            "queue_delay_sum": delays,
            "makespan": makespan,
        })

    op1, op2 = inputs["op1"], inputs["op2"]
    return [
        (f"{spec.jobs}jobs",
         lambda repeat: op(op1[repeat % len(op1)], repeat % len(op1))),
        (f"{4 * spec.jobs}jobs", lambda _repeat: op(op2)),
    ]


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Dict[str, Any]]
    #: (label, operation) pairs; an operation takes its repeat index.
    ops: Callable[[Dict[str, Any]], List[Tuple[str, Callable[[int], OpResult]]]]
    describe: Callable[[Dict[str, Any]], List[str]]


WORKLOADS = {
    "paper_fig8": Workload(
        "paper_fig8", fig8_setup, fig8_ops,
        lambda inputs: [f"paper_fig8: apps {', '.join(inputs['apps'])} at scale "
                        f"{inputs['scale']} on the 4-node HDD cluster, sweep "
                        f"over {inputs['workers']} worker(s); the protocol "
                        f"takes no seed"]),
    "serve_steady": Workload(
        "serve_steady", lambda seed: serve_setup(SERVE_SPECS["serve_steady"], seed),
        serve_ops, serve_describe),
    "serve_overload": Workload(
        "serve_overload",
        lambda seed: serve_setup(SERVE_SPECS["serve_overload"], seed),
        serve_ops, serve_describe),
}
