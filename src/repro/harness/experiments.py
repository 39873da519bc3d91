"""One function per table/figure of the paper's evaluation.

Each function runs the simulation protocol behind that exhibit and returns a
plain data structure; ``benchmarks/`` renders and checks them, and
EXPERIMENTS.md records paper-vs-measured values.  ``scale`` shrinks inputs
proportionally for quick runs.  Not every ratio survives the shrink: the
adaptive loop's fixed exploration cost weighs more on small stages (see
ROADMAP.md, "Paper fidelity as a gated, machine-readable check").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.conf import SparkConf
from repro.harness.parallel import RunConfig, map_runs
from repro.harness.runner import (
    build_cluster,
    derive_bestfit,
    run_workload,
    static_sweep,
)
from repro.monitoring import (
    stage_cpu_usage,
    stage_disk_utilization,
    stage_io_wait,
)
from repro.monitoring.iostat import throughput_timeseries
from repro.workloads.base import GiB, MiB
from repro.workloads.catalog import TABLE2_WORKLOADS, get_workload

THREAD_COUNTS = (32, 16, 8, 4, 2)
DEFAULT_THREADS = 32


def table1_parameters() -> Dict[str, int]:
    """Table 1: functional Spark parameters per category."""
    return SparkConf.category_counts()


def table2_io_activity(scale: float = 0.05, parallel: int = 1) -> List[dict]:
    """Table 2: cluster I/O activity relative to input size, 9 workloads.

    Amplification ratios are scale-invariant, so the default runs each
    workload on 5% of the paper's input size.  ``parallel`` fans the nine
    independent runs over worker processes (row order is unaffected).
    """
    configs = [
        RunConfig(workload=name, policy="default", key=name,
                  workload_kwargs={"scale": scale})
        for name in TABLE2_WORKLOADS
    ]
    rows = []
    for run in map_runs(configs, parallel):
        workload = get_workload(run.workload, scale=scale)
        measured = run.cluster_io_bytes
        input_bytes = workload.scaled_input_size
        rows.append(
            {
                "application": run.workload,
                "input_gib": input_bytes / GiB,
                "io_activity_gib": measured / GiB,
                "measured_amplification": measured / input_bytes,
                "paper_amplification": workload.paper_amplification,
            }
        )
    return rows


def fig1_cpu_iowait(scale: float = 1.0) -> Dict[str, List[dict]]:
    """Fig. 1: per-stage CPU usage and I/O wait under default Spark."""
    results: Dict[str, List[dict]] = {}
    for name in ("aggregation", "join", "pagerank", "terasort"):
        run = run_workload(name, policy="default",
                           workload_kwargs={"scale": scale})
        recorder = run.ctx.recorder
        results[name] = [
            {
                "stage": ordinal,
                "duration": stage.duration,
                "cpu_usage": stage_cpu_usage(recorder, stage.stage_id),
                "io_wait": stage_io_wait(recorder, stage.stage_id),
            }
            for ordinal, stage in enumerate(run.stages)
        ]
    return results


def fig2_static_sweep(workload: str, scale: float = 1.0,
                      device: str = "hdd", parallel: int = 1,
                      fork: bool = False) -> dict:
    """Figs. 2/4/10: the static solution at each thread count + BestFit.

    ``parallel`` spreads the sweep's independent points over worker
    processes; the result dict is identical either way (parallel runs hand
    back the full per-run recorder, so Fig. 5's utilisation analysis keeps
    working on ``_sweep_runs``).  ``fork=True`` runs the sweep on the
    copy-on-write fork engine instead: the setup prefix is simulated once
    and each thread count diverges in a forked child (same summaries,
    shared warm-up).
    """
    sweep = static_sweep(workload, THREAD_COUNTS, device=device,
                         workload_kwargs={"scale": scale}, parallel=parallel,
                         fork=fork)
    bestfit_sizes = derive_bestfit(sweep, DEFAULT_THREADS)
    bestfit = run_workload(workload, policy=("bestfit", bestfit_sizes),
                           device=device, workload_kwargs={"scale": scale})
    return {
        "workload": workload,
        "scale": scale,
        "device": device,
        "runs": {
            threads: {
                "total": run.runtime,
                "stages": run.stage_durations(),
            }
            for threads, run in sweep.items()
        },
        "bestfit_sizes": bestfit_sizes,
        "bestfit": {
            "total": bestfit.runtime,
            "stages": bestfit.stage_durations(),
        },
        "_sweep_runs": sweep,
    }


def fig3_node_variability(num_nodes: int = 44, gib: float = 30.0,
                          streams: int = 8, disk_sigma: float = 0.10,
                          seed: int = 42) -> List[dict]:
    """Fig. 3: reading/writing 30 GB on nominally identical DAS-5 nodes.

    Mirrors the paper's probe: each node writes then reads 30 GB through its
    local disk with a fixed stream count; the spread comes from the
    log-normal per-node speed factors.
    """
    cluster = build_cluster(num_nodes=num_nodes, disk_sigma=disk_sigma,
                            seed=seed)
    sim = cluster.sim
    results = []
    for node in cluster.nodes:
        times = {}
        for op in ("write", "read"):
            start = sim.now
            per_stream = gib * GiB / streams
            events = [node.disk.request(per_stream, op) for _s in range(streams)]
            sim.all_of(events)
            sim.run()
            times[op] = sim.now - start
        results.append(
            {
                "node": node.name,
                "write_time": times["write"],
                "read_time": times["read"],
                "disk_speed_factor": node.spec.disk_speed_factor,
            }
        )
    return results


def fig5_disk_utilization(sweeps: Dict[str, dict]) -> List[dict]:
    """Fig. 5: average disk utilisation per thread count in I/O stages.

    ``sweeps`` maps workload name -> the result of :func:`fig2_static_sweep`
    (reusing its runs avoids re-simulating).
    """
    targets = {
        "terasort": (0, 1, 2),
        "pagerank": (0,),
        "aggregation": (0,),
        "join": (0,),
    }
    rows = []
    for workload, stage_ordinals in targets.items():
        if workload not in sweeps:
            continue
        sweep_runs = sweeps[workload]["_sweep_runs"]
        for ordinal in stage_ordinals:
            utilizations = {}
            for threads, run in sweep_runs.items():
                stage = run.stages[ordinal]
                utilizations[threads] = stage_disk_utilization(
                    run.ctx.recorder, stage.stage_id
                )
            rows.append(
                {
                    "workload": workload,
                    "stage": ordinal,
                    "utilization_by_threads": utilizations,
                    "best_threads": max(utilizations, key=utilizations.get),
                }
            )
    return rows


def fig6_dynamic_decisions(scale: float = 1.0) -> List[dict]:
    """Fig. 6: per-executor thread choice in each Terasort stage."""
    run = run_workload("terasort", policy="dynamic",
                       workload_kwargs={"scale": scale})
    rows = []
    for ordinal, stage in enumerate(run.stages):
        rows.append(
            {
                "stage": ordinal,
                "per_executor": stage.final_pool_sizes(),
                "total_threads": stage.total_threads_used(),
            }
        )
    return rows


def fig7_congestion_index(scale: float = 1.0,
                          parallel: int = 1) -> List[dict]:
    """Fig. 7: steady-state ε, µ, and ζ per thread count, Terasort stages.

    The paper plots the effect of each fixed thread count on one executor's
    sensors; we run the fixed policy at each count and read executor 0.
    The per-count runs are independent, so ``parallel`` fans them out.
    """
    configs = [
        RunConfig(workload="terasort", policy=("fixed", threads), key=threads,
                  workload_kwargs={"scale": scale})
        for threads in reversed(THREAD_COUNTS)
    ]
    per_thread_runs = {
        run.key: run for run in map_runs(configs, parallel)
    }
    return fig7_from_runs(per_thread_runs)


def fig7_from_runs(per_thread_runs: dict) -> List[dict]:
    """Fig. 7 analysis over pre-existing fixed-policy Terasort runs."""
    num_stages = len(next(iter(per_thread_runs.values())).stages)
    rows = []
    for ordinal in range(num_stages):
        series = {}
        for threads, run in per_thread_runs.items():
            stage = run.stages[ordinal]
            tasks = [m for m in stage.tasks if m.executor_id == 0]
            epoll = sum(m.io_wait_seconds for m in tasks)
            io_bytes = sum(m.total_io_bytes for m in tasks)
            throughput = io_bytes / stage.duration
            mean_wait = epoll / len(tasks)
            series[threads] = {
                "epoll_wait": epoll,
                "throughput": throughput,
                "congestion": mean_wait / throughput if throughput else 0.0,
            }
        selected = _hill_climb_selection(series)
        rows.append({"stage": ordinal, "series": series, "selected": selected})
    return rows


def _hill_climb_selection(series: dict, tolerance: float = 2.0) -> int:
    """Apply the analyzer's doubling rule to a steady-state ζ series.

    This is what the paper's Fig. 7 "Selected" arrow marks: the thread count
    the dynamic solution lands on -- climb while ζ stays within the
    hysteresis tolerance of the previous interval, roll back one step when
    it blows past it (see :class:`repro.adaptive.mapek.Analyzer`).
    """
    counts = sorted(series)
    current = counts[0]
    for nxt in counts[1:]:
        if series[nxt]["congestion"] > tolerance * series[current]["congestion"]:
            return current
        current = nxt
    return current


def fig8_end_to_end(workload: str, scale: float = 1.0,
                    device: str = "hdd",
                    sweep_result: Optional[dict] = None,
                    fork: bool = False) -> dict:
    """Figs. 8/11: default vs static BestFit vs dynamic.

    ``fork=True`` applies to the embedded static sweep (ignored when a
    pre-computed ``sweep_result`` is supplied).  A supplied
    ``sweep_result`` must come from :func:`fig2_static_sweep` with the same
    workload, scale and device: its 32-thread run is the default baseline
    the BestFit and dynamic runs are compared against.
    """
    if sweep_result is None:
        sweep_result = fig2_static_sweep(workload, scale=scale, device=device,
                                         fork=fork)
    for key, value in (("workload", workload), ("scale", scale),
                       ("device", device)):
        if sweep_result.get(key) != value:
            raise ValueError(
                f"sweep_result has {key}={sweep_result.get(key)!r}, but "
                f"fig8_end_to_end was asked for {key}={value!r}"
            )
    default_run = sweep_result["_sweep_runs"][DEFAULT_THREADS]
    bestfit_sizes = sweep_result["bestfit_sizes"]
    bestfit_run = run_workload(workload, policy=("bestfit", bestfit_sizes),
                               device=device, workload_kwargs={"scale": scale})
    dynamic_run = run_workload(workload, policy="dynamic", device=device,
                               workload_kwargs={"scale": scale})

    def summary(run):
        return {
            "total": run.runtime,
            "stages": run.stage_durations(),
            "threads_per_stage": [s.total_threads_used() for s in run.stages],
        }

    default_total = default_run.runtime
    return {
        "workload": workload,
        "device": device,
        "default": summary(default_run),
        "static_bestfit": summary(bestfit_run),
        "dynamic": summary(dynamic_run),
        "bestfit_sizes": bestfit_sizes,
        "reduction_bestfit": 1.0 - bestfit_run.runtime / default_total,
        "reduction_dynamic": 1.0 - dynamic_run.runtime / default_total,
    }


def fig9_scalability(scale: float = 1.0, parallel: int = 1) -> dict:
    """Fig. 9: Terasort on 4 vs 16 nodes with proportionally scaled input.

    The paper's claim: the default does not scale (runtime grows despite a
    constant resources-to-problem ratio), while static BestFit and the
    dynamic solution hold their runtimes.
    """
    results = {}
    for num_nodes in (4, 16):
        node_scale = scale * (num_nodes / 4.0)
        sweep = static_sweep("terasort", THREAD_COUNTS, num_nodes=num_nodes,
                             workload_kwargs={"scale": node_scale},
                             parallel=parallel)
        bestfit_sizes = derive_bestfit(sweep, DEFAULT_THREADS)
        bestfit_run = run_workload(
            "terasort", policy=("bestfit", bestfit_sizes),
            num_nodes=num_nodes, workload_kwargs={"scale": node_scale})
        dynamic_run = run_workload(
            "terasort", policy="dynamic", num_nodes=num_nodes,
            workload_kwargs={"scale": node_scale})
        results[num_nodes] = {
            "default": sweep[DEFAULT_THREADS].runtime,
            "static_bestfit": bestfit_run.runtime,
            "dynamic": dynamic_run.runtime,
            "bestfit_sizes": bestfit_sizes,
        }
    return results


def fig12_throughput_timeseries(scale: float = 1.0,
                                parallel: int = 1) -> List[dict]:
    """Fig. 12: node-0 disk throughput over time per thread count,
    Terasort stages 0-1, HDD vs SSD.

    The ten (device, threads) runs are independent; ``parallel`` fans them
    out while preserving row order.
    """
    configs = [
        RunConfig(workload="terasort", policy=("fixed", threads),
                  key=(device, threads),
                  workload_kwargs={"scale": scale},
                  cluster_kwargs={"device": device})
        for device in ("hdd", "ssd")
        for threads in THREAD_COUNTS
    ]
    rows = []
    for run in map_runs(configs, parallel):
        device, threads = run.key
        for ordinal in (0, 1):
            stage = run.stages[ordinal]
            series = throughput_timeseries(
                run.ctx.recorder, stage.stage_id, node_id=0
            )
            values = [v for _t, v in series]
            rows.append(
                {
                    "device": device,
                    "threads": threads,
                    "stage": ordinal,
                    "series": series,
                    "mean_throughput": sum(values) / len(values),
                    "peak_throughput": max(values),
                }
            )
    return rows
