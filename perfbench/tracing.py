"""The traced run: spans around layer entry points plus bucketed self time.

Nothing here touches ``src/``: the benchmark wraps public entry points at
run time, and only in a traced run.

* **Self time.**  ``cProfile`` runs in the parent and, through a wrapper of
  the pool entry point ``execute_run_config``, in every forked sweep
  worker.  Self time is bucketed by ``repro.<package>.<module>``; builtins
  and the standard library land in ``python``, the benchmark's own files in
  ``bench``.  The parent's profiler is paused while it only waits on a
  worker pool, so no wall time is counted twice.
* **Spans.**  Wall time inside ``map_runs`` fan-outs, the service oracle
  (``compute_runtimes``), arrival generation (``ArrivalPlan.generate``) and
  ``ClusterScheduler.run``; worker busy time comes from the worker wrapper.
* **Counts.**  Every engine run (in the parent or a worker) reports its
  simulated events, stages, tasks, mid-stage pool resizes and disk bytes;
  ``_pick`` calls are counted as cluster dispatch decisions.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

def module_bucket(filename: str) -> str:
    """``repro.<package>.<module>`` for program code, else python/bench."""
    if filename != "~":  # "~" marks builtins
        filename = os.path.abspath(filename)
    if filename.startswith(BENCH_DIR):
        return "bench"
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0 or not filename.endswith(".py"):
        return "python"
    rel = filename[index + 1:-3].replace(os.sep, ".")
    return rel[:-len(".__init__")] if rel.endswith(".__init__") else rel


def bucket_stats(profile: cProfile.Profile) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _func), stat in pstats.Stats(profile).stats.items():
        totals[module_bucket(filename)] += stat[2]  # tt: self time
    return dict(totals)


#: Layer self-time metrics: metric name -> module-bucket prefixes.
LAYERS = {
    "simulation.core.self_s": ("repro.simulation.core",),
    "simulation.resources.self_s": ("repro.simulation.resources",),
    "simulation.kernel.self_s": ("repro.simulation.kernel",),
    "simulation.self_s": ("repro.simulation",),
    "storage.self_s": ("repro.storage",),
    "network.self_s": ("repro.network",),
    "engine.self_s": ("repro.engine",),
    "adaptive.self_s": ("repro.adaptive",),
    "monitoring.self_s": ("repro.monitoring",),
    "harness.self_s": ("repro.harness",),
    "workloads.self_s": ("repro.workloads",),
    "cluster.self_s": ("repro.cluster.scheduler", "repro.cluster.chaos"),
    "nodes.self_s": ("repro.cluster.cluster", "repro.cluster.node"),
    "faults.self_s": ("repro.faults", "repro.validation"),
    "observability.self_s": ("repro.observability",),
    "python.self_s": ("python",),
    "bench.self_s": ("bench",),
}


def _in_layer(bucket: str, prefixes) -> bool:
    return any(bucket == p or bucket.startswith(p + ".") for p in prefixes)


class PassTracer:
    """Instruments the program once; collects one traced pass at a time."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self.profile: cProfile.Profile = None  # type: ignore[assignment]
        self._reset()

    def _reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.paused_s = 0.0
        self.worker_busy_s = 0.0
        self.worker_capacity_s = 0.0
        self.engine_runs = 0
        self.picks = 0

    # -- instrumentation ------------------------------------------------------

    def install(self) -> None:
        import repro.harness.experiments as experiments
        import repro.harness.parallel as parallel
        import repro.harness.runner as runner
        import repro.harness.service as service
        from repro.cluster.scheduler import ClusterScheduler
        from repro.workloads.arrivals import ArrivalPlan

        tracer = self
        run_workload = runner.run_workload

        def traced_run_workload(*args: Any, **kwargs: Any):
            run = run_workload(*args, **kwargs)
            tracer.record_engine_run(run)
            return run

        runner.run_workload = traced_run_workload
        experiments.run_workload = traced_run_workload

        global _EXECUTE, _TRACER
        _EXECUTE, _TRACER = parallel.execute_run_config, self
        parallel.execute_run_config = traced_execute_run_config

        map_runs = parallel.map_runs

        def traced_map_runs(configs, parallel_workers: int = 1):
            configs = list(configs)
            if parallel_workers <= 1 or len(configs) <= 1:
                return map_runs(configs, parallel_workers)
            workers = min(parallel_workers, len(configs))
            tracer.profile.disable()
            start = time.perf_counter()
            try:
                summaries = map_runs(configs, parallel_workers)
            finally:
                wall = time.perf_counter() - start
                tracer.profile.enable()
            tracer.paused_s += wall
            tracer.spans["harness.fanout_s"] += wall
            tracer.worker_capacity_s += wall * workers
            for summary in summaries:
                tracer.merge_worker(summary.__dict__.pop("perfbench"))
            return summaries

        parallel.map_runs = traced_map_runs

        self._span(service, "compute_runtimes", "service.oracle_s")
        self._span(ArrivalPlan, "generate", "arrivals.generate_s")
        self._span(ClusterScheduler, "run", "cluster.run_s")
        pick = ClusterScheduler._pick

        def counted_pick(scheduler, queued, running):
            tracer.picks += 1
            return pick(scheduler, queued, running)

        ClusterScheduler._pick = counted_pick

    def _span(self, owner: Any, attr: str, name: str) -> None:
        inner = getattr(owner, attr)
        tracer = self

        def spanned(*args: Any, **kwargs: Any):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.spans[name] += time.perf_counter() - start

        setattr(owner, attr, spanned)

    def record_engine_run(self, run: Any) -> None:
        stages = run.stages
        self.engine_runs += 1
        self.counts["events"] += run.ctx.cluster.sim.events_scheduled
        self.counts["stages"] += len(stages)
        self.counts["tasks"] += sum(len(stage.tasks) for stage in stages)
        self.counts["pool_changes"] += sum(
            1 for stage in stages for event in stage.pool_events
            if event.reason != "stage-start")
        self.counts["io_bytes"] += run.cluster_io_bytes

    def merge_worker(self, payload: Dict[str, Any]) -> None:
        for bucket, seconds in payload["self_s"].items():
            self.self_s[bucket] += seconds
        self.worker_busy_s += payload["busy_s"]
        self.engine_runs += payload["engine_runs"]
        for name, value in payload["counts"].items():
            self.counts[name] += value

    # -- one traced pass --------------------------------------------------------

    def run_pass(self, body: Callable[[], Any]) -> tuple:
        """Run ``body`` profiled; return ``(its result, wall, layer metrics)``.

        Self time by module bucket stays on :attr:`self_s` until the next pass.
        """
        self._reset()
        self.profile = cProfile.Profile()
        start = time.perf_counter()
        self.profile.enable()
        try:
            result = body()
        finally:
            self.profile.disable()
            wall = time.perf_counter() - start
        for bucket, seconds in bucket_stats(self.profile).items():
            self.self_s[bucket] += seconds
        return result, wall, self.layer_metrics(wall)

    def layer_metrics(self, wall: float) -> Dict[str, float]:
        metrics = {
            name: sum(seconds for bucket, seconds in self.self_s.items()
                      if _in_layer(bucket, prefixes))
            for name, prefixes in LAYERS.items()
        }
        counts = self.counts
        events = counts["events"]
        metrics["simulation.events"] = events
        metrics["simulation.ns_per_event"] = (
            metrics["simulation.self_s"] / events * 1e9 if events else 0.0)
        metrics["storage.io_bytes"] = counts["io_bytes"]
        metrics["engine.stages"] = counts["stages"]
        metrics["engine.tasks"] = counts["tasks"]
        metrics["adaptive.pool_changes"] = counts["pool_changes"]
        metrics["harness.engine_runs"] = self.engine_runs
        for name in ("harness.fanout_s", "service.oracle_s",
                     "arrivals.generate_s", "cluster.run_s"):
            metrics[name] = self.spans[name]
        metrics["harness.worker_busy_frac"] = (
            self.worker_busy_s / self.worker_capacity_s
            if self.worker_capacity_s > 0 else 0.0)
        metrics["cluster.picks"] = self.picks
        self_total = sum(self.self_s.values())
        profiled_wall = wall - self.paused_s + self.worker_busy_s
        metrics["trace.self_total_s"] = self_total
        metrics["trace.coverage"] = self_total / profiled_wall
        return metrics


_EXECUTE: Callable[..., Any] = None  # type: ignore[assignment]
_TRACER: PassTracer = None  # type: ignore[assignment]


def traced_execute_run_config(config: Any) -> Any:
    """Pool entry point: profile a worker's run and ship its numbers back.

    In the parent (sequential ``map_runs``) the parent profiler already
    sees the run, so the call passes straight through.
    """
    tracer = _TRACER
    if os.getpid() == tracer.parent_pid:
        return _EXECUTE(config)
    tracer._reset()
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        summary = _EXECUTE(config)
    finally:
        profile.disable()
    busy = time.perf_counter() - start
    summary.perfbench = {
        "self_s": bucket_stats(profile),
        "busy_s": busy,
        "engine_runs": tracer.engine_runs,
        "counts": dict(tracer.counts),
    }
    return summary


def shares(self_s: Dict[str, float]) -> List[str]:
    """Human-readable self-time shares by layer, largest first."""
    total = sum(self_s.values()) or 1.0
    grouped: Dict[str, float] = defaultdict(float)
    for bucket, seconds in self_s.items():
        parts = bucket.split(".")
        grouped[".".join(parts[:2]) if parts[0] == "repro" else bucket] += seconds
    return [f"  {name:28s} {seconds:9.3f} s  {100 * seconds / total:5.1f}%"
            for name, seconds in sorted(grouped.items(), key=lambda kv: -kv[1])]
