"""Parallel execution of independent simulation runs.

A sweep or comparison replays dozens of fully independent deterministic
runs; on a multi-core host there is no reason to run them one after the
other.  This module fans runs out as forked children of the harness's one
process supervisor (:func:`repro.harness.fork.fork_map`) while keeping two
properties the harness relies on:

* **Determinism.**  Each run is seeded and self-contained, and results are
  returned in the order their configs were submitted, so a parallel sweep
  produces byte-for-byte the same report as a sequential one.
* **Picklability.**  A :class:`RunConfig` is plain data (names, numbers,
  dicts) and a :class:`RunSummary` carries the full
  :class:`~repro.engine.metrics.RunRecorder` -- everything the figure
  pipeline reads -- but not the live simulator, whose generator-based
  processes cannot cross a process boundary.

``parallel <= 1`` runs everything in-process (no child, no pickling),
which is also the fallback where ``os.fork`` is unavailable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.metrics import RunRecorder, StageRecord


def resolve_parallel(parallel: Optional[int]) -> int:
    """Normalise a ``--parallel`` value: ``0``/``None`` means all cores.

    Called once, at the CLI edge; below it ``parallel <= 1`` means one run
    at a time everywhere.
    """
    if not parallel:
        return os.cpu_count() or 1
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel


@dataclass(frozen=True)
class RunConfig:
    """One independent run, described entirely by picklable data.

    ``key`` is an opaque caller label (e.g. the sweep's thread count) echoed
    back on the matching :class:`RunSummary`.  ``policy`` uses the harness
    spec vocabulary (string or ``(kind, arg)`` tuple); callable specs cannot
    cross a process boundary and are rejected up front.
    """

    workload: str
    policy: Any = "default"
    key: Any = None
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    conf_overrides: Dict[str, Any] = field(default_factory=dict)
    cluster_kwargs: Dict[str, Any] = field(default_factory=dict)
    fault_plan_doc: Optional[Dict[str, Any]] = None
    events_path: Optional[str] = None
    trace_path: Optional[str] = None
    profile_path: Optional[str] = None
    profile_interval: float = 1.0

    def __post_init__(self) -> None:
        if callable(self.policy):
            raise ValueError(
                "callable policy specs cannot be executed in a worker "
                "process; use a string or (kind, arg) spec"
            )


@dataclass
class RunSummary:
    """The picklable slice of a :class:`~repro.workloads.WorkloadRun`.

    Duck-types the attributes the report/figure pipeline reads (``runtime``,
    ``stages``, ``stage_durations`` ...) so :func:`~repro.harness.runner.
    derive_bestfit` and the CLI renderers accept either type.  ``ctx`` is a
    minimal view exposing ``recorder`` for the monitoring analyses.
    """

    workload: str
    key: Any
    runtime: float
    recorder: RunRecorder
    cluster_io_bytes: float = 0.0
    #: The run's demand-profile document (``repro.profile/1``), present
    #: when the config requested profiling (``profile_path``).
    demand_profile: Optional[Dict[str, Any]] = None

    @property
    def stages(self) -> List[StageRecord]:
        return self.recorder.stages

    @property
    def num_stages(self) -> int:
        return len(self.recorder.stages)

    def stage_durations(self) -> List[float]:
        return [stage.duration for stage in self.recorder.stages]

    @property
    def ctx(self) -> "_RecorderView":
        return _RecorderView(self.recorder)


@dataclass(frozen=True)
class _RecorderView:
    """Stand-in for the bits of SparkContext that survive pickling."""

    recorder: RunRecorder


def build_run_tracer(config: RunConfig):
    """``(tracer, profiler)`` for one config's requested outputs (or Nones).

    Shared by :func:`execute_run_config` below and the fork engine's
    shared-prefix children (:mod:`repro.harness.fork`), so a forked run
    writes exactly the files a from-scratch run with the same config
    would.
    """
    from repro.observability.chrome import ChromeTraceSink
    from repro.observability.profiler import ProfilerSink
    from repro.observability.sinks import JsonLinesSink
    from repro.observability.tracer import Tracer

    sinks = []
    if config.events_path:
        sinks.append(JsonLinesSink(config.events_path))
    if config.trace_path:
        sinks.append(ChromeTraceSink(config.trace_path))
    profiler = None
    if config.profile_path:
        profiler = ProfilerSink(interval=config.profile_interval,
                                out=config.profile_path)
        sinks.append(profiler)
    return (Tracer(sinks=sinks) if sinks else None), profiler


def summarize_run(run, key: Any, profiler=None) -> RunSummary:
    """The picklable summary of a finished run (in-process or forked)."""
    return RunSummary(
        workload=run.workload,
        key=key,
        runtime=run.runtime,
        recorder=run.ctx.recorder,
        cluster_io_bytes=run.cluster_io_bytes,
        demand_profile=(
            profiler.demand_profile() if profiler is not None else None
        ),
    )


def execute_run_config(config: RunConfig) -> RunSummary:
    """Run one config to completion; each sweep child's body.

    Imports stay inside the function so a run only pays for what it
    actually uses (and so this module stays import-light).
    """
    from repro.faults.plan import FaultPlan
    from repro.harness.runner import finish_trace, run_workload

    tracer, profiler = build_run_tracer(config)

    fault_plan = None
    if config.fault_plan_doc is not None:
        fault_plan = FaultPlan.from_dict(config.fault_plan_doc)

    run = run_workload(
        config.workload,
        policy=config.policy,
        conf_overrides=dict(config.conf_overrides) or None,
        workload_kwargs=dict(config.workload_kwargs) or None,
        tracer=tracer,
        fault_plan=fault_plan,
        **dict(config.cluster_kwargs),
    )
    if tracer is not None:
        finish_trace(run)
    return summarize_run(run, config.key, profiler)


def map_runs(configs: List[RunConfig], parallel: int = 1) -> List[RunSummary]:
    """Execute every config; results come back in submission order.

    With ``parallel > 1`` each config runs in a forked child of
    :func:`~repro.harness.fork.fork_map`, at most ``parallel`` at a time;
    with ``parallel <= 1`` or a single config they run in-process,
    bit-identically, because each run owns a private simulator either way.
    A run that fails is not retried: it raises
    :class:`QuarantinedConfigError`, inline or forked alike.
    """
    from repro.harness.fork import fork_map

    configs = list(configs)
    return fork_map(execute_run_config, configs,
                    parallel=min(parallel, len(configs)), max_attempts=1,
                    inline=True)


# -- crash-safe execution ---------------------------------------------------------


def summary_to_doc(summary: RunSummary) -> Dict[str, Any]:
    """Serialise a summary for the sweep journal (JSON-safe keys only)."""
    doc = {
        "workload": summary.workload,
        "key": summary.key,
        "runtime": summary.runtime,
        "cluster_io_bytes": summary.cluster_io_bytes,
        "recorder": summary.recorder.to_dict(),
    }
    if summary.demand_profile is not None:
        doc["demand_profile"] = summary.demand_profile
    return doc


def summary_from_doc(doc: Dict[str, Any]) -> RunSummary:
    """Rebuild a journaled summary; floats round-trip exactly through JSON,
    so aggregates over resumed points match an uninterrupted run bit for
    bit."""
    return RunSummary(
        workload=doc["workload"],
        key=doc["key"],
        runtime=doc["runtime"],
        recorder=RunRecorder.from_dict(doc["recorder"]),
        cluster_io_bytes=doc.get("cluster_io_bytes", 0.0),
        demand_profile=doc.get("demand_profile"),
    )


class SweepInterrupted(RuntimeError):
    """The sweep stopped early (``stop_after``); progress is journaled."""

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"stopped after {completed} new run(s) of {total} point(s); "
            f"progress is journaled -- rerun with --resume to finish"
        )
        self.completed = completed
        self.total = total


class QuarantinedConfigError(RuntimeError):
    """A config exhausted its retry budget (or was already quarantined)."""

    def __init__(self, config: RunConfig, attempts: int, reason: str) -> None:
        super().__init__(
            f"config key={config.key!r} quarantined after {attempts} "
            f"failed attempt(s): {reason}"
        )
        self.config = config
        self.attempts = attempts
        self.reason = reason


def map_runs_durable(
    configs: List[RunConfig],
    parallel: int = 1,
    journal=None,
    resume: bool = False,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    stop_after: Optional[int] = None,
    allow_quarantine: bool = False,
) -> List[Optional[RunSummary]]:
    """:func:`map_runs` with a crash-safe journal around every point.

    * Each run is journaled atomically as it finishes, so a killed sweep
      loses at most the points in flight.
    * With ``resume=True``, configs whose fingerprint is already journaled
      are **not** re-run; their summaries are rebuilt from the journal and
      the aggregate output is byte-identical to an uninterrupted run.
    * ``timeout`` arms a per-run watchdog: a child that exceeds it is
      killed and counted as a failure.
    * Failures (exception, crash or timeout) are retried with bounded
      exponential backoff (``backoff * 2**(failures-1)`` seconds, up to
      ``max_attempts`` attempts); a config that keeps failing is
      quarantined in the journal and raises :class:`QuarantinedConfigError`
      unless ``allow_quarantine`` is set, in which case its slot in the
      result list is ``None``.
    * ``stop_after`` ends the sweep after that many *new* completions by
      raising :class:`SweepInterrupted` (the CI resume smoke test's hook
      for "kill the sweep mid-flight"); points still running are killed.

    Results come back in config order.  Execution is one
    :func:`~repro.harness.fork.fork_map` call: points run in-process when
    ``parallel <= 1`` and no ``timeout`` is set (the watchdog needs a
    child to kill), and in forked children otherwise.
    """
    from repro.harness.fork import fork_map
    from repro.harness.journal import config_fingerprint

    configs = list(configs)
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be >= 1, got {stop_after}")
    fingerprints = [config_fingerprint(config) for config in configs]
    results: List[Optional[RunSummary]] = [None] * len(configs)
    pending: List[int] = []
    for index, fingerprint in enumerate(fingerprints):
        # Explicit None checks: the journal's __len__ counts successful
        # runs, so an empty-but-present journal is falsy.
        journaled = (journal.get_run(fingerprint)
                     if journal is not None else None)
        if resume and journaled is not None:
            results[index] = summary_from_doc(journaled)
            continue
        quarantined = (journal.get_quarantine(fingerprint)
                       if journal is not None else None)
        if resume and quarantined is not None:
            if not allow_quarantine:
                raise QuarantinedConfigError(
                    configs[index], quarantined.get("attempts", 0),
                    quarantined.get("reason", "quarantined"),
                )
            continue
        pending.append(index)

    completed_new = 0

    def _settled(slot: int, summary: Optional[RunSummary], error) -> None:
        nonlocal completed_new
        index = pending[slot]
        if error is not None:
            if journal is not None:
                journal.record_quarantine(fingerprints[index], error.attempts,
                                          error.reason)
            return
        results[index] = summary
        if journal is not None:
            journal.record_run(fingerprints[index], summary_to_doc(summary))
        completed_new += 1
        if stop_after is not None and completed_new >= stop_after:
            raise SweepInterrupted(completed_new, len(configs))

    fork_map(
        execute_run_config, [configs[index] for index in pending],
        parallel=parallel, timeout=timeout, max_attempts=max_attempts,
        backoff=backoff, allow_quarantine=allow_quarantine, inline=True,
        on_settled=_settled,
    )
    return results
