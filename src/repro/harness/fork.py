"""Copy-on-write snapshot/fork execution engine.

Sweeps and fault experiments re-simulate identical warm-up prefixes dozens
of times: a Fig. 2 sweep rebuilds the same cluster, dataset and DAG once
per point, and every fault-plan ablation replays the fault-free prefix
before the first injection.  This module runs the shared prefix **once**
and then continues each experiment point in an OS-level copy-on-write
child (``os.fork()``), which sidesteps the impossibility of pickling the
kernel's generator-based :class:`~repro.simulation.core.Process` objects:
the child inherits the entire live simulator -- heap, event queue,
suspended generators -- for the cost of a page-table copy.

Three layers:

* **Fork server** (:func:`fork_map`): the harness's one process
  supervisor.  It forks one child per item, streams a picklable result
  back over a pipe (length-prefixed pickle), and babysits children: a
  child that crashes or exceeds ``timeout`` is retried with exponential
  backoff and quarantined after ``max_attempts``.
  :func:`~repro.harness.parallel.map_runs` and the durable runner
  (:func:`~repro.harness.parallel.map_runs_durable`) are thin callers
  that may also run items in-process when a child buys nothing.
* **Sweep divergences** (:func:`fork_map_runs`): a family of
  :class:`~repro.harness.parallel.RunConfig` points sharing one setup
  prefix (cluster + context + dataset/DAG preparation) and diverging in
  policy and/or fault plan.  Each child attaches its own tracer at the
  barrier; the resulting event log is **byte-identical** to a from-scratch
  run of the same configuration (golden-log tests enforce this).
* **What-if planning** (:func:`run_whatif`): run one workload to a chosen
  simulated time ``t=T`` once, then fork N children that each apply a
  different :class:`Alternative` (pool size, policy, conf override, fault
  plan, RNG reseed) and race the futures.

Where ``os.fork`` is unavailable (:func:`fork_available` is False) every
caller falls back to sequential in-process runs (re-simulation for the
shared-prefix paths) with identical results; only a ``timeout``, which
needs a child to kill, raises :class:`ForkUnavailableError`.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.harness.parallel import (
    QuarantinedConfigError,
    RunConfig,
    RunSummary,
    build_run_tracer,
    execute_run_config,
    summarize_run,
)

#: Sentinel a ``child_fn`` returns to say "my result is not ready yet --
#: I will keep executing after :func:`fork_map` returns and report through
#: :func:`child_finish`".  This is how the what-if barrier resumes the
#: suspended simulation inside the child.
CONTINUE = object()

#: Marker :func:`fork_map` returns *in a forked child* whose ``child_fn``
#: returned :data:`CONTINUE`; callers using that protocol must detect it
#: and simply keep going (they are the child now).
CHILD_CONTINUES = object()

_HEADER = struct.Struct(">cI")  # status byte + payload length
_CHUNK = 1 << 16


class ForkUnavailableError(RuntimeError):
    """``os.fork`` does not exist on this platform."""


class ForkBarrierNotReached(RuntimeError):
    """The what-if barrier time lies beyond the end of the run."""


@dataclass
class _ChildTicket:
    """Per-process marker: set only in a forked child, holds its pipe."""

    fd: int
    key: Any


#: Non-None exactly while this process is a forked child of the engine.
_ACTIVE_CHILD: Optional[_ChildTicket] = None


def fork_available() -> bool:
    """True when OS-level copy-on-write forking is usable here."""
    return hasattr(os, "fork") and sys.platform not in ("win32", "emscripten")


def in_forked_child() -> bool:
    """True inside a child spawned by :func:`fork_map`."""
    return _ACTIVE_CHILD is not None


def current_child_key() -> Any:
    """The divergence key this forked child is executing."""
    if _ACTIVE_CHILD is None:
        raise RuntimeError("not inside a forked child")
    return _ACTIVE_CHILD.key


# -- pipe protocol -----------------------------------------------------------


def _send(fd: int, status: bytes, payload: Any) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, _HEADER.pack(status, len(blob)))
    view = memoryview(blob)
    while view:
        written = os.write(fd, view[:_CHUNK])
        view = view[written:]


def _parse(buf: bytes):
    """``(ok, payload)`` from a child's complete pipe output, or None."""
    if len(buf) < _HEADER.size:
        return None
    status, length = _HEADER.unpack_from(buf)
    if len(buf) < _HEADER.size + length:
        return None
    payload = pickle.loads(buf[_HEADER.size:_HEADER.size + length])
    return status == b"R", payload


def child_finish(result: Any) -> "NoReturn":  # noqa: F821 - py3.11 typing
    """Report this forked child's result and exit the process.

    Used by the :data:`CONTINUE` protocol: the child resumed a suspended
    simulation after :func:`fork_map` returned, and calls this once the
    run completes.  Never returns.
    """
    if _ACTIVE_CHILD is None:
        raise RuntimeError("child_finish() outside a forked child")
    try:
        _send(_ACTIVE_CHILD.fd, b"R", result)
    except BaseException:  # noqa: BLE001 - the child must never unwind out
        os._exit(1)
    os._exit(0)


def child_abort(exc: BaseException) -> "NoReturn":  # noqa: F821
    """Report a failure from a :data:`CONTINUE`-mode child and exit."""
    if _ACTIVE_CHILD is None:
        raise RuntimeError("child_abort() outside a forked child")
    try:
        _send(_ACTIVE_CHILD.fd, b"E", _describe(exc))
    except BaseException:  # noqa: BLE001
        pass
    os._exit(1)


def _describe(exc: BaseException) -> str:
    """A failure's quarantine reason, the same in a child and inline."""
    return f"{type(exc).__name__}: {exc}"


# -- fork server -------------------------------------------------------------


@dataclass
class _Pending:
    """One item's position in the retry state machine."""

    index: int
    item: Any
    failures: int = 0
    ready_at: float = 0.0  # monotonic time the next attempt may start


@dataclass
class _Child:
    """One live forked child from the parent's point of view."""

    pid: int
    fd: int
    pending: _Pending
    deadline: Optional[float]
    buf: bytearray = field(default_factory=bytearray)


def _spawn(child_fn: Callable[[Any], Any], item: Any, key: Any):
    """Fork one child.  Parent: ``(pid, read_fd)``.  Child that got
    :data:`CONTINUE` back from ``child_fn``: ``None`` (caller continues
    executing *as the child*); any other child never returns."""
    global _ACTIVE_CHILD
    # Flush inherited stdio buffers so the child cannot replay pending
    # parent output on exit.
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # -- child ------------------------------------------------
        os.close(read_fd)
        _ACTIVE_CHILD = _ChildTicket(write_fd, key)
        try:
            result = child_fn(item)
        except BaseException as exc:  # noqa: BLE001 - report, never unwind
            child_abort(exc)
        if result is CONTINUE:
            return None
        child_finish(result)
    # -- parent --------------------------------------------------------------
    os.close(write_fd)
    os.set_blocking(read_fd, False)
    return pid, read_fd


def fork_map(
    child_fn: Callable[[Any], Any],
    items: Sequence[Any],
    parallel: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    allow_quarantine: bool = False,
    inline: bool = False,
    on_settled: Optional[Callable[[int, Any, Any], None]] = None,
):
    """Run ``child_fn(item)`` in one copy-on-write child per item.

    The harness's one process supervisor: sweeps (:func:`~repro.harness.
    parallel.map_runs`), the durable runner, fork sweeps and what-if
    fan-outs all run on this loop.  Results come back in item order.
    Each ``item`` should carry a ``key`` attribute for error reporting
    (``RunConfig`` and :class:`Alternative` both do).  At most ``parallel``
    children run at once (``<= 1`` means one at a time).  A child that
    crashes, dies, or outlives ``timeout`` wall-clock seconds is killed and
    retried with bounded exponential backoff; after ``max_attempts``
    failures the item is quarantined --
    :class:`~repro.harness.parallel.QuarantinedConfigError` unless
    ``allow_quarantine``, in which case its slot is ``None``.

    ``inline=True`` runs the items in this process instead when a child
    buys nothing: one at a time without a ``timeout``, or wherever
    ``os.fork`` is unavailable (a ``timeout`` then raises
    :class:`ForkUnavailableError`: only a child can be killed).  An
    exception from ``child_fn`` takes the same retry path, with the same
    reason text, as a failed child.

    ``on_settled(index, result, error)`` runs in this process as each item
    settles; ``error`` is ``None`` on success, else the quarantine error.
    An exception it raises propagates once every running child is killed
    and reaped.

    In a child whose ``child_fn`` returned :data:`CONTINUE`, this returns
    :data:`CHILD_CONTINUES` instead of a result list -- the caller is now
    the child and must finish via :func:`child_finish`.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    forkable = fork_available()
    if not forkable and (timeout is not None or not inline):
        raise ForkUnavailableError("os.fork is unavailable on this platform")
    in_process = inline and timeout is None and (parallel <= 1 or not forkable)
    if not in_process and in_forked_child():
        raise RuntimeError("nested fork_map inside a forked child")
    results: List[Optional[Any]] = [None] * len(items)
    waiting = [_Pending(index, item) for index, item in enumerate(items)]
    running: Dict[int, _Child] = {}
    sel = selectors.DefaultSelector()

    def _succeeded(pending: _Pending, result: Any) -> None:
        results[pending.index] = result
        if on_settled is not None:
            on_settled(pending.index, result, None)

    def _failed(pending: _Pending, reason: str,
                cause: Optional[BaseException] = None) -> None:
        pending.failures += 1
        if pending.failures < max_attempts:
            delay = min(backoff * (2.0 ** (pending.failures - 1)), 30.0)
            pending.ready_at = time.monotonic() + delay
            waiting.append(pending)
            return
        error = QuarantinedConfigError(pending.item, pending.failures, reason)
        if on_settled is not None:
            on_settled(pending.index, None, error)
        if not allow_quarantine:
            raise error from cause

    def _reap(child: _Child) -> int:
        del running[child.pid]
        sel.unregister(child.fd)
        os.close(child.fd)
        _pid, status = os.waitpid(child.pid, 0)
        return os.waitstatus_to_exitcode(status)

    def _kill(child: _Child) -> None:
        try:
            os.kill(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(child)

    try:
        while waiting or running:
            now = time.monotonic()
            for _ in range(len(waiting)):
                if len(running) >= max(1, parallel):
                    break
                pending = waiting.pop(0)
                if pending.ready_at > now:
                    waiting.append(pending)  # still backing off; rotate
                    continue
                if in_process:
                    try:
                        result = child_fn(pending.item)
                    except Exception as exc:  # noqa: BLE001 - retried
                        _failed(pending, _describe(exc), exc)
                    else:
                        _succeeded(pending, result)
                    continue
                spawned = _spawn(child_fn, pending.item,
                                 getattr(pending.item, "key", pending.index))
                if spawned is None:
                    # We are a forked child on the CONTINUE protocol: the
                    # siblings in ``running`` are the parent's to kill and
                    # reap, so forget them and resume the simulation.
                    running.clear()
                    return CHILD_CONTINUES
                pid, fd = spawned
                child = _Child(
                    pid=pid, fd=fd, pending=pending,
                    deadline=(now + timeout) if timeout is not None else None,
                )
                sel.register(fd, selectors.EVENT_READ, child)
                running[pid] = child
            if not running:
                if waiting:
                    # Everything left is backing off; sleep to the nearest
                    # ready time instead of spinning.
                    delay = min(p.ready_at for p in waiting) - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.5))
                continue
            for key_event, _mask in sel.select(timeout=0.05):
                child = key_event.data
                while True:
                    try:
                        data = os.read(child.fd, _CHUNK)
                    except BlockingIOError:
                        break
                    if data:
                        child.buf.extend(data)
                        continue
                    # EOF: the child exited (or crashed); settle it.
                    exitcode = _reap(child)
                    parsed = _parse(bytes(child.buf))
                    if parsed is None:
                        _failed(
                            child.pending,
                            f"child died with exit code {exitcode} before "
                            f"reporting a result",
                        )
                    elif parsed[0]:
                        _succeeded(child.pending, parsed[1])
                    else:
                        _failed(child.pending, str(parsed[1]))
                    break
            if timeout is not None:
                now = time.monotonic()
                for child in list(running.values()):
                    if now >= child.deadline:
                        _kill(child)
                        _failed(child.pending,
                                f"timed out after {timeout:.1f}s")
    finally:
        for child in list(running.values()):
            _kill(child)
        sel.close()
    return results


# -- sweep divergences -------------------------------------------------------

#: RunConfig fields every point of one forked family must share: they
#: describe the prefix (built once, pre-fork); the rest (policy, fault
#: plan, output paths) are divergences applied in the children.
_SHARED_PREFIX_FIELDS = (
    "workload", "workload_kwargs", "conf_overrides", "cluster_kwargs",
)


def _execute_divergence(workload, ctx, config: RunConfig) -> RunSummary:
    """Child body for one sweep point: diverge, run, summarise."""
    from repro.faults.plan import FaultPlan
    from repro.harness.runner import finish_trace, make_policy_factory
    from repro.workloads.base import WorkloadRun

    ctx.sim.after_fork(str(config.key))
    ctx.set_policy_factory(make_policy_factory(config.policy))
    if config.fault_plan_doc is not None:
        ctx.install_fault_plan(FaultPlan.from_dict(config.fault_plan_doc))
    tracer, profiler = build_run_tracer(config)
    if tracer is not None:
        ctx.attach_tracer(tracer)
    result = workload.execute(ctx)
    run = WorkloadRun(workload=workload.name, ctx=ctx, result=result)
    if tracer is not None:
        finish_trace(run)
    return summarize_run(run, config.key, profiler)


def fork_map_runs(
    configs: Sequence[RunConfig],
    parallel: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    allow_quarantine: bool = False,
) -> List[Optional[RunSummary]]:
    """:func:`~repro.harness.parallel.map_runs` over one shared prefix.

    All configs must describe the same prefix (workload, inputs, conf,
    cluster) and may diverge in policy, fault plan, and output paths.  The
    prefix -- cluster build, context wiring, dataset/DAG preparation --
    runs once in the parent; each point then continues in a copy-on-write
    child.  Event logs written by children are byte-identical to
    from-scratch runs of the same configuration.

    Falls back to sequential re-simulation (identical results, no
    copy-on-write) where :func:`fork_available` is False, under the same
    supervisor contract as :func:`~repro.harness.parallel.map_runs`: a
    ``timeout`` raises :class:`ForkUnavailableError`, and a failing point
    is retried, then quarantined.
    """
    configs = list(configs)
    if not configs:
        return []
    if not fork_available():
        return fork_map(execute_run_config, configs, timeout=timeout,
                        max_attempts=max_attempts, backoff=backoff,
                        allow_quarantine=allow_quarantine, inline=True)
    ref = configs[0]
    for config in configs[1:]:
        for field_name in _SHARED_PREFIX_FIELDS:
            if getattr(config, field_name) != getattr(ref, field_name):
                raise ValueError(
                    f"fork sweep points must share the run prefix, but "
                    f"{field_name!r} differs between key={ref.key!r} and "
                    f"key={config.key!r}; use map_runs for heterogeneous "
                    f"configs"
                )
    from repro.harness.runner import build_context
    from repro.workloads import get_workload

    workload = get_workload(ref.workload, **dict(ref.workload_kwargs))
    ctx = build_context(
        policy="default",
        conf_overrides=dict(ref.conf_overrides) or None,
        **dict(ref.cluster_kwargs),
    )
    workload.prepare(ctx)
    results = fork_map(
        lambda config: _execute_divergence(workload, ctx, config),
        configs,
        parallel=parallel,
        timeout=timeout,
        max_attempts=max_attempts,
        backoff=backoff,
        allow_quarantine=allow_quarantine,
    )
    assert results is not CHILD_CONTINUES  # sweep children never CONTINUE
    return results


# -- what-if planning --------------------------------------------------------


class AlternativeError(ValueError):
    """A what-if alternative spec could not be parsed or applied."""


@dataclass(frozen=True)
class Alternative:
    """One divergent future to try from the fork point.

    ``kind`` is one of:

    * ``"continue"`` -- no change: the baseline future.
    * ``"policy"``   -- swap every executor's policy (harness spec
      vocabulary, e.g. ``"dynamic"`` or ``("fixed", 8)``); takes effect
      from the next decision point (stage start / task completion).
    * ``"pool"``     -- force every live executor's pool to ``value``
      threads *now* and pin it there (fixed policy onward).
    * ``"conf"``     -- ``{key: value}`` conf overrides; only keys read
      after the fork point have any effect.
    * ``"faults"``   -- install a fault plan (dict or
      :class:`~repro.faults.plan.FaultPlan`); fault times must lie at or
      after the fork point.
    * ``"reseed"``   -- decorrelate this child's random streams from the
      shared prefix (:meth:`RandomStreams.reseed_for_fork`).
    """

    key: str
    kind: str
    value: Any = None

    def apply(self, ctx) -> None:
        from repro.harness.runner import make_policy_factory

        if self.kind == "continue":
            return
        if self.kind == "policy":
            ctx.set_policy_factory(make_policy_factory(self.value))
            return
        if self.kind == "pool":
            from repro.engine.task import PoolResized

            size = int(self.value)
            ctx.set_policy_factory(make_policy_factory(("fixed", size)))
            for executor in ctx.executors:
                if not executor.alive:
                    continue
                executor._apply_pool_size(size, reason="whatif")
                ctx.scheduler.channel.send(
                    ctx.scheduler.handle_message,
                    PoolResized(executor.executor_id, executor.pool_size),
                )
            return
        if self.kind == "conf":
            for conf_key, conf_value in dict(self.value).items():
                ctx.conf.set(conf_key, conf_value)
            return
        if self.kind == "faults":
            from repro.faults.plan import FaultPlan

            plan = self.value
            if isinstance(plan, dict):
                plan = FaultPlan.from_dict(plan)
            ctx.install_fault_plan(plan)
            return
        if self.kind == "reseed":
            ctx.streams.reseed_for_fork(str(self.value or self.key))
            return
        raise AlternativeError(f"unknown alternative kind: {self.kind!r}")


def parse_alternative(spec: str) -> Alternative:
    """Parse a CLI alternative spec.

    Grammar (one divergence per spec)::

        continue                    the unchanged baseline
        policy=dynamic|default      swap the executor policy
        policy=fixed:N|static:N     ... to a sized policy
        pool=N                      force & pin every pool to N threads
        conf:KEY=VALUE              set one conf key
        faults=PLAN.json            install a fault plan file
        reseed[=KEY]                decorrelate random streams
    """
    text = spec.strip()
    if text == "continue":
        return Alternative(key=text, kind="continue")
    if text == "reseed" or text.startswith("reseed="):
        _, _, seed_key = text.partition("=")
        return Alternative(key=text, kind="reseed", value=seed_key or None)
    if text.startswith("conf:"):
        body = text[len("conf:"):]
        conf_key, sep, conf_value = body.partition("=")
        if not sep or not conf_key:
            raise AlternativeError(
                f"conf alternative must look like conf:KEY=VALUE, got {spec!r}"
            )
        return Alternative(key=text, kind="conf",
                           value={conf_key: conf_value})
    name, sep, value = text.partition("=")
    if not sep:
        raise AlternativeError(f"cannot parse alternative spec: {spec!r}")
    if name == "pool":
        try:
            size = int(value)
        except ValueError:
            raise AlternativeError(
                f"pool alternative needs an integer, got {spec!r}"
            ) from None
        return Alternative(key=text, kind="pool", value=size)
    if name == "policy":
        kind_name, sep2, threads = value.partition(":")
        if sep2:
            try:
                policy = (kind_name, int(threads))
            except ValueError:
                raise AlternativeError(
                    f"policy size must be an integer, got {spec!r}"
                ) from None
        else:
            policy = kind_name
        return Alternative(key=text, kind="policy", value=policy)
    if name == "faults":
        from repro.faults.plan import FaultPlan

        return Alternative(key=text, kind="faults",
                           value=FaultPlan.load(value).to_dict())
    raise AlternativeError(f"cannot parse alternative spec: {spec!r}")


@dataclass
class WhatIfReport:
    """The outcome of one what-if fan-out."""

    workload: str
    at: float
    forked: bool
    alternatives: List[Alternative]
    summaries: List[Optional[RunSummary]]

    @property
    def baseline(self) -> Optional[RunSummary]:
        for alternative, summary in zip(self.alternatives, self.summaries):
            if alternative.kind == "continue":
                return summary
        return None

    def to_dict(self) -> Dict[str, Any]:
        baseline = self.baseline
        rows = []
        for alternative, summary in zip(self.alternatives, self.summaries):
            row: Dict[str, Any] = {
                "key": alternative.key,
                "kind": alternative.kind,
            }
            if summary is None:
                row["quarantined"] = True
            else:
                row["runtime"] = summary.runtime
                row["stage_durations"] = summary.stage_durations()
                if baseline is not None and baseline.runtime > 0:
                    row["vs_continue"] = (
                        1.0 - summary.runtime / baseline.runtime
                    )
            rows.append(row)
        return {
            "schema": "repro.whatif/1",
            "workload": self.workload,
            "at": self.at,
            "forked": self.forked,
            "alternatives": rows,
        }


class _ParentForkDone(Exception):
    """Unwinds the parent's suspended run once every child is collected."""

    def __init__(self, results: List[Optional[RunSummary]]) -> None:
        super().__init__("fork fan-out complete")
        self.results = results


def run_whatif(
    workload: Union[str, Any],
    at: float,
    alternatives: Sequence[Alternative],
    policy: Any = "default",
    conf_overrides: Optional[Dict[str, Any]] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    fault_plan=None,
    parallel: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    allow_quarantine: bool = False,
    use_fork: Optional[bool] = None,
    **cluster_kwargs: Any,
) -> WhatIfReport:
    """Fork one run at ``t=at`` and try each alternative future.

    The warm-up prefix -- setup plus the simulation up to ``at`` under the
    base ``policy`` -- runs once; each alternative then continues in a
    copy-on-write child.  ``use_fork=None`` picks forking when the
    platform supports it and otherwise falls back to sequential
    re-simulation (one full run per alternative, applying the divergence
    at the same barrier) with identical results.
    """
    from repro.harness.runner import build_context
    from repro.workloads import Workload, get_workload

    if at < 0:
        raise ValueError(f"fork time must be >= 0, got {at}")
    alternatives = list(alternatives)
    if not alternatives:
        raise ValueError("run_whatif needs at least one alternative")
    if isinstance(workload, str):
        workload = get_workload(workload, **(workload_kwargs or {}))
    elif workload_kwargs:
        raise ValueError("workload_kwargs only apply when passing a name")
    assert isinstance(workload, Workload)
    if use_fork is None:
        use_fork = fork_available()
    if use_fork and not fork_available():
        raise ForkUnavailableError("os.fork is unavailable on this platform")

    def _context():
        return build_context(
            policy=policy,
            conf_overrides=conf_overrides,
            fault_plan=fault_plan,
            **cluster_kwargs,
        )

    if not use_fork:
        summaries: List[Optional[RunSummary]] = []
        for alternative in alternatives:
            ctx = _context()
            ctx.fork_hook_at = at

            def hook(c, alternative=alternative):
                c.sim.after_fork(str(alternative.key))
                alternative.apply(c)

            ctx.fork_hook = hook
            run = workload.run(ctx)
            if ctx.fork_hook is not None:
                raise ForkBarrierNotReached(
                    f"fork time t={at} lies beyond the end of the run "
                    f"(runtime {run.runtime:.1f}s)"
                )
            summaries.append(summarize_run(run, alternative.key))
        return WhatIfReport(workload=workload.name, at=at, forked=False,
                           alternatives=alternatives, summaries=summaries)

    def _diverge(alternative: Alternative):
        # Executed in the child, on the parent's suspended stack: apply
        # the divergence and resume the simulation by returning.
        ctx = _live_ctx[0]
        ctx.sim.after_fork(str(alternative.key))
        alternative.apply(ctx)
        return CONTINUE

    def hook(ctx):
        _live_ctx[0] = ctx
        outcome = fork_map(
            _diverge,
            alternatives,
            parallel=parallel,
            timeout=timeout,
            max_attempts=max_attempts,
            allow_quarantine=allow_quarantine,
        )
        if outcome is CHILD_CONTINUES:
            return  # we are a child now; resume the simulation
        raise _ParentForkDone(outcome)

    _live_ctx: List[Any] = [None]
    ctx = _context()
    ctx.fork_hook_at = at
    ctx.fork_hook = hook
    try:
        run = workload.run(ctx)
    except _ParentForkDone as done:
        return WhatIfReport(workload=workload.name, at=at, forked=True,
                            alternatives=alternatives,
                            summaries=done.results)
    except BaseException as exc:  # noqa: BLE001 - a child must not unwind
        if in_forked_child():
            child_abort(exc)
        raise
    if in_forked_child():
        # A child's continued simulation ran to completion: report the
        # summary over the pipe and exit; the parent assembles the report.
        child_finish(summarize_run(run, current_child_key()))
    raise ForkBarrierNotReached(
        f"fork time t={at} lies beyond the end of the run "
        f"(runtime {run.runtime:.1f}s)"
    )
