"""Repository benchmark: the Fig. 8 reproduction and the multi-tenant service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_fig8 --seed 1 --seconds 42 --trace 0

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  The benchmark is one closed-loop caller: each
operation starts when the previous one has finished.  It repeats passes of
the workload's two operations for ``--seconds`` (at least three passes),
checks every output outside the timed region, and prints a JSON result as
its last line of standard output.  Operations and set-up are measured in CPU
seconds normalised by a reference kernel timed around each of them (CPU and
wall time are printed beside them): on a shared host wall time mostly
measures the other tenants.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced reference pass and then traced
passes, and reports the per-layer metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: The seed claims are developed on; they are re-checked on held-out seed 7919.
DEFAULT_SEED = 1

MIN_PASSES = 3
#: Cap on how often one pass repeats a short operation.
MAX_REPEATS = 8
MIN_TRACED_PASSES = 2
#: No pass may end later than this after process start, whatever the minimum.
DEADLINE_S = 150.0
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op1_norm_s": "s",
                    "op2_norm_s": "s"}

PER_LAYER_UNITS = {
    "simulation.events": "count",
    "simulation.core.self_s": "s",
    "simulation.resources.self_s": "s",
    "simulation.kernel.self_s": "s",
    "simulation.self_s": "s",
    "simulation.ns_per_event": "ns",
    "storage.self_s": "s",
    "storage.io_bytes": "bytes",
    "network.self_s": "s",
    "engine.self_s": "s",
    "engine.stages": "count",
    "engine.tasks": "count",
    "adaptive.self_s": "s",
    "adaptive.pool_changes": "count",
    "monitoring.self_s": "s",
    "harness.self_s": "s",
    "harness.engine_runs": "count",
    "harness.fanout_s": "s",
    "harness.worker_busy_frac": "ratio",
    "service.oracle_s": "s",
    "service.oracle_runs": "count",
    "arrivals.generate_s": "s",
    "workloads.self_s": "s",
    "cluster.run_s": "s",
    "cluster.self_s": "s",
    "cluster.picks": "count",
    "nodes.self_s": "s",
    "cluster.queue_len.mean": "jobs",
    "cluster.retried": "count",
    "cluster.aborted": "count",
    "faults.self_s": "s",
    "observability.self_s": "s",
    "python.self_s": "s",
    "bench.self_s": "s",
    "trace.self_total_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics that must repeat bit for bit across traced passes.
EXACT = ("simulation.events", "storage.io_bytes", "engine.stages",
         "engine.tasks", "adaptive.pool_changes", "harness.engine_runs",
         "service.oracle_runs", "cluster.picks", "cluster.queue_len.mean",
         "cluster.retried", "cluster.aborted")

#: Bucketed self time must account for the profiled wall within this share.
COVERAGE_TOLERANCE = 0.05


def log(line: str) -> None:
    print(line, flush=True)


def setup(workload_name: str, seed: int):
    """Imports plus input generation: everything before the first timed op."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    return workload, workload.setup(seed)


def probe_setup_s(args: argparse.Namespace) -> float:
    """Median normalised set-up time over fresh interpreters (imports are
    per process): imports and input generation."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        cpu_s, ref_s = map(float, proc.stdout.split()[-2:])
        samples.append(normalised(cpu_s, ref_s))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any finished child, in MB."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def host_facts() -> str:
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"host: nproc {os.cpu_count()}, python {platform.python_version()}"
            f", git {sha}, load average {os.getloadavg()}, {host_speed()}")


#: Work of one reference-kernel run: simulated events, then queue scans.
REFERENCE_EVENTS = 60_000
REFERENCE_QUEUE = 4_000
REFERENCE_SCANS = 30
#: The reference kernel's CPU time on the development host (see README.md).
#: Timings are reported as CPU time rescaled to a host this fast.
REFERENCE_S = 0.1


class _QueuedJob:
    __slots__ = ("tenant", "weight", "arrival")

    def __init__(self, rng: random.Random) -> None:
        self.tenant = rng.randrange(4)
        self.weight = rng.random()
        self.arrival = rng.random()


def reference_kernel() -> List[float]:
    """A fixed pure-Python workload, independent of the program, shaped like
    the two kinds of work the program does: a discrete-event loop (heap pops
    and pushes, dict updates, float draws) and fair-share scans over a deep
    queue of small objects.  Its CPU time measures how fast the host runs
    such code."""
    rng = random.Random(12345)
    heap = [(rng.random(), seq, seq % 8) for seq in range(64)]
    heapq.heapify(heap)
    rates: Dict[int, float] = {}
    for _ in range(REFERENCE_EVENTS):
        now, seq, node = heapq.heappop(heap)
        rate = rates.get(node, 1.0)
        rates[node] = 0.999 * rate + 0.001 * (seq % 7 + 1)
        heapq.heappush(heap, (now + rng.expovariate(rate), seq + 64,
                              (5 * node + seq) % 8))
    queue = [_QueuedJob(rng) for _ in range(REFERENCE_QUEUE)]
    usage = [0.0] * 4
    for _ in range(REFERENCE_SCANS):
        best = min(queue, key=lambda job: (usage[job.tenant] / (job.weight + 0.1),
                                           job.arrival))
        usage[best.tenant] += 1.0
    return usage


def reference_cpu_s() -> float:
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start


def normalised(cpu_s: float, ref_s: float) -> float:
    """CPU seconds rescaled to a host on which the reference kernel takes
    ``REFERENCE_S``.  The host's speed swings by a third within minutes;
    the reference kernel, timed right before and after the measured work,
    follows the slower part of that swing."""
    return cpu_s * REFERENCE_S / ref_s


def host_speed() -> str:
    """Median CPU and wall time of the reference kernel: context for how
    fast the host ran during this run."""
    cpu, wall = [], []
    for _ in range(3):
        start = time.perf_counter()
        cpu.append(reference_cpu_s())
        wall.append(time.perf_counter() - start)
    return (f"reference kernel {1000 * statistics.median(cpu):.2f} ms CPU, "
            f"{1000 * statistics.median(wall):.2f} ms wall")


class Runner:
    """Runs passes of a workload's operations and checks their outputs."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.repeats = [1] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        #: Run the reference kernel between operations (untraced runs only).
        self.calibrate = False
        self._last_reference = 0.0
        self._awaiting_reference: Optional[Any] = None

    def reference(self) -> None:
        """Time the reference kernel; the operation that ran since the last
        reference gets the mean of the two as its ``ref_s``.  When
        calibrating, the runner calls this before every operation; one more
        call after the last pass closes the last operation."""
        gc.collect()
        now = reference_cpu_s()
        if self._awaiting_reference is not None:
            self._awaiting_reference.ref_s = (self._last_reference + now) / 2
            self._awaiting_reference = None
        self._last_reference = now

    def run_op(self, label: str, op, repeat: int) -> Optional[Any]:
        self.attempted += 1
        if self.calibrate:
            self.reference()
        gc.collect()  # every operation starts from the same heap state
        try:
            result = op(repeat)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if self.calibrate:
            self._awaiting_reference = result
        first = self.digests.setdefault(result.label, result.digest)
        if first != result.digest:
            self.failed += 1
            self.errors.append(f"{result.label}: nondeterministic output")
        return result

    def run_pass(self) -> list:
        """One pass: each operation ``repeats`` times; results per operation."""
        results = []
        for (label, op), repeats in zip(self.ops, self.repeats):
            runs = [self.run_op(label, op, repeat)
                    for repeat in range(repeats)]
            results.append([result for result in runs if result is not None])
        return results

    def balance(self, warm_up: list) -> None:
        """Repeat short operations so each gets about the slowest one's time."""
        walls = [min((r.timer.wall_s for r in runs), default=0.0)
                 for runs in warm_up]
        slowest = max(walls)
        self.repeats = [
            min(MAX_REPEATS, max(1, round(slowest / wall))) if wall > 0 else 1
            for wall in walls
        ]

    def loop(self, seconds: float, min_passes: int, body=None) -> list:
        """Passes until ``seconds`` have elapsed and ``min_passes`` are done.

        A pass that would end past ``DEADLINE_S`` after process start is
        never begun once one pass is done, so the run ends in time.
        """
        passes = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            now = time.perf_counter()
            if passes and now - START + longest > DEADLINE_S:
                return passes
            if len(passes) >= min_passes and now - start >= seconds:
                return passes
            passes.append(body() if body else self.run_pass())
            longest = max(longest, time.perf_counter() - now)


def op_times(passes: list, index: int, kind: str = "norm") -> List[float]:
    """One time per sample of an operation: ``norm``, ``cpu`` or ``wall``."""
    results = [result for results in passes for result in results[index]]
    if not results:
        raise SystemExit(f"error: operation {index + 1} never succeeded")
    if kind == "norm":
        return [normalised(r.timer.cpu_s, r.ref_s) for r in results]
    return [getattr(r.timer, f"{kind}_s") for r in results]


def trimmed_mean(values: List[float]) -> float:
    """Mean of the samples left after dropping the lowest and the highest
    quarter: steadier than the median over a few samples, and as robust to
    a stray slow one."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summarise_ops(workload_name: str, ops: list, passes: list) -> List[str]:
    lines = []
    centres: Dict[str, List[float]] = {"norm": [], "cpu": [], "wall": []}
    for index, (label, _op) in enumerate(ops):
        for kind in centres:
            times = op_times(passes, index, kind)
            centres[kind].append(trimmed_mean(times))
            lines.append(
                f"op{index + 1} ({label}) {kind}: trimmed mean "
                f"{centres[kind][-1]:.4f} s over {len(times)} samples, median "
                f"{statistics.median(times):.4f} s, min {min(times):.4f} s, "
                f"max {max(times):.4f} s; samples "
                + " ".join(f"{t:.3f}" for t in times))
    if workload_name.startswith("serve_"):
        first, second = (next(results[index][0].info["jobs"]
                              for results in passes if results[index])
                         for index in (0, 1))
        for kind, (t1, t2) in centres.items():
            lines.append(
                f"jobs per {kind} second: {first / t1:.1f} at {first} "
                f"jobs, {second / t2:.1f} at {second} jobs; growth exponent "
                f"of {kind} time against job count "
                f"{math.log(t2 / t1) / math.log(second / first):.4f}")
    return lines


def end_to_end(args, runner: Runner) -> Dict[str, float]:
    setup_s = probe_setup_s(args)
    # Warm-up: lazy imports and first forks finish here; checked, untimed.
    runner.calibrate = True
    warm_up = runner.run_pass()
    runner.balance(warm_up)
    log("operation repeats per pass: "
        + ", ".join(f"op{i + 1} x{n}" for i, n in enumerate(runner.repeats)))
    passes = runner.loop(args.seconds, MIN_PASSES)
    runner.reference()  # closes the last operation
    for line in summarise_ops(args.workload, runner.ops, passes):
        log(line)
    if args.workload == "paper_fig8":
        from workloads import fig8_context

        for line in fig8_context([runs[0] for runs in warm_up if runs]):
            log(line)
    return {
        "op1_norm_s": trimmed_mean(op_times(passes, 0)),
        "op2_norm_s": trimmed_mean(op_times(passes, 1)),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer(args, runner: Runner) -> Dict[str, float]:
    from tracing import PassTracer, shares

    runner.run_pass()  # warm-up, as in the untraced run
    reference = time.perf_counter()
    runner.run_pass()
    reference = time.perf_counter() - reference

    tracer = PassTracer()
    tracer.install()
    traced = runner.loop(args.seconds, MIN_TRACED_PASSES,
                         body=lambda: tracer.run_pass(runner.run_pass))
    per_pass = []
    for results, _wall, metrics in traced:
        serve = [r.info for runs in results for r in runs if "jobs" in r.info]
        metrics["service.oracle_runs"] = sum(i["oracle_runs"] for i in serve)
        metrics["cluster.retried"] = sum(i["retried"] for i in serve)
        metrics["cluster.aborted"] = sum(i["aborted"] for i in serve)
        makespan = sum(i["makespan"] for i in serve)
        metrics["cluster.queue_len.mean"] = (
            sum(i["queue_delay_sum"] for i in serve) / makespan
            if makespan > 0 else 0.0)
        per_pass.append(metrics)

    for name in EXACT:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            runner.failed += 1
            runner.errors.append(f"{name}: nondeterministic across traced "
                                 f"passes: {sorted(values)}")
    result = {name: statistics.median(m[name] for m in per_pass)
              for name in per_pass[0]}
    traced_wall = statistics.median(wall for _r, wall, _m in traced)
    result["trace.overhead_frac"] = traced_wall / reference - 1.0
    if abs(result["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        runner.failed += 1
        runner.errors.append(
            f"bucketed self time covers {result['trace.coverage']:.3f} of the "
            f"profiled wall (tolerance {COVERAGE_TOLERANCE})")

    log(f"traced: {len(traced)} pass(es), median wall {traced_wall:.3f} s vs "
        f"untraced reference {reference:.3f} s; self time by layer (last pass):")
    for line in shares(tracer.self_s):
        log(line)
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        before = reference_cpu_s()
        setup_cpu_s = time.process_time()
        setup(args.workload, args.seed)
        setup_cpu_s = time.process_time() - setup_cpu_s
        print(f"{setup_cpu_s!r} {(before + reference_cpu_s()) / 2!r}")
        return 0
    workload, inputs = setup(args.workload, args.seed)

    log(host_facts())
    for line in workload.describe(inputs):
        log(line)
    runner = Runner(workload.ops(inputs))
    if args.trace:
        metrics = per_layer(args, runner)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(args, runner)
        units = END_TO_END_UNITS
    log(f"after: load average {os.getloadavg()}, {host_speed()}")
    for error in runner.errors:
        log(f"FAILED {error}")
    log(f"fail_frac {runner.failed / runner.attempted:.4f} "
        f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
