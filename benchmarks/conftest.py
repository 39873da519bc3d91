"""Shared fixtures for the reproduction benchmarks.

Expensive simulation runs (static sweeps, fixed-policy runs) are memoised in
session-scoped caches so figures that share a protocol (e.g. Fig. 2 -> Fig. 5,
Fig. 7 -> Fig. 12) re-use each other's runs.

``REPRO_BENCH_SCALE`` (default 1.0) scales every workload's input size, so
e.g. ``REPRO_BENCH_SCALE=0.25`` gives a quick smoke pass of the whole
evaluation.  Reported ratios are not all scale-invariant: the adaptive
loop's fixed exploration cost weighs more on small stages, and some checks
fail below scale 1.0 (ROADMAP.md, "Paper fidelity as a gated,
machine-readable check").
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.harness.experiments import fig2_static_sweep  # noqa: E402
from repro.harness.runner import run_workload  # noqa: E402

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def sweep_cache():
    """(workload, device) -> fig2_static_sweep result, memoised."""
    cache = {}

    def get(workload, device="hdd"):
        key = (workload, device)
        if key not in cache:
            cache[key] = fig2_static_sweep(workload, scale=BENCH_SCALE,
                                           device=device)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fixed_run_cache():
    """(workload, threads, device) -> WorkloadRun, memoised."""
    cache = {}

    def get(workload, threads, device="hdd"):
        key = (workload, threads, device)
        if key not in cache:
            cache[key] = run_workload(
                workload,
                policy=("fixed", threads),
                device=device,
                workload_kwargs={"scale": BENCH_SCALE},
            )
        return cache[key]

    return get
