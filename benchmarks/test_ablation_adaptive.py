"""Ablations of the self-adaptive executor's design choices.

The paper motivates several knobs without sweeping them; these benchmarks
quantify each on Terasort (the workload with the clearest contention
structure):

* **hysteresis tolerance** -- our congestion-index comparison keeps climbing
  while ζ_j <= tol * ζ_(j/2) (DESIGN.md "Known deviations");
* **cmin** -- the paper starts every climb at 2 ("it is almost impossible
  that a single thread outperforms multiple ones") and argues bottom-up
  beats top-down;
* **per-stage adaptation** -- re-climbing each stage (vs freezing the first
  stage's choice) is what addresses limitation L1.
"""

from repro.harness.report import format_change, render_table, write_result
from repro.harness.runner import run_workload

from conftest import BENCH_SCALE

WORKLOAD_KW = {"scale": BENCH_SCALE}


def test_ablation_tolerance(benchmark, sweep_cache):
    """Strict rollback (tol=1.0) under-provisions; huge tolerance ignores
    contention; the shipped 2.0 recovers the stage optima."""

    def build():
        results = {}
        for tolerance in (1.0, 2.0, 8.0):
            run = run_workload(
                "terasort",
                policy=("dynamic", {"tolerance": tolerance}),
                workload_kwargs=WORKLOAD_KW,
            )
            results[tolerance] = run
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    default_total = sweep_cache("terasort")["runs"][32]["total"]
    rows = []
    for tolerance, run in sorted(results.items()):
        sizes = [sorted(s.final_pool_sizes().values()) for s in run.stages]
        rows.append(
            (tolerance, run.runtime,
             format_change(1 - run.runtime / default_total), str(sizes))
        )
    write_result(
        "ablation_tolerance",
        render_table(
            ["Tolerance", "Runtime (s)", "vs default", "Stage pool sizes"],
            rows,
            title="Ablation: congestion-index hysteresis tolerance (Terasort)",
        ),
    )

    strict, shipped, loose = (results[t] for t in (1.0, 2.0, 8.0))
    # The shipped tolerance matches or beats the strict rule (which settles
    # at 2-4 and under-uses the disk at its latency-hiding optimum); the
    # 2% slack covers the near-tie at small input scales.
    assert shipped.runtime < strict.runtime * 1.02
    # A huge tolerance overshoots into contention and loses.
    assert shipped.runtime < loose.runtime
    # The mechanism: strict settles at a smaller pool than shipped on the
    # shuffle-write stage (whose optimum is 8); loose overshoots to 32.
    strict_stage1 = max(strict.stages[1].final_pool_sizes().values())
    shipped_stage1 = max(shipped.stages[1].final_pool_sizes().values())
    loose_stage1 = max(loose.stages[1].final_pool_sizes().values())
    assert strict_stage1 <= shipped_stage1 <= loose_stage1
    assert loose_stage1 == 32


def test_ablation_cmin(benchmark, sweep_cache):
    """Starting the climb higher skips exploration but risks starting past
    the optimum; cmin=2 (the paper's choice) stays near the best."""

    def build():
        return {
            cmin: run_workload(
                "terasort",
                policy=("dynamic", {"cmin": cmin}),
                workload_kwargs=WORKLOAD_KW,
            )
            for cmin in (2, 8, 32)
        }

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    default_total = sweep_cache("terasort")["runs"][32]["total"]
    rows = [
        (cmin, run.runtime, format_change(1 - run.runtime / default_total))
        for cmin, run in sorted(results.items())
    ]
    write_result(
        "ablation_cmin",
        render_table(
            ["cmin", "Runtime (s)", "vs default"],
            rows,
            title="Ablation: hill-climb starting point (Terasort)",
        ),
    )

    # Starting at the maximum pool size disables adaptation entirely (the
    # climb begins settled at cmax) and collapses to default behaviour.
    assert results[32].runtime > results[2].runtime * 1.3
    # Starting at 8 skips exploration but can overshoot (the first scored
    # interval is already past the read stage's optimum of 4); it stays in
    # the same band as the paper's bottom-up start without beating it
    # decisively -- the paper's argument for climbing from cmin.
    assert results[8].runtime <= results[2].runtime * 1.25


def test_ablation_per_stage_adaptation(benchmark, sweep_cache):
    """Freezing the first stage's choice for the whole job (what a
    single-knob tuner would do) forfeits part of the win: stage optima
    differ (limitation L1)."""

    def build():
        sweep = sweep_cache("terasort")
        # The best single uniform setting, applied to every stage:
        runs = sweep["runs"]
        best_uniform = min(runs, key=lambda t: runs[t]["total"])
        uniform_total = runs[best_uniform]["total"]
        per_stage_total = sweep["bestfit"]["total"]
        return best_uniform, uniform_total, per_stage_total

    best_uniform, uniform_total, per_stage_total = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    write_result(
        "ablation_per_stage",
        render_table(
            ["Strategy", "Runtime (s)"],
            [
                (f"best uniform ({best_uniform} threads)", uniform_total),
                ("per-stage BestFit", per_stage_total),
            ],
            title="Ablation: one global thread count vs per-stage tuning",
        ),
    )
    # Per-stage tuning is at least as good as the best global setting.
    assert per_stage_total <= uniform_total * 1.02
