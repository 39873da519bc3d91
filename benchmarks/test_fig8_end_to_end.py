"""Fig. 8: default vs static BestFit vs dynamic on the four workloads."""

import pytest

from repro.harness.experiments import fig8_end_to_end
from repro.harness.report import format_change, render_table, write_result

from conftest import BENCH_SCALE

#: Paper Fig. 8 runtime reductions vs default: (static BestFit, dynamic).
PAPER_REDUCTIONS = {
    "terasort": (0.475, 0.344),
    "pagerank": (0.163, 0.541),
    "aggregation": (None, 0.068),
    "join": (None, 0.025),
}


def _render(result):
    rows = []
    for system in ("default", "static_bestfit", "dynamic"):
        summary = result[system]
        rows.append(
            (
                system,
                summary["total"],
                " ".join(f"{d:.0f}" for d in summary["stages"]),
                " ".join(f"{t}/128" for t in summary["threads_per_stage"]),
            )
        )
    return render_table(
        ["System", "Total (s)", "Stage durations", "Threads per stage"],
        rows,
        title=(
            f"Fig. 8 ({result['workload']}): "
            f"bestfit {format_change(result['reduction_bestfit'])}, "
            f"dynamic {format_change(result['reduction_dynamic'])} vs default"
        ),
    )


@pytest.fixture(scope="module")
def comparisons(sweep_cache):
    return {
        workload: fig8_end_to_end(workload, scale=BENCH_SCALE,
                                  sweep_result=sweep_cache(workload))
        for workload in ("terasort", "pagerank", "aggregation", "join")
    }


def test_fig8_terasort(benchmark, comparisons):
    result = benchmark.pedantic(lambda: comparisons["terasort"],
                                rounds=1, iterations=1)
    write_result("fig8a_terasort", _render(result))
    # Both solutions reduce the runtime substantially; BestFit wins because
    # every Terasort stage is I/O-marked and it skips the exploration cost.
    assert result["reduction_dynamic"] > 0.25
    assert result["reduction_bestfit"] > result["reduction_dynamic"]


def test_fig8_pagerank(benchmark, comparisons):
    result = benchmark.pedantic(lambda: comparisons["pagerank"],
                                rounds=1, iterations=1)
    write_result("fig8b_pagerank", _render(result))
    # The signature result: the dynamic solution tunes the shuffle stages the
    # static classification cannot see (L2) and wins by a wide margin.
    assert result["reduction_dynamic"] > 0.35
    assert result["reduction_bestfit"] < 0.30
    assert result["reduction_dynamic"] > result["reduction_bestfit"] + 0.15
    # Dynamic tunes every stage below the default thread budget.
    assert all(t < 128 for t in result["dynamic"]["threads_per_stage"])


def test_fig8_aggregation(benchmark, comparisons):
    result = benchmark.pedantic(lambda: comparisons["aggregation"],
                                rounds=1, iterations=1)
    write_result("fig8c_aggregation", _render(result))
    # Diminishing gains on SQL (paper: 6.8%): the scan stage is compute
    # bound, only the final aggregation stage is tunable.
    assert -0.02 < result["reduction_dynamic"] < 0.20
    # The compute-heavy scan keeps all 128 threads under the dynamic policy.
    assert result["dynamic"]["threads_per_stage"][0] == 128
    # The final stage is tuned down.
    assert result["dynamic"]["threads_per_stage"][-1] < 128


def test_fig8_join(benchmark, comparisons):
    result = benchmark.pedantic(lambda: comparisons["join"],
                                rounds=1, iterations=1)
    write_result("fig8d_join", _render(result))
    # The smallest gain of the four (paper: 2.5%).
    assert -0.03 < result["reduction_dynamic"] < 0.15
    assert result["dynamic"]["threads_per_stage"][0] == 128


def test_fig8_cross_workload_ordering(benchmark, comparisons):
    """The paper's aggregate picture: dynamic gains rank
    PageRank/Terasort >> Aggregation > Join."""
    dynamic = benchmark.pedantic(
        lambda: {w: c["reduction_dynamic"] for w, c in comparisons.items()},
        rounds=1, iterations=1,
    )
    assert dynamic["pagerank"] > dynamic["aggregation"] > dynamic["join"]
    assert dynamic["terasort"] > dynamic["aggregation"]
