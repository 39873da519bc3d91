"""Fig. 11: the dynamic solution on SSDs (Terasort)."""

from repro.harness.experiments import fig8_end_to_end
from repro.harness.report import format_change, render_table, write_result

from conftest import BENCH_SCALE


def test_fig11_ssd_dynamic(benchmark, sweep_cache):
    def build():
        return fig8_end_to_end(
            "terasort", scale=BENCH_SCALE, device="ssd",
            sweep_result=sweep_cache("terasort", "ssd"),
        )

    result = benchmark.pedantic(build, rounds=1, iterations=1)
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
    write_result(
        "fig11_ssd_dynamic",
        render_table(
            ["System", "Total (s)", "Stage durations", "Threads per stage"],
            rows,
            title=(
                "Fig. 11 (Terasort on SSD): "
                f"bestfit {format_change(result['reduction_bestfit'])}, "
                f"dynamic {format_change(result['reduction_dynamic'])}"
            ),
        ),
    )

    # Both solutions still help on SSDs (paper: 20.2% static, 16.7% dynamic),
    # but less than on HDDs (47.5% / 34.4%) -- SSDs are "less susceptible to
    # thread contention".
    assert 0.03 < result["reduction_dynamic"] < 0.30
    assert 0.05 < result["reduction_bestfit"] < 0.45
    # The dynamic policy still picks fewer threads than the default for the
    # write-heavy stages.
    assert result["dynamic"]["threads_per_stage"][1] < 128
    assert result["dynamic"]["threads_per_stage"][2] < 128
