"""Tests for the per-figure experiment protocols (at reduced scale)."""

import pytest

from repro.harness.experiments import (
    _hill_climb_selection,
    fig1_cpu_iowait,
    fig2_static_sweep,
    fig3_node_variability,
    fig7_from_runs,
    fig8_end_to_end,
    table1_parameters,
    table2_io_activity,
)
from repro.harness.runner import run_workload

SCALE = 0.05


class TestTableExperiments:
    def test_table1_matches_conf_registry(self):
        counts = table1_parameters()
        assert sum(counts.values()) == 117

    def test_table2_rows_complete(self):
        rows = table2_io_activity(scale=0.02)
        assert len(rows) == 9
        for row in rows:
            assert row["measured_amplification"] > 0
            assert row["paper_amplification"] > 1.0


class TestFigureProtocols:
    def test_fig1_covers_four_workloads(self):
        results = fig1_cpu_iowait(scale=SCALE)
        assert set(results) == {"aggregation", "join", "pagerank", "terasort"}
        for stages in results.values():
            for stage in stages:
                assert 0.0 <= stage["cpu_usage"] <= 1.0
                assert 0.0 <= stage["io_wait"] <= 1.0

    def test_fig2_sweep_structure(self):
        result = fig2_static_sweep("terasort", scale=SCALE)
        assert set(result["runs"]) == {32, 16, 8, 4, 2}
        assert len(result["bestfit_sizes"]) == 3
        assert result["bestfit"]["total"] > 0
        assert (result["workload"], result["scale"], result["device"]) == (
            "terasort", SCALE, "hdd")

    def test_fig3_shapes(self):
        rows = fig3_node_variability(num_nodes=6, gib=1.0)
        assert len(rows) == 6
        assert all(r["read_time"] > 0 and r["write_time"] > 0 for r in rows)

    def test_fig7_from_runs_reuses_runs(self):
        runs = {
            t: run_workload("terasort", policy=("fixed", t),
                            workload_kwargs={"scale": SCALE})
            for t in (2, 4, 8)
        }
        rows = fig7_from_runs(runs)
        assert len(rows) == 3
        for row in rows:
            assert set(row["series"]) == {2, 4, 8}
            assert row["selected"] in (2, 4, 8)

    @pytest.mark.parametrize("mismatch", [
        {"workload": "pagerank"}, {"scale": 2 * SCALE}, {"device": "ssd"},
    ])
    def test_fig8_rejects_mismatched_sweep(self, mismatch):
        sweep = {"workload": "terasort", "scale": SCALE, "device": "hdd"}
        sweep.update(mismatch)
        (key, value), = mismatch.items()
        with pytest.raises(ValueError, match=f"{key}={value!r}"):
            fig8_end_to_end("terasort", scale=SCALE, sweep_result=sweep)

    def test_fig8_reductions_consistent(self):
        result = fig8_end_to_end("terasort", scale=SCALE)
        default_total = result["default"]["total"]
        assert result["reduction_dynamic"] == pytest.approx(
            1.0 - result["dynamic"]["total"] / default_total
        )
        assert result["reduction_bestfit"] == pytest.approx(
            1.0 - result["static_bestfit"]["total"] / default_total
        )


class TestHillClimbSelection:
    def series(self, zetas):
        return {t: {"congestion": z} for t, z in zetas.items()}

    def test_monotone_improvement_reaches_max(self):
        selection = _hill_climb_selection(
            self.series({2: 1.0, 4: 0.5, 8: 0.4, 16: 0.3, 32: 0.2})
        )
        assert selection == 32

    def test_blowup_rolls_back(self):
        selection = _hill_climb_selection(
            self.series({2: 1.0, 4: 0.5, 8: 0.6, 16: 6.0, 32: 20.0})
        )
        assert selection == 8

    def test_tolerance_permits_mild_growth(self):
        selection = _hill_climb_selection(
            self.series({2: 1.0, 4: 1.5, 8: 2.5}), tolerance=2.0
        )
        assert selection == 8

    def test_immediate_blowup_stays_at_cmin(self):
        selection = _hill_climb_selection(
            self.series({2: 1.0, 4: 5.0, 8: 0.1})
        )
        assert selection == 2


class TestSeedRobustness:
    """The dynamic solution's win must not hinge on one RNG draw."""

    @pytest.mark.parametrize("seed", [1, 17, 4242])
    def test_dynamic_beats_default_across_seeds(self, seed):
        default = run_workload("terasort", policy="default", seed=seed,
                               workload_kwargs={"scale": 0.1})
        dynamic = run_workload("terasort", policy="dynamic", seed=seed,
                               workload_kwargs={"scale": 0.1})
        assert dynamic.runtime < default.runtime * 0.9, seed
