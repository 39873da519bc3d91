"""CLI surfaces added with the invariant validator and durable sweeps:
``repro validate``, ``run --validate``, and sweep --journal/--resume."""

import json

import pytest

from repro.cli import main

GOLDEN = "tests/golden/terasort_s005_seed42.jsonl"
GOLDEN_NODELOSS = "tests/golden/terasort_s005_seed42_nodeloss.jsonl"

SWEEP_ARGS = ["sweep", "wordcount", "--scale", "0.02", "--nodes", "2",
              "--cores", "8", "--json"]


class TestValidateCommand:
    @pytest.mark.parametrize("golden", [GOLDEN, GOLDEN_NODELOSS])
    def test_golden_logs_validate_clean(self, golden, capsys):
        assert main(["validate", golden]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["validate", GOLDEN, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["events_seen"] == 12888
        assert doc["violations"] == []

    def test_violations_exit_1_with_report(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        lines = [
            {"ts": 5.0, "seq": 1, "kind": "I", "cat": "app", "name": "x",
             "args": {}},
            {"ts": 1.0, "seq": 2, "kind": "I", "cat": "app", "name": "y",
             "args": {}},  # clock runs backwards
        ]
        log.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        assert main(["validate", str(log)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "clock.monotonic" in out

    def test_missing_log_exits_2(self, capsys):
        assert main(["validate", "/no/such/events.jsonl"]) == 2
        assert "no such event log" in capsys.readouterr().err

    def test_non_jsonl_file_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "notlog.jsonl"
        bogus.write_text("definitely not json\n")
        assert main(["validate", str(bogus)]) == 2
        assert "cannot replay" in capsys.readouterr().err


class TestRunValidate:
    def test_clean_run_passes(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--validate"])
        assert code == 0
        assert "invariants: OK" in capsys.readouterr().err

    def test_validate_does_not_pollute_json_stdout(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--validate", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout must stay pure JSON
        assert "invariants:" in captured.err


class TestDurableSweep:
    def test_stop_after_exits_3_then_resume_matches(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.journal")

        assert main(SWEEP_ARGS) == 0
        uninterrupted = capsys.readouterr().out

        code = main(SWEEP_ARGS + ["--journal", journal, "--stop-after", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert "sweep interrupted" in captured.err
        assert "--resume" in captured.err

        assert main(SWEEP_ARGS + ["--journal", journal, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == uninterrupted  # byte-identical aggregates

    @pytest.mark.parametrize("flag,name", [
        ("--stop-after", "stop_after"), ("--run-timeout", "timeout"),
    ])
    def test_zero_budget_exits_1(self, flag, name, capsys):
        assert main(SWEEP_ARGS + [flag, "0"]) == 1
        assert f"{name} must be" in capsys.readouterr().err

    def test_bad_fault_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"bogus": 1}))
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--faults", str(plan)])
        assert code == 2
        assert "invalid fault plan" in capsys.readouterr().err

    def test_missing_fault_plan_exits_2(self, capsys):
        code = main(["run", "wordcount", "--scale", "0.02", "--nodes", "2",
                     "--faults", "/no/such/plan.json"])
        assert code == 2
