"""Copy-on-write fork engine: determinism, divergences, and babysitting.

The contract under test (see ``repro.harness.fork``):

* forked children produce results **byte-identical** to from-scratch runs
  (the golden-log suite additionally diffs the event-log bytes);
* the what-if fork path and its sequential fallback are interchangeable;
* crashed / hung / silently-dying children are retried and quarantined
  with the same semantics as the durable runner.
"""

import os
import time

import pytest

from repro.harness.fork import (
    CONTINUE,
    Alternative,
    AlternativeError,
    ForkBarrierNotReached,
    ForkUnavailableError,
    fork_available,
    fork_map,
    fork_map_runs,
    parse_alternative,
    run_whatif,
)
from repro.harness.parallel import (
    QuarantinedConfigError,
    RunConfig,
    map_runs,
)
from repro.simulation.randomness import RandomStreams

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="os.fork unavailable")

SCALE = 0.02
WK = {"scale": SCALE}


class _Item:
    def __init__(self, key):
        self.key = key


@needs_fork
class TestForkMap:
    def test_results_in_item_order(self):
        items = [_Item(i) for i in range(5)]
        results = fork_map(lambda item: item.key * 10, items)
        assert results == [0, 10, 20, 30, 40]

    def test_parallel_children(self):
        items = [_Item(i) for i in range(4)]
        results = fork_map(lambda item: item.key + 1, items, parallel=4)
        assert results == [1, 2, 3, 4]

    def test_large_payload_crosses_pipe(self):
        # Bigger than any pipe buffer: exercises the concurrent-drain
        # parent loop (a naive read-after-wait would deadlock here).
        blob = "x" * (4 << 20)
        [result] = fork_map(lambda item: blob, [_Item("big")])
        assert result == blob

    def test_crashing_child_quarantined(self):
        def child(item):
            raise RuntimeError("boom")

        with pytest.raises(QuarantinedConfigError, match="boom"):
            fork_map(child, [_Item("bad")], max_attempts=2, backoff=0.01)

    def test_allow_quarantine_yields_none_slot(self):
        def child(item):
            if item.key == 1:
                raise RuntimeError("boom")
            return item.key

        results = fork_map(child, [_Item(0), _Item(1), _Item(2)],
                           max_attempts=2, backoff=0.01,
                           allow_quarantine=True)
        assert results == [0, None, 2]

    def test_silent_death_counts_as_failure(self):
        def child(item):
            os._exit(3)  # dies without reporting a result

        with pytest.raises(QuarantinedConfigError, match="exit code 3"):
            fork_map(child, [_Item("dead")], max_attempts=2, backoff=0.01)

    def test_hung_child_killed_by_watchdog(self):
        import time

        def child(item):
            time.sleep(60)

        [result] = fork_map(child, [_Item("hung")], timeout=0.2,
                            max_attempts=1, allow_quarantine=True)
        assert result is None

    def test_retry_succeeds_after_transient_crash(self, tmp_path):
        # Deterministic "fails once, then works": the first attempt sees
        # no marker file, creates it, and dies; the retry sees it.
        marker = tmp_path / "attempted"

        def child(item):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return "recovered"

        [result] = fork_map(child, [_Item("flaky")], max_attempts=3,
                            backoff=0.01)
        assert result == "recovered"

    def test_parallel_zero_runs_one_child_at_a_time(self, tmp_path):
        # Each child holds an exclusive marker file while it runs; a
        # sibling running concurrently fails to create it and the item is
        # quarantined.
        busy = str(tmp_path / "busy")

        def child(item):
            fd = os.open(busy, os.O_CREAT | os.O_EXCL)
            time.sleep(0.05)
            os.close(fd)
            os.unlink(busy)
            return item.key

        items = [_Item(i) for i in range(4)]
        assert fork_map(child, items, parallel=0, max_attempts=1) == [
            0, 1, 2, 3]

    def test_inline_runs_in_this_process(self):
        results = fork_map(lambda item: os.getpid(), [_Item(0), _Item(1)],
                           inline=True)
        assert results == [os.getpid()] * 2

    def test_inline_and_forked_failures_give_the_same_reason(self):
        def child(item):
            raise ValueError(f"bad {item.key}")

        reasons = []
        for parallel in (1, 2):
            with pytest.raises(QuarantinedConfigError) as info:
                fork_map(child, [_Item("x"), _Item("x")], parallel=parallel,
                         max_attempts=1, inline=True)
            reasons.append(info.value.reason)
        assert reasons == ["ValueError: bad x"] * 2

    def test_on_settled_reports_each_item(self):
        def child(item):
            if item.key == 1:
                raise RuntimeError("boom")
            return item.key

        settled = []
        results = fork_map(
            child, [_Item(0), _Item(1), _Item(2)], parallel=2,
            max_attempts=1, allow_quarantine=True,
            on_settled=lambda index, result, error: settled.append(
                (index, result, error and error.reason)),
        )
        assert results == [0, None, 2]
        assert sorted(settled) == [
            (0, 0, None), (1, None, "RuntimeError: boom"), (2, 2, None)]


@needs_fork
class TestForkMapRuns:
    def _configs(self, **common):
        return [
            RunConfig(workload="terasort", policy=("static", threads),
                      key=threads, workload_kwargs=WK, **common)
            for threads in (32, 8, 2)
        ]

    def test_matches_map_runs_exactly(self):
        configs = self._configs()
        sequential = map_runs(configs, 1)
        forked = fork_map_runs(configs)
        for seq, fork in zip(sequential, forked):
            assert seq.key == fork.key
            assert seq.runtime == fork.runtime
            assert seq.recorder.to_dict() == fork.recorder.to_dict()

    def test_fault_divergence_matches(self):
        from repro.faults.plan import node_loss_plan

        doc = node_loss_plan(node_id=1, at=20.0).to_dict()
        configs = [
            RunConfig(workload="terasort", policy=("static", threads),
                      key=threads, workload_kwargs=WK, fault_plan_doc=doc)
            for threads in (32, 8)
        ]
        for seq, fork in zip(map_runs(configs, 1), fork_map_runs(configs)):
            assert seq.runtime == fork.runtime
            assert seq.recorder.to_dict() == fork.recorder.to_dict()

    def test_heterogeneous_prefix_rejected(self):
        configs = [
            RunConfig(workload="terasort", key=1, workload_kwargs=WK),
            RunConfig(workload="terasort", key=2,
                      workload_kwargs={"scale": SCALE * 2}),
        ]
        with pytest.raises(ValueError, match="share the run prefix"):
            fork_map_runs(configs)

    def test_child_writes_event_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        configs = [RunConfig(workload="terasort", key="t", workload_kwargs=WK,
                             events_path=str(path))]
        fork_map_runs(configs)
        assert path.exists() and path.stat().st_size > 0


class TestForkMapRunsWithoutFork:
    """Without ``os.fork`` the sweep re-simulates each point in-process,
    under the same supervisor contract as ``map_runs``."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        import repro.harness.fork as fork_mod
        import repro.harness.parallel as parallel_mod

        def execute(config):
            if config.key == "bad":
                raise RuntimeError("boom")
            return config.key

        monkeypatch.setattr(fork_mod, "fork_available", lambda: False)
        monkeypatch.setattr(fork_mod, "execute_run_config", execute)
        monkeypatch.setattr(parallel_mod, "execute_run_config", execute)

    @staticmethod
    def _configs(*keys):
        return [RunConfig(workload="terasort", key=key, workload_kwargs=WK)
                for key in keys]

    def test_runs_in_order(self, no_fork):
        assert fork_map_runs(self._configs(1, 2, 3)) == [1, 2, 3]

    def test_timeout_raises_fork_unavailable(self, no_fork):
        with pytest.raises(ForkUnavailableError):
            fork_map_runs(self._configs(1), timeout=1.0)

    def test_failure_is_quarantined_like_map_runs(self, no_fork):
        configs = self._configs(1, "bad")
        with pytest.raises(QuarantinedConfigError) as inline:
            map_runs(configs, 1)
        with pytest.raises(QuarantinedConfigError) as fallback:
            fork_map_runs(configs, max_attempts=2, backoff=0.01)
        assert fallback.value.reason == inline.value.reason
        assert fallback.value.attempts == 2

    def test_allow_quarantine_leaves_none(self, no_fork):
        results = fork_map_runs(self._configs(1, "bad", 3), max_attempts=1,
                                allow_quarantine=True)
        assert results == [1, None, 3]


class TestParseAlternative:
    def test_specs(self):
        assert parse_alternative("continue").kind == "continue"
        alt = parse_alternative("pool=8")
        assert (alt.kind, alt.value) == ("pool", 8)
        alt = parse_alternative("policy=dynamic")
        assert (alt.kind, alt.value) == ("policy", "dynamic")
        alt = parse_alternative("policy=fixed:4")
        assert (alt.kind, alt.value) == ("policy", ("fixed", 4))
        alt = parse_alternative("conf:spark.reducer.maxSizeInFlight=16m")
        assert alt.kind == "conf"
        assert alt.value == {"spark.reducer.maxSizeInFlight": "16m"}
        assert parse_alternative("reseed").value is None
        assert parse_alternative("reseed=a").value == "a"

    @pytest.mark.parametrize("spec", ["pool=abc", "policy=fixed:x",
                                      "conf:noequals", "bogus", "pool"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(AlternativeError):
            parse_alternative(spec)


class TestWhatIf:
    ALTS = [
        Alternative(key="continue", kind="continue"),
        Alternative(key="pool=8", kind="pool", value=8),
        Alternative(key="policy=dynamic", kind="policy", value="dynamic"),
        Alternative(key="reseed", kind="reseed"),
    ]

    def test_sequential_baseline_matches_plain_run(self):
        from repro.harness.runner import run_workload

        report = run_whatif("terasort", at=15.0, alternatives=self.ALTS,
                            use_fork=False, workload_kwargs=WK)
        assert not report.forked
        plain = run_workload("terasort", workload_kwargs=WK)
        assert report.baseline.runtime == plain.runtime

    @needs_fork
    def test_forked_matches_sequential_exactly(self):
        forked = run_whatif("terasort", at=15.0, alternatives=self.ALTS,
                            use_fork=True, workload_kwargs=WK)
        sequential = run_whatif("terasort", at=15.0, alternatives=self.ALTS,
                                use_fork=False, workload_kwargs=WK)
        assert forked.forked and not sequential.forked
        for fork, seq in zip(forked.summaries, sequential.summaries):
            assert fork.key == seq.key
            assert fork.runtime == seq.runtime
            assert fork.recorder.to_dict() == seq.recorder.to_dict()

    def test_barrier_beyond_run_end_raises(self):
        with pytest.raises(ForkBarrierNotReached, match="beyond the end"):
            run_whatif("terasort", at=1e6, alternatives=self.ALTS[:1],
                       use_fork=False, workload_kwargs=WK)

    def test_reseed_decorrelates_futures(self):
        alts = [Alternative(key="continue", kind="continue"),
                Alternative(key="reseed=a", kind="reseed", value="a"),
                Alternative(key="reseed=b", kind="reseed", value="b")]
        report = run_whatif("terasort", at=15.0, alternatives=alts,
                            use_fork=False, workload_kwargs=WK)
        cont, a, b = report.summaries
        assert a.runtime != cont.runtime
        assert a.runtime != b.runtime

    def test_report_dict_shape(self):
        report = run_whatif("terasort", at=15.0, alternatives=self.ALTS[:2],
                            use_fork=False, workload_kwargs=WK)
        doc = report.to_dict()
        assert doc["schema"] == "repro.whatif/1"
        assert doc["at"] == 15.0
        keys = [row["key"] for row in doc["alternatives"]]
        assert keys == ["continue", "pool=8"]
        assert "vs_continue" in doc["alternatives"][1]


class TestPostForkReseeding:
    def test_same_key_reproducible(self):
        one, two = RandomStreams(7), RandomStreams(7)
        one.stream("disk").random()  # consume mid-sequence state
        two.stream("disk").random()
        one.reseed_for_fork("child")
        two.reseed_for_fork("child")
        assert one.stream("disk").random() == two.stream("disk").random()
        assert one.stream("net").random() == two.stream("net").random()

    def test_different_keys_decorrelate(self):
        one, two = RandomStreams(7), RandomStreams(7)
        one.reseed_for_fork("a")
        two.reseed_for_fork("b")
        assert one.stream("disk").random() != two.stream("disk").random()

    def test_no_reseed_continues_parent_sequence(self):
        parent, reference = RandomStreams(7), RandomStreams(7)
        draws = [parent.stream("disk").random() for _ in range(3)]
        expected = [reference.stream("disk").random() for _ in range(6)]
        assert draws == expected[:3]
        # A forked child that does NOT reseed just keeps drawing the
        # parent's sequence -- the property byte-identity relies on.
        assert [parent.stream("disk").random() for _ in range(3)] \
            == expected[3:]


class TestForkBarrier:
    def test_advances_clock_to_barrier(self):
        from repro.simulation.core import Simulator

        sim = Simulator()
        fired = []
        sim.call_at(5.0, lambda: fired.append(5))
        sim.call_at(20.0, lambda: fired.append(20))
        assert sim.fork_barrier(10.0)
        assert sim.now == 10.0
        assert fired == [5]
        sim.run()
        assert fired == [5, 20]

    def test_rejects_past_barrier(self):
        from repro.simulation.core import Simulator, SimulationError

        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.fork_barrier(1.0)

    def test_after_fork_runs_hooks(self):
        from repro.simulation.core import Simulator

        sim = Simulator()
        seen = []
        sim.on_fork(seen.append)
        sim.after_fork("child-1")
        assert seen == ["child-1"]
        assert sim.forked_from == "child-1"


class TestWhatIfCli:
    def test_table_and_report_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "whatif.json"
        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "pool=8", "--no-fork",
                     "--out", str(out)])
        assert code == 0
        shown = capsys.readouterr().out
        assert "continue" in shown and "pool=8" in shown
        assert out.exists()

    @needs_fork
    def test_json_output(self, capsys):
        import json

        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "policy=dynamic", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["forked"] is fork_available()
        assert [row["key"] for row in doc["alternatives"]] \
            == ["continue", "policy=dynamic"]

    def test_bad_alternative_exits_cleanly(self, capsys):
        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "bogus-spec"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_barrier_past_end_exits_cleanly(self, capsys):
        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "999999", "--scale",
                     str(SCALE), "--no-fork"])
        assert code == 1
        assert "beyond the end" in capsys.readouterr().err
