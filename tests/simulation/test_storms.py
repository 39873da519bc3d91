"""Fuzz storms against the simulation kernel.

Seeded adversarial schedules (zero-delay bursts, zero-work jobs, interrupts
mid-service, ``call_in`` ties, mixed read/write device phases, rates that
are neither uniform nor op-structured) drive the event loop and the
fair-share resources directly.  Replaying one plan twice must give exactly
the same timeline -- ``==`` on floats, never ``approx`` -- and every job a
storm submits must complete on the resource it was submitted to.
"""

import random

import pytest

from repro.simulation.core import Interrupt, Simulator
from repro.simulation.resources import FairShareResource
from repro.storage.device import HDD_PROFILE, MiB, StorageDevice

SEEDS = [1, 3, 7, 42, 1337]


class _SkewResource(FairShareResource):
    """Unstructured rates: neither uniform nor op-shaped, so the resource
    takes the per-job :meth:`rates` path."""

    def rates(self, jobs):
        k = len(jobs)
        return {
            job: self.capacity * (1.0 + 0.25 * (job.attrs.get("w", 0) % 3)) / k
            for job in jobs
        }

    def uniform_rate(self, n):
        return None


def _make_plan(seed, actions=240):
    """Pre-generate a deterministic op plan, so replays of the SAME plan
    object can only diverge in the kernel, not in the generator."""
    rng = random.Random(seed)
    plan = []
    for _ in range(actions):
        roll = rng.random()
        if roll < 0.30:
            plan.append(("cpu", rng.uniform(0.1, 4.0), rng.choice(["map", "reduce", ""])))
        elif roll < 0.60:
            # Mixed read/write bursts drive the device's per-job rate path.
            plan.append(("disk", rng.uniform(1.0, 64.0) * MiB,
                         rng.choice(["read", "read", "write"])))
        elif roll < 0.70:
            plan.append(("skew", rng.uniform(0.1, 2.0), rng.randrange(3)))
        elif roll < 0.75:
            plan.append(("zero", rng.choice(["cpu", "disk"])))
        elif roll < 0.85:
            # Zero-delay bursts: many submissions at one instant, breaking
            # ties purely on scheduling order.
            plan.append(("wait", 0.0))
        elif roll < 0.95:
            plan.append(("wait", rng.uniform(0.001, 0.5)))
        else:
            plan.append(("interrupt", rng.uniform(0.01, 0.3)))
    return plan


def _run_storm(plan):
    sim = Simulator()
    resources = {
        "cpu": FairShareResource(sim, "cpu", capacity=8.0),
        "disk": StorageDevice(sim, "disk", HDD_PROFILE),
        "skew": _SkewResource(sim, "skew", capacity=4.0),
    }
    cpu, disk, skew = resources["cpu"], resources["disk"], resources["skew"]
    submitted = {name: [] for name in resources}
    trace = []

    def note(label, idx):
        return lambda _e: trace.append((sim.now, label, idx))

    def submit(name, work, label, idx, **attrs):
        job = resources[name].submit(work, **attrs)
        job.event.add_callback(note(label, idx))
        submitted[name].append(job)
        return job

    def waiter(idx, job):
        try:
            yield job.event
            trace.append((sim.now, "wait-done", idx))
        except Interrupt as exc:
            trace.append((sim.now, "wait-intr", idx, exc.cause))

    def driver():
        for idx, action in enumerate(plan):
            kind = action[0]
            if kind == "cpu":
                _, work, tag = action
                submit("cpu", work, "cpu", idx, tag=tag)
            elif kind == "disk":
                _, work, op = action
                submit("disk", work, "disk", idx, tag=op, op=op)
            elif kind == "skew":
                _, work, w = action
                submit("skew", work, "skew", idx, tag="skew", w=w)
            elif kind == "zero":
                submit(action[1], 0.0, "zero", idx, tag="zero")
            elif kind == "wait":
                yield sim.timeout(action[1])
            elif kind == "interrupt":
                job = submit("cpu", 5.0, "doomed", idx, tag="doomed")
                proc = sim.process(waiter(idx, job))
                sim.call_in(action[1], proc.interrupt, "storm")
                # call_in tie: a deferred call landing at the same instant
                # as kernel wake-ups must order deterministically.
                sim.call_in(action[1], trace.append, (idx, "tick"))

    sim.process(driver())
    sim.run()
    return {
        "trace": trace,
        "now": sim.now,
        "events": sim.events_scheduled,
        "stats": {
            name: {
                "work_done": r.stats.work_done,
                "busy_time": r.stats.busy_time,
                "jobs_completed": r.stats.jobs_completed,
                "work_by_tag": dict(r.stats.work_by_tag),
            }
            for name, r in resources.items()
        },
        "resources": resources,
        "submitted": submitted,
    }


class TestStorms:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_storm_is_deterministic(self, seed):
        plan = _make_plan(seed)
        first = _run_storm(plan)
        second = _run_storm(plan)
        assert second["trace"] == first["trace"]
        assert second["now"] == first["now"]
        assert second["stats"] == first["stats"]
        assert second["events"] == first["events"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_storm_completes_all_jobs(self, seed):
        result = _run_storm(_make_plan(seed))
        for name, jobs in result["submitted"].items():
            resource = result["resources"][name]
            assert jobs, f"storm submitted nothing to {name}"
            assert all(job.event.processed for job in jobs), name
            assert all(job.remaining == 0.0 for job in jobs), name
            assert resource.active_jobs == 0, name
            # Zero-work jobs complete at submit without entering service.
            served = sum(1 for job in jobs if job.work > 0)
            assert resource.stats.jobs_completed == served, name
        assert result["stats"]["cpu"]["jobs_completed"] > 20
        assert result["stats"]["disk"]["jobs_completed"] > 20


def _deep_churn():
    """600 jobs in waves of 200 on one resource, staggered arrivals."""
    sim = Simulator()
    cpu = FairShareResource(sim, "cpu", capacity=64.0)
    done = []
    works = []

    def driver():
        for _wave in range(3):
            for i in range(200):
                work = 1.0 + 0.01 * ((i * 7919) % 97)
                works.append(work)
                tag = "spill" if i % 2 else "shuffle"
                job = cpu.submit(work, tag=tag)
                job.event.add_callback(
                    lambda _e, i=i: done.append((sim.now, i)))
                if i % 16 == 0:
                    yield sim.timeout(0.0005)
            yield sim.timeout(50.0)

    sim.process(driver())
    sim.run()
    return {
        "done": done,
        "now": sim.now,
        "events": sim.events_scheduled,
        "stats": {
            "work_done": cpu.stats.work_done,
            "work_by_tag": dict(cpu.stats.work_by_tag),
            "jobs_completed": cpu.stats.jobs_completed,
        },
        "works": works,
    }


class TestDeepChurn:
    def test_wide_single_resource_churn_is_deterministic(self):
        first = _deep_churn()
        assert first == _deep_churn()
        assert len(first["done"]) == first["stats"]["jobs_completed"] == 600
        assert sorted(i for _t, i in first["done"]) == sorted(
            list(range(200)) * 3)
        assert first["stats"]["work_done"] == pytest.approx(
            sum(first["works"]), rel=1e-9)

    def test_remaining_reaches_zero(self):
        sim = Simulator()
        cpu = FairShareResource(sim, "cpu", capacity=2.0)
        jobs = [cpu.submit(4.0) for _ in range(40)]
        assert all(j.remaining == 4.0 for j in jobs)
        sim.run()
        assert all(j.remaining == 0.0 for j in jobs)
