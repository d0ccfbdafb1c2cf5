"""Tests for the §3.2.2 policy extensions: the ``aging`` and
``preemptive`` registry residents (hook stages of the one engine)."""

import dataclasses

import pytest

from repro.scheduling import (
    REGISTRY,
    Aging,
    ElasticPolicyEngine,
    EnqueueJob,
    JobState,
    PolicyConfig,
    PreemptJob,
    ResumeJob,
    StartJob,
)
from tests.scheduling.conftest import req
from tests.scheduling.invariants import check_engine


class TestAging:
    def make(self, aging_interval=100.0):
        return ElasticPolicyEngine(64, REGISTRY.resolve(
            "aging", rescale_gap=0.0, aging_interval=aging_interval,
            max_priority=10,
        ))

    def test_effective_priority_grows_while_queued(self):
        policy = self.make(aging_interval=100.0)
        aging = policy.config.aging
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)  # 64 slots
        policy.on_submit(req("starving", 32, 32, priority=1), 10.0)
        job = policy.job("starving")
        assert aging.effective_priority(job, 10.0) == 1
        assert aging.effective_priority(job, 210.0) == 3
        assert aging.effective_priority(job, 5000.0) == 10  # capped

    def test_running_jobs_do_not_age(self):
        policy = self.make()
        policy.on_submit(req("runner", 2, 8, priority=2), 0.0)
        job = policy.job("runner")
        assert policy.config.aging.effective_priority(job, 10_000.0) == 2

    def test_aged_job_jumps_the_queue(self):
        policy = self.make(aging_interval=100.0)
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)    # all slots
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)   # queues
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)  # queues
        # old-low has aged: 1 + 7 levels > new-high's 3.
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "old-low"

    def test_without_aging_the_low_priority_job_starves(self):
        policy = ElasticPolicyEngine(64, REGISTRY.resolve("elastic", rescale_gap=0.0))
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "new-high"

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="policy 'custom'"):
            PolicyConfig(name="custom", aging=Aging(interval=0.0, max_priority=10))


class TestPreemption:
    def make(self):
        return ElasticPolicyEngine(64, REGISTRY.resolve("preemptive", rescale_gap=0.0))

    def test_preempts_rigid_low_priority_victim(self):
        policy = self.make()
        # Two rigid (unshrinkable) low-priority jobs fill the cluster.
        policy.on_submit(req("low-a", 32, 32, priority=1), 0.0)
        policy.on_submit(req("low-b", 32, 32, priority=1), 0.0)
        decisions = policy.on_submit(req("high", 32, 32, priority=5), 10.0)
        assert [type(d).__name__ for d in decisions] == ["PreemptJob", "StartJob"]
        assert policy.job("high").state == JobState.RUNNING
        assert policy.job("low-b").state == JobState.QUEUED
        assert policy.job("low-b").last_action == 10.0
        assert policy.free_slots >= 0

    def test_no_preemption_for_equal_priority(self):
        policy = self.make()
        policy.on_submit(req("a", 32, 32, priority=3), 0.0)
        policy.on_submit(req("b", 32, 32, priority=3), 0.0)
        decisions = policy.on_submit(req("c", 32, 32, priority=3), 10.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]

    def test_index_zero_job_protected_from_preemption(self):
        policy = self.make()
        policy.on_submit(req("only", 64, 64, priority=1), 0.0)
        decisions = policy.on_submit(req("high", 8, 8, priority=5), 10.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        assert policy.job("only").state == JobState.RUNNING

    def test_preempted_job_resumes_later(self):
        policy = self.make()
        policy.on_submit(req("low-a", 32, 32, priority=1), 0.0)
        policy.on_submit(req("low-b", 32, 32, priority=1), 0.0)
        policy.on_submit(req("high", 32, 32, priority=5), 10.0)
        assert policy.job("low-b").state == JobState.QUEUED
        # The high-priority job finishes; the victim resumes from disk.
        decisions = policy.on_complete("high", 500.0)
        resumes = [d for d in decisions if isinstance(d, ResumeJob)]
        assert [r.job.name for r in resumes] == ["low-b"]
        assert policy.job("low-b").state == JobState.RUNNING

    def test_shrinking_preferred_over_preemption(self):
        policy = self.make()
        policy.on_submit(req("top", 2, 2, priority=5), 0.0)
        policy.on_submit(req("low", 8, 62, priority=1), 0.0)  # elastic victim
        decisions = policy.on_submit(req("high", 40, 40, priority=4), 10.0)
        kinds = [type(d).__name__ for d in decisions]
        assert "ShrinkJob" in kinds
        assert "PreemptJob" not in kinds

    def test_decision_log_is_exactly_what_the_engine_returned(self):
        """A preempting arrival is logged once: no phantom EnqueueJob."""
        policy = self.make()
        returned = []
        returned += policy.on_submit(req("low-a", 32, 32, priority=1), 0.0)
        returned += policy.on_submit(req("low-b", 16, 32, priority=1), 0.0)
        returned += policy.on_submit(req("high", 32, 32, priority=5), 10.0)
        returned += policy.on_complete("high", 500.0)
        returned += policy.on_complete("low-a", 600.0)
        assert policy.decision_log == returned
        high = [d for d in policy.decision_log if d.job.name == "high"]
        assert [type(d) for d in high] == [StartJob]


def power_capped_preemptive(budget_watts=12_000.0):
    """The power-capped scenario with the preemption stage switched on."""
    return dataclasses.replace(
        REGISTRY.resolve(
            "power-capped", rescale_gap=0.0, budget_watts=budget_watts
        ),
        preemption=True,
    )


class TestPreemptionUnderPowerCap:
    def test_budget_tracks_live_draw_after_every_event(self):
        policy = ElasticPolicyEngine(64, power_capped_preemptive())
        events = [
            (0.0, lambda now: policy.on_submit(
                req("low-a", 32, 32, priority=1, watts_per_replica=100.0), now)),
            (0.0, lambda now: policy.on_submit(
                req("low-b", 32, 32, priority=1, watts_per_replica=100.0), now)),
            (10.0, lambda now: policy.on_submit(
                req("high", 32, 32, priority=5, watts_per_replica=100.0), now)),
            (500.0, lambda now: policy.on_complete("high", now)),
            (600.0, lambda now: policy.on_complete("low-a", now)),
        ]
        kinds = []
        for now, event in events:
            decisions = event(now)
            kinds += [type(d) for d in decisions]
            check_engine(policy, now, decisions)
        assert PreemptJob in kinds and ResumeJob in kinds
        assert [j.name for j in policy.running] == ["low-b"]

    def test_preempts_for_watts_when_slots_are_free(self):
        policy = ElasticPolicyEngine(64, power_capped_preemptive(6_400.0))
        policy.on_submit(
            req("low-a", 16, 16, priority=1, watts_per_replica=200.0), 0.0)
        policy.on_submit(
            req("low-b", 16, 16, priority=1, watts_per_replica=200.0), 0.0)
        # 32 slots are free, but the two rigid jobs draw the whole 6.4 kW.
        decisions = policy.on_submit(
            req("high", 8, 8, priority=5, watts_per_replica=100.0), 10.0)
        assert [type(d) for d in decisions] == [PreemptJob, StartJob]
        assert decisions[0].job.name == "low-b"
        assert policy.job("high").state == JobState.RUNNING
        check_engine(policy, 10.0, decisions)

    def test_post_preemption_start_is_capped_by_the_budget(self):
        policy = ElasticPolicyEngine(64, power_capped_preemptive(6_400.0))
        policy.on_submit(
            req("low-a", 32, 32, priority=1, watts_per_replica=100.0), 0.0)
        policy.on_submit(
            req("low-b", 32, 32, priority=1, watts_per_replica=100.0), 0.0)
        # Preempting low-b would free its slots, but 32 × 300 W can never
        # fit in 6.4 kW: nobody is checkpointed for nothing.
        decisions = policy.on_submit(
            req("high", 32, 32, priority=5, watts_per_replica=300.0), 10.0)
        assert [type(d) for d in decisions] == [EnqueueJob]
        assert policy.job("high").state == JobState.QUEUED
        assert policy.job("low-b").state == JobState.RUNNING
        assert policy._constraint.used == 6_400.0
        check_engine(policy, 10.0, decisions)


class TestSimulatorIntegration:
    def test_preemption_round_trip_in_simulator(self):
        from repro.schedsim import ScheduleSimulator
        from tests.schedsim.test_simulator import submission

        sim = ScheduleSimulator(REGISTRY.resolve("preemptive", rescale_gap=0.0))
        subs = [
            submission("v1", "large", time=0.0, priority=1),
            submission("v2", "large", time=0.0, priority=1),
            # Rigidify victims by giving the arrival overwhelming priority
            # and a size that cannot be satisfied by shrinking alone.
            submission("boss", "xlarge", time=100.0, priority=5),
        ]
        # large: min 8 max 32 -> both victims run at 32; boss needs 16 min.
        result = sim.run(subs)
        assert len(result.outcomes) == 3
        for outcome in result.outcomes:
            assert outcome.completion_time > outcome.start_time

    def test_aging_engine_in_simulator(self):
        from repro.schedsim import ScheduleSimulator
        from tests.schedsim.test_simulator import submission

        sim = ScheduleSimulator(REGISTRY.resolve("aging", aging_interval=120.0))
        subs = [submission(f"j{i}", "medium", time=i * 30.0, priority=1 + i % 5)
                for i in range(8)]
        result = sim.run(subs)
        assert len(result.outcomes) == 8

    @pytest.mark.parametrize("policy", ["aging", "preemptive"])
    def test_residents_complete_on_a_spot_fleet(self, policy):
        from repro.cloud import CloudScenario, run_cloud_once

        result = run_cloud_once(
            policy, "queue",
            CloudScenario(initial_nodes=2, min_nodes=2, max_nodes=4,
                          spot_nodes=2, spot_mean_lifetime=1200.0),
            seed=7, num_jobs=20, submission_gap=30.0,
        )
        assert result.cost.interruptions > 0
        assert result.metrics.job_count == 20
        assert result.metrics.policy == policy
