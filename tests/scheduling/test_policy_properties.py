"""Property-based tests: Figure-2/3 invariants under arbitrary workloads.

Hypothesis drives random submission/completion sequences through the policy
engine and asserts the safety properties the paper's scheduler must uphold
regardless of traffic pattern.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.scheduling import (
    ElasticPolicyEngine,
    JobRequest,
    PolicyConfig,
)
from tests.scheduling.invariants import check_engine

# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

job_specs = st.tuples(
    st.integers(min_value=1, max_value=16),   # min_replicas
    st.integers(min_value=0, max_value=48),   # extra above min
    st.integers(min_value=1, max_value=5),    # priority
)

gaps = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)


@st.composite
def traffic(draw):
    """A list of (submit_gap, min, max, priority) tuples."""
    n = draw(st.integers(min_value=1, max_value=24))
    events = []
    for _ in range(n):
        gap = draw(gaps)
        mn, extra, pr = draw(job_specs)
        events.append((gap, mn, mn + extra, pr))
    return events


def run_workload(events, total_slots=64, rescale_gap=180.0, launcher_slots=0,
                 complete_every=3):
    """Replay a workload; completions fire for the oldest running job every
    ``complete_every`` submissions.  Returns the engine for inspection."""
    policy = ElasticPolicyEngine(
        total_slots,
        PolicyConfig(rescale_gap=rescale_gap, launcher_slots=launcher_slots),
    )
    now = 0.0
    for i, (gap, mn, mx, pr) in enumerate(events):
        now += gap
        policy.on_submit(
            JobRequest(name=f"j{i}", min_replicas=mn, max_replicas=mx, priority=pr),
            now,
        )
        check_engine(policy, now)
        if i % complete_every == complete_every - 1 and policy.running:
            victim = max(policy.running, key=lambda j: j.submit_time)
            now += 1.0
            policy.on_complete(victim.name, now)
            check_engine(policy, now)
    # Drain everything.
    while policy.running:
        now += 10.0
        policy.on_complete(policy.running[-1].name, now)
        check_engine(policy, now)
    return policy


@settings(max_examples=120, deadline=None)
@given(traffic())
def test_invariants_hold_under_default_gap(events):
    run_workload(events, rescale_gap=180.0)


@settings(max_examples=60, deadline=None)
@given(traffic())
def test_invariants_hold_under_zero_gap(events):
    run_workload(events, rescale_gap=0.0)


@settings(max_examples=60, deadline=None)
@given(traffic())
def test_invariants_hold_for_moldable(events):
    run_workload(events, rescale_gap=math.inf)


@settings(max_examples=60, deadline=None)
@given(traffic())
def test_invariants_hold_with_launcher_slots(events):
    run_workload(events, launcher_slots=1, total_slots=96)


@settings(max_examples=60, deadline=None)
@given(traffic(), st.integers(min_value=8, max_value=128))
def test_all_jobs_eventually_terminal(events, slots):
    policy = run_workload(events, total_slots=max(slots, 65))
    # With capacity >= 64 >= any min_replicas, after draining all running
    # jobs every job is either completed or still queued-but-startable; the
    # engine must never lose a job.
    states = policy.snapshot()
    assert len(states) == len(events)
    for _name, (state, replicas) in states.items():
        assert state in ("Completed", "Queued", "Running")
        if state == "Completed":
            assert replicas == 0


@settings(max_examples=60, deadline=None)
@given(traffic())
def test_rescale_gap_respected_between_actions(events):
    """No job experiences two scheduling actions within the gap."""
    gap = 120.0
    policy = ElasticPolicyEngine(64, PolicyConfig(rescale_gap=gap))
    now = 0.0
    actions = {}  # name -> list of action times

    def note(decisions, t):
        for d in decisions:
            kind = type(d).__name__
            if kind in ("ShrinkJob", "ExpandJob"):
                actions.setdefault(d.job.name, []).append(t)

    for i, (dt, mn, mx, pr) in enumerate(events):
        now += dt
        note(policy.on_submit(
            JobRequest(name=f"j{i}", min_replicas=mn, max_replicas=mx, priority=pr),
            now), now)
        if i % 4 == 3 and policy.running:
            victim = max(policy.running, key=lambda j: j.submit_time)
            now += 1.0
            note(policy.on_complete(victim.name, now), now)
    for name, times in actions.items():
        for t0, t1 in zip(times, times[1:]):
            assert t1 - t0 >= gap, f"{name} rescaled twice within the gap"


@settings(max_examples=40, deadline=None)
@given(traffic())
def test_determinism(events):
    a = run_workload(events)
    b = run_workload(events)
    assert [type(d).__name__ for d in a.decision_log] == [
        type(d).__name__ for d in b.decision_log
    ]
