"""One checker for the policy engine's bookkeeping invariants.

``check_engine(engine, now, decisions)`` is called after an event (a
submission, completion, capacity change or rescale failure at virtual
time ``now``, which returned ``decisions``) and asserts:

* slots are conserved: the O(1) ``free_slots`` counter is never negative
  and equals the total minus a from-scratch re-sum of every running
  job's replicas and launcher slots;
* running jobs are ``Running``, hold replicas within [min, max], sit in
  decreasing priority order and carry no future ``last_action``;
* queued jobs are ``Queued`` and hold 0 replicas; their ``last_action``
  is ``-inf`` unless they were preempted (a preemption is a scheduling
  event, so it stamps the time);
* without aging the queue is in decreasing priority order too (under
  aging it is keyed by aged priority, which the list check covers);
* running and queued are disjoint, and every live job is on the list its
  state names;
* both lists' block aggregates are exact
  (:meth:`~repro.scheduling.joblist.IndexedJobList.check_invariants`);
* a capacity constraint's ``used`` equals the running jobs' live draw
  (exactly: the shipped and tested weights are representable);
* a batch containing a ``PreemptJob`` ends with the arrival's
  ``StartJob``, and every victim ranks strictly below the arrival.
"""

import math

from repro.scheduling import JobState, PreemptJob, StartJob


def _priority_order(jobs):
    return [(-job.priority, job.submit_time, job.seq) for job in jobs]


def check_engine(engine, now, decisions=()):
    running = list(engine.running)
    queued = list(engine.queue)

    held = sum(job.replicas + engine.config.launcher_slots for job in running)
    assert engine.free_slots >= 0
    assert engine.free_slots == engine.total_slots - held

    for job in running:
        assert job.state == JobState.RUNNING
        assert job.min_replicas <= job.replicas <= job.max_replicas
        assert job.last_action <= now
    assert _priority_order(running) == sorted(_priority_order(running))

    for job in queued:
        assert job.state == JobState.QUEUED
        assert job.replicas == 0
        if job.name in engine._preempted:
            assert job.last_action <= now
        else:
            assert job.last_action == -math.inf
    if engine._aging is None:
        assert _priority_order(queued) == sorted(_priority_order(queued))

    running_names = {job.name for job in running}
    queued_names = {job.name for job in queued}
    assert len(running_names) == len(running)
    assert len(queued_names) == len(queued)
    assert running_names.isdisjoint(queued_names)
    for name, job in engine._jobs.items():
        if job.state == JobState.RUNNING:
            assert name in running_names
        elif job.state == JobState.QUEUED:
            assert name in queued_names
    engine.running.check_invariants()
    engine.queue.check_invariants()

    cons = engine._constraint
    if cons is not None:
        live = sum(job.replicas * cons.weight(job.request) for job in running)
        assert cons.used == live, f"constraint used {cons.used} != live {live}"

    if any(type(d) is PreemptJob for d in decisions):
        start = decisions[-1]
        assert type(start) is StartJob, "preemption without the arrival's start"
        assert start.job.state == JobState.RUNNING
        for decision in decisions:
            if type(decision) is PreemptJob:
                assert decision.job.priority < start.job.priority
