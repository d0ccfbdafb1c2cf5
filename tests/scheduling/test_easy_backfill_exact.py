"""EASY backfilling, pinned exactly.

Two guards around the ``easy-backfill`` admission rule:

* **decision digests** — SHA-256 over the full decision log and the
  recorded head reservations of pinned runs (aggressive and
  conservative, backlog-shaped streams and §4.3.1 paper streams).  Any
  change to a single EASY decision or reservation changes a digest;
* **differential check** — a wrapped rule that, on every ``allows``
  call, also computes the two-projection verdict (the reserved head's
  start with and without the candidate running) and asserts the fast
  shadow rule returns the same verdict and records the same
  reservation — on the plain simulator, on a finite-gap config whose
  expansions run mid-walk, and on a spot fleet whose capacity grows,
  shrinks and requeues jobs.

The module also keeps the literal Figure-3 scan (:class:`ScanEngine`)
as the oracle the engine's indexed walk must match decision for
decision — under EASY, and under the capacity-constraint and aging
stages that ride the same walk.
"""

import dataclasses
import hashlib
import itertools
import random

import pytest

from repro.cloud import (
    CloudProvider,
    CloudScenario,
    CloudScheduleSimulator,
    QueueDepthAutoscaler,
)
from repro.scheduling import (
    ElasticPolicyEngine,
    JobRequest,
    JobState,
    PolicyConfig,
    priority_order_key,
)
from repro.scheduling.literature import EasyBackfill
from repro.scheduling.policy import Aging
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload
from repro.workloads import PoissonArrivals, SyntheticWorkload, UniformMix

from .test_decision_log_equivalence import serialize


class WriteLog(dict):
    """A reservation map that remembers every write, in order.

    The digest hashes the *stream* of recorded head reservations rather
    than the final map, so dropping stale entries (bookkeeping only)
    cannot move it while any change to a recorded value does.
    """

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, name, reserved_at):
        self.writes.append((name, reserved_at))
        super().__setitem__(name, reserved_at)


def easy_config(conservative):
    config = REGISTRY.resolve("easy-backfill", conservative=conservative)
    config.backfill.last_head_reservations = WriteLog()
    return config


def digest(simulator):
    """SHA-256 of the decision log plus every recorded head reservation."""
    h = hashlib.sha256()
    for decision in simulator.policy.decision_log:
        h.update(repr(serialize(decision)).encode())
    writes = simulator.policy.config.backfill.last_head_reservations.writes
    h.update(repr(writes).encode())
    return h.hexdigest()


def backlog_stream(seed, jobs=300):
    """The benchmark's ``backlog`` shape: 3x overload on 256 slots."""
    return SyntheticWorkload(
        jobs, PoissonArrivals(0.1), UniformMix(), seed=seed
    ).submissions()


def run_backlog(config, seed):
    simulator = ScheduleSimulator(config, total_slots=256)
    result = simulator.run(backlog_stream(seed))
    assert result.metrics.job_count == 300
    return simulator


def run_paper(config, seed, gap):
    simulator = ScheduleSimulator(config)
    simulator.run(generate_workload(
        WorkloadSpec(num_jobs=16, submission_gap=gap, seed=seed)
    ))
    return simulator


# Recorded on the two-projection rule (before the shadow fast path).
BACKLOG_DIGESTS = {
    (False, 1): (
        "7e5f20a50038c438e8098ead5d9d1f9a"
        "1f5aac255d7b64d805d158b2d53ad787"
    ),
    (False, 2): (
        "87f73f7d9770c1dcbe25c68e83a226d9"
        "90916dc5213039607a8779fedab20308"
    ),
    (False, 3): (
        "228e15ee27e5eb7d049c6875f549f899"
        "2c94a13039fa6b3b3e70e385f1d31028"
    ),
    (True, 1): (
        "417ae6577e436f7a86e54ff7445e18ee"
        "18df98b5c5c1944f7673cfa4cbe5a7a3"
    ),
    (True, 2): (
        "72cdeea2a647b2ef57bbafd44348e8af"
        "6088c2e2b34c6b0def1b813991c7b9cf"
    ),
}
PAPER_DIGESTS = {
    (False, 2, 30.0): (
        "73a645f9aef144a501c8ca9a32c3bdbf"
        "3a7844c58c1af5245b0477cb4e8a57a8"
    ),
    (False, 3, 0.0): (
        "6111d4626ee520abe212e0690aa63d4c"
        "be6f61e189efea2d1d2f9689a82f0aaa"
    ),
    (False, 5, 0.0): (
        "abd552475ce3120440ff2001328dd2be"
        "ea95b2158992fc6e1aa6ae746b9557aa"
    ),
    (False, 9, 90.0): (
        "04bf42f213073bcc58b5ed6c8c65be10"
        "ace94dbf2de3c370a4013c6ddf28d06c"
    ),
    (True, 5, 0.0): (
        "abd552475ce3120440ff2001328dd2be"
        "ea95b2158992fc6e1aa6ae746b9557aa"
    ),
    (True, 3, 30.0): (
        "982c96e079e933f57896b2326bc107b7"
        "858cd0fc54f11457e68b7798f0ed25f8"
    ),
    (True, 7, 0.0): (
        "f1980f870408cd70a197d1e0c9e6669b"
        "adabcf7c0b1a506f35f36365e7d2e956"
    ),
}


class TestEasyDecisionDigest:
    @pytest.mark.parametrize("conservative,seed", sorted(BACKLOG_DIGESTS))
    def test_backlog_stream(self, conservative, seed):
        simulator = run_backlog(easy_config(conservative), seed)
        assert digest(simulator) == BACKLOG_DIGESTS[conservative, seed]

    @pytest.mark.parametrize("conservative,seed,gap", sorted(PAPER_DIGESTS))
    def test_paper_stream(self, conservative, seed, gap):
        simulator = run_paper(easy_config(conservative), seed, gap)
        assert digest(simulator) == PAPER_DIGESTS[conservative, seed, gap]


class CheckedEasyBackfill(EasyBackfill):
    """EASY whose every verdict is re-derived by the projection oracle.

    The oracle is the rule's two-projection check, run from scratch on
    the same engine state: the head's earliest start with and without
    the candidate's slots, admitted when the former is within ``1e-9``
    s of the latter.  The fast rule must agree on the verdict and, when
    admitting, record exactly the oracle's with-candidate reservation.
    A closed gate (``refuses_all``) must be one the oracle refuses for
    every queued job behind the head at every size in its range; each
    certified closure counts as one refusal.
    """

    def __init__(self):
        super().__init__()
        self.verdicts = {True: 0, False: 0}

    def oracle(self, engine, job, replicas, now):
        """``(head, admitted, reserved)`` by the two projections."""
        key = priority_order_key(job)
        head = next(
            (q for q in engine.queue
             if q is not job and priority_order_key(q) < key
             and q.state == JobState.QUEUED),
            None,
        )
        if head is None:
            return None, True, None
        launcher = engine.config.launcher_slots
        free, releases = self._release_profile(engine, now, launcher)
        base = self._project([head], free, list(releases), now, launcher)
        need = replicas + launcher
        releases.append((now + self._estimate(job.request, replicas), need))
        trial = self._project([head], free - need, releases, now, launcher)
        reserved = trial[head.name]
        return head, reserved <= base[head.name] + 1e-9, reserved

    def allows(self, engine, job, replicas, now):
        head, expected, reserved = self.oracle(engine, job, replicas, now)
        verdict = super().allows(engine, job, replicas, now)
        assert verdict == expected, (job.name, now)
        if head is not None and verdict:
            assert self.last_head_reservations[head.name] == reserved
        self.verdicts[verdict] += 1
        return verdict

    def refuses_all(self, engine, now):
        closed = super().refuses_all(engine, now)
        if closed:
            queued = [q for q in engine.queue if q.state == JobState.QUEUED]
            for job in queued[1:]:
                for replicas in range(job.min_replicas, job.max_replicas + 1):
                    head, admitted, _ = self.oracle(engine, job, replicas, now)
                    assert head is queued[0], (job.name, now)
                    assert not admitted, (job.name, replicas, now)
            self.verdicts[False] += 1
        return closed


def checked(config):
    return dataclasses.replace(config, backfill=CheckedEasyBackfill())


class TestShadowRuleMatchesProjection:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_easy_backfill_backlog(self, seed):
        config = checked(REGISTRY.resolve("easy-backfill"))
        run_backlog(config, seed)
        assert config.backfill.verdicts[True] > 0
        assert config.backfill.verdicts[False] > 0

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_easy_backfill_paper(self, seed):
        config = checked(REGISTRY.resolve("easy-backfill"))
        run_paper(config, seed, 0.0)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_finite_gap_expansions_mid_walk(self, seed):
        # Elastic sizing with a backfill gate: walks interleave
        # expansions and gated starts, and every expansion must
        # invalidate the cached shadow before the next candidate.
        config = PolicyConfig(
            name="easy-elastic", rescale_gap=60.0,
            backfill=CheckedEasyBackfill(),
        )
        simulator = ScheduleSimulator(config, total_slots=256)
        simulator.run(backlog_stream(seed, jobs=200))
        kinds = {type(d).__name__ for d in simulator.policy.decision_log}
        assert "ExpandJob" in kinds
        assert config.backfill.verdicts[True] > 0
        assert config.backfill.verdicts[False] > 0

    @pytest.mark.parametrize("seed", [7, 18])
    def test_spot_fleet(self, seed):
        # Capacity grows, shrinks and requeues evicted jobs between
        # (and inside) the walks that consult the rule.
        scenario = CloudScenario(
            initial_nodes=2, min_nodes=2, max_nodes=4,
            spot_nodes=2, spot_mean_lifetime=1200.0,
        )
        config = checked(REGISTRY.resolve("easy-backfill"))
        simulator = CloudScheduleSimulator(
            config, CloudProvider(scenario.pools(), seed=seed),
            autoscaler=QueueDepthAutoscaler(),
        )
        result = simulator.run(generate_workload(
            WorkloadSpec(num_jobs=40, submission_gap=15.0, seed=seed)
        ))
        assert result.metrics.job_count == 40
        kinds = {type(d).__name__ for d in simulator.policy.decision_log}
        assert "RequeueJob" in kinds
        assert sum(config.backfill.verdicts.values()) > 0


def drive_same_instant(engine, seed, events=400):
    """Random transitions, many of them at one shared instant.

    The shadow memo is keyed on ``now`` as well as the engine's
    transition counter, so only transitions that land at the *same*
    virtual time as an earlier check can expose a missing counter bump:
    time advances on a minority of events here.
    """
    rng = random.Random(seed)
    now = 0.0
    for n in range(events):
        if rng.random() < 0.25:
            now += rng.choice((1.0, 10.0, 60.0))
        running = list(engine.running)
        roll = rng.random()
        if roll < 0.45 or not running:
            low = rng.randint(1, 6)
            engine.on_submit(JobRequest(
                name=f"j{n}", min_replicas=low,
                max_replicas=low + rng.choice((0, 2, 8)),
                priority=rng.randint(1, 3),
                params={"est_runtime": rng.choice((5.0, 30.0, 120.0, 600.0))},
            ), now)
        elif roll < 0.75:
            engine.on_complete(rng.choice(running).name, now)
        elif roll < 0.83:
            engine.grow_capacity(rng.randint(1, 8), now)
        elif roll < 0.91:
            if engine.total_slots > 16:
                engine.shrink_capacity(rng.randint(1, 8), now,
                                       force=rng.random() < 0.5)
        else:
            job = rng.choice(running)
            if job.replicas > job.min_replicas:
                engine.on_rescale_failed(
                    job.name, rng.randint(job.min_replicas, job.replicas)
                )
                engine.rebalance(now)


@pytest.mark.parametrize("gap", [float("inf"), 0.0, 20.0])
@pytest.mark.parametrize("seed", range(6))
def test_every_transition_invalidates_the_shadow(seed, gap):
    rule = CheckedEasyBackfill()
    engine = ElasticPolicyEngine(
        32, PolicyConfig(name="easy", rescale_gap=gap, backfill=rule)
    )
    drive_same_instant(engine, seed)
    assert sum(rule.verdicts.values()) > 20


class ScanEngine(ElasticPolicyEngine):
    """The engine with every Figure-3 walk on the literal scan.

    The scan sorts Figure 3's ``allJobs`` — running and queued jobs —
    by decreasing priority at ``now`` (a queued job's aged priority
    under the aging stage) and visits every candidate in turn.  It caps
    expansions and queued starts by the capacity constraint, and once a
    queued job is left waiting every later queued start must pass the
    backfill gate.  The engine's indexed walk must emit exactly its
    decisions.
    """

    def _candidates_by_priority(self, now):
        aging = self._aging
        if aging is None:
            key = priority_order_key
        else:
            def key(j):
                return (-aging.effective_priority(j, now), j.submit_time, j.seq)
        return sorted(itertools.chain(self.running, self.queue), key=key)

    def _redistribute(self, num_workers, now, decisions):
        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        cons = self._constraint
        backfill = self._backfill
        passed_queued = False  # a queued job was left waiting upstream
        for candidate in self._candidates_by_priority(now):
            if num_workers <= 0:
                break
            if now - candidate.last_action < gap:
                if candidate.state == JobState.QUEUED:
                    passed_queued = True
                continue
            if candidate.replicas < candidate.max_replicas:
                add = min(num_workers, candidate.max_replicas - candidate.replicas)
                if candidate.state == JobState.QUEUED:
                    # Starting a queued job also needs its launcher slot.
                    add = min(num_workers - reserve, candidate.max_replicas)
                    if cons is not None:
                        add = min(add, cons.admit(candidate.request))
                    if add >= candidate.min_replicas and (
                        backfill is None
                        or not passed_queued
                        or backfill.allows(self, candidate, add, now)
                    ):
                        decisions.append(self._start_queued(candidate, add, now))
                        num_workers -= add + reserve
                    else:
                        passed_queued = True
                else:
                    if cons is not None:
                        add = min(add, cons.admit(candidate.request))
                    if add > 0 and candidate.replicas + add >= candidate.min_replicas:
                        decisions.append(
                            self._expand(candidate, candidate.replicas + add, now)
                        )
                        num_workers -= add


def drive_ranked_widths(engine, seed, n_jobs=700):
    """A deep multi-block queue whose high-priority jobs are wide.

    Width grows with priority, so on small budgets the indexed walk
    skips whole high-priority queue blocks (and single wide members)
    before reaching a narrow job it may start — which must then be
    gated exactly as the literal scan gates it.
    """
    rng = random.Random(seed)
    log = []
    now = 0.0
    blocks = 0
    for i in range(n_jobs):
        now += rng.choice((0.0, 30.0, 120.0))
        priority = rng.randint(1, 5)
        low = rng.randint(1, 3) * 2 ** priority
        request = JobRequest(
            name=f"j{i}", min_replicas=low,
            max_replicas=low + rng.choice((0, low)),
            priority=priority,
            params={"est_runtime": rng.choice((60.0, 600.0, 3600.0))},
        )
        log.extend(map(serialize, engine.on_submit(request, now)))
        if i % 3 == 2 and engine.running:
            victim = rng.choice([j.name for j in engine.running])
            log.extend(map(serialize, engine.on_complete(victim, now)))
        blocks = max(blocks, len(engine.queue.blocks))
    while engine.running:
        now += 60.0
        victim = rng.choice([j.name for j in engine.running])
        log.extend(map(serialize, engine.on_complete(victim, now)))
    return log, blocks


def power_capped():
    # Room for about two thirds of the cluster at the default draw, so
    # the watt cap binds on both sides of the walk.
    return REGISTRY.resolve("power-capped", budget_watts=50_000.0)


def aging():
    return REGISTRY.resolve("aging", aging_interval=300.0)


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: REGISTRY.resolve("easy-backfill"),
        lambda: REGISTRY.resolve("easy-backfill", launcher_slots=1),
        # Preempted jobs re-enter the queue inside their rescale gap:
        # the walk must treat them as left waiting upstream.
        lambda: PolicyConfig(name="easy-preemptive", rescale_gap=300.0,
                             preemption=True, backfill=EasyBackfill()),
        power_capped,
        lambda: dataclasses.replace(power_capped(), backfill=EasyBackfill()),
        aging,
        lambda: dataclasses.replace(aging(), preemption=True),
    ],
    ids=["easy", "easy-launcher", "easy-preemptive-gap", "power-capped",
         "power-capped-easy", "aging", "aging-preemptive"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_indexed_walk_matches_literal_scan(make_config, seed):
    indexed = ElasticPolicyEngine(512, make_config())
    scan = ScanEngine(512, make_config())
    log, blocks = drive_ranked_widths(indexed, seed)
    assert blocks >= 3, "the queue never spanned several blocks"
    assert log == drive_ranked_widths(scan, seed)[0]
    if indexed.config.backfill is not None:
        assert (
            indexed.config.backfill.last_head_reservations
            == scan.config.backfill.last_head_reservations
        )


def test_block_emptied_by_starts_passes_nobody_over():
    """A queue block whose every member started leaves no job waiting.

    Block 0 holds 64 two-wide jobs and block 1 begins with a one-wide
    job.  The completion's walk starts all of block 0, which leaves one
    slot; block 0's ``min_needed`` (2) now exceeds the budget, but
    skipping it passes nobody over.  The one-wide job is then the head,
    and starting the head is never a backfill — so the gate may not be
    closed on it, even though no other queued job could backfill.
    """
    logs = []
    for engine_cls in (ElasticPolicyEngine, ScanEngine):
        engine = engine_cls(129, REGISTRY.resolve("easy-backfill"))
        engine.on_submit(JobRequest(
            name="r", min_replicas=129, max_replicas=129,
            params={"est_runtime": 1_000.0},
        ), 0.0)
        for i in range(129):
            width = 2 if i < 64 else 1
            engine.on_submit(JobRequest(
                name=f"q{i}", min_replicas=width, max_replicas=width,
                priority=2 if i < 64 else 1,
                params={"est_runtime": 500.0},
            ), 1.0)
        if engine_cls is ElasticPolicyEngine:
            assert [len(b.jobs) for b in engine.queue.blocks] == [64, 65]
        logs.append([serialize(d) for d in engine.on_complete("r", 10.0)])
    started = [d[1] for d in logs[0]]
    assert len(started) == 65 and started[-1] == "q64"
    assert logs[0] == logs[1]


def test_aged_head_is_protected_from_backfill():
    """EASY reserves for the head of the *aged* queue.

    On 10 slots, R1 holds 6 until t=100 and R2 holds 4 until t=1000.  A
    (priority 1, 10 wide) waits from t=0; B (priority 3, 6 wide, 5000 s)
    from t=90.  With one level gained per 10 s, A has aged to the cap
    (10) and B to 4 when R1 completes, so A is the head: it cannot start
    on 6 slots, and B would push its reservation from t=1000 to t=5100.
    Judged by the submitted priorities instead, B would be the head and
    start.
    """
    engine = ElasticPolicyEngine(10, PolicyConfig(
        name="aging-easy", rescale_gap=float("inf"),
        aging=Aging(interval=10.0, max_priority=10), backfill=EasyBackfill(),
    ))
    for name, width, priority, runtime, now in (
        ("R1", 6, 1, 100.0, 0.0),
        ("R2", 4, 1, 1000.0, 0.0),
        ("A", 10, 1, 100.0, 0.0),
        ("B", 6, 3, 5000.0, 90.0),
    ):
        engine.on_submit(JobRequest(
            name=name, min_replicas=width, max_replicas=width,
            priority=priority, params={"est_runtime": runtime},
        ), now)
    assert [j.name for j in engine.running] == ["R1", "R2"]
    assert engine.on_complete("R1", 100.0) == []
    assert engine.job("B").state is JobState.QUEUED
