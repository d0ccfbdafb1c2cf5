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
"""

import dataclasses
import hashlib
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
    """

    def __init__(self):
        super().__init__()
        self.verdicts = {True: 0, False: 0}

    def allows(self, engine, job, replicas, now):
        key = priority_order_key(job)
        head = next(
            (q for q in engine.queue
             if q is not job and priority_order_key(q) < key
             and q.state == JobState.QUEUED),
            None,
        )
        expected = True
        reserved = None
        if head is not None:
            launcher = engine.config.launcher_slots
            free, releases = self._release_profile(engine, now, launcher)
            base = self._project([head], free, list(releases), now, launcher)
            need = replicas + launcher
            releases.append(
                (now + self._estimate(job.request, replicas), need)
            )
            trial = self._project([head], free - need, releases, now,
                                  launcher)
            reserved = trial[head.name]
            expected = reserved <= base[head.name] + 1e-9
        verdict = super().allows(engine, job, replicas, now)
        assert verdict == expected, (job.name, now)
        if head is not None and verdict:
            assert self.last_head_reservations[head.name] == reserved
        self.verdicts[verdict] += 1
        return verdict


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
    """The engine with every Figure-3 walk on the literal scan."""

    def _redistribute(self, num_workers, now, decisions):
        self._redistribute_scan(num_workers, now, decisions)


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


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: REGISTRY.resolve("easy-backfill"),
        lambda: REGISTRY.resolve("easy-backfill", launcher_slots=1),
        # Preempted jobs re-enter the queue inside their rescale gap:
        # the walk must treat them as left waiting upstream.
        lambda: PolicyConfig(name="easy-preemptive", rescale_gap=300.0,
                             preemption=True, backfill=EasyBackfill()),
    ],
    ids=["easy", "easy-launcher", "easy-preemptive-gap"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_indexed_walk_matches_literal_scan(make_config, seed):
    indexed = ElasticPolicyEngine(512, make_config())
    scan = ScanEngine(512, make_config())
    log, blocks = drive_ranked_widths(indexed, seed)
    assert blocks >= 3, "the queue never spanned several blocks"
    assert log == drive_ranked_widths(scan, seed)[0]
    assert (
        indexed.config.backfill.last_head_reservations
        == scan.config.backfill.last_head_reservations
    )
