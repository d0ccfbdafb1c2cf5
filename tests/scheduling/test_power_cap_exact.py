"""Power-capped scheduling, pinned exactly.

SHA-256 digests over the full decision log of randomized 256-slot
streams under the ``power-capped`` capacity constraint.  Every job
carries its own ``watts_per_replica``, so the watt budget binds before
the slot count does and the dual-deficit Figure-2 walk (slots and
watts) is what decides most arrivals.  The streams also fail rescales,
grow the cluster, and shrink it both cooperatively and by force, so
the constraint's charges are exercised on every transition.

The configurations cover the default rescale gap, a zero gap with a
launcher slot, an infinite gap (moldable sizing), and the constraint
combined with EASY backfilling and with preemption.  Any change to a
single decision, capacity removal or final placement changes a digest.
"""

import dataclasses
import hashlib
import math
import random

import pytest

from repro.scheduling import (
    ElasticPolicyEngine,
    EnqueueJob,
    JobRequest,
    PreemptJob,
)
from repro.scheduling.literature import EasyBackfill
from repro.scheduling.registry import REGISTRY

from .invariants import check_engine
from .test_decision_log_equivalence import serialize

TOTAL_SLOTS = 256

#: About half the draw of a full cluster: watts bind first on most
#: arrivals, but wide arrivals still run out of slots (which is what
#: lets preemption fire).
BUDGET_WATTS = 24_000.0


def power_capped(**overrides):
    return REGISTRY.resolve(
        "power-capped", budget_watts=BUDGET_WATTS, **overrides
    )


CONFIGS = {
    "default-gap": power_capped,
    "gap0-launcher": lambda: power_capped(rescale_gap=0.0, launcher_slots=1),
    "gap-inf": lambda: power_capped(rescale_gap=math.inf),
    "easy": lambda: dataclasses.replace(power_capped(), backfill=EasyBackfill()),
    "preemptive": lambda: dataclasses.replace(power_capped(), preemption=True),
}


def power_request(rng, name):
    low = rng.randint(1, 32)
    return JobRequest(
        name=name,
        min_replicas=low,
        max_replicas=low + rng.choice((0, 4, 16, 48)),
        priority=rng.randint(1, 5),
        params={
            "watts_per_replica": rng.choice((50.0, 100.0, 150.0, 250.0, 400.0)),
            "est_runtime": rng.choice((60.0, 300.0, 1800.0)),
        },
    )


def drive_power(engine, seed, events=500):
    """One randomized stream; returns its serialized event log.

    Every random draw depends only on the engine's running list, so two
    engines that decide alike see the same stream.  The engine's
    invariants are checked after every event.
    """
    rng = random.Random(seed)
    log = []
    now = 0.0
    submitted = 0

    def record(decisions):
        log.extend(map(serialize, decisions))
        check_engine(engine, now, decisions)

    for _ in range(events):
        now += rng.expovariate(1.0 / 60.0)
        running = list(engine.running)
        roll = rng.random()
        if roll < 0.5 or not running:
            record(engine.on_submit(power_request(rng, f"j{submitted}"), now))
            submitted += 1
        elif roll < 0.8:
            victim = rng.choice(running).name
            record(engine.on_complete(victim, now))
        elif roll < 0.86:
            job = rng.choice(running)
            actual = rng.randint(job.min_replicas, job.replicas)
            engine.on_rescale_failed(job.name, actual)
            log.append(("RescaleFailed", job.name, actual))
            check_engine(engine, now)
            record(engine.rebalance(now))
        elif roll < 0.93:
            slots = rng.randint(1, 32)
            log.append(("Grow", slots))
            record(engine.grow_capacity(slots, now))
        elif engine.total_slots > 64:
            force = rng.random() < 0.5
            removed, decisions = engine.shrink_capacity(
                rng.randint(1, 32), now, force=force
            )
            log.append(("Shrink", force, removed))
            record(decisions)
            if force:
                record(engine.rebalance(now))
    while engine.running:
        now += 60.0
        victim = rng.choice(list(engine.running)).name
        record(engine.on_complete(victim, now))
    log.append(("Final", sorted(engine.snapshot().items()), engine.free_slots))
    return log


def digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


# Recorded on the engine whose constrained submissions and completions
# took the literal (non-indexed) walks; the ``preemptive`` rows on the
# engine that preempts only when the victims free both the arrival's
# slots and its watts.
DIGESTS = {
    ('default-gap', 1): '74c1d666a14fc597f46f59102a335a5f565c6f508a7372b6a7f7cac8931531e8',
    ('default-gap', 4): '1ebc2e737b886f08398dc93c0f1668d6a38ce7851a005fce26e29a7aa1e7ce76',
    ('default-gap', 5): '2eb25e0816fbfc61b98aca4b56fad222492bcf2baa02e9650c87e37347accb26',
    ('easy', 1): '6300261fbec7d9338f471b03d92b23dec68e9ccc167e197b0c7088cd533db88c',
    ('easy', 4): '1e7f539d68dadf362a025b94ad377d93f94c9b16387b0973e8837512124b7a20',
    ('easy', 5): 'bfdd69aec11ae88afbe87b2c1db073ae1beaa4f9488e59593da7d9265fff6570',
    ('gap-inf', 1): '05d2382d7246246b431a6e1607dc46b97c4a0ffc433d0d4ea89993c521d20b7b',
    ('gap-inf', 4): 'b05e9f8ee19f3c9d4da892b3a25f2e8448f952fc415834cbf5467a4113801674',
    ('gap-inf', 5): '546fdb1a42121ccd89ed11b8d104ae9097aca7275e98420fb381d2bead914e07',
    ('gap0-launcher', 1): 'f1277394286a33b949a39f962949f9672751dd5cc57c18909f36f9237f2cdb24',
    ('gap0-launcher', 4): 'd412a04a51c6e8948565b8bef8c0cefdaaa4d02262c4bf135a6729ef992a1dda',
    ('gap0-launcher', 5): '1945136fc537c5ee1e49d8fc06f90950470494c450fa4ba883f37c42782f5f97',
    ('preemptive', 1): '1a7e7a7231dc01dc8dc5556362482b892c80ca0adb68afaa6eef04c131193679',
    ('preemptive', 4): 'd37e5ae8dfccf3ad97791beb9202aec15af8729ba27687a8a5cfaecb8b589cf5',
    ('preemptive', 5): '4be034eea26de7264575a683440535c544fe173911d328c4ad2b3fcb2b8f851c',
}


@pytest.mark.parametrize("config,seed", sorted(DIGESTS))
def test_power_capped_decisions_are_pinned(config, seed):
    engine = ElasticPolicyEngine(TOTAL_SLOTS, CONFIGS[config]())
    log = drive_power(engine, seed)
    kinds = {entry[0] for entry in log}
    assert "EnqueueJob" in kinds
    if config == "preemptive":
        assert "PreemptJob" in kinds
    assert digest(log) == DIGESTS[config, seed]


@pytest.mark.parametrize("budget", [BUDGET_WATTS, BUDGET_WATTS / 2])
def test_preemption_strands_no_clearable_arrival(budget):
    """No arrival is left queued that preemption could have started.

    After every submission that ends queued, the strictly lower-priority
    running jobs below the protected head must fail to cover the
    arrival's slot deficit or its watt deficit; together with the
    checker's "a preemption batch ends with the arrival's start", every
    preemption starts its arrival and every clearable arrival preempts.
    """
    config = dataclasses.replace(
        REGISTRY.resolve("power-capped", budget_watts=budget), preemption=True
    )
    queued = preempting = 0
    for seed in range(1, 9):
        engine = ElasticPolicyEngine(TOTAL_SLOTS, config)

        def submit(request, now, engine=engine):
            nonlocal queued, preempting
            decisions = ElasticPolicyEngine.on_submit(engine, request, now)
            if any(type(d) is PreemptJob for d in decisions):
                preempting += 1
            if type(decisions[-1]) is not EnqueueJob:
                return decisions
            queued += 1
            job = decisions[-1].job
            cons = engine._constraint
            slots = (job.min_replicas + engine.config.launcher_slots
                     - engine.free_slots)
            watts = 0.0
            if cons.admit(job.request) < job.min_replicas:
                watts = (job.min_replicas * cons.weight(job.request)
                         - cons.headroom())
            below = [j for j in list(engine.running)[1:]
                     if j.priority < job.priority]
            freed_slots = sum(
                j.replicas + engine.config.launcher_slots for j in below
            )
            freed_watts = sum(j.replicas * cons.weight(j.request) for j in below)
            assert freed_slots < slots or freed_watts < watts, job.name
            return decisions

        engine.on_submit = submit
        drive_power(engine, seed)
    assert preempting > 0 and queued > 0
