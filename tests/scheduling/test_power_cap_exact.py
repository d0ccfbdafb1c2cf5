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

from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.literature import EasyBackfill
from repro.scheduling.registry import REGISTRY

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
    engines that decide alike see the same stream.
    """
    rng = random.Random(seed)
    log = []
    now = 0.0
    submitted = 0
    for _ in range(events):
        now += rng.expovariate(1.0 / 60.0)
        running = list(engine.running)
        roll = rng.random()
        if roll < 0.5 or not running:
            log.extend(map(serialize, engine.on_submit(
                power_request(rng, f"j{submitted}"), now
            )))
            submitted += 1
        elif roll < 0.8:
            victim = rng.choice(running).name
            log.extend(map(serialize, engine.on_complete(victim, now)))
        elif roll < 0.86:
            job = rng.choice(running)
            actual = rng.randint(job.min_replicas, job.replicas)
            engine.on_rescale_failed(job.name, actual)
            log.append(("RescaleFailed", job.name, actual))
            log.extend(map(serialize, engine.rebalance(now)))
        elif roll < 0.93:
            slots = rng.randint(1, 32)
            log.append(("Grow", slots))
            log.extend(map(serialize, engine.grow_capacity(slots, now)))
        elif engine.total_slots > 64:
            force = rng.random() < 0.5
            removed, decisions = engine.shrink_capacity(
                rng.randint(1, 32), now, force=force
            )
            log.append(("Shrink", force, removed))
            log.extend(map(serialize, decisions))
            if force:
                log.extend(map(serialize, engine.rebalance(now)))
    while engine.running:
        now += 60.0
        victim = rng.choice(list(engine.running)).name
        log.extend(map(serialize, engine.on_complete(victim, now)))
    log.append(("Final", sorted(engine.snapshot().items()), engine.free_slots))
    return log


def digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


# Recorded on the engine whose constrained submissions and completions
# took the literal (non-indexed) walks.
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
    ('preemptive', 1): '9b5094b5cfe47782273b51f2fce205212f326ba81bd453dd977731f059363a51',
    ('preemptive', 4): 'd80892e378d78f8ad377c743a7389ddff6fd4bc21feb9f4a21bbb245192f33b6',
    ('preemptive', 5): 'eb046f18f68b012d87b70e401b3cdc953b3c6afe52f66af60e5dbbff9a01e4e5',
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
