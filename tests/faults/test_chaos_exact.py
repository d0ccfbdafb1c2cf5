"""The cloud and fault layers, pinned exactly.

``test_chaos.py`` checks that a chaos run repeats under its seed; this
module pins what it produces.  Each digest is a SHA-256 over the run's
decision-log digest (which folds in the makespan), its billing
(:class:`~repro.cloud.billing.CostReport`) and its
:class:`~repro.faults.recovery.FaultReport`, for the ``elastic`` and
``preemptive`` policies under every autoscaler, three seeds, and with
notice-window checkpointing on and off.  Every run receives reclaim
notices; with checkpointing on, each notice asks the engine's eviction
preview (``eviction_candidates``) whom to checkpoint, and all but two
runs lose running jobs through the forced-eviction path of
``shrink_capacity``.  ``preemptive`` adds the preemption stage on a
changing fleet.  Any change to a decision, a bill or a fault count
changes a digest.
"""

import hashlib

import pytest

from repro.faults.runner import run_fault_scenario

DIGESTS = {
    ('elastic', 'static', 0, True): '2cacb182f0a0cc0580dd3e524f17ef53129e95ec5ceb279d0cff83d74bf5f8d6',
    ('elastic', 'static', 0, False): '431ff7ca58a0727f87d31ac5ae041848627599de22d7d3be1805df331853346b',
    ('elastic', 'static', 1, True): '4667d730194940c690ddc2e573bcbe79b732d8bfad9bbc7a4087846c8f0f1665',
    ('elastic', 'static', 1, False): '806ff387f7fdc1bdea4074a69d8c7b6fc0e601bacd4daf812d58d0cdbe6adf38',
    ('elastic', 'static', 2, True): '75259468957290162f19e544ee52e2c09bdefbab832ada131b51a26c79d8a522',
    ('elastic', 'static', 2, False): '2a9ad4463c6b04b03f084a1d4bb59fe4bafb915964f627322eea3b849e054fa5',
    ('elastic', 'queue', 0, True): '0f146b59079ef7819ccbf1567e646c07c53c6b0e359c1336e6ea5734c4d32f85',
    ('elastic', 'queue', 0, False): 'bd54ef7946955055568d385d9ce446e1577c6f386a556dcf684959d1e3c0c129',
    ('elastic', 'queue', 1, True): '1c4aa5793595074f43cdbe257d9735bf2b13b38c11d81970e5ed8f0bb1363229',
    ('elastic', 'queue', 1, False): '7b1b6e2c5fc5bf33112a36a4d617f3780c9e4922d06c8fc2613dce3b98ebac51',
    ('elastic', 'queue', 2, True): '96db931bdf95378ce701b34b6c9625efbfd73c4dc71a14a9b99515d9915cc3ce',
    ('elastic', 'queue', 2, False): '8c76815149fe5f720096ab2280cbef631cae6a493863a3d8aeba3765e14bb9a2',
    ('elastic', 'utilization', 0, True): '0ecafb81f050fe9c0e5e00b6c3c42411d48f9ceda372ccbd5ee32d41750a000a',
    ('elastic', 'utilization', 0, False): '870ade1ddbbfec7525524cca70960774e606975bcbb893c70dd68f31f0b51d03',
    ('elastic', 'utilization', 1, True): '2e484c7e7d4f7baadd7081a9341e6f34d68d50262251ce98d2430a694d0c5a1a',
    ('elastic', 'utilization', 1, False): 'b8914829730c664f6a178433217715afc57927fb849e73a748bd9289a4827a8e',
    ('elastic', 'utilization', 2, True): '40b06738bff2693bde7345267be2e1f24613e730e7e20585f9882b0adceab83c',
    ('elastic', 'utilization', 2, False): '91595cfdc7e2cd7cd82a1c49f6a12e99a9009d6a3d4115fbd6afb18192b54d6b',
    ('elastic', 'idle', 0, True): '0f146b59079ef7819ccbf1567e646c07c53c6b0e359c1336e6ea5734c4d32f85',
    ('elastic', 'idle', 0, False): 'bd54ef7946955055568d385d9ce446e1577c6f386a556dcf684959d1e3c0c129',
    ('elastic', 'idle', 1, True): '1c4aa5793595074f43cdbe257d9735bf2b13b38c11d81970e5ed8f0bb1363229',
    ('elastic', 'idle', 1, False): '7b1b6e2c5fc5bf33112a36a4d617f3780c9e4922d06c8fc2613dce3b98ebac51',
    ('elastic', 'idle', 2, True): '96db931bdf95378ce701b34b6c9625efbfd73c4dc71a14a9b99515d9915cc3ce',
    ('elastic', 'idle', 2, False): '8c76815149fe5f720096ab2280cbef631cae6a493863a3d8aeba3765e14bb9a2',
    ('preemptive', 'static', 0, True): 'd93249291859432e56f7753a91a700acb958b4da5e2543f22a4c504942d1d6aa',
    ('preemptive', 'static', 0, False): 'ec51a62934d96e30b419ac0a56c67f0807a7f89e6eb04acd2b00ef240f236471',
    ('preemptive', 'static', 1, True): '675b0e8aa637e7a50333e4177cb237b1ca39c40df77718c59f016edb94340546',
    ('preemptive', 'static', 1, False): '31d3a2770151f6bb5a4ec7f774b3dd760300dbee2c4a42ac0fc8da18f324c756',
    ('preemptive', 'static', 2, True): '2fb4c2709198fcfa211b420e41cbaab0087d3d423c931fbeff0634c77d16b22e',
    ('preemptive', 'static', 2, False): 'f27b51c1a0a65f8478bfa6428927b866248ade0c25bb8daceba340018fb52e28',
    ('preemptive', 'queue', 0, True): 'b7eeea8e0acea54c9ee22f4a9694aab8de0baab7e98026479e3b0f8825df1691',
    ('preemptive', 'queue', 0, False): 'bc2cae35b71660be8388743255075b73675ff47d752e10c82d51cbccb08359b4',
    ('preemptive', 'queue', 1, True): 'c9d988dfc2288a024f95961df3621b83e1ca9b2ec55ec60e21b73a62cd24832b',
    ('preemptive', 'queue', 1, False): '7f3d3d19740bcf4e312b2809356483a5f9865333844c7d9b6e095f9ae00958cd',
    ('preemptive', 'queue', 2, True): 'ba96520f696c790f56d68f9e461bcf27d95b1def8635ed1aecab69ae61dc9d3d',
    ('preemptive', 'queue', 2, False): '809796fec5ddb991933c117e3de8a75057bdfc1ea4cb25a5de38da52ad41e8b0',
    ('preemptive', 'utilization', 0, True): '80eefc5bc024a7b983a94495e5b183e0b02e0cd0f3206bc04e0dd9ebfb90498a',
    ('preemptive', 'utilization', 0, False): '9aa1f5ec67dadceb09c47f59198e9c36a27574a77385c459f74af6743cc53a40',
    ('preemptive', 'utilization', 1, True): 'df404c1d20bd5c195432281dc7d8ce073810f28b780cbd5c81859402c83461f6',
    ('preemptive', 'utilization', 1, False): 'ba45c35ce0685e89d49a1c39b4ff12a2df11e9ea8080d650c3d47e828f1f98ae',
    ('preemptive', 'utilization', 2, True): '6ac1edbc81d863203acb0751366d4593dc359552d5ddd573ce7b37894e4a3549',
    ('preemptive', 'utilization', 2, False): '6498b1a2dce3e5d84bf9dfd4079438ef824891910312a8e159aadaf610a71ead',
    ('preemptive', 'idle', 0, True): 'b7eeea8e0acea54c9ee22f4a9694aab8de0baab7e98026479e3b0f8825df1691',
    ('preemptive', 'idle', 0, False): 'bc2cae35b71660be8388743255075b73675ff47d752e10c82d51cbccb08359b4',
    ('preemptive', 'idle', 1, True): 'c9d988dfc2288a024f95961df3621b83e1ca9b2ec55ec60e21b73a62cd24832b',
    ('preemptive', 'idle', 1, False): '7f3d3d19740bcf4e312b2809356483a5f9865333844c7d9b6e095f9ae00958cd',
    ('preemptive', 'idle', 2, True): 'ba96520f696c790f56d68f9e461bcf27d95b1def8635ed1aecab69ae61dc9d3d',
    ('preemptive', 'idle', 2, False): '809796fec5ddb991933c117e3de8a75057bdfc1ea4cb25a5de38da52ad41e8b0',
}


def chaos_digest(run):
    return hashlib.sha256(
        repr((run.digest, run.result.cost, run.faults)).encode()
    ).hexdigest()


@pytest.mark.parametrize("policy,autoscaler,seed,checkpoints", sorted(DIGESTS))
def test_chaos_run_is_pinned(policy, autoscaler, seed, checkpoints):
    run = run_fault_scenario(
        policy, autoscaler, seed=seed, checkpoints=checkpoints
    )
    assert run.faults.notices > 0
    assert chaos_digest(run) == DIGESTS[policy, autoscaler, seed, checkpoints]
