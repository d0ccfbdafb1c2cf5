"""The four benchmark workloads and how one instance of each runs.

A workload turns ``--seed`` into a fixed list of *instances* (one
simulation, or one §4.3.1 trial) and runs an instance through the
program's public entry points:

* ``ScheduleSimulator.run`` for ``steady`` and ``backlog``;
* ``repro.schedsim.experiment.run_once`` for ``paper-sweep``;
* ``repro.faults.runner.run_fault_scenario`` (``CloudScheduleSimulator``)
  for ``cloud-chaos``.

The program only ever sees the generated inputs.  Every instance reports
its jobs, how many completed, and its virtual-time metrics, which the
harness checks for exact repeatability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cloud.simulator import CloudScheduleSimulator
from repro.cloud.sweep import CloudScenario
from repro.faults.plan import FaultLoad, FaultPlan
from repro.faults.runner import run_fault_scenario
from repro.scheduling.registry import REGISTRY
from repro.schedsim.experiment import run_once
from repro.schedsim.simulator import ScheduleSimulator
from repro.schedsim.sweep import FIG7_SUBMISSION_GAPS
from repro.workloads import PoissonArrivals, SyntheticWorkload, UniformMix

from spans import SpanRecorder, TracedIterator

#: The paper's cluster size for the streaming workloads.
SLOTS = 256
#: Arrival rates against the measured capacity of UniformMix jobs on 256
#: slots, about 0.033 jobs/s: ``steady`` runs at about 0.9 of it,
#: ``backlog`` at about 3x.
STEADY_RATE = 0.03
BACKLOG_RATE = 0.1

#: Price of the plain simulator's fixed cluster, as an on-demand fleet of
#: the cloud layer's default nodes (used for ``cost_per_job_usd`` where
#: no cloud is simulated).
_FLEET = CloudScenario()

#: Virtual-time metrics every instance reports, in this order.
VIRTUAL = ("utilization", "wmean_response_s", "makespan_s",
           "goodput_frac", "cost_per_job_usd")


@dataclass
class InstanceResult:
    """What one instance did: jobs, completions, and its exact metrics."""

    jobs: int
    completed: int
    virtual: Tuple[float, ...]
    #: Counts the program itself reports (cloud and fault layers).
    counts: Dict[str, float] = field(default_factory=dict)


def _static_cost_per_job(slots: int, makespan: float, jobs: int) -> float:
    nodes = slots / _FLEET.slots_per_node
    return nodes * _FLEET.price_per_hour * makespan / 3600.0 / jobs


# ----------------------------------------------------------------------
# steady / backlog: one streaming simulation per instance


@dataclass(frozen=True)
class StreamInstance:
    seed: int
    jobs: int
    rate: float
    policy: str


def run_stream(inst: StreamInstance,
               recorder: Optional[SpanRecorder] = None) -> InstanceResult:
    source = SyntheticWorkload(
        inst.jobs, PoissonArrivals(inst.rate), UniformMix(), seed=inst.seed
    )
    submissions = source.submissions()
    if recorder is not None:
        submissions = TracedIterator(recorder, submissions)
    simulator = ScheduleSimulator(REGISTRY.resolve(inst.policy),
                                  total_slots=SLOTS)
    metrics = simulator.run(submissions, retain="metrics").metrics
    return InstanceResult(
        jobs=inst.jobs,
        completed=metrics.job_count,
        virtual=(
            metrics.utilization,
            metrics.weighted_mean_response,
            metrics.total_time,
            1.0,  # a fixed cluster loses no work
            _static_cost_per_job(SLOTS, metrics.total_time, metrics.job_count),
        ),
    )


# ----------------------------------------------------------------------
# paper-sweep: one §4.3.1 trial per instance


@dataclass(frozen=True)
class TrialInstance:
    policy: str
    gap: float
    seed: int
    jobs: int = 16
    slots: int = 64


def run_trial(inst: TrialInstance,
              recorder: Optional[SpanRecorder] = None) -> InstanceResult:
    del recorder  # the trial's generate_workload call is a traced boundary
    result = run_once(inst.policy, submission_gap=inst.gap, seed=inst.seed,
                      total_slots=inst.slots, num_jobs=inst.jobs)
    # Exactly once: one outcome per distinct job, each finished after it
    # started and started after it was submitted.
    finished = {
        o.name for o in result.outcomes
        if math.isfinite(o.completion_time)
        and o.submit_time <= o.start_time <= o.completion_time
    }
    completed = len(finished) if len(result.outcomes) == inst.jobs else 0
    m = result.metrics
    return InstanceResult(
        jobs=inst.jobs,
        completed=completed,
        virtual=(
            m.utilization,
            m.weighted_mean_response,
            m.total_time,
            1.0,
            _static_cost_per_job(inst.slots, m.total_time, inst.jobs),
        ),
    )


# ----------------------------------------------------------------------
# cloud-chaos: one faulted cloud simulation per instance


@dataclass(frozen=True)
class ChaosInstance:
    seed: int
    jobs: int
    gap: float
    plan: FaultPlan


#: Fault pressure per 2,000 jobs at a 15 s submission gap; scaled with the
#: horizon so every instance size sees the same density of faults.
_CHAOS_LOAD_PER_2000 = dict(crashes=8, interruptions=12, fail_windows=3,
                            timeout_windows=2, shortage_windows=2)
CHAOS_GAP = 15.0


def chaos_instance(seed: int, jobs: int) -> ChaosInstance:
    scale = jobs / 2000.0
    load = FaultLoad(
        notice=120.0, window_duration=900.0,
        **{k: max(1, round(v * scale)) for k, v in _CHAOS_LOAD_PER_2000.items()},
    )
    plan = FaultPlan.synthesize(seed, jobs * CHAOS_GAP, load)
    return ChaosInstance(seed=seed, jobs=jobs, gap=CHAOS_GAP, plan=plan)


def run_chaos(inst: ChaosInstance,
              recorder: Optional[SpanRecorder] = None) -> InstanceResult:
    del recorder  # generate_workload is a traced boundary inside the runner
    run = run_fault_scenario(
        plan=inst.plan, seed=inst.seed, num_jobs=inst.jobs,
        submission_gap=inst.gap, retain="metrics",
    )
    m = run.result.metrics
    cost = run.result.cost
    report = run.faults
    return InstanceResult(
        jobs=inst.jobs,
        completed=m.job_count,
        virtual=(
            # Busy over provisioned slot-seconds: the paper's utilization
            # on a fleet that breathes (equal to it on a static fleet).
            cost.elastic_utilization,
            m.weighted_mean_response,
            m.total_time,
            report.goodput_fraction,
            cost.cost_per_job,
        ),
        counts={
            "cloud.provision_failures": report.provision_failures,
            "cloud.provision_retries": report.provision_retries,
            "cloud.interruptions": cost.interruptions,
            "faults.evictions": report.evictions,
            "faults.checkpoints_written": report.checkpoints_written,
            "faults.restarts": (report.restarts_from_checkpoint
                                + report.restarts_from_scratch),
            "faults.lost_slot_s": report.lost_slot_seconds,
            "faults.throughput_slot_s": report.throughput_slot_seconds,
        },
    )


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs, how it runs, what an op is.

    Why each workload was chosen, and its sizes, are recorded in
    ``BENCHMARK.json`` and ``perfbench/README.md``.
    """

    name: str
    #: Instance list for a seed (the fixed input of one run).
    instances: Callable[[int], List[object]]
    #: Small instances run once before timing, so lazy set-up (imports
    #: resolved on first use, registry discovery, memo tables) is paid
    #: in ``setup_s`` and not in the timed loop.
    warmup: Callable[[int], List[object]]
    run: Callable[..., InstanceResult]
    #: Simulator classes whose ``_on_submit``/``_on_finish`` handlers are
    #: timed: an op is one job arrival or completion.  Empty: an op is one
    #: whole instance.
    handlers: Tuple[type, ...] = ()
    #: How many leading instances the traced run replays.
    traced: int = 1
    #: Instances run between two looks at the clock: a whole grid for
    #: ``paper-sweep``, so every run times complete grids.
    stride: int = 1


def _seeds(seed: int, n: int) -> List[int]:
    return [seed * 1000 + k for k in range(n)]


def _warmup_seed(seed: int) -> int:
    return seed * 1000 + 999


STEADY_INSTANCES, STEADY_JOBS = 16, 20_000
BACKLOG_INSTANCES, BACKLOG_JOBS = 6, 1_500
SWEEP_TRIALS = 48
CHAOS_INSTANCES, CHAOS_JOBS = 6, 8_000


_SWEEP_GRID = (len(REGISTRY.paper_policies()) * len(FIG7_SUBMISSION_GAPS)
               * SWEEP_TRIALS)


def _sweep_instances(seed: int, trials: int = SWEEP_TRIALS) -> List[TrialInstance]:
    return [
        TrialInstance(policy, gap, trial_seed)
        for policy in REGISTRY.paper_policies()
        for gap in FIG7_SUBMISSION_GAPS
        for trial_seed in _seeds(seed, trials)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady",
            instances=lambda seed: [
                StreamInstance(s, STEADY_JOBS, STEADY_RATE, "elastic")
                for s in _seeds(seed, STEADY_INSTANCES)
            ],
            warmup=lambda seed: [StreamInstance(
                _warmup_seed(seed), 2_000, STEADY_RATE, "elastic")],
            run=run_stream,
            handlers=(ScheduleSimulator,),
        ),
        Workload(
            name="backlog",
            instances=lambda seed: [
                StreamInstance(s, BACKLOG_JOBS, BACKLOG_RATE, "easy-backfill")
                for s in _seeds(seed, BACKLOG_INSTANCES)
            ],
            warmup=lambda seed: [StreamInstance(
                _warmup_seed(seed), 300, BACKLOG_RATE, "easy-backfill")],
            run=run_stream,
            handlers=(ScheduleSimulator,),
        ),
        Workload(
            name="paper-sweep",
            instances=_sweep_instances,
            warmup=lambda seed: _sweep_instances(_warmup_seed(seed), 1),
            run=run_trial,
            traced=_SWEEP_GRID,
            stride=_SWEEP_GRID,
        ),
        Workload(
            name="cloud-chaos",
            instances=lambda seed: [
                chaos_instance(s, CHAOS_JOBS)
                for s in _seeds(seed, CHAOS_INSTANCES)
            ],
            warmup=lambda seed: [chaos_instance(_warmup_seed(seed), 500)],
            run=run_chaos,
            handlers=(CloudScheduleSimulator,),
        ),
    )
}


def run_warmup(workload: Workload, seed: int) -> None:
    for inst in workload.warmup(seed):
        workload.run(inst)
