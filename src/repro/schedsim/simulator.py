"""The scheduler-performance simulator (§4.3.1, artifact A2).

An event-driven simulation of the four scheduling policies over the
§4.3.1 workload: job runtime is ``timesteps × step_time(replicas)`` with
``step_time`` a piecewise-linear fit of strong-scaling measurements, and
every rescale charges the piecewise overhead model before the job resumes
at its new rate.  Per the paper, operator/Kubernetes pod-startup overheads
are *not* modelled here (the Table-1 "Actual" column pays them; see
:mod:`repro.experiments.table1`).

The policy logic is the exact same :class:`ElasticPolicyEngine` the
Kubernetes path uses — the simulator only supplies time and job progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import SchedulingError
from ..perfmodel.datasets import size_class, step_time_model
from ..perfmodel.overhead import RescaleOverheadModel
from ..scheduling import (
    EnqueueJob,
    ExpandJob,
    JobOutcome,
    MetricsAccumulator,
    PolicyConfig,
    PreemptJob,
    ReplicaTimeline,
    RequeueJob,
    ResumeJob,
    SchedulerMetrics,
    ShrinkJob,
    StartJob,
    StreamingTimeline,
    compute_metrics,
)
from ..scheduling.elastic import ElasticPolicyEngine
from ..sim import Engine
from .workload import Submission

__all__ = ["ScheduleSimulator", "SimulationResult", "DISK_BANDWIDTH"]

#: Shared-filesystem bandwidth for preemption checkpoints (§3.2.2 requires
#: a shared filesystem; we model a modest networked disk).
DISK_BANDWIDTH = 200e6  # bytes/s

#: Decision routing: every decision type the engine emits, mapped to its
#: handler (``None`` = no-op).  Handlers are attribute names so bound
#: methods resolve per simulator (honouring subclass overrides).
_DECISION_ROUTES = (
    (StartJob, "_start"),
    (ResumeJob, "_resume"),
    (ShrinkJob, "_rescale"),
    (ExpandJob, "_rescale"),
    (PreemptJob, "_preempt"),
    (RequeueJob, "_evict"),
    (EnqueueJob, None),
)


@dataclass(slots=True)
class _RunningJob:
    """Progress bookkeeping for one running job."""

    name: str
    total_steps: float
    remaining_steps: float
    replicas: int
    step_time: object  # callable replicas -> seconds
    #: Per-size-class memo of ``step_time(replicas)`` — the model is a
    #: pure piecewise interpolation over at most ``total_slots`` integer
    #: replica counts, shared by every job of the class.
    step_cache: dict
    data_bytes: int
    progress_start: float  # when stepping (re)starts after overheads
    finish_timer: object = None
    rescale_overhead_paid: float = 0.0

    def current_step_time(self) -> float:
        replicas = self.replicas
        cached = self.step_cache.get(replicas)
        if cached is None:
            cached = self.step_cache[replicas] = float(self.step_time(replicas))
        return cached

    def steps_done_by(self, now: float) -> float:
        if now <= self.progress_start:
            return 0.0
        return (now - self.progress_start) / self.current_step_time()


@dataclass
class SimulationResult:
    """Everything one simulated run produces."""

    policy: str
    metrics: SchedulerMetrics
    outcomes: List[JobOutcome]
    timelines: Dict[str, ReplicaTimeline]
    rescale_counts: Dict[str, int]
    makespan: float

    def timeline_for(self, name: str) -> ReplicaTimeline:
        return self.timelines[name]


class ScheduleSimulator:
    """Simulate one workload under one policy configuration."""

    def __init__(
        self,
        policy: PolicyConfig,
        total_slots: int = 64,
        overhead: Optional[RescaleOverheadModel] = None,
        engine: Optional[Engine] = None,
        tracer=None,
    ):
        self.engine = engine or Engine()
        self.policy = ElasticPolicyEngine(total_slots, policy)
        self.tracer = tracer
        self._spans = None
        if tracer is not None:
            if tracer.engine is None:
                tracer.engine = self.engine
            from ..obs.spans import PhaseSpans

            self._spans = PhaseSpans(tracer)
            # The policy engine times its Figure-3 redistribute walks on
            # the same recorder.
            self.policy.spans = self._spans
        self.total_slots = total_slots
        self.overhead = overhead or RescaleOverheadModel()
        self._running: Dict[str, _RunningJob] = {}
        self._paused: Dict[str, _RunningJob] = {}  # preempted, on disk
        #: Per-job performance profile ``(total_steps, step_time_model,
        #: data_bytes)``, resolved once at registration: a job may
        #: (re)start several times — spot evictions and preemptions
        #: restart it from the queue — and before PR 5 every restart
        #: re-derived the size class and model from ``params``.
        self._profiles: Dict[str, tuple] = {}
        #: size-class name -> (default_steps, step_time_model, data_bytes,
        #: step-time memo); collapses the registry lookups per arrival
        #: into one dict hit.
        self._size_profiles: Dict[str, tuple] = {}
        #: (from, to, data_bytes) -> rescale overhead seconds; the model
        #: is pure and the key space is bounded by replica counts × size
        #: classes, so the memo stays small and exact.
        self._overhead_memo: Dict[tuple, float] = {}
        # Decision application is a dict dispatch on the concrete decision
        # type, built once per simulator (bound methods, so subclass
        # overrides of the handlers resolve here).
        self._dispatch: Dict[type, Optional[object]] = {
            base: (handler and getattr(self, handler))
            for base, handler in _DECISION_ROUTES
        }
        # Full sample lists under retain="full"; O(1) streaming busy
        # integrals under retain="metrics" (set before submissions land).
        self._timelines: Dict[str, object] = {}
        self._streaming = False
        self._submissions: Dict[str, Submission] = {}
        self._completed: List[str] = []
        self._submitted_count = 0
        self._completed_count = 0
        self._accumulator: Optional[MetricsAccumulator] = None
        self._stream: Optional[Iterator[Submission]] = None
        self._last_submit_time = float("-inf")

    # ------------------------------------------------------------------

    def run(
        self,
        submissions: Iterable[Submission],
        retain: str = "full",
    ) -> SimulationResult:
        """Run the whole workload to completion and aggregate metrics.

        ``submissions`` may be a materialized sequence (the paper's 16-job
        draws) or any lazy iterable in non-decreasing time order (SWF
        traces, large synthetic sources): a sequence pre-schedules every
        arrival event up front — the seed behaviour, preserved exactly —
        while an iterator is consumed one arrival at a time, so the event
        heap and the pending-submission memory stay O(running jobs), not
        O(workload).

        ``retain`` controls what the result keeps: ``"full"`` (default)
        stores every outcome and replica timeline; ``"metrics"`` streams
        outcomes through a :class:`MetricsAccumulator` and drops per-job
        state as jobs finish — the mode for thousand-job workloads.
        """
        if self._submitted_count:
            # A second run would silently merge with the first workload's
            # per-job state and accumulator sums.
            raise SchedulingError(
                "ScheduleSimulator.run() may only be called once per instance"
            )
        if retain not in ("full", "metrics"):
            raise SchedulingError(f"unknown retain mode {retain!r}")
        if retain == "metrics":
            # Streaming timelines fold rescale change-points straight into
            # a busy-slot integral: three floats per live job instead of a
            # sample list that grows with its rescale count.
            self._streaming = True
            self._accumulator = MetricsAccumulator(
                self.policy.config.name, total_slots=self.total_slots
            )
            # Streaming contract: nothing in the simulator or the policy
            # engine may grow with workload length.  The decision log is
            # the engine's only O(workload) structure, so switch it off.
            self.policy.keep_decision_log = False
        if isinstance(submissions, Sequence):
            if not submissions:
                raise SchedulingError("workload is empty")
            for sub in submissions:
                self._register(sub)
                self.engine.post_at(sub.time, self._on_submit, sub)
        else:
            self._stream = iter(submissions)
            if not self._schedule_next_submission():
                raise SchedulingError("workload is empty")
        self.engine.run()
        if self._completed_count != self._submitted_count:
            stuck = sorted(set(self._submissions) - set(self._completed))
            raise SchedulingError(
                f"simulation ended with unfinished jobs: {stuck} "
                "(queued jobs never became feasible?)"
            )
        if self._accumulator is not None:
            metrics = self._accumulator.finalize()
            return SimulationResult(
                policy=self.policy.config.name,
                metrics=metrics,
                outcomes=[],
                timelines={},
                rescale_counts={},
                makespan=metrics.total_time,
            )
        outcomes = [self._outcome(name) for name in sorted(self._submissions)]
        metrics = compute_metrics(
            self.policy.config.name, outcomes, total_slots=self.total_slots
        )
        return SimulationResult(
            policy=self.policy.config.name,
            metrics=metrics,
            outcomes=outcomes,
            timelines=dict(self._timelines),
            rescale_counts={
                name: self.policy.job(name).rescale_count
                for name in self._submissions
            },
            makespan=metrics.total_time,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _register(self, sub: Submission) -> None:
        name = sub.request.name
        if name in self._submissions:
            raise SchedulingError(f"duplicate job name {name!r} in workload")
        self._submissions[name] = sub
        # Resolve the performance profile once: restarts after evictions/
        # preemptions must not re-derive it from params every time.
        params = sub.request.params
        class_name = params["size_class"]
        base = self._size_profiles.get(class_name)
        if base is None:
            size = size_class(class_name)
            base = (size.timesteps, step_time_model(size), size.data_bytes, {})
            self._size_profiles[class_name] = base
        steps = params.get("timesteps")
        self._profiles[name] = (
            float(steps) if steps is not None else float(base[0]),
            base[1],
            base[2],
            base[3],
        )
        self._timelines[name] = (
            StreamingTimeline() if self._streaming else ReplicaTimeline()
        )
        self._submitted_count += 1

    def _schedule_next_submission(self) -> bool:
        """Pull one arrival from the stream; returns False when drained."""
        sub = next(self._stream, None)
        if sub is None:
            return False
        if sub.time < self._last_submit_time:
            raise SchedulingError(
                f"streamed submissions must be time-ordered: "
                f"{sub.request.name} at {sub.time} after {self._last_submit_time}"
            )
        self._last_submit_time = sub.time
        self._register(sub)
        # Arrivals are never cancelled: use the engine's plain-entry path.
        self.engine.post_at(sub.time, self._on_submit, sub)
        return True

    def _on_submit(self, sub: Submission) -> None:
        spans = self._spans
        if spans is not None:
            spans.begin("submit", job=sub.request.name)
        decisions = self.policy.on_submit(sub.request, self.engine.now)
        self._apply(decisions)
        if spans is not None:
            spans.end("submit", decisions=len(decisions))
        if self._stream is not None:
            self._schedule_next_submission()

    def _on_finish(self, name: str) -> None:
        spans = self._spans
        if spans is not None:
            spans.begin("complete", job=name)
        self._running.pop(name)
        now = self.engine.now
        self._timelines[name].record(now, 0)
        self._completed_count += 1
        decisions = self.policy.on_complete(name, now)
        self._apply(decisions)
        if spans is not None:
            spans.end("complete", decisions=len(decisions))
        if self._accumulator is not None:
            # Streaming aggregation: fold the outcome in as scalars (no
            # JobOutcome per completion) and free the per-job state; the
            # timeline is final once replicas hit 0.  The policy engine's
            # record is retired afterwards so its job map stays bounded
            # by running + queued jobs.
            record = self.policy.job(name)
            sub = self._submissions[name]
            end = record.completion_time
            self._accumulator.add_raw(
                name,
                sub.request.priority,
                record.submit_time,
                record.start_time,
                end,
                self._timelines[name].slot_seconds(end),
                sub.request.params.get("user"),
            )
            del self._timelines[name]
            del self._submissions[name]
            del self._profiles[name]
            self.policy.retire(name)
        else:
            self._completed.append(name)

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------

    def _apply(self, decisions) -> None:
        dispatch = self._dispatch
        for decision in decisions:
            handler = dispatch[type(decision)]
            if handler is not None:
                handler(decision)

    def _start(self, decision) -> None:
        name = decision.job.name
        steps, model, data_bytes, step_cache = self._profiles[name]
        now = self.engine.now
        job = _RunningJob(
            name=name,
            total_steps=steps,
            remaining_steps=steps,
            replicas=decision.replicas,
            step_time=model,
            step_cache=step_cache,
            data_bytes=data_bytes,
            progress_start=now,  # §4.3.1: no startup overhead
        )
        self._running[name] = job
        self._timelines[name].record(now, decision.replicas)
        self._schedule_finish(job, now)

    def _rescale(self, decision) -> None:
        name = decision.job.name
        new_replicas = decision.to_replicas
        job = self._running[name]
        now = self.engine.now
        done = job.steps_done_by(now)
        job.remaining_steps = max(0.0, job.remaining_steps - done)
        memo_key = (job.replicas, new_replicas, job.data_bytes)
        overhead = self._overhead_memo.get(memo_key)
        if overhead is None:
            overhead = self.overhead.total(*memo_key)
            self._overhead_memo[memo_key] = overhead
        job.rescale_overhead_paid += overhead
        job.replicas = new_replicas
        job.progress_start = now + overhead
        self._timelines[name].record(now, new_replicas)
        self._schedule_finish(job, now)

    def _evict(self, decision) -> None:
        """A spot interruption took the job's node: all progress is lost.

        Unlike :meth:`_preempt` there is no checkpoint on disk — the job
        returns to the queue and, when the policy restarts it, begins
        again from step zero (the next :class:`StartJob` rebuilds the
        progress record from the original submission).
        """
        name = decision.job.name
        job = self._running.pop(name)
        if job.finish_timer is not None:
            job.finish_timer.cancel()
            job.finish_timer = None
        self._timelines[name].record(self.engine.now, 0)

    def _preempt(self, decision) -> None:
        """Checkpoint a running job to disk and stop it (§3.2.2)."""
        name = decision.job.name
        job = self._running.pop(name)
        now = self.engine.now
        done = job.steps_done_by(now)
        job.remaining_steps = max(0.0, job.remaining_steps - done)
        if job.finish_timer is not None:
            job.finish_timer.cancel()
            job.finish_timer = None
        self._paused[name] = job
        self._timelines[name].record(now, 0)

    def _resume(self, decision) -> None:
        """Restart a preempted job from its disk checkpoint."""
        name = decision.job.name
        job = self._paused.pop(name)
        job.replicas = decision.replicas
        now = self.engine.now
        # Pay the disk write (at preemption) + read (now) in one delay.
        restore = 2.0 * job.data_bytes / DISK_BANDWIDTH
        job.progress_start = now + restore
        self._running[name] = job
        self._timelines[name].record(now, decision.replicas)
        self._schedule_finish(job, now)

    def _schedule_finish(self, job: _RunningJob, now: float) -> None:
        finish_at = job.progress_start + job.remaining_steps * job.current_step_time()
        if finish_at < now:
            finish_at = now
        timer = job.finish_timer
        if timer is not None:
            # Rescale hot path: re-arm the existing handle in place (one
            # epoch bump + push) instead of cancel/allocate/push; the old
            # heap entry dies by epoch validation when it surfaces.
            job.finish_timer = self.engine.reschedule_at(
                timer, finish_at, self._on_finish, job.name
            )
        else:
            job.finish_timer = self.engine.schedule_at(
                finish_at, self._on_finish, job.name
            )

    # ------------------------------------------------------------------

    def _outcome(self, name: str) -> JobOutcome:
        record = self.policy.job(name)
        sub = self._submissions[name]
        return JobOutcome(
            name=name,
            priority=sub.request.priority,
            submit_time=record.submit_time,
            start_time=record.start_time,
            completion_time=record.completion_time,
            timeline=self._timelines[name],
            size_class=sub.size.name,
            rescale_count=record.rescale_count,
            user=sub.request.params.get("user"),
        )
