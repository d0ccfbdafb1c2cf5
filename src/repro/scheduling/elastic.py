"""The priority-based elastic scheduling policy — Figures 2 and 3.

This is the paper's core contribution (§3.2.1), implemented faithfully
from the pseudocode, including its quirks:

* the running-job scan uses ``index > 0``, so the single highest-priority
  running job is never considered for shrinking;
* the stop condition is strict ``j.priority > job.priority``: *equal*
  -priority running jobs are eligible shrink victims even though the
  submission-time tie-break ranks them above the newcomer;
* a new submission is scheduled independently of the queue — a low-priority
  job can start in free slots while higher-priority jobs wait (the stated
  out-of-order-allocation feature);
* enqueueing does **not** update ``lastAction`` (otherwise moldable —
  elastic with :math:`T_{rescale\\_gap} = \\infty` — could never start
  queued jobs, contradicting §4.3.2).

Two deviations from the pseudocode:

* starting a *queued* job consumes ``launcher_slots`` in addition to its
  workers; Figure 3's budget arithmetic omits that launcher slot.  With
  the simulator default ``launcher_slots = 0`` this is exactly the
  pseudocode;
* ``completeJob``'s redistribution budget defaults to *all* currently
  free slots rather than only this completion's freed workers — the
  literal budget can strand a queued job forever (see
  ``PolicyConfig.literal_completion_budget``, which restores the verbatim
  behaviour for ablation).

The quirks and deviations above are the reference semantics; every
hook stage of :class:`~repro.scheduling.policy.PolicyConfig` (priority
rule, backfill, capacity constraint, and the §3.2.2 extensions — queue
aging and checkpoint-to-disk preemption) is ``None``/off on the paper's
four policies, so none of their branches run there.  Every stage rides
the one Figure-2 submission walk and the one Figure-3 walk below.

Per-event complexity (the PR-3 hot-path contract)
-------------------------------------------------

``running`` and ``queue`` are :class:`~repro.scheduling.joblist
.IndexedJobList` instances — blocked sorted lists ordered by
:func:`priority_order_key` whose blocks carry shrink-victim aggregates
(sum of reclaimable slots, a rescale-gap-eligibility time bound, and the
cheapest member's ``min_replicas``).  With ``n`` live (running + queued)
jobs and block size ``B``:

* ``free_slots`` is O(1) — a counter maintained by every transition
  (start/shrink/expand/complete/preempt/rescale-failed), never a re-sum;
* insert/remove cost O(log(n/B) + B) — a block bisect plus a small
  C-level memmove, replacing the flat list's O(n) shift;
* the Figure-2 dry-run is an aggregate query: whole running blocks are
  credited with their ``shrinkable`` sum in O(1) when their time bound
  proves every member rescale-gap-eligible, so feasibility costs
  O(running/B) instead of O(running); the real pass skips blocks with no
  victims and touches only actual victims (plus at most one boundary
  block scanned item-by-item);
* completion walks Figure 3's ``allJobs`` as a two-pointer merge in
  which whole *queue* blocks whose cheapest member cannot start within
  the remaining slot budget are skipped in O(1) — the budget only
  shrinks during a walk, so a skipped block can never become startable
  again.  This removes the O(queue) scan behind the 100k-job throughput
  cliff: a completion whose budget starts nobody costs O(queue/B), not
  O(queue);
* the *running* side of the same merge (PR 5) skips whole blocks with
  no expandable member: ``expandable == 0`` (every member at its
  maximum) or ``now - oldest_action < gap`` (``oldest_action`` is a
  lower bound on the members' ``last_action``, so no member can be
  rescale-gap-eligible).  Skipped runners would have emitted nothing
  and consumed no budget, so the decision sequence is untouched;
* the Figure-2 dry run short-circuits to *infeasible* when the blocks'
  total ``shrinkable`` sum cannot cover the requested slots — priority
  stops and gap ineligibility only ever reduce what the walk frees, so
  the aggregate total is a sound upper bound;
* a capacity constraint rides both walks.  Figure 2 chases a *dual*
  deficit (slots and constraint units); block aggregates know nothing
  of constraint weights, so the dry run credits whole blocks only when
  there is no constraint.  Figure 3 caps every expansion and queued
  start by the constraint's ``admit``;
* preemption and forced eviction share one requeue walk, which frees
  whole jobs towards the same dual deficit as the Figure-2 walk;
* under the aging stage the queue is keyed by *aged* priority.  Queued
  jobs whose aged priority moved are re-keyed (removed, re-keyed,
  re-added) at every submission and before every Figure-3 walk, so the
  merge and the queue-block skips stay exact; a job gets its static key
  back when it starts, so running jobs — and the Figure-2 walk over
  them — never see aging.

Decision sequences are **byte-identical** to the preserved pre-
optimization engine (:mod:`repro.scheduling._reference`); the golden
decision-log equivalence test
(``tests/scheduling/test_decision_log_equivalence.py``) enforces the
contract across randomized workloads for every policy configuration, so
the documented Figure-2/3 quirks provably survive the refactor.  For
streaming substrates, :meth:`ElasticPolicyEngine.retire` and
:attr:`ElasticPolicyEngine.keep_decision_log` bound the engine's memory
by the live-job count instead of the workload length.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, List, Optional, Tuple

from ..errors import CapacityError, JobStateError
from ..obs.metrics import active_registry
from .job import JobRequest, JobState, SchedulerJob
from .joblist import IndexedJobList
from .policy import (
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    PreemptJob,
    RequeueJob,
    ResumeJob,
    ShrinkJob,
    StartJob,
)

__all__ = ["ElasticPolicyEngine"]


class ElasticPolicyEngine:
    """Pure-logic implementation of the Figure-2/3 scheduling algorithm.

    The engine owns the scheduler's bookkeeping (running list, internal
    priority queue, per-job ``lastAction``) and emits decisions; the
    substrate applies them to reality and reports completions back.
    """

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        if total_slots < 1:
            raise CapacityError("total_slots must be positive")
        self.total_slots = int(total_slots)
        self.config = config or PolicyConfig()
        self.running = IndexedJobList()  # decreasing priority order
        self.queue = IndexedJobList()  # decreasing priority order
        self._jobs: Dict[str, SchedulerJob] = {}
        self.decision_log: List[Decision] = []
        #: Streaming substrates set this False so the log stays empty and
        #: memory is bounded by live jobs, not workload length.
        self.keep_decision_log: bool = True
        #: Slots held by running jobs (workers + launcher reservations),
        #: maintained incrementally by every transition.
        self._used_slots: int = 0
        #: Bumped by every transition that moves ``_used_slots`` or
        #: ``total_slots``, so a backfill rule can key per-state caches
        #: on it (EASY's shadow time) and never reuse one stale.
        self._transitions: int = 0
        # During the Figure-3 walk, queue→running moves are recorded here
        # and applied after the walk (the walk's block pointers must not
        # see structural mutations mid-flight).
        self._pending_starts: Optional[List[SchedulerJob]] = None
        # The SchedulingPolicy hook stages (all None on the paper's four
        # policies, keeping every hot path bytewise identical).  getattr
        # keeps duck-typed configs without the new fields working.
        config = self.config
        self._priority_rule = getattr(config, "priority_rule", None)
        self._backfill = getattr(config, "backfill", None)
        factory = getattr(config, "capacity_constraint", None)
        #: One fresh constraint per engine: budgets are engine state.
        self._constraint = factory() if factory is not None else None
        self._aging = getattr(config, "aging", None)
        self._preemption = getattr(config, "preemption", False)
        #: Preempted jobs waiting in the queue to resume from disk.
        self._preempted: set = set()
        #: Span recorder a tracing substrate may attach
        #: (:class:`repro.obs.spans.PhaseSpans`); None = no span timing.
        self.spans = None
        # Telemetry binds at construction: with the registry disabled
        # ``_obs`` is None and the instrumented branches never run —
        # decision sequences are identical either way (the golden
        # decision-log suite runs with a registry attached to prove it).
        registry = active_registry()
        if registry.enabled:
            self._obs = registry
            self._obs_redistributes = registry.counter("engine.redistribute_calls")
            self._obs_shrink_passes = registry.counter("engine.shrink_pass_calls")
            self._obs_queue_skips = registry.counter(
                "engine.fig3.queue_blocks_skipped"
            )
            self._obs_running_skips = registry.counter(
                "engine.fig3.running_blocks_skipped"
            )
        else:
            self._obs = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def free_slots(self) -> int:
        """Slots not held by running jobs (workers + launcher reservations)."""
        free = self.total_slots - self._used_slots
        if free < 0:
            raise CapacityError(
                f"scheduler over-committed: {self._used_slots}/"
                f"{self.total_slots} slots"
            )
        return free

    def job(self, name: str) -> SchedulerJob:
        try:
            return self._jobs[name]
        except KeyError:
            raise JobStateError(f"unknown job {name!r}") from None

    def _aged_key(self, job: SchedulerJob, now: float) -> tuple:
        """A queued job's sort key under the aging stage at ``now``."""
        return (-self._aging.effective_priority(job, now), job.submit_time, job.seq)

    def _age_queue(self, now: float) -> None:
        """Re-key every queued job whose aged priority moved since it was
        keyed, so the queue iterates in aged order at ``now``.

        A key never changes while its job is in a list: each stale job is
        removed under its old key and re-added under the new one.
        """
        queue = self.queue
        stale = []
        for job in queue:
            key = self._aged_key(job, now)
            if key != job.sort_key:
                stale.append((job, key))
        for job, key in stale:
            queue.remove(job)
            job.sort_key = key
            queue.add(job)

    # ------------------------------------------------------------------
    # Event: new job submitted (Figure 2)
    # ------------------------------------------------------------------

    def on_submit(self, request: JobRequest, now: float) -> List[Decision]:
        request = self.config.job_transform(request)
        if self._priority_rule is not None:
            # Queue-ordering stage: the rule rewrites the *effective*
            # priority, so the engine's priority-keyed order and block
            # aggregates stay exact.  Metrics weight by the submission's
            # original priority (the simulator keeps its own request).
            request = dataclasses.replace(
                request, priority=self._priority_rule(request)
            )
        if request.name in self._jobs:
            raise JobStateError(f"job {request.name!r} already submitted")
        job = SchedulerJob(request=request, submit_time=now)
        self._jobs[request.name] = job
        if self._aging is not None:
            # The backfill gate compares the arrival with the queue, so
            # both are keyed by aged priority at ``now``.
            self._age_queue(now)
            job.sort_key = self._aged_key(job, now)
        decisions = self._submit(job, now)
        if self._preemption and type(decisions[-1]) is EnqueueJob:
            self._preempt_for(job, now, decisions)
        return self._log(decisions)

    def _submit(self, job: SchedulerJob, now: float) -> List[Decision]:
        """Figure 2 on the indexed lists, with every hook stage.

        Starts are capped by :meth:`_admissible`: free slots, the
        request's maximum and the capacity constraint's ``admit``.

        An arrival that would start past a non-empty queue is a
        *backfill* and must pass the backfill-eligibility stage (EASY:
        the start may not delay the reserved queue head).  A backfill has
        to fit in the currently free slots — rearranging running jobs to
        make room for a queue-jumper would contradict the reservation the
        stage protects — so no shrink walk runs for it.

        Otherwise an arrival that does not fit shrinks lower-priority
        jobs.  The walk chases a *dual* deficit, slots and constraint
        units, which makes elastic shrink the constraint's actuator (the
        power-capped scenario's whole point).  Without a constraint the
        unit deficit is 0 and this is the paper's walk.
        """
        request = job.request
        reserve = self.config.launcher_slots
        req_min = request.min_replicas
        req_max = request.max_replicas
        decisions: List[Decision] = []

        # replicas = min(freeSlots - 1, job.maxReplicas)
        avail = self.free_slots - reserve
        replicas = self._admissible(request, avail)
        jumping = self._backfill is not None and len(self.queue)
        if replicas >= req_min:
            if jumping and not self._backfill.allows(self, job, replicas, now):
                decisions.append(self._enqueue(job, now))
            else:
                decisions.append(self._start(job, replicas, now))
            return decisions

        cons = self._constraint
        weight = headroom = 0.0
        if cons is not None:
            weight = cons.weight(request)
            headroom = cons.headroom()
        # Dry run: would shrinking lower-priority jobs free enough to reach
        # the new job's minimum?  (Pure, so ``avail`` is still current.)
        if jumping or not self._shrink_feasible(
            request.priority, now, req_min - avail, req_min * weight - headroom
        ):
            decisions.append(self._enqueue(job, now))
            return decisions

        # Real pass: shrink towards freeing up to maxReplicas' worth.
        self._shrink_pass(
            request.priority, now, req_max - avail, req_max * weight - headroom,
            decisions, self.config.rescale_gap,
        )
        replicas = self._admissible(request, self.free_slots - reserve)
        if replicas >= req_min:
            decisions.append(self._start(job, replicas, now))
        else:  # a shrink_filter vetoed part of the committed plan
            decisions.append(self._enqueue(job, now))
        return decisions

    def _admissible(self, request: JobRequest, avail: int) -> int:
        """Replicas a start may take: ``avail`` slots, the request's
        maximum and (when configured) the constraint's admission cap."""
        limit = avail if avail < request.max_replicas else request.max_replicas
        if self._constraint is not None:
            room = self._constraint.admit(request)
            if room < limit:
                limit = room
        return limit

    # ------------------------------------------------------------------
    # Figure 2's shrink-victim walk, indexed
    # ------------------------------------------------------------------
    #
    # The literal walk visits running jobs from lowest priority upward
    # (positions len-1 .. 1; the index-0 job is protected), skipping
    # candidates inside their T_rescale_gap, and stops at the first
    # *eligible* candidate that outranks the arrival.  Because the list
    # is sorted, that stop is equivalent to "no further victims exist" —
    # which is what lets whole blocks be credited or skipped from their
    # aggregates without changing a single decision.

    def _shrink_feasible(
        self, priority: float, now: float, slots: int, units: float
    ) -> bool:
        """Figure 2's dry run: could shrinking free ``slots`` slots and
        ``units`` constraint units?

        Pure query — no state is touched.  Blocks whose time bound proves
        every member rescale-gap-eligible are resolved in O(1): credited
        with their ``shrinkable`` sum when the whole block ranks at or
        below the arrival (only without a constraint: the aggregate
        carries no weights), or terminating the walk when even their
        lowest-priority member outranks it.  Other blocks fall back to
        the literal item scan.
        """
        if slots <= 0 and units <= 0:
            return True
        # Upper-bound early out: the walk can never free more than the
        # list's total shrinkable sum (priority stops and rescale-gap
        # ineligibility only reduce it further), so an arrival needing
        # more is infeasible without visiting a single candidate.
        if self.running.shrinkable_total < slots:
            return False
        cons = self._constraint
        gap = self.config.rescale_gap
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0  # the index-0 job is never a victim
            if lo >= len(jobs):
                continue  # only the protected job in here
            if now - block.newest_action >= gap:
                if jobs[-1].request.priority > priority:
                    # First candidate visited is eligible and outranks the
                    # arrival: the literal walk breaks here.
                    return False
                if cons is None and jobs[lo].request.priority <= priority:
                    # Every visitable member ranks at or below the arrival:
                    # credit the whole block (minus the protected job's
                    # share in block 0) without touching its members.
                    credit = block.shrinkable
                    if lo:
                        head = jobs[0]
                        extra = head.replicas - head.request.min_replicas
                        if extra > 0:
                            credit -= extra
                    slots -= credit
                    if slots <= 0:
                        return True
                    continue
            for i in range(len(jobs) - 1, lo - 1, -1):
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.request.priority > priority:
                    return False
                extra = candidate.replicas - candidate.request.min_replicas
                if extra > 0:
                    slots -= extra
                    if cons is not None:
                        units -= extra * cons.weight(candidate.request)
                    if slots <= 0 and units <= 0:
                        return True
        return slots <= 0 and units <= 0

    def _shrink_pass(
        self,
        priority: float,
        now: float,
        slots: int,
        units: float,
        decisions: List[Decision],
        gap: float,
    ) -> None:
        """The Figure-2 victim walk: emit shrinks towards freeing
        ``slots`` slots and ``units`` constraint units.

        Walks the literal loop's order but skips whole blocks that
        provably contain neither a victim (``shrinkable == 0``) nor the
        walk's stop condition (no member outranks ``priority``).  A
        victim gives up what the larger of the two deficits asks of it,
        down to its minimum.

        :meth:`_submit` calls it with the arrival's priority and the
        configured rescale gap.  Capacity shrinks
        (:meth:`shrink_capacity`) reuse the identical walk with
        ``priority = +inf`` (every running job except the protected
        index-0 one is a candidate), ``units = -inf`` (slots alone) and,
        when forced by an interruption, ``gap = -inf`` (reclaiming a dead
        node is not a policy decision, so the rescale-gap courtesy does
        not apply).
        """
        if self._obs is not None:
            self._obs_shrink_passes.inc()
        cons = self._constraint
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            if slots <= 0 and units <= 0:
                break
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0
            if lo < len(jobs):
                if now - block.newest_action >= gap and (
                    jobs[-1].request.priority > priority
                ):
                    return  # the literal walk breaks immediately
                if block.shrinkable == 0 and jobs[lo].request.priority <= priority:
                    continue  # no victims and no stop condition in here
            for i in range(len(jobs) - 1, lo - 1, -1):
                if slots <= 0 and units <= 0:
                    break
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.request.priority > priority:
                    return
                floor = candidate.request.min_replicas
                old = candidate.replicas
                if old <= floor:
                    continue
                want = slots if slots > 0 else 0
                weight = 0.0
                if cons is not None:
                    weight = cons.weight(candidate.request)
                    if units > 0 and weight > 0:
                        from_units = math.ceil(units / weight)
                        if from_units > want:
                            want = from_units
                new = old - want
                if new < floor:
                    new = floor
                if new < old:
                    shrink = self._shrink(candidate, new, now)
                    if shrink is not None:
                        decisions.append(shrink)
                        freed = old - new
                        slots -= freed
                        units -= freed * weight

    # ------------------------------------------------------------------
    # The requeue walk: preemption (§3.2.2) and forced eviction
    # ------------------------------------------------------------------

    def _requeue_victims(
        self, slots: int, units: float, below: float, lo: int
    ) -> Tuple[List[SchedulerJob], bool]:
        """Pure query: the running jobs to requeue whole towards freeing
        ``slots`` slots and ``units`` constraint units, and whether both
        deficits are covered.  Lowest priority first, never the first
        ``lo`` jobs, up to the first whose priority is ``>= below``, while
        either deficit is positive.  A victim frees everything it holds
        (``replicas + launcher_slots`` slots, ``replicas × weight``
        units), so unlike the shrink walk there is no rescale-gap test.
        """
        reserve = self.config.launcher_slots
        cons = self._constraint
        victims: List[SchedulerJob] = []
        # islice stops before the first ``lo`` jobs without materializing
        # the running list on every attempt.
        for candidate in itertools.islice(
            reversed(self.running), max(0, len(self.running) - lo)
        ):
            if (slots <= 0 and units <= 0) or candidate.priority >= below:
                break
            victims.append(candidate)
            slots -= candidate.replicas + reserve
            if cons is not None:
                units -= candidate.replicas * cons.weight(candidate.request)
        return victims, slots <= 0 and units <= 0

    def _preempt_for(
        self, job: SchedulerJob, now: float, decisions: List[Decision]
    ) -> None:
        """Preemption stage for an arrival that ended queued: the requeue
        walk chases its minimum over strictly lower-priority jobs, never
        the index-0 one — the slot deficit and, when ``admit`` refuses
        it, the unit deficit (``min_replicas × weight − headroom``).
        Only if the victims cover both are they checkpointed to disk
        (:class:`PreemptJob`), and the arrival starts instead of queuing.
        """
        request = job.request
        reserve = self.config.launcher_slots
        cons = self._constraint
        units = 0.0
        if cons is not None and cons.admit(request) < request.min_replicas:
            units = request.min_replicas * cons.weight(request) - cons.headroom()
        slots = request.min_replicas - (self.free_slots - reserve)
        victims, covered = self._requeue_victims(slots, units, job.priority, 1)
        if victims and covered:
            decisions.pop()  # the arrival's EnqueueJob
            for victim in victims:
                decisions.append(self._requeue(victim, now, preempt=True))
            replicas = self._admissible(request, self.free_slots - reserve)
            decisions.append(self._start_queued(job, replicas, now))

    # ------------------------------------------------------------------
    # Event: job finished (Figure 3)
    # ------------------------------------------------------------------

    def on_complete(self, name: str, now: float) -> List[Decision]:
        job = self._jobs.get(name)
        if job is None:
            raise JobStateError(f"unknown job {name!r}")
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is {job.state.value}, not Running")
        # freeWorkers(job): release the job's pods.
        job.state = JobState.COMPLETED
        job.completion_time = now
        self.running.remove(job)
        freed = job.replicas + self.config.launcher_slots
        self._used_slots -= freed
        self._transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, -job.replicas)
        job.replicas = 0
        if self.config.literal_completion_budget:
            # Figure 3 verbatim: redistribute only this job's workers.
            num_workers = freed
        else:
            # Deadlock-free default: the budget is everything now free
            # (this completion plus leftovers from earlier events).
            num_workers = self.free_slots
        # Remaining freed workers return to the free pool implicitly.
        return self._hand_out(num_workers, now, "complete")

    def _hand_out(self, budget: int, now: float, trigger: str) -> List[Decision]:
        """Run the Figure-3 walk over ``budget`` slots, then apply the
        queue→running moves it deferred."""
        if self._aging is not None:
            self._age_queue(now)
        decisions: List[Decision] = []
        spans = self.spans
        if spans is not None:
            spans.begin("redistribute", budget=budget, trigger=trigger)
        self._pending_starts = []
        try:
            self._redistribute(budget, now, decisions)
        finally:
            started, self._pending_starts = self._pending_starts, None
            for moved in started:
                self.queue.remove(moved)
                self._run(moved)
            if spans is not None:
                spans.end("redistribute", decisions=len(decisions))
        return self._log(decisions)

    def _redistribute(
        self, num_workers: int, now: float, decisions: List[Decision]
    ) -> None:
        """Figure 3's hand-out of freed slots — indexed two-pointer merge.

        On the queue side, whole blocks whose cheapest member needs more
        than the remaining start budget are skipped in O(1) — the budget
        only shrinks during a walk, so a skipped queued candidate can
        never become startable later.  On the running side (PR 5), whole
        blocks with nothing to hand out are skipped from their
        aggregates: every member at ``max_replicas`` (``expandable ==
        0``), or no member past the rescale gap (``now - oldest_action <
        gap``, with ``oldest_action`` a lower bound on the members'
        ``last_action``).  A skipped running candidate would have emitted
        nothing and consumed no budget, so the emitted decision sequence
        is exactly that of the literal scan over Figure 3's sorted
        ``allJobs`` (kept as the test suite's oracle, ``ScanEngine``).

        A capacity constraint caps every expansion and queued start by
        its ``admit``.  Under aging the queue's keys are its aged
        priorities at ``now`` (:meth:`_hand_out` refreshes them before
        the walk), so the merge is the aged ``allJobs`` order.

        A backfill stage rides on the same walk: ``passed`` records that
        a queued job was left waiting upstream — its block skipped on
        ``min_needed``, the job itself priced out by the budget, capped
        by the constraint, or held by the rescale gap — and from then on
        every queued start must pass ``backfill.allows``.  Once
        ``passed`` is set the walk also asks ``backfill.refuses_all``,
        once per value of the engine's transition counter: while it
        holds, every queued candidate is behind a waiting job and would
        be refused, so it is passed over without an ``allows`` call (a
        refusal has no side effect), and with no running candidate left
        the walk ends.  The arrival gate in :meth:`_submit`
        keeps asking ``allows``: its job is gated before it enters the
        queue, so the rule's queue-wide answer does not cover it.
        """
        if self._obs is not None:
            self._obs_redistributes.inc()
        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        backfill = self._backfill
        cons = self._constraint
        passed = False  # a queued job was left waiting upstream
        closed = False  # backfill.refuses_all() at transition gate_at
        gate_at = None
        qblocks = self.queue.blocks
        rblocks = self.running.blocks
        nq = len(qblocks)
        nr = len(rblocks)  # stable: the walk defers structural mutations
        qb = qi = 0
        rb = ri = rn = 0
        # O(1)-skipped block tallies (local ints; flushed to the metrics
        # registry after the walk — skips are O(blocks), not O(events)).
        qskips = rskips = 0
        rjobs = None  # member run of the running block being walked
        runner = None  # cached next possibly-expandable runner (+ its key)
        runner_key = None
        queued = None  # cached next startable queued candidate (+ its key)
        queued_key = None
        while num_workers > 0:
            # Next queued candidate startable within the remaining budget.
            # The cached one stays valid until consumed or priced out by a
            # budget drop (the budget never grows during a walk).
            budget = num_workers - reserve
            if queued is not None and queued.request.min_replicas > budget:
                queued = None
            while queued is None and qb < nq:
                block = qblocks[qb]
                if block.min_needed > budget:
                    # Only unvisited members are left waiting: a block
                    # revisited after its last member started passes
                    # nobody over.
                    if qi < len(block.jobs):
                        passed = True
                    qb += 1
                    qi = 0
                    qskips += 1
                    continue
                jobs = block.jobs
                jn = len(jobs)
                while qi < jn:
                    candidate = jobs[qi]
                    if candidate.request.min_replicas <= budget:
                        queued = candidate
                        queued_key = candidate.sort_key
                        break
                    qi += 1
                    passed = True
                if queued is None:
                    qb += 1
                    qi = 0
            # Next running candidate, skipping whole blocks that provably
            # cannot take slots (every member at max, or none past the
            # rescale gap).  Expansions only touch aggregates of already-
            # visited members (never block structure), so the cached
            # member run stays valid for the whole walk.  Members of a
            # block always carry a computed ``sort_key`` (add() built it).
            if runner is None:
                while True:
                    if rjobs is not None and ri < rn:
                        runner = rjobs[ri]
                        runner_key = runner.sort_key
                        ri += 1
                        break
                    rjobs = None
                    if rb >= nr:
                        break
                    block = rblocks[rb]
                    rb += 1
                    if block.expandable == 0 or now - block.oldest_action < gap:
                        rskips += 1
                        continue
                    rjobs = block.jobs
                    rn = len(rjobs)
                    ri = 0
            if runner is None and queued is None:
                break
            if queued is None or (runner is not None and runner_key < queued_key):
                candidate = runner
                runner = None
                if now - candidate.last_action >= gap:
                    replicas = candidate.replicas
                    room = candidate.request.max_replicas - replicas
                    if room > 0:
                        add = room if room < num_workers else num_workers
                        if cons is not None:
                            cap = cons.admit(candidate.request)
                            if cap < add:
                                add = cap
                        if add > 0 and replicas + add >= candidate.request.min_replicas:
                            decisions.append(
                                self._expand(candidate, replicas + add, now)
                            )
                            num_workers -= add
            else:
                candidate = queued
                queued = None
                qi += 1  # the walk moves past this candidate either way
                if passed and backfill is not None:
                    if gate_at != self._transitions:
                        gate_at = self._transitions
                        closed = backfill.refuses_all(self, now)
                    if closed:
                        if runner is None:
                            break  # every queued job left is refused
                        continue
                request = candidate.request
                if now - candidate.last_action < gap:
                    passed = True
                    continue
                # Starting a queued job also needs its launcher slot.
                add = num_workers - reserve
                if add > request.max_replicas:
                    add = request.max_replicas
                if cons is not None:
                    cap = cons.admit(request)
                    if cap < add:
                        add = cap
                if add < request.min_replicas:
                    passed = True  # held back by the constraint's cap
                # A gate refusal leaves ``passed`` set: it already was.
                elif backfill is None or not passed or backfill.allows(
                    self, candidate, add, now
                ):
                    decisions.append(self._start_queued(candidate, add, now))
                    num_workers -= add + reserve
        if self._obs is not None:
            if qskips:
                self._obs_queue_skips.inc(qskips)
            if rskips:
                self._obs_running_skips.inc(rskips)

    # ------------------------------------------------------------------
    # Elastic cluster capacity (the repro.cloud substrate)
    # ------------------------------------------------------------------
    #
    # The paper schedules on a cloud, where ``total_slots`` is itself a
    # time-varying quantity: nodes come online after a provisioning
    # delay, drain away when an autoscaler releases them, and vanish
    # outright when a spot instance is reclaimed.  These transitions are
    # *substrate* events, not Figure-2/3 policy decisions — a substrate
    # that never calls them (every fixed-capacity caller) gets a bytewise
    # unchanged engine, which is what the golden decision-log suite
    # pins.  Both transitions maintain the O(1) ``free_slots`` counter
    # and the :class:`IndexedJobList` aggregates through the existing
    # transition helpers only.

    def grow_capacity(self, slots: int, now: float) -> List[Decision]:
        """Add ``slots`` to the cluster and hand them out (Figure 3).

        Called by the cloud substrate when a provisioned node comes
        online.  The enlarged free pool is redistributed exactly like a
        completion's freed workers: queued jobs start, running elastic
        jobs expand, in decreasing priority order.
        """
        slots = int(slots)
        if slots <= 0:
            raise CapacityError(f"capacity growth must be positive, got {slots}")
        self.total_slots += slots
        self._transitions += 1
        return self.rebalance(now)

    def shrink_capacity(
        self, slots: int, now: float, *, force: bool = False
    ) -> Tuple[int, List[Decision]]:
        """Remove up to ``slots`` from the cluster; returns what came off.

        Free slots are surrendered first.  If they do not cover the
        request, the engine *drains*: the Figure-2 shrink-victim walk
        runs with a rank above every job (``priority = +inf``), so every
        running elastic job except the protected index-0 one gives up
        replicas down to its minimum, newest-priority first — the same
        machinery, aggregates, and skip logic an arriving job would use.

        ``force=False`` (autoscaler scale-down) is cooperative: the walk
        respects ``T_rescale_gap`` and the removal is *partial* — only
        what is actually free afterwards comes off, and the caller
        re-issues the shrink later for the remainder (cordon-and-drain:
        capacity already removed can never be re-allocated to the queue
        while the rest of the node drains).

        ``force=True`` (spot interruption) must reclaim everything ``now``:
        the walk ignores the rescale gap, and any remaining deficit is
        met by evicting whole jobs (:class:`RequeueJob`) through the
        requeue walk preemption uses, lowest priority first — the index-0
        job last of all, because a dead node protects nobody.

        Returns ``(removed, decisions)`` with ``removed <= slots`` (always
        ``== min(slots, total_slots)`` when forced).
        """
        slots = int(slots)
        if slots <= 0:
            raise CapacityError(f"capacity shrink must be positive, got {slots}")
        slots = min(slots, self.total_slots)
        decisions: List[Decision] = []
        deficit = slots - self.free_slots
        if deficit > 0:
            gap = float("-inf") if force else self.config.rescale_gap
            self._shrink_pass(math.inf, now, deficit, -math.inf, decisions, gap)
            deficit = slots - self.free_slots
        if force:
            for victim in self.eviction_candidates(slots):
                decisions.append(self._requeue(victim, now))
        removed = min(slots, self.free_slots)
        self.total_slots -= removed
        self._transitions += 1
        return removed, self._log(decisions)

    def eviction_candidates(self, slots: int) -> List[SchedulerJob]:
        """Running jobs a forced shrink of ``slots`` *might* requeue.

        A pure preview for the fault-recovery path, which checkpoints
        these jobs on a reclaim notice.  A forced shrink evicts this very
        list once its shrink walk has run, so the preview is a superset
        of the evictions (exactly them when no job is shrinkable).
        """
        deficit = int(slots) - self.free_slots
        return self._requeue_victims(deficit, -math.inf, math.inf, 0)[0]

    def rebalance(self, now: float) -> List[Decision]:
        """Redistribute the current free pool (Figure 3, budget-only).

        Used by the cloud substrate after capacity changes that free
        slots outside a completion event — a node coming online, or the
        slack left when an interruption's evictions freed more than the
        dead node held.
        """
        budget = self.free_slots
        if budget <= 0:
            return []
        return self._hand_out(budget, now, "rebalance")

    def _requeue(
        self, job: SchedulerJob, now: float, *, preempt: bool = False
    ) -> Decision:
        """Move a running job back to the queue, releasing its slots.

        An eviction (:class:`RequeueJob`) is the cloud's doing, not a
        scheduling event: ``last_action`` resets to ``-inf``, the value a
        never-started submission carries — the job is starting over, and
        it must be immediately restartable when capacity returns (under
        the moldable policy, ``T_rescale_gap = ∞``, any finite timestamp
        would gate its restart forever, deadlocking the workload).

        A preemption (:class:`PreemptJob`) *is* a scheduling event: it
        stamps ``last_action = now``, and the job resumes from its disk
        checkpoint through :meth:`_start_queued`.
        """
        self.running.remove(job)
        released = job.replicas
        self._used_slots -= released + self.config.launcher_slots
        self._transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, -released)
        job.replicas = 0
        job.last_action = now if preempt else -math.inf
        self._enqueue(job, now)
        if preempt:
            self._preempted.add(job.name)
            return PreemptJob(job=job, released_replicas=released)
        return RequeueJob(job=job, released_replicas=released)

    # ------------------------------------------------------------------
    # Substrate feedback
    # ------------------------------------------------------------------

    def on_rescale_failed(self, name: str, actual_replicas: int) -> None:
        """Reconcile bookkeeping after the substrate failed a rescale.

        The operator reverts a failed shrink/expand to the application's
        actual size; the engine must follow or its free-slot arithmetic
        drifts from the cluster.
        """
        job = self.job(name)
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is not running")
        actual = int(actual_replicas)
        old = job.replicas
        self._used_slots += actual - job.replicas
        self._transitions += 1
        if self._constraint is not None and actual != old:
            self._constraint.charge(job.request, actual - old)
        job.replicas = actual
        self.running.adjust_replicas(job, old)
        if self.free_slots < 0:  # pragma: no cover - defensive
            raise CapacityError("rescale failure reconciliation over-committed")

    def retire(self, name: str) -> SchedulerJob:
        """Drop a completed job's record from the engine's bookkeeping.

        Streaming substrates (``retain="metrics"``) call this after
        folding the job's outcome so ``_jobs`` stays bounded by the live
        (running + queued) job count instead of growing with the workload.
        """
        job = self.job(name)
        if job.state != JobState.COMPLETED:
            raise JobStateError(
                f"cannot retire job {name!r} in state {job.state.value}"
            )
        del self._jobs[name]
        return job

    # ------------------------------------------------------------------
    # Internal transitions (each updates lastAction, per §3.2.1)
    # ------------------------------------------------------------------

    def _activate(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        """Mark ``job`` running and charge its slots (no list placement).

        ``start_time`` records the *first* start only: a job restarting
        after a preemption or a spot eviction began service at its
        original start, and the metrics window (first start .. last
        completion) must keep covering the busy slot-time it burned
        before losing its node — a shifted window would count that work
        outside the utilization denominator.
        """
        taken = replicas + self.config.launcher_slots
        self._validate_capacity(taken)
        if self._constraint is not None:
            # Launcher slots carry no constraint weight: the budget is a
            # per-worker quantity (watts), not a slot count.
            self._constraint.charge(job.request, replicas)
        job.state = JobState.RUNNING
        job.replicas = replicas
        job.last_action = now
        if job.start_time is None:
            job.start_time = now
        self._used_slots += taken
        self._transitions += 1
        return StartJob(job=job, replicas=replicas)

    def _start(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        start = self._activate(job, replicas, now)
        self._run(job)
        return start

    def _run(self, job: SchedulerJob) -> None:
        """Place a started job on ``running`` under its static key.

        Every job enters ``running`` here, arrivals and queued jobs
        alike.  Under aging a job is keyed by its aged priority while
        queued (:meth:`_age_queue`); clearing the cached key makes
        :func:`~repro.scheduling.job.priority_order_key` rebuild it from
        the user priority.
        """
        if self._aging is not None:
            job.sort_key = ()
        self.running.add(job)

    def _start_queued(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        if self._pending_starts is not None:
            # Mid-walk in on_complete: defer the queue→running move so the
            # walk's block pointers never see a structural mutation.  The
            # queue's aggregates still track the in-place activation so
            # the deferred remove() stays exact.
            before = job.replicas
            start = self._activate(job, replicas, now)
            self.queue.rescaled(job, before)
            self._pending_starts.append(job)
        else:
            self.queue.remove(job)
            start = self._start(job, replicas, now)
        preempted = self._preempted
        if preempted and job.name in preempted:
            preempted.discard(job.name)
            return ResumeJob(job=job, replicas=replicas)
        return start

    def _enqueue(self, job: SchedulerJob, now: float) -> EnqueueJob:
        # NOTE: lastAction deliberately untouched (see module docstring).
        job.state = JobState.QUEUED
        if self._aging is not None:
            job.sort_key = self._aged_key(job, now)
        self.queue.add(job)
        if self._backfill is not None:
            self._backfill.on_queued(job)
        return EnqueueJob(job=job)

    def _shrink(self, job: SchedulerJob, new_replicas: int, now: float) -> Optional[ShrinkJob]:
        if self.config.shrink_filter is not None and not self.config.shrink_filter(
            job, new_replicas
        ):
            return None
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        self._used_slots -= old - new_replicas
        self._transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, new_replicas - old)
        self.running.rescaled(job, old)
        return ShrinkJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _expand(self, job: SchedulerJob, new_replicas: int, now: float) -> ExpandJob:
        self._validate_capacity(new_replicas - job.replicas)
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        self._used_slots += new_replicas - old
        self._transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, new_replicas - old)
        self.running.rescaled(job, old)
        return ExpandJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _validate_capacity(self, extra_slots: int) -> None:
        # Inline free-slot arithmetic: this guard runs on every start and
        # expansion, and the ``free_slots`` property's own over-commit
        # check is redundant right before a >= comparison.
        if extra_slots > self.total_slots - self._used_slots:
            raise CapacityError(
                f"decision needs {extra_slots} slots but only "
                f"{self.free_slots} are free"
            )

    def _log(self, decisions: List[Decision]) -> List[Decision]:
        if self.keep_decision_log:
            self.decision_log.extend(decisions)
        if self._obs is not None and decisions:
            counter = self._obs.counter
            for decision in decisions:
                counter("engine.decisions." + type(decision).__name__).inc()
        return decisions

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[str, int]]:
        """(state, replicas) per job — used by invariant tests."""
        return {
            name: (job.state.value, job.replicas) for name, job in self._jobs.items()
        }
