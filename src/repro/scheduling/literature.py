"""Schedulers from the literature, registered on the policy registry.

The paper's evaluation stops at its four policies; the ROADMAP's "policy
diversity" item asks for the classic space next to them.  This module
ships the first residents, built entirely on the
:class:`~repro.scheduling.policy.SchedulingPolicy` hook stages:

* **ewt** — estimated-waiting-time priority rule: jobs with less
  estimated work outrank longer ones at equal user priority
  (queue-ordering stage; the SJF-flavoured EWT heuristic of the
  accasim schedulers-from-literature collection).
* **prb** — priority-rule-based ordering (Borghesi et al.): a weighted
  blend of user priority, estimated runtime, and requested size.
* **easy-backfill** — EASY backfilling (Lifka's aggressive variant):
  an arrival may jump the queue only if it provably does not delay the
  *reserved queue head*; ``conservative=True`` protects every waiting
  job, not just the head (backfill-eligibility stage).

Runtime estimates come from the same §4.3.1 performance model the
simulator integrates (``timesteps × step_time(replicas)``), so for
non-rescaling jobs the estimate is *exact* — which is why
``easy-backfill`` defaults to ``rescale_gap = inf`` (moldable sizing):
under it the reservation bound is not a heuristic but a guarantee, and
the property suite can assert heads are never delayed.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .policies import DEFAULT_RESCALE_GAP
from .policy import PolicyConfig
from .registry import REGISTRY

__all__ = [
    "estimate_runtime",
    "ewt_priority",
    "prb_priority",
    "EasyBackfill",
    "DEFAULT_RUNTIME_ESTIMATE",
]

#: Fallback when a request carries neither a size class nor an estimate.
DEFAULT_RUNTIME_ESTIMATE = 3600.0

# Lazy import memo: repro.scheduling must stay importable without the
# performance-model stack, but estimate_runtime sits on the EASY hot
# path (every projection touches every running job), so the import
# machinery must run once, not per call.
_PERFMODEL = None


def _perfmodel():
    global _PERFMODEL
    if _PERFMODEL is None:
        from ..perfmodel.datasets import size_class, step_time_model

        _PERFMODEL = (size_class, step_time_model)
    return _PERFMODEL


def estimate_runtime(request: JobRequest, replicas: int) -> float:
    """Estimated runtime of ``request`` at a fixed ``replicas``.

    Uses the §4.3.1 size-class model exactly as the simulator does
    (``params["timesteps"]`` overriding the class default), so the
    estimate matches the simulated runtime of a job that never rescales.
    Requests outside the model fall back to ``params["est_runtime"]``,
    then to :data:`DEFAULT_RUNTIME_ESTIMATE`.
    """
    params = request.params or {}
    name = params.get("size_class") or request.size_class
    if name is not None:
        size_class, step_time_model = _perfmodel()
        try:
            cls = size_class(name)
        except KeyError:
            cls = None
        if cls is not None:
            steps = params.get("timesteps", cls.timesteps)
            fixed = min(max(replicas, cls.min_replicas), cls.max_replicas)
            return float(steps) * float(step_time_model(cls)(fixed))
    est = params.get("est_runtime")
    if est is not None:
        return float(est)
    return DEFAULT_RUNTIME_ESTIMATE


def ewt_priority(request: JobRequest) -> float:
    """Queue-ordering stage: less estimated work ⇒ higher rank.

    At its minimum size a job's estimated runtime is the longest it can
    take; negating it makes short jobs outrank long ones while the
    submission-time tie-break keeps FIFO among equals.
    """
    return -estimate_runtime(request, request.min_replicas)


def prb_priority(request: JobRequest) -> float:
    """Priority-rule-based blend (Borghesi et al.-style weights).

    User priority dominates (weight 2 per level); among similar
    priorities, shorter and narrower jobs rank first.  Log scales keep
    one term from drowning the others across the §4.3.1 size range.
    """
    est = estimate_runtime(request, request.min_replicas)
    return (
        2.0 * request.priority
        - math.log2(1.0 + est / 60.0)
        - math.log2(float(request.min_replicas))
    )


class EasyBackfill:
    """EASY backfilling as a backfill-eligibility stage.

    ``allows`` projects the cluster forward using the same runtime
    estimates the simulator integrates: the *reserved* jobs (the queue
    head, or every waiting job when ``conservative``) each get the
    earliest time enough slots accumulate for their minimum size.  A
    backfill candidate is admitted only if every reservation computed
    *with* the candidate running is no later than *without* it (within
    a ``1e-9`` s tolerance).

    The aggressive variant decides by the **shadow rule** in O(1) per
    candidate.  Sorting the release profile once per engine state gives
    the head's *shadow time* ``S`` (its reservation without the
    candidate), ``extra`` — free slots plus every release at or before
    ``S``, minus the head's need — and ``extra_eps``, the same sum up to
    ``S + 1e-9``.  A candidate finishing by ``S``, or whose slots fit in
    ``extra``, leaves the reservation at exactly ``S``: removing its
    slots lowers the free-slot curve only before its own release.  A
    candidate failing both tests that would pass either one at
    ``S + 1e-9`` lies in the *tolerance band*: it may be admitted with a
    reservation slightly past ``S``, so there (and only there) the
    two-projection check settles it, keeping every verdict and recorded
    reservation identical to the projection's.  Everything else is
    refused.  The shadow is cached per (engine, transition counter,
    ``now``, head): any start, rescale, completion or capacity change
    bumps the engine's counter, so a cached shadow is never stale.  The
    conservative variant always runs the projection chain.

    ``last_reservations`` keeps the most recent with-candidate
    projection (job name → reserved start time).  Only the *head* entry
    is a hard bound: non-head projections under ``conservative`` commit
    each reserved job at its minimum size, while the engine's moldable
    sizing may start an earlier job wider and push later waiters out —
    so ``last_head_reservations`` tracks the head entries alone, and the
    property suite asserts heads actually start by their reserved times.
    A reservation protects its job only while it is the head: once a
    higher-ranked job is queued ahead of a still-waiting head
    (:meth:`on_queued`) or starts ahead of it, the head's entry is void
    and is dropped from both maps — bookkeeping only, no decision
    reads them.
    """

    #: Estimate-memo epoch bound: cleared wholesale at this size, so
    #: streaming runs don't pin every completed job's request forever.
    _EST_CACHE_LIMIT = 20_000

    def __init__(self, conservative: bool = False):
        self.conservative = bool(conservative)
        self.last_reservations: Dict[str, float] = {}
        self.last_head_reservations: Dict[str, float] = {}
        self._est_cache: Dict[Tuple[int, int], Tuple[JobRequest, float]] = {}
        #: The head the last reservation was recorded for.
        self._head: Optional[SchedulerJob] = None
        #: (engine, transition counter, now, head, S, extra, extra_eps).
        self._shadow_memo: Optional[tuple] = None

    def _estimate(self, request: JobRequest, replicas: int) -> float:
        # Keyed by identity (requests carry an unhashable params dict);
        # the stored reference keeps the id from being recycled while
        # the entry lives, and the estimate is a pure function of the
        # request, so a hit is always exact.
        key = (id(request), replicas)
        hit = self._est_cache.get(key)
        if hit is not None and hit[0] is request:
            return hit[1]
        if len(self._est_cache) >= self._EST_CACHE_LIMIT:
            self._est_cache.clear()
        est = estimate_runtime(request, replicas)
        self._est_cache[key] = (request, est)
        return est

    # -- BackfillRule --------------------------------------------------

    def allows(self, engine, job: SchedulerJob, replicas: int,
               now: float) -> bool:
        # The queue iterates in priority_order_key order, so everything
        # "ahead" of the candidate sits before it (and before the first
        # key >= its own): break there instead of scanning the whole
        # backlog, and after one hit in the aggressive variant — this
        # runs per scan candidate, and O(queue) here is what used to
        # make deep-backlog walks quadratic.
        key = priority_order_key(job)
        ahead: List[SchedulerJob] = []
        for q in engine.queue:
            if q is job or priority_order_key(q) >= key:
                break
            if q.state == JobState.QUEUED:
                ahead.append(q)
                if not self.conservative:
                    break
        if not ahead:
            self._overtaken_by(job)
            return True  # starting the head is never a backfill
        head = ahead[0]
        if not self.conservative:
            shadow, extra, extra_eps = self._shadow(engine, head, now)
            finish = now + self._estimate(job.request, replicas)
            need = replicas + engine.config.launcher_slots
            if finish <= shadow or need <= extra:
                self._record(head, {head.name: shadow})
                return True
            if not (finish <= shadow + 1e-9 or need <= extra_eps):
                return False
            # Tolerance band: the reservation may land in (S, S + 1e-9].
        trial = self._project_with(engine, ahead, job, replicas, now)
        if trial is None:
            return False
        self._record(head, trial)
        return True

    def on_queued(self, job: SchedulerJob) -> None:
        self._overtaken_by(job)

    def _overtaken_by(self, job: SchedulerJob) -> None:
        """Void the recorded head's reservation if ``job`` outranks it
        while the head is still waiting."""
        head = self._head
        if (
            head is not None
            and head is not job
            and head.state == JobState.QUEUED
            and priority_order_key(job) < priority_order_key(head)
        ):
            self.last_reservations.pop(head.name, None)
            self.last_head_reservations.pop(head.name, None)
            self._head = None

    def _record(self, head: SchedulerJob, trial: Dict[str, float]) -> None:
        self._head = head
        self.last_reservations.update(trial)
        self.last_head_reservations[head.name] = trial[head.name]

    def _project_with(
        self,
        engine,
        ahead: List[SchedulerJob],
        job: SchedulerJob,
        replicas: int,
        now: float,
    ) -> Optional[Dict[str, float]]:
        """The two-projection check: the reservations of ``ahead`` with
        ``job`` running on ``replicas``, or ``None`` when any of them
        lands more than ``1e-9`` s later than without it."""
        launcher = engine.config.launcher_slots
        free, releases = self._release_profile(engine, now, launcher)
        base = self._project(ahead, free, list(releases), now, launcher)
        need = replicas + launcher
        releases.append((now + self._estimate(job.request, replicas), need))
        trial = self._project(ahead, free - need, releases, now, launcher)
        for name, reserved_at in trial.items():
            if reserved_at > base[name] + 1e-9:
                return None
        return trial

    # -- the shadow-profile projection ---------------------------------

    def _shadow(
        self, engine, head: SchedulerJob, now: float
    ) -> Tuple[float, int, int]:
        """``(S, extra, extra_eps)`` for ``head`` — see the class docstring.

        Memoized on the engine's transition counter: every candidate of
        one walk between two starts shares one sort of the profile.
        """
        counter = engine._transitions
        memo = self._shadow_memo
        if (
            memo is not None
            and memo[0] is engine
            and memo[1] == counter
            and memo[2] == now
            and memo[3] is head
        ):
            return memo[4], memo[5], memo[6]
        launcher = engine.config.launcher_slots
        free, releases = self._release_profile(engine, now, launcher)
        releases.sort()
        need = head.request.min_replicas + launcher
        n = len(releases)
        i = 0
        avail = free
        shadow = now
        while avail < need and i < n:
            shadow, slots = releases[i]
            avail += slots
            i += 1
        if avail < need:
            shadow = math.inf  # can never start in this profile
        while i < n and releases[i][0] <= shadow:
            avail += releases[i][1]
            i += 1
        extra = avail - need
        limit = shadow + 1e-9
        while i < n and releases[i][0] <= limit:
            avail += releases[i][1]
            i += 1
        extra_eps = avail - need
        self._shadow_memo = (engine, counter, now, head, shadow, extra,
                             extra_eps)
        return shadow, extra, extra_eps

    def _release_profile(
        self, engine, now: float, launcher: int
    ) -> Tuple[int, List[Tuple[float, int]]]:
        """Free slots plus the (finish, slots) release of every running
        job — including pending starts deferred mid-walk (the engine
        parks them on ``_pending_starts`` while they are still
        physically in the queue; their slots are already charged).
        """
        releases: List[Tuple[float, int]] = []

        def finish(record: SchedulerJob) -> float:
            remaining = self._estimate(record.request, record.replicas)
            started = record.last_action
            if started == -math.inf or math.isnan(started):
                started = now
            done = started + remaining
            return done if done > now else now

        for record in engine.running:
            releases.append((finish(record), record.replicas + launcher))
        pending = engine._pending_starts
        if pending:
            for record in pending:
                releases.append((finish(record), record.replicas + launcher))
        return engine.free_slots, releases

    def _project(
        self,
        reserved: List[SchedulerJob],
        free: int,
        releases: List[Tuple[float, int]],
        now: float,
        launcher: int,
    ) -> Dict[str, float]:
        """Earliest start time per reserved job under estimated finishes.

        Reserved jobs are committed at their minimum size in order, each
        adding its own release for the conservative chain.  ``releases``
        is consumed (heapified in place).
        """
        heapq.heapify(releases)
        out: Dict[str, float] = {}
        for head in reserved:
            need = head.request.min_replicas + launcher
            at = now
            while free < need and releases:
                at, slots = heapq.heappop(releases)
                free += slots
            if free < need:
                out[head.name] = math.inf  # can never start in this profile
                continue
            out[head.name] = at
            free -= need
            heapq.heappush(
                releases,
                (at + self._estimate(head.request,
                                     head.request.min_replicas), need),
            )
        return out


# -- registrations -----------------------------------------------------


@REGISTRY.register(
    "ewt", tags=("literature", "priority-rule"),
    description="estimated-waiting-time ordering: least estimated work first",
)
def _ewt(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="ewt",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        priority_rule=ewt_priority,
    )


@REGISTRY.register(
    "prb", tags=("literature", "priority-rule"),
    description="priority-rule-based blend of priority, runtime, and width",
)
def _prb(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="prb",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        priority_rule=prb_priority,
    )


@REGISTRY.register(
    "easy-backfill", tags=("literature", "backfill"),
    description="EASY backfilling: starts may not delay the reserved "
                "queue head (conservative=True reserves every waiter)",
)
def _easy_backfill(
    rescale_gap: float = math.inf,  # accepted and ignored, like moldable
    launcher_slots: int = 0,
    shrink_filter=None,
    conservative: bool = False,
) -> PolicyConfig:
    # Gap pinned to inf (moldable sizing), exactly how moldable treats
    # the parameter: jobs never rescale, so the size-class runtime
    # estimates — and with them the head reservation — are exact rather
    # than heuristic, and sweep plumbing that threads a finite default
    # gap through cannot silently weaken the no-delay guarantee.
    return PolicyConfig(
        name="easy-backfill",
        rescale_gap=math.inf,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        backfill=EasyBackfill(conservative=conservative),
    )
