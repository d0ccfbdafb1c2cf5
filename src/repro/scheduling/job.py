"""Job descriptors used by the scheduling policy engine.

The policy engine is substrate-independent: the scheduler simulator
(§4.3.1) and the Kubernetes operator path (§4.3.2) both feed it
:class:`JobRequest` objects and keep :class:`SchedulerJob` records in sync
with reality.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import JobStateError

__all__ = ["JobRequest", "SchedulerJob", "JobState", "priority_order_key"]

_seq = itertools.count(1)


@dataclass(frozen=True, slots=True)
class JobRequest:
    """An immutable job submission.

    Attributes
    ----------
    priority:
        User-defined priority; **larger is more important**.  Two jobs with
        the same priority are ordered by submission time (earlier wins).
    size_class:
        Optional workload label ("small"/"medium"/"large"/"xlarge",
        §4.3.1); carried for the simulators and reports.
    params:
        Application parameters (problem size, timesteps, ...).
    """

    name: str
    min_replicas: int
    max_replicas: int
    priority: int = 1
    size_class: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.min_replicas < 1:
            raise JobStateError(f"{self.name}: min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise JobStateError(
                f"{self.name}: max_replicas ({self.max_replicas}) < "
                f"min_replicas ({self.min_replicas})"
            )

    def with_rigid_replicas(self, replicas: int) -> "JobRequest":
        """A copy pinned to a fixed size (the paper's rigid emulation)."""
        return JobRequest(
            name=self.name,
            min_replicas=replicas,
            max_replicas=replicas,
            priority=self.priority,
            size_class=self.size_class,
            params=dict(self.params),
        )


class JobState(str, enum.Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    COMPLETED = "Completed"


@dataclass(slots=True)
class SchedulerJob:
    """The policy engine's live record for one job."""

    request: JobRequest
    submit_time: float = 0.0
    seq: int = field(default_factory=_seq.__next__)
    #: Cached :func:`priority_order_key` — the sorted containers ask for
    #: the key often enough that rebuilding the tuple showed up in
    #: trace-scale profiles.  Built from the user priority, submission
    #: time and sequence; under the aging stage the engine swaps in the
    #: *aged* priority while the job is queued (never while the job sits
    #: in a list) and clears it when the job starts.
    sort_key: tuple = field(init=False, repr=False, compare=False, default=())
    state: JobState = JobState.QUEUED
    replicas: int = 0
    #: Time of the last scheduling event (create/shrink/expand); -inf means
    #: the T_rescale_gap check always passes (queued jobs, §3.2.1).
    last_action: float = -math.inf
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    rescale_count: int = 0

    # Short accessors mirroring the pseudocode's field names ----------------

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def priority(self) -> int:
        return self.request.priority

    @property
    def min_replicas(self) -> int:
        return self.request.min_replicas

    @property
    def max_replicas(self) -> int:
        return self.request.max_replicas

    @property
    def is_running(self) -> bool:
        return self.state == JobState.RUNNING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SchedulerJob {self.name} p{self.priority} "
            f"{self.state.value} r={self.replicas}>"
        )


def priority_order_key(job: SchedulerJob):
    """Sort key for *decreasing* effective priority.

    Higher user priority first; among equals, earlier submission first
    (§3.2.1), with the submission sequence as the final deterministic
    tie-break.  The tuple is cached on the job.  It changes only for a
    queued job under the aging stage, which re-keys the job by its aged
    priority while the job is out of the queue (see
    :attr:`SchedulerJob.sort_key`).
    """
    return job.sort_key or _build_sort_key(job)


def _build_sort_key(job: SchedulerJob) -> tuple:
    key = (-job.request.priority, job.submit_time, job.seq)
    job.sort_key = key
    return key
