"""★ The paper's contribution: priority-based elastic job scheduling (§3.2).

Public surface::

    from repro.scheduling import (
        ElasticPolicyEngine, PolicyConfig, SchedulingPolicy, Aging,
        SchedulerRegistry, REGISTRY, resolve, list_policies, POLICY_NAMES,
        JobRequest, SchedulerJob, JobState,
        Decision, StartJob, ShrinkJob, ExpandJob, EnqueueJob, RequeueJob,
        PreemptJob, ResumeJob,
        JobOutcome, ReplicaTimeline, SchedulerMetrics, compute_metrics,
    )

The Kubernetes-facing :class:`ElasticSchedulerController` pulls in the
operator stack, so it lives in :mod:`repro.scheduling.controller` and is
imported from there.

Policies resolve by name through :mod:`repro.scheduling.registry`;
importing this package registers the paper's four policies
(:mod:`.policies`), the literature schedulers (:mod:`.literature`:
``ewt``, ``prb``, ``easy-backfill``), the power-capped scenario
(:mod:`.power`), and the §3.2.2 extensions (:mod:`.extensions`:
``aging``, ``preemptive``).
"""

from .elastic import ElasticPolicyEngine
from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .metrics import (
    JobOutcome,
    MetricsAccumulator,
    ReplicaTimeline,
    SchedulerMetrics,
    StreamingTimeline,
    compute_metrics,
)
from .metrics import FairnessReport, compute_fairness
from .registry import (
    REGISTRY,
    PolicyRegistrationError,
    PolicySpec,
    SchedulerRegistry,
    UnknownPolicyError,
    describe,
    list_policies,
    resolve,
)
from .policies import DEFAULT_RESCALE_GAP, POLICY_NAMES
from . import literature  # noqa: F401  (self-registering policies)
from . import power  # noqa: F401  (self-registering policies)
from . import extensions  # noqa: F401  (self-registering policies)
from .policy import (
    Aging,
    BackfillRule,
    CapacityConstraint,
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    PreemptJob,
    RequeueJob,
    ResumeJob,
    SchedulingPolicy,
    ShrinkJob,
    StartJob,
)

__all__ = [
    "ElasticPolicyEngine",
    "PolicyConfig",
    "SchedulingPolicy",
    "Aging",
    "BackfillRule",
    "CapacityConstraint",
    "SchedulerRegistry",
    "PolicySpec",
    "REGISTRY",
    "UnknownPolicyError",
    "PolicyRegistrationError",
    "resolve",
    "list_policies",
    "describe",
    "POLICY_NAMES",
    "DEFAULT_RESCALE_GAP",
    "JobRequest",
    "SchedulerJob",
    "JobState",
    "priority_order_key",
    "Decision",
    "StartJob",
    "ShrinkJob",
    "ExpandJob",
    "EnqueueJob",
    "RequeueJob",
    "PreemptJob",
    "ResumeJob",
    "JobOutcome",
    "ReplicaTimeline",
    "StreamingTimeline",
    "SchedulerMetrics",
    "compute_metrics",
    "MetricsAccumulator",
    "FairnessReport",
    "compute_fairness",
]
