"""Policy extensions the paper discusses but does not evaluate (§3.2.2).

Both are registry residents built on hook stages of the one Figure-2/3
engine (non-paper: ``--policies all`` grids include them, the paper's
four-policy tables do not):

* **aging** — "a dynamic priority system could be implemented to
  gradually increase the priority of waiting jobs, ensuring that
  low-priority jobs get resources during times of high traffic"
  (*Aging priorities*): the :class:`~repro.scheduling.policy.Aging`
  stage.  ``aging_interval`` and ``max_priority`` override it.
* **preemptive** — "lower-priority jobs could be sent a signal to
  checkpoint to disk and then be preempted to make room for
  higher-priority jobs ... restarted from [the] checkpoint at a later
  time" (*Job preemption*): the ``preemption`` stage, which preempts
  only when that frees both the slots and the watts the arrival needs.
"""

from __future__ import annotations

from .policies import DEFAULT_RESCALE_GAP
from .policy import Aging, PolicyConfig
from .registry import REGISTRY

__all__ = ["DEFAULT_AGING_INTERVAL", "DEFAULT_MAX_PRIORITY"]

#: Seconds of waiting per priority level gained under ``aging``.
DEFAULT_AGING_INTERVAL = 600.0

#: Ceiling an aged queued job's priority cannot pass.
DEFAULT_MAX_PRIORITY = 10


@REGISTRY.register(
    "aging", tags=("extension", "aging"),
    description="elastic + §3.2.2 aging: waiting jobs gain a priority "
                "level per aging_interval",
)
def _aging(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
    aging_interval: float = DEFAULT_AGING_INTERVAL,
    max_priority: int = DEFAULT_MAX_PRIORITY,
) -> PolicyConfig:
    return PolicyConfig(
        name="aging",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        aging=Aging(interval=aging_interval, max_priority=max_priority),
    )


@REGISTRY.register(
    "preemptive", tags=("extension", "preemption"),
    description="elastic + §3.2.2 preemption: higher-priority arrivals "
                "checkpoint lower-priority jobs to disk when that frees "
                "the slots and watts they need",
)
def _preemptive(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="preemptive",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        preemption=True,
    )
