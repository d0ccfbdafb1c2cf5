"""The layer boundaries a traced run wraps, and the counts taken there.

Each entry names a public call (or, for the simulator glue, the event
handler the engine dispatches to) and the layer its time belongs to.
Spans nest, so a layer's self time excludes every wrapped call it makes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import repro.faults.runner
import repro.schedsim.experiment
import repro.schedsim.simulator
from repro.cloud.autoscaler import QueueDepthAutoscaler
from repro.cloud.provider import CloudProvider
from repro.cloud.simulator import CloudScheduleSimulator
from repro.faults.injector import FaultInjector
from repro.scheduling.elastic import ElasticPolicyEngine
from repro.scheduling.metrics import MetricsAccumulator
from repro.scheduling.registry import SchedulerRegistry
from repro.schedsim.simulator import ScheduleSimulator
from repro.sim.engine import Engine

from spans import SpanRecorder

#: Decision class name -> per-layer counter suffix.
DECISION_KINDS = {
    "StartJob": "start",
    "ShrinkJob": "shrink",
    "ExpandJob": "expand",
    "EnqueueJob": "enqueue",
    "RequeueJob": "requeue",
}

Target = Tuple[object, str, Callable]


def layer_targets(rec: SpanRecorder) -> List[Target]:
    """Every (owner, attribute, wrapper-factory) a traced run patches."""

    def span(layer: str, observe: Optional[Callable] = None):
        return lambda original: rec.wrap(layer, original, observe)

    def engine_ran(args, _result) -> None:
        engine = args[0]
        rec.count("sim.events", engine.events_executed)
        rec.count("sim.heap_pushes", engine.heap_pushes)
        rec.count("sim.stale_drops", engine.stale_drops)

    def handler_ran(_args, _result) -> None:
        rec.count("schedsim.handler_calls")

    def decided(args, decisions) -> None:
        for decision in decisions:
            kind = DECISION_KINDS.get(type(decision).__name__, "other")
            rec.count("scheduling.decisions." + kind)
        depth = len(args[0].queue)
        if depth > rec.counts.get("scheduling.queue_depth_max", 0):
            rec.counts["scheduling.queue_depth_max"] = depth

    def shrunk(args, result) -> None:
        decided(args, result[1])

    targets: List[Target] = [
        (Engine, "run", span("sim", engine_ran)),
        (Engine, "schedule_at", span("sim")),
        (Engine, "reschedule_at", span("sim")),
        (Engine, "post_at", span("sim")),
        (Engine, "post", span("sim")),
        (ScheduleSimulator, "run", span("schedsim")),
        (ScheduleSimulator, "_on_submit", span("schedsim", handler_ran)),
        (ScheduleSimulator, "_on_finish", span("schedsim", handler_ran)),
        (ScheduleSimulator, "__init__", span("schedsim.build")),
        (CloudScheduleSimulator, "__init__", span("schedsim.build")),
        (SchedulerRegistry, "resolve", span("schedsim.build")),
        (ElasticPolicyEngine, "on_submit", span("scheduling", decided)),
        (ElasticPolicyEngine, "on_complete", span("scheduling", decided)),
        (ElasticPolicyEngine, "grow_capacity", span("scheduling", decided)),
        (ElasticPolicyEngine, "rebalance", span("scheduling", decided)),
        (ElasticPolicyEngine, "shrink_capacity", span("scheduling", shrunk)),
        (ElasticPolicyEngine, "eviction_candidates", span("scheduling")),
        (ElasticPolicyEngine, "retire", span("scheduling")),
        (MetricsAccumulator, "add_raw", span("metrics")),
        (MetricsAccumulator, "finalize", span("metrics")),
        (repro.schedsim.simulator, "compute_metrics", span("metrics")),
        (repro.schedsim.experiment, "generate_workload", span("workloads")),
        (repro.faults.runner, "generate_workload", span("workloads")),
        (QueueDepthAutoscaler, "desired_nodes", span("cloud.autoscaler")),
        (FaultInjector, "_fire", span("faults")),
        (FaultInjector, "provision_outcome", span("faults")),
    ]
    for name in ("run", "_on_submit", "_on_finish", "_on_node_ready",
                 "_on_node_interrupted", "_on_interrupt_notice",
                 "_on_provision_failed", "_fault_window_closed",
                 "_breaker_wake", "_on_tick"):
        targets.append((CloudScheduleSimulator, name, span("cloud.simulator")))
    for name in ("request_node", "release_node", "begin_drain", "drained",
                 "cancel_node", "crash_node", "interrupt_with_notice",
                 "_node_ready", "_provision_failed", "_retry_provision",
                 "_interrupt"):
        targets.append((CloudProvider, name, span("cloud.provider")))
    return targets
