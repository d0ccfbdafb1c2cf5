#!/usr/bin/env python3
"""The scheduler-stack benchmark: end-to-end metrics, or a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` replays a fixed part of the same input untraced and then
traced, and reports the per-layer split, its reconciliation against the
traced wall time, and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails.

See ``perfbench/README.md`` for the workloads, the metrics and why they
were chosen.
"""

import time

_T0 = time.perf_counter()  # set-up probes time the imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: The keys of ``scenarios.WORKLOADS``, repeated here so that parsing the
#: arguments needs no import of the program.
WORKLOAD_NAMES = ("steady", "backlog", "paper-sweep", "cloud-chaos")
#: Variables that change what the program does or costs; cleared so a
#: stray setting (telemetry on, a warm sweep cache, a worker pool, a
#: chatty logger) cannot leak into the numbers.
ISOLATED_ENV = ("REPRO_OBS", "REPRO_SWEEP_CACHE", "REPRO_WORKERS",
                "REPRO_LOG_LEVEL")
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "utilization": "frac",
    "wmean_response_s": "s",
    "makespan_s": "s",
    "goodput_frac": "frac",
    "cost_per_job_usd": "USD",
}

#: Span layer -> per-layer metric holding its self time.
SELF_METRICS = {
    "workloads": "workloads.busy_s",
    "sim": "sim.self_s",
    "schedsim": "schedsim.self_s",
    "schedsim.build": "schedsim.build_s",
    "scheduling": "scheduling.busy_s",
    "metrics": "metrics.busy_s",
    "cloud.simulator": "cloud.simulator.self_s",
    "cloud.provider": "cloud.provider.busy_s",
    "cloud.autoscaler": "cloud.autoscaler.busy_s",
    "faults": "faults.busy_s",
    "unattributed": "unattributed_s",
}
#: Span layer -> per-layer metric holding its call count.
CALL_METRICS = {
    "workloads": "workloads.calls",
    "scheduling": "scheduling.calls",
    "metrics": "metrics.calls",
    "cloud.provider": "cloud.provider.calls",
    "cloud.autoscaler": "cloud.autoscaler.calls",
}
DECISIONS = ("start", "shrink", "expand", "enqueue", "requeue")
#: Counts read from the program's own results or the engine, per pass.
PROGRAM_COUNTS = (
    "sim.events", "sim.heap_pushes", "sim.stale_drops",
    "schedsim.handler_calls", "cloud.provision_failures",
    "cloud.provision_retries", "cloud.interruptions", "faults.evictions",
    "faults.checkpoints_written", "faults.restarts",
)
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_METRICS.values()},
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "tracing_overhead_frac": "frac",
    **{metric: "count" for metric in CALL_METRICS.values()},
    **{metric: "count" for metric in PROGRAM_COUNTS},
    "scheduling.call_p99_us": "us",
    "scheduling.queue_depth_max": "count",
    **{f"scheduling.decisions.{kind}": "count" for kind in DECISIONS},
    "scheduling.rescales_per_job": "count/job",
    "faults.lost_slot_s": "slot-s",
    "faults.goodput_frac": "frac",
}


def prepare() -> None:
    """Find the program's source, and isolate it from the environment."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    for var in ISOLATED_ENV:
        if os.environ.pop(var, None) is not None:
            print(f"perfbench: cleared {var} for the measured program",
                  file=sys.stderr)
    sys.path.insert(1, str(SRC))


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up


def setup_probe(name: str, seed: int) -> float:
    """Imports, registry population, input and simulator construction, and
    the warm-up instance, in this (fresh) process."""
    from scenarios import WORKLOADS, run_warmup

    workload = WORKLOADS[name]
    workload.instances(seed)
    run_warmup(workload, seed)
    return time.perf_counter() - _T0


def measure_setup(name: str, seed: int) -> list:
    """Time ``SETUP_PROBES`` set-ups, each in a fresh process, one by one."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited {done.returncode}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# untraced: end-to-end metrics


def timed_handler(handler, samples):
    """``handler`` with its wall time appended to ``samples`` (ns)."""
    clock = time.perf_counter_ns
    append = samples.append

    def timed(self, arg):
        begin = clock()
        handler(self, arg)
        append(clock() - begin)

    return timed


def run_untraced(workload, seed: int, seconds: float):
    from scenarios import VIRTUAL, run_warmup
    from spans import patched

    setup = measure_setup(workload.name, seed)
    instances = workload.instances(seed)
    run_warmup(workload, seed)

    samples = array("q")
    handlers = [
        (cls, attr, lambda fn: timed_handler(fn, samples))
        for cls in workload.handlers for attr in ("_on_submit", "_on_finish")
    ]
    per_trial = not workload.handlers
    first = {}
    errors = []
    attempted = failed = jobs_done = 0
    busy_ns = 0
    rss_mb = None
    runs = 0
    clock = time.perf_counter_ns
    begin = time.perf_counter()
    with patched(handlers):
        # A closed loop: the next instance starts when the last one ends.
        # Every instance runs at least once; then the list repeats, in
        # strides of ``workload.stride`` instances, until the time is up.
        while runs < len(instances) or time.perf_counter() - begin < seconds:
            for _ in range(workload.stride):
                index = runs % len(instances)
                inst = instances[index]
                runs += 1
                start = clock()
                try:
                    result = workload.run(inst)
                except Exception:  # a failed operation is counted, not fatal
                    busy_ns += clock() - start
                    errors.append(f"instance {index}:\n{traceback.format_exc()}")
                    attempted += 1 if per_trial else inst.jobs
                    failed += 1 if per_trial else inst.jobs
                    continue
                elapsed = clock() - start
                busy_ns += elapsed
                if per_trial:
                    samples.append(elapsed)
                missing = result.jobs - result.completed
                if index in first and first[index] != result.virtual:
                    errors.append(f"instance {index}: virtual-time metrics "
                                  "differ between two runs of the same input")
                    missing = result.jobs
                first.setdefault(index, result.virtual)
                jobs_done += result.completed
                attempted += 1 if per_trial else result.jobs
                failed += (1 if missing else 0) if per_trial else missing
            if rss_mb is None and runs >= len(instances):
                # Read once the whole input has run: repeats add no program
                # state, only latency samples the program did not make.
                rss_mb = peak_rss_mb()
    wall = time.perf_counter() - begin

    ordered = sorted(samples)
    metrics = {
        "jobs_per_s": jobs_done / (busy_ns / 1e9) if busy_ns else 0.0,
        "op_p50_us": percentile(ordered, 0.50) / 1e3 if ordered else 0.0,
        "op_p99_us": percentile(ordered, 0.99) / 1e3 if ordered else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    for i, name in enumerate(VIRTUAL):
        values = [v[i] for v in first.values()]
        metrics[name] = sum(values) / len(values) if values else 0.0
    if len(first) < len(instances):
        errors.append(f"only {len(first)} of {len(instances)} instances "
                      "produced metrics")

    op = "trials" if per_trial else "job events"
    unit = "trials" if per_trial else "jobs"
    notes = {
        "jobs_per_s": f"{jobs_done} jobs completed in {busy_ns / 1e9:.2f} s",
        "op_p50_us": f"n={len(ordered)} {op}",
        "op_p99_us": f"n={len(ordered)} {op}, "
                     f"{len(ordered) - int(0.99 * len(ordered))} above",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup),
        "utilization": f"mean over {len(instances)} instances",
    }
    print(f"workload {workload.name}  seed {seed}  "
          f"{len(instances)} instances x {instances[0].jobs} jobs; "
          f"{runs} instance runs in {wall:.2f} s; "
          f"failed {failed}/{attempted} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:>16.6f} {E2E_UNITS[name]:<5} "
              f"{notes.get(name, '')}")
    if workload.name == "backlog":
        # Jobs done per virtual second under overload = the capacity the
        # steady and backlog arrival rates are set against.
        capacity = instances[0].jobs / metrics["makespan_s"]
        print(f"  measured capacity  {capacity:.5f} jobs/s "
              "(jobs / makespan at 3x overload)")
    return metrics, attempted, failed, errors


# ----------------------------------------------------------------------
# traced: per-layer split


def run_traced(workload, seed: int, seconds: float):
    from layers import layer_targets
    from scenarios import run_warmup
    from spans import LAYERS, SpanRecorder, patched

    instances = workload.instances(seed)[:workload.traced]
    run_warmup(workload, seed)
    per_trial = not workload.handlers

    errors = []
    attempted = failed = 0
    jobs_per_pass = sum(inst.jobs for inst in instances)
    self_s = dict.fromkeys(LAYERS, 0.0)
    traced_s = untraced_s = 0.0
    sched_ns = []
    first_counts = None
    passes = 0
    clock = time.perf_counter_ns
    begin = time.perf_counter()
    # Each pass replays the same instances, untraced then traced, so the
    # per-pass counts must repeat exactly and the times can be averaged.
    while passes == 0 or time.perf_counter() - begin < seconds:
        recorder = SpanRecorder()
        targets = layer_targets(recorder)
        program = dict.fromkeys(PROGRAM_COUNTS + (
            "faults.lost_slot_s", "faults.throughput_slot_s"), 0)
        for index, inst in enumerate(instances):
            attempted += 1 if per_trial else inst.jobs
            try:
                # Alternate which run goes first, so neither side of the
                # overhead ratio always finds the allocator already warm.
                if passes % 2:
                    with patched(targets):
                        traced = recorder.root(workload.run, inst, recorder)
                start = clock()
                plain = workload.run(inst)
                untraced_s += (clock() - start) / 1e9
                if not passes % 2:
                    with patched(targets):
                        traced = recorder.root(workload.run, inst, recorder)
            except Exception:
                errors.append(f"instance {index}:\n{traceback.format_exc()}")
                failed += 1 if per_trial else inst.jobs
                continue
            if plain.virtual != traced.virtual:
                errors.append(f"instance {index}: tracing changed the "
                              "virtual-time metrics")
            missing = traced.jobs - traced.completed
            if plain.virtual != traced.virtual or plain.completed != traced.completed:
                missing = traced.jobs
            failed += (1 if missing else 0) if per_trial else missing
            for name, value in traced.counts.items():
                program[name] += value
        layer_self, layer_calls, wall = recorder.self_times()
        reconciled = sum(layer_self.values())
        if abs(reconciled - wall) > 1e-6 * max(wall, 1.0):
            errors.append(f"layer self times sum to {reconciled} s, "
                          f"not the traced wall {wall} s")
        for layer, value in layer_self.items():
            self_s[layer] += value
        traced_s += wall
        sched_ns.extend(recorder.durations_ns("scheduling"))
        counts = {**program, **recorder.counts}
        for layer, metric in CALL_METRICS.items():
            counts[metric] = layer_calls[layer]
        if first_counts is None:
            first_counts = counts
            OUT.mkdir(exist_ok=True)
            recorder.write(str(OUT / f"{workload.name}-seed{seed}.spans.csv"))
        elif counts != first_counts:
            errors.append("per-pass counts differ between two passes over "
                          "the same input")
        passes += 1

    counts = first_counts
    ordered = sorted(sched_ns)
    decisions = {k: counts.get("scheduling.decisions." + k, 0) for k in DECISIONS}
    throughput = counts["faults.throughput_slot_s"]
    metrics = {}
    for layer, metric in SELF_METRICS.items():
        metrics[metric] = self_s[layer] / passes
    metrics["traced_wall_s"] = traced_s / passes
    metrics["untraced_wall_s"] = untraced_s / passes
    metrics["tracing_overhead_frac"] = (traced_s / untraced_s - 1.0
                                        if untraced_s else 0.0)
    for metric in CALL_METRICS.values():
        metrics[metric] = counts[metric]
    for name in PROGRAM_COUNTS:
        metrics[name] = counts[name]
    metrics["scheduling.call_p99_us"] = (percentile(ordered, 0.99) / 1e3
                                         if ordered else 0.0)
    metrics["scheduling.queue_depth_max"] = counts.get(
        "scheduling.queue_depth_max", 0)
    for kind, n in decisions.items():
        metrics["scheduling.decisions." + kind] = n
    metrics["scheduling.rescales_per_job"] = (
        (decisions["shrink"] + decisions["expand"]) / jobs_per_pass)
    metrics["faults.lost_slot_s"] = counts["faults.lost_slot_s"]
    metrics["faults.goodput_frac"] = (
        1.0 - counts["faults.lost_slot_s"] / throughput if throughput else 1.0)

    wall = metrics["traced_wall_s"]
    print(f"workload {workload.name}  seed {seed}  traced "
          f"{len(instances)} instance(s), {jobs_per_pass} jobs per pass; "
          f"{passes} passes in {time.perf_counter() - begin:.2f} s")
    print("  layer self time per pass (reconciles to the traced wall):")
    for layer, metric in SELF_METRICS.items():
        value = metrics[metric]
        print(f"    {layer:<18} {value:>10.4f} s {100 * value / wall:6.2f}%")
    print(f"    {'= traced wall':<18} {sum(metrics[m] for m in SELF_METRICS.values()):>10.4f} s"
          f"  (measured {wall:.4f} s)")
    print(f"  untraced wall {metrics['untraced_wall_s']:.4f} s; tracing "
          f"overhead {100 * metrics['tracing_overhead_frac']:.1f}%")
    for name, value in metrics.items():
        if name not in SELF_METRICS.values():
            print(f"  {name:<34} {value:>16.6f}")
    return metrics, attempted, failed, errors


# ----------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after another."""
    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit {done.returncode})")
            correct = False
            continue
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process, print "
                             "seconds (used by the benchmark itself)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    prepare()
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0
    if args.workload == "all":
        return run_all(args)

    from scenarios import WORKLOADS

    workload = WORKLOADS[args.workload]
    measure = run_traced if args.trace else run_untraced
    metrics, attempted, failed, errors = measure(workload, args.seed,
                                                 args.seconds)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors and failed == 0
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
