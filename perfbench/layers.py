"""Which calls are traced, and the per-layer metrics derived from them.

Time metrics are normalised self seconds per op (a span's self time
scaled by the host-speed factor of the op it ran in), averaged over the
traced ops.  Count metrics are totals over the traced ops, a fixed,
seeded prefix of the op list, so they repeat exactly across runs of
one seed: a changed count means changed work, not noise.
"""

from __future__ import annotations

import repro.delta.engine as delta_engine
import repro.programs.registry as registry
from repro.delta.view import MutableGraphView
from repro.distributed.async_engine import AsyncEngine
from repro.distributed.sync_engine import SyncEngine
from repro.engine.mra import MRAEvaluator
from repro.programs import PROGRAMS
from repro.runtime import KERNELS, Kernel

from spans import Patch

#: kernel entry points; the methods are called at most a few thousand
#: times per op (once per round or per async batch)
KERNEL_METHODS = {
    "from_plan": "runtime.from_plan",
    "initial_delta": "runtime.initial_delta",
    "step": "runtime.step",
    "apply_batch": "runtime.apply_batch",
}


def _plan_edges(args: tuple, plan) -> dict:
    return {"plan_edges": plan.num_edges}


def _engine_label(args: tuple, result) -> dict:
    return {"label": args[0].engine_name}


def kernel_classes() -> list:
    """Every class a registered kernel inherits a traced method from."""
    classes: list = []
    for cls in KERNELS.values():
        for base in cls.__mro__:
            if issubclass(base, Kernel) and base not in classes:
                classes.append(base)
    return classes


def patches(workload_module) -> list:
    """The wrappers of a traced run, patched where callers look them up."""
    table = [
        # the benchmark's own calls into the front end and compiler
        Patch(workload_module, "parse_program", "datalog.parse"),
        Patch(workload_module, "analyze", "datalog.analyze"),
        Patch(workload_module, "check_analysis", "checker.check"),
        Patch(workload_module, "compile_plan", "engine.compile_plan", note=_plan_edges),
        # ProgramSpec.plan, as called by IncrementalEngine.refresh
        Patch(registry, "compile_plan", "engine.compile_plan", note=_plan_edges),
        Patch(MRAEvaluator, "run", "engine.mra_run"),
        Patch(MutableGraphView, "apply", "delta.view_apply"),
        Patch(delta_engine, "diff_plans", "delta.diff"),
        Patch(delta_engine, "repair_plan", "delta.repair"),
        # UnifiedEngine and AAPEngine inherit AsyncEngine.run
        Patch(AsyncEngine, "run", "distributed.run", note=_engine_label),
        Patch(SyncEngine, "run", "distributed.run", note=_engine_label),
    ]
    table.extend(
        Patch(spec, "build_database", "programs.build_database") for spec in PROGRAMS.values()
    )
    for cls in kernel_classes():
        for attr, name in KERNEL_METHODS.items():
            if attr in cls.__dict__:
                table.append(Patch(cls, attr, name))
    return table


#: per-layer metric -> unit; the order the benchmark prints them in
METRICS = {
    "datalog.parse_s": "s",
    "datalog.analyze_s": "s",
    "checker.check_s": "s",
    "programs.build_database_s": "s",
    "engine.compile_plan_s": "s",
    "engine.compile_calls": "count",
    "engine.plan_edges": "count",
    "engine.mra_self_s": "s",
    "runtime.from_plan_s": "s",
    "runtime.initial_delta_s": "s",
    "runtime.step_s": "s",
    "runtime.steps": "count",
    "runtime.fprime_applications": "count",
    "runtime.updates": "count",
    "runtime.useful_ratio": "ratio",
    "delta.view_apply_s": "s",
    "delta.diff_s": "s",
    "delta.repair_self_s": "s",
    "delta.frontier_ops": "count",
    "delta.rederive_ops": "count",
    "delta.recompute_ops": "count",
    "delta.repair_work": "count",
    "distributed.run_self_s": "s",
    "distributed.messages": "count",
    "distributed.message_tuples": "count",
    "distributed.barriers": "count",
    "distributed.simulated_s": "s",
    "bench.op_self_s": "s",
    "host.probe_s": "s",
    "host.op_wall_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: span name -> the time metric its self time feeds
SPAN_TIME = {
    "datalog.parse": "datalog.parse_s",
    "datalog.analyze": "datalog.analyze_s",
    "checker.check": "checker.check_s",
    "programs.build_database": "programs.build_database_s",
    "engine.compile_plan": "engine.compile_plan_s",
    "engine.mra_run": "engine.mra_self_s",
    "runtime.from_plan": "runtime.from_plan_s",
    "runtime.initial_delta": "runtime.initial_delta_s",
    "runtime.step": "runtime.step_s",
    "runtime.apply_batch": "runtime.step_s",
    "delta.view_apply": "delta.view_apply_s",
    "delta.diff": "delta.diff_s",
    "delta.repair": "delta.repair_self_s",
    "distributed.run": "distributed.run_self_s",
    "bench.op": "bench.op_self_s",
}


def layer_metrics(recorder, factors: dict, outcomes: list) -> dict:
    """Per-layer metrics of one traced pass.

    ``factors`` maps op id to its normalised / raw time ratio;
    ``outcomes`` are the traced ops' results in order.
    """
    ops = max(1, len(outcomes))
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in METRICS.items()}
    spans = recorder.spans
    for span, self_s in zip(spans, recorder.self_times()):
        metric = SPAN_TIME.get(span.name)
        if metric is not None:
            metrics[metric] += self_s * factors[span.op] / ops
        if span.name == "engine.compile_plan":
            metrics["engine.compile_calls"] += 1
            metrics["engine.plan_edges"] += span.attrs["plan_edges"]
        parent = spans[span.parent].name if span.parent is not None else None
        if span.name == "runtime.step" or (
            span.name == "runtime.apply_batch" and parent != "runtime.step"
        ):
            metrics["runtime.steps"] += 1
    for outcome in outcomes:
        work = outcome.work
        metrics["runtime.fprime_applications"] += work["fprime_applications"]
        metrics["runtime.updates"] += work["updates"]
        strategy = work.get("strategy")
        if strategy is not None:
            metrics[f"delta.{strategy}_ops"] += 1
            metrics["delta.repair_work"] += (
                work["fprime_applications"] + work["combines"] + work["updates"]
            )
        if "simulated_s" in work:
            metrics["distributed.messages"] += work["messages"]
            metrics["distributed.message_tuples"] += work["message_tuples"]
            metrics["distributed.barriers"] += work["barriers"]
            metrics["distributed.simulated_s"] += work["simulated_s"]
    if metrics["runtime.fprime_applications"]:
        metrics["runtime.useful_ratio"] = (
            metrics["runtime.updates"] / metrics["runtime.fprime_applications"]
        )
    return metrics


def span_counts(recorder) -> dict:
    counts: dict = {}
    for span in recorder.spans:
        key = f"{span.name}[{span.label}]" if span.label else span.name
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
