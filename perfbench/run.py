"""End-to-end benchmark of the PowerLog reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads: ``query``, ``evaluate``, ``update``, ``cluster`` (see
``workloads.py``).  One process, one client thread, closed loop: each op
starts when the previous one has finished and been timed.

``--trace 0`` measures the end-to-end metrics: after set-up (repeated,
median reported) and untimed warm-up ops (one of each op kind), ops
run until ``--seconds``
have passed and at least ``MIN_OPS`` ops are done.  Every op is timed
between host-speed probes and normalised (``hostnorm.py``), and every
answer is checked against its reference outside the timed region.

``--trace 1`` measures the per-layer metrics: the first ``TRACE_OPS``
ops after the warm-up ops run once untraced and once with layer spans
recorded (``layers.py``); both passes must return identical values and
work counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

from hostnorm import NormalisedTimer
from spans import SpanRecorder, installed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: timed ops a run completes at least, so p90 has 10 samples beyond it
MIN_OPS = 100
#: a run stops timing ops after this long whatever its op count
HARD_CAP_S = 120.0
#: set-up runs this many times; setup_s is the median
SETUP_REPEATS = 3
#: ops replayed by a traced run (after the warm-up op)
TRACE_OPS = 40

END_TO_END = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import every ``repro`` module from this checkout's ``src``.

    Done before any timer starts, so lazy imports inside the program
    (``repro.analysis.incremental`` in ``IncrementalEngine``, say) never
    land in a timed region.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC}")
    # one client thread: pin numpy/BLAS thread pools before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def reset_peak_rss() -> None:
    """Start the peak-RSS high-water mark afresh (Linux), so reference
    answers computed by the load generator do not count."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def outcome_error(workload, state, op, timed) -> str | None:
    """Why an op's answer is wrong, or ``None``; checked outside timing."""
    if timed.error is not None:
        return f"{op!r}: raised {timed.error!r}"
    try:
        error = workload.check(state, op, timed.value)
    except Exception as exc:  # a broken answer can break the check too
        error = f"check raised {exc!r}"
    return None if error is None else f"{op!r}: {error}"


def measure(workload, ops: list, seconds: float, tally: Tally) -> dict:
    """The untraced run: end-to-end metrics."""
    timer = NormalisedTimer()
    gc.collect()  # the load generator's garbage is not the program's
    reset_peak_rss()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # free the previous state, cycles included, before building the
        # next, so the peak RSS does not depend on when the collector ran
        state = timed = None
        gc.collect()
        timed = timer.time(workload.setup)
        if timed.error is not None:
            raise timed.error
        setup_times.append(timed.norm_s)
        state = timed.value

    norm: list = []
    completed = 0
    start = time.perf_counter()
    for op in warm_up(workload, state, ops, timer, tally):
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(norm) >= MIN_OPS):
            break
        timed = timer.time(workload.run, state, op)
        norm.append(timed.norm_s)
        completed += timed.error is None
        tally.record(outcome_error(workload, state, op, timed))
    peak = peak_rss_mb()

    shown = ", ".join(f"{s:.4f}" for s in setup_times)
    print(f"setup: {len(setup_times)} runs, normalised {shown} s")
    print(f"ops: {len(norm)} timed in {time.perf_counter() - start:.1f} s wall, "
          f"{completed} completed; op_p50_s and op_p90_s over n={len(norm)}")
    return {
        "op_p50_s": statistics.median(norm),
        "op_p90_s": statistics.quantiles(norm, n=10)[8],
        "ops_per_s": completed / sum(norm),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
    }


def warm_up(workload, state, ops: list, timer, tally: Tally) -> list:
    """Run the workload's warm-up ops untimed (but checked); return the rest.

    The warm-up ops are one of each op kind, so first-use costs such as
    a kernel packing a plan's CSR fall outside the timed ops.
    """
    for op in ops[: workload.warmup]:
        tally.record(outcome_error(workload, state, op, timer.time(workload.run, state, op)))
    return ops[workload.warmup :]


def replay(workload, state, ops: list, timer, tally: Tally, recorder=None, patches=()):
    """Warm up, then run the remaining ops; traced if ``recorder``."""
    results = []
    for index, op in enumerate(warm_up(workload, state, ops, timer, tally), start=1):
        if recorder is None:
            timed = timer.time(workload.run, state, op)
        else:
            recorder.op = index
            with installed(recorder, patches):
                timed = timer.time(recorder.call, "bench.op", workload.run, (state, op), {})
        tally.record(outcome_error(workload, state, op, timed))
        results.append(timed)
    return results


def trace_window(workload, window: list, tally: Tally) -> tuple:
    """Run ``window`` untraced, then traced (on a fresh set-up if ops
    change the set-up state).

    Both passes must return identical values and work counters; each
    op where they differ is counted as failed.  Returns the untraced
    and traced ``Timed`` results, the span recorder and the timer.
    """
    import layers
    import workloads

    timer = NormalisedTimer()
    state = workload.setup()
    plain = replay(workload, state, window, timer, tally)
    if workload.stateful:
        state = None
        state = workload.setup()
    recorder = SpanRecorder()
    traced = replay(
        workload, state, window, timer, tally, recorder, layers.patches(workloads)
    )
    for op, a, b in zip(window[workload.warmup :], plain, traced):
        same = (a.error is None) == (b.error is None) and (
            a.error is not None
            or (a.value.values == b.value.values and a.value.work == b.value.work)
        )
        if not same:
            tally.fail(f"{op!r}: traced and untraced runs differ")
    return plain, traced, recorder, timer


def trace(workload, ops: list, tally: Tally) -> dict:
    """The traced run: per-layer metrics from spans and work counters."""
    import layers

    window = ops[: workload.warmup + TRACE_OPS]
    plain, traced, recorder, timer = trace_window(workload, window, tally)
    outcomes = [t.value for t in traced if t.error is None]
    factors = {i: t.norm_s / t.raw_s for i, t in enumerate(traced, start=1)}
    metrics = layers.layer_metrics(recorder, factors, outcomes)
    metrics["host.probe_s"] = statistics.median(timer.probes)
    metrics["host.op_wall_p50_s"] = statistics.median(t.raw_s for t in plain)
    metrics["trace.overhead_ratio"] = sum(t.norm_s for t in traced) / sum(t.norm_s for t in plain)

    print(f"traced window: {len(traced)} ops, {len(recorder.spans)} spans")
    for name, count in layers.span_counts(recorder).items():
        print(f"  span {name:<40} {count:>8}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.load(args.seed)
    print(f"workload {workload.name}, seed {args.seed}: {len(ops)} ops in list, "
          f"digest {workloads.digest(ops)}")

    tally = Tally()
    if args.trace:
        values = trace(workload, ops, tally)
        units = layers.METRICS
    else:
        values = measure(workload, ops, args.seconds, tally)
        units = END_TO_END
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)

    print(f"fail_ratio {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, unit in units.items():
        shown = f"{values[name]:>14d}" if unit == "count" else f"{values[name]:>14.6g}"
        print(f"{name:<32} {shown} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
