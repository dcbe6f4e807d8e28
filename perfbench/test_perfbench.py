"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q

They cover the host-speed normalisation, the span recorder, and the
layer wrappers of every workload: each span the per-layer metrics read
must fire on its workload, and traced runs must return the same values
and work counters as untraced ones.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import hostnorm  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Patch, SpanRecorder, installed  # noqa: E402

HERE = Path(__file__).resolve().parent


# -- host normalisation -----------------------------------------------------------


class SyntheticHost:
    """A clock that advances only by work done, at the host's current speed.

    ``slowdown`` multiplies the cost of every unit of work, standing in
    for a phase where the host runs everything slower.
    """

    def __init__(self):
        self.now = 0.0
        self.slowdown = 1.0

    def clock(self) -> float:
        return self.now

    def work(self, units: float) -> None:
        self.now += units * self.slowdown


def test_normalised_time_is_constant_under_a_slowdown_phase():
    host = SyntheticHost()
    probe_units = hostnorm.PROBE_REF_S
    timer = hostnorm.NormalisedTimer(clock=host.clock, work=lambda: host.work(probe_units))
    raw, norm = [], []
    for phase in (1.0, 2.0, 1.0):
        host.slowdown = phase
        for _ in range(5):
            timed = timer.time(host.work, 0.1)
            raw.append(timed.raw_s)
            norm.append(timed.norm_s)
    # the phase change lands between two probes: the first op of each
    # phase is bracketed by one fast and one slow probe
    assert max(raw) == pytest.approx(2 * min(raw))
    steady = [n for i, n in enumerate(norm) if i % 5 != 0]
    assert steady == pytest.approx([0.1] * len(steady))


def test_normalise_formula():
    ref = hostnorm.PROBE_REF_S
    assert hostnorm.normalise(0.3, ref, ref) == pytest.approx(0.3)
    assert hostnorm.normalise(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    assert hostnorm.normalise(0.45, ref, 2 * ref) == pytest.approx(0.3)


def test_timer_captures_op_errors():
    timer = hostnorm.NormalisedTimer()

    def boom():
        raise ValueError("op failed")

    timed = timer.time(boom)
    assert isinstance(timed.error, ValueError) and timed.value is None
    assert len(timer.probes) == 2


def test_probe_imports_nothing_from_the_program():
    source = (HERE / "hostnorm.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hostnorm; "
        "hostnorm.NormalisedTimer().probe(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# -- span recorder ----------------------------------------------------------------


class Tick:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_folds_reentry():
    tick = Tick()
    rec = SpanRecorder(clock=tick)

    def leaf():
        tick.now += 1.0

    def middle(depth):
        tick.now += 2.0
        if depth:
            # re-entering the same span name folds into the outer span
            rec.call("middle", middle, (depth - 1,), {})
        rec.call("leaf", leaf, (), {})

    rec.call("root", lambda: (rec.call("middle", middle, (1,), {}), leaf()), (), {})
    names = [span.name for span in rec.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    selfs = dict(zip(range(4), rec.self_times()))
    assert rec.spans[0].duration == 7.0 and selfs[0] == 1.0
    assert rec.spans[1].duration == 6.0 and selfs[1] == 4.0
    assert selfs[2] == selfs[3] == 1.0
    assert rec.spans[1].parent == 0 and rec.spans[2].parent == 1


def test_patches_are_restored():
    import repro.delta.engine as delta_engine

    table = layers.patches(workloads)
    before = [patch.original() for patch in table]
    diff_plans = delta_engine.diff_plans
    with installed(SpanRecorder(), table):
        assert delta_engine.diff_plans is not diff_plans
    assert [patch.original() for patch in table] == before


def test_patch_on_frozen_spec_field():
    from repro.programs import PROGRAMS

    spec = PROGRAMS["sssp"]
    original = spec.build_database
    rec = SpanRecorder()
    with installed(rec, [Patch(spec, "build_database", "programs.build_database")]):
        spec.plan(workloads._graph("livej", 0.05))
    assert spec.build_database is original
    assert [span.name for span in rec.spans] == ["programs.build_database"]


# -- layer wrappers on every workload ------------------------------------------------

#: every span a workload's per-layer metrics read
EXPECTED_SPANS = {
    "query": {
        "datalog.parse", "datalog.analyze", "checker.check", "programs.build_database",
        "engine.compile_plan", "engine.mra_run", "runtime.from_plan",
        "runtime.initial_delta", "runtime.step",
    },
    "evaluate": {"engine.mra_run", "runtime.from_plan", "runtime.initial_delta", "runtime.step"},
    "update": {
        "delta.view_apply", "programs.build_database", "engine.compile_plan", "delta.diff",
        "delta.repair", "runtime.from_plan", "runtime.step",
    },
    "cluster": {
        "distributed.run[incremental+sync]", "distributed.run[mra+async]",
        "distributed.run[mra+sync-async]", "distributed.run[mra+aap]",
        "runtime.from_plan", "runtime.apply_batch",
    },
}

#: ops replayed after the warm-up ops: enough to reach every op kind
#: that a span above needs (cluster needs all four engines)
WINDOW = {"query": 3, "evaluate": 3, "update": 6, "cluster": 10}


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_every_span_fires_and_traced_matches_untraced(name):
    workload = workloads.WORKLOADS[name]()
    ops = workload.load(seed=7)
    tally = run.Tally()
    window = ops[: workload.warmup + WINDOW[name]]
    plain, traced, recorder, _ = run.trace_window(workload, window, tally)
    assert tally.failed == 0, tally.messages

    for a, b in zip(plain, traced):
        assert a.value.values == b.value.values
        assert a.value.work == b.value.work
    # only distributed.run spans carry a label: the engine's name
    fired = set(layers.span_counts(recorder))
    assert EXPECTED_SPANS[name] <= fired, EXPECTED_SPANS[name] - fired
    assert {span.op for span in recorder.spans} == set(range(1, WINDOW[name] + 1))

    # counts derived from the spans and work counters repeat exactly
    _, traced_again, again, _ = run.trace_window(workload, window, run.Tally())
    factors = dict.fromkeys(range(1, WINDOW[name] + 1), 1.0)
    first = layers.layer_metrics(recorder, factors, [t.value for t in traced])
    second = layers.layer_metrics(again, factors, [t.value for t in traced_again])
    counts = [m for m, unit in layers.METRICS.items() if unit == "count"]
    assert [first[m] for m in counts] == [second[m] for m in counts]
