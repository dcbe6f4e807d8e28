"""The four benchmark workloads.

Each workload has four parts, kept apart so that only the system's own
work is timed:

* ``load(seed)`` -- the load generator: the seeded op list and the
  reference answers.  Untimed, and run before set-up so its memory
  does not count towards the program's peak.
* ``setup()`` -- the system's set-up (dataset generation, plan
  compile, bootstrap); timed as ``setup_s``.
* ``run(state, op)`` -- one op; timed.
* ``check(state, op, outcome)`` -- compares the op's answer with its
  reference after the op's closing probe; returns an error or ``None``.

Op lists are built from the seed alone and cycle through a fixed set of
op kinds in seeded order, so every run of one seed executes the same
work and every run of any seed sees the same mix.  Every op kind of a
workload costs about the same (within about 3x), so no percentile sits
on the boundary between two modes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.checker import check_analysis
from repro.datalog import analyze, parse_program
from repro.delta import IncrementalEngine, MutableGraphView, random_delta
from repro.distributed import AAPEngine, AsyncEngine, ClusterConfig, SyncEngine, UnifiedEngine
from repro.engine import MRAEvaluator
from repro.engine.plan import compile_plan
from repro.graphs.datasets import DATASETS
from repro.programs import PROGRAMS
from repro.reference import oracles

#: op lists are long enough that no run reaches their end at today's
#: speed; a run that does simply stops early
OP_LIST_LENGTH = 2000

#: tolerance for additive programs, in units of the program's
#: termination epsilon.  The run stops once a round's total delta is
#: below epsilon; with a contraction factor rho <= 0.85 (PageRank's
#: damping, the largest here) the mass still in flight is at most
#: epsilon * rho / (1 - rho) < 6 epsilon.
EPSILON_TOLERANCE = 10.0


@dataclass
class Outcome:
    """What an op returned: fixpoint values plus its work counts."""

    values: dict
    work: dict


def _work(result: Any, **extra: Any) -> dict:
    work = result.counters.snapshot()
    if result.simulated_seconds is not None:
        work["simulated_s"] = result.simulated_seconds
    work.update(extra)
    return work


def _graph(dataset: str, scale: float):
    # DatasetSpec.build bypasses load_dataset's cache: set-up pays for
    # dataset generation every time it runs
    return DATASETS[dataset].build(scale)


def _cycled(kinds: list, seed: int, length: int) -> list:
    """``length`` ops: every kind once per cycle, each cycle shuffled."""
    rng = random.Random(seed)
    ops: list = []
    while len(ops) < length:
        cycle = list(kinds)
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops[:length]


def digest(ops: list) -> str:
    """Short hash of an op list, to show two runs did the same work."""
    text = json.dumps(ops, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- answer checks --------------------------------------------------------------


def compare(program: str, values: dict, expected: dict, tolerance: float) -> Optional[str]:
    """``None`` if ``values`` match ``expected``; else the first mismatch.

    Keys absent from one side count as 0 for additive programs; for
    ``cc`` an absent key is a vertex with no edges, which the oracle
    puts in its own singleton component.
    """
    if program == "cc":
        for key in set(values) | set(expected):
            want = expected.get(key, key)
            if values.get(key, key) != want:
                return f"{program}[{key}] = {values.get(key)!r}, expected {want!r}"
        return None
    if tolerance == 0:
        if values != expected:
            diff = sorted(set(values) ^ set(expected)) or sorted(
                k for k in values if values[k] != expected[k]
            )
            return f"{program}: {len(diff)} keys differ, first {diff[0]!r}"
        return None
    for key in set(values) | set(expected):
        got, want = values.get(key, 0.0), expected.get(key, 0.0)
        if abs(got - want) > tolerance:
            return f"{program}[{key}] = {got!r}, expected {want!r} (tol {tolerance:g})"
    return None


def tolerance_for(program: str) -> float:
    clause = PROGRAMS[program].analysis().termination
    if clause is None:
        return 0.0
    return EPSILON_TOLERANCE * float(clause.threshold)


def oracle(program: str, graph) -> dict:
    """The independent reference answer from ``repro.reference.oracles``."""
    if program == "sssp":
        return oracles.dijkstra_sssp(graph)
    if program == "cc":
        return oracles.union_find_components(graph)
    if program == "pagerank":
        return oracles.dense_pagerank(graph)
    if program == "katz":
        return oracles.dense_katz(graph)
    if program == "adsorption":
        return oracles.dense_adsorption(graph)
    raise KeyError(program)


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    #: whether ops change the set-up state (a traced run then sets up
    #: afresh before replaying the same ops)
    stateful = False
    #: leading ops run untimed: one of each op kind
    warmup = 1

    def load(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any, op: Any) -> Outcome:
        raise NotImplementedError

    def check(self, state: Any, op: Any, outcome: Outcome) -> Optional[str]:
        raise NotImplementedError


class Query(Workload):
    """Cold single-node queries: the ``repro run`` path, front end included.

    Each (program, dataset) pair gets its own scale, the dataset's base
    scale times the program's multiplier, so every op lands in one cost
    band: PageRank and CC compile about twice the work of SSSP and Katz
    on the same graph.
    """

    name = "query"
    PROGRAMS = {"sssp": 1.8, "cc": 0.8, "pagerank": 0.7, "katz": 1.6, "adsorption": 1.0}
    DATASETS = {"flickr": 0.5, "livej": 0.25, "orkut": 0.25, "web": 0.28, "arabic": 0.4}
    warmup = len(PROGRAMS) * len(DATASETS)

    def _kinds(self) -> dict:
        return {
            (program, dataset): round(base * multiplier, 3)
            for dataset, base in self.DATASETS.items()
            for program, multiplier in self.PROGRAMS.items()
        }

    def load(self, seed: int) -> list:
        self.expected = {
            (program, dataset): oracle(program, _graph(dataset, scale))
            for (program, dataset), scale in self._kinds().items()
        }
        return _cycled([list(kind) for kind in self._kinds()], seed, OP_LIST_LENGTH)

    def setup(self) -> dict:
        return {kind: _graph(kind[1], scale) for kind, scale in self._kinds().items()}

    def run(self, graphs: dict, op: list) -> Outcome:
        program, dataset = op
        spec = PROGRAMS[program]
        analysis = analyze(parse_program(spec.source, name=program))
        report = check_analysis(analysis)
        if not report.mra_satisfiable:
            raise RuntimeError(f"{program} failed the MRA check: {report.summary()}")
        plan = compile_plan(analysis, spec.build_database(graphs[program, dataset]))
        result = MRAEvaluator(plan, backend="auto").run()
        return Outcome(result.values, _work(result))

    def check(self, graphs: dict, op: list, outcome: Outcome) -> Optional[str]:
        program, dataset = op
        return compare(
            program, outcome.values, self.expected[program, dataset], tolerance_for(program)
        )


class Evaluate(Workload):
    """Warm fixpoint evaluation over plans compiled in set-up.

    Katz converges in a third of PageRank's rounds, so it runs on graphs
    about three times larger to stay in the same cost band; sizes stay
    small enough for the dense linear-solve oracles.
    """

    name = "evaluate"
    #: (program, dataset, scale): dense programs sized into one band
    KINDS = (
        ("pagerank", "orkut", 0.6),
        ("pagerank", "web", 0.75),
        ("katz", "orkut", 2.0),
        ("katz", "web", 2.0),
        ("adsorption", "orkut", 0.75),
        ("adsorption", "web", 1.0),
    )
    warmup = len(KINDS)

    def load(self, seed: int) -> list:
        self.expected = {}
        for program, dataset, scale in self.KINDS:
            self.expected[program, dataset] = oracle(program, _graph(dataset, scale))
        return _cycled([[p, d] for p, d, _ in self.KINDS], seed, OP_LIST_LENGTH)

    def setup(self) -> dict:
        graphs: dict = {}
        plans: dict = {}
        for program, dataset, scale in self.KINDS:
            if (dataset, scale) not in graphs:
                graphs[dataset, scale] = _graph(dataset, scale)
            graph = graphs[dataset, scale]
            spec = PROGRAMS[program]
            plans[program, dataset] = compile_plan(spec.analysis(), spec.build_database(graph))
        return plans

    def run(self, plans: dict, op: list) -> Outcome:
        result = MRAEvaluator(plans[tuple(op)], backend="auto").run()
        return Outcome(result.values, _work(result))

    def check(self, plans: dict, op: list, outcome: Outcome) -> Optional[str]:
        program, dataset = op
        return compare(
            program, outcome.values, self.expected[program, dataset], tolerance_for(program)
        )


class Update(Workload):
    """Fixpoint maintenance under a stream of graph writes.

    Each program's engine maintains its own copy of livej, SSSP at about
    twice CC's scale so the two op kinds cost about the same.  Each delta
    stream is generated by chaining ``GraphDelta.apply_to`` from the
    base graph; batches cycle insert-only, mixed, delete-only with equal
    insert and delete counts, so the graph keeps its size and both the
    frontier and the rederive strategies run.
    """

    name = "update"
    stateful = True
    #: program -> scale of the livej stand-in
    PROGRAMS = {"sssp": 0.35, "cc": 0.18}
    BATCH = 8
    #: deltas per program's stream
    STREAM = 200
    warmup = len(PROGRAMS)

    def load(self, seed: int) -> list:
        shapes = ((self.BATCH, 0), (self.BATCH, self.BATCH), (0, self.BATCH))
        streams = {}
        for n, (program, scale) in enumerate(self.PROGRAMS.items()):
            graph = _graph("livej", scale).with_weights()
            stream = []
            for i in range(self.STREAM):
                inserts, deletes = shapes[i % len(shapes)]
                delta = random_delta(
                    graph,
                    seed=(seed * len(self.PROGRAMS) + n) * 100_003 + i,
                    insert_edges=inserts,
                    delete_edges=deletes,
                )
                graph = delta.apply_to(graph)
                stream.append(delta)
            streams[program] = stream
        return [
            [program, streams[program][i]]
            for i in range(self.STREAM)
            for program in self.PROGRAMS
        ]

    def setup(self) -> dict:
        engines = {}
        for program, scale in self.PROGRAMS.items():
            engine = IncrementalEngine(program, _graph("livej", scale), backend="auto")
            engine.bootstrap()
            engines[program] = engine
        return engines

    def run(self, engines: dict, op: list) -> Outcome:
        program, delta = op
        repair = engines[program].apply(delta)
        return Outcome(repair.values, _work(repair.result, strategy=repair.strategy))

    def check(self, engines: dict, op: list, outcome: Outcome) -> Optional[str]:
        program = op[0]
        engine = engines[program]
        graph = engine.view.graph
        # the view keeps every version; re-base it on the head so the
        # retained history, and with it peak RSS, does not grow with
        # the number of ops a run completes
        engine.view = MutableGraphView(graph)
        spec = PROGRAMS[program]
        expected = MRAEvaluator(spec.plan(graph), backend="auto").run().values
        return compare(program, outcome.values, expected, 0.0)


class Cluster(Workload):
    """Simulated-cluster execution of plans compiled in set-up.

    Runs the default 16-worker ``ClusterConfig`` with the default python
    backend.  ``unified`` is the engine behind ``--engine powerlog``.
    The asynchronous engines do far more work per key than ``sync``, so
    each engine gets its own graph size to keep ops in one cost band:
    ``async`` and ``aap`` run on the smallest stand-in (32 vertices), and
    PageRank, which costs over twice katz there, runs only on ``sync``
    and ``unified``.
    """

    name = "cluster"
    ENGINES = {
        "sync": SyncEngine,
        "async": AsyncEngine,
        "unified": UnifiedEngine,
        "aap": AAPEngine,
    }
    #: (engine, program, dataset scale of livej)
    KINDS = (
        ("sync", "pagerank", 0.1),
        ("sync", "katz", 0.26),
        ("sync", "adsorption", 0.24),
        ("async", "katz", 0.02),
        ("async", "adsorption", 0.02),
        ("unified", "pagerank", 0.02),
        ("unified", "katz", 0.03),
        ("unified", "adsorption", 0.03),
        ("aap", "katz", 0.02),
        ("aap", "adsorption", 0.02),
    )
    warmup = len(KINDS)
    DATASET = "livej"

    def _plans(self) -> dict:
        plans: dict = {}
        graphs: dict = {}
        for _, program, scale in self.KINDS:
            if (program, scale) not in plans:
                if scale not in graphs:
                    graphs[scale] = _graph(self.DATASET, scale)
                graph = graphs[scale]
                spec = PROGRAMS[program]
                plans[program, scale] = compile_plan(spec.analysis(), spec.build_database(graph))
        return plans

    def load(self, seed: int) -> list:
        # the reference: the single-node MRA fixpoint of the same plans
        self.expected = {
            key: MRAEvaluator(plan, backend="python").run().values
            for key, plan in self._plans().items()
        }
        return _cycled([list(kind) for kind in self.KINDS], seed, OP_LIST_LENGTH)

    def setup(self) -> dict:
        return self._plans()

    def run(self, plans: dict, op: list) -> Outcome:
        engine, program, scale = op
        result = self.ENGINES[engine](plans[program, scale], ClusterConfig()).run()
        return Outcome(result.values, _work(result))

    def check(self, plans: dict, op: list, outcome: Outcome) -> Optional[str]:
        _, program, scale = op
        return compare(
            program, outcome.values, self.expected[program, scale], tolerance_for(program)
        )


WORKLOADS = {cls.name: cls for cls in (Query, Evaluate, Update, Cluster)}
