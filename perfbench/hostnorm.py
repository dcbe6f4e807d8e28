"""Host-speed normalisation for wall-clock timings.

Wall time on a shared host drifts in phases: the same call can take
twice as long for ten or twenty seconds and then recover.  A fixed,
stdlib-only CPU probe (integer arithmetic, small dict/tuple allocation
and scattered reads from a 4 MB table of floats; about 20 ms) runs
before the first timed call and after every timed call, while no call
is in flight.  Each call's time is then
rescaled by how fast the host ran the probe around it::

    normalised = raw_wall * PROBE_REF_S / mean(probe_before, probe_after)

``PROBE_REF_S`` is a constant committed with the benchmark and never
retuned, so normalised values stay in seconds, close to raw wall time
on the host it was measured on.  Raw wall times are kept beside the
normalised ones so a change that does work between calls (a thread
left running, say) cannot hide behind the probe.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: probe iterations per half; fixed forever, like ``PROBE_REF_S``
PROBE_ITERATIONS = 20_000

#: seconds the probe takes on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11); the unit that normalised times are expressed in
PROBE_REF_S = 0.02

#: 2**17 distinct float objects (about 4 MB), read in a scattered order
_FLOATS = [float(i % 1000) for i in range(1 << 17)]


def probe_work() -> float:
    """The probe's fixed work: integer arithmetic and small dict/tuple
    allocation, with scattered float reads in the second half.

    Host contention slows interpreter-bound code (the compiler, the
    simulated engines) and cache-bound code (the numpy kernels) by
    different amounts; a probe with both halves tracks both better than
    either half alone.
    """
    iterations = PROBE_ITERATIONS
    acc = 0
    table: dict = {}
    total = 0.0
    floats = _FLOATS
    mask = len(floats) - 1
    for i in range(2 * iterations):
        key = (i & 255, i % 7)
        acc = (acc * 31 + i * i) % 1_000_003
        table[key] = table.get(key, 0) + acc
        if i >= iterations:
            total += floats[(i * 40_503) & mask] * 1.5
    return total + acc + len(table)


def normalise(raw_s: float, probe_before: float, probe_after: float) -> float:
    """Rescale ``raw_s`` by the mean of the probes on either side of it."""
    return raw_s * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


@dataclass
class Timed:
    """One timed call: its value (or error) and both of its times."""

    value: Any
    error: Optional[BaseException]
    raw_s: float
    norm_s: float


class NormalisedTimer:
    """Times calls between host-speed probes.

    ``clock`` and ``work`` are injectable so tests can drive the timer
    with a synthetic clock; the benchmark uses the defaults.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable[[], Any] = probe_work,
    ):
        self.clock = clock
        self.work = work
        #: every probe duration, in order
        self.probes: list = []

    def probe(self) -> float:
        # with the collector off the probe's cost does not depend on how
        # many objects the program under test keeps on the heap
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.work()
            elapsed = self.clock() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        self.probes.append(elapsed)
        return elapsed

    def time(self, fn: Callable[..., Any], *args: Any) -> Timed:
        """Run ``fn(*args)`` between two probes; exceptions are captured."""
        before = self.probes[-1] if self.probes else self.probe()
        value = None
        error: Optional[BaseException] = None
        start = self.clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        raw = self.clock() - start
        after = self.probe()
        return Timed(value, error, raw, normalise(raw, before, after))
