"""Layer spans recorded from outside the program.

The benchmark wraps calls into each layer's public functions and
records one span per call: name, start, end, parent span and op id.
Wrappers are installed only for a traced run and removed afterwards,
so an untraced run executes none of this code.

Each wrapper is patched where the caller looks the name up, not where
it is defined: ``repro.programs.registry.compile_plan`` (what
``ProgramSpec.plan`` calls), ``repro.delta.engine.diff_plans`` (what
``repair_plan`` calls), kernel methods on every class of the
``KERNELS`` registry, and so on.  A call re-entering a span of the
same name (``SparseKernel.step`` falling back to ``Kernel.step``) is
folded into the outer span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    label: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        note: Optional[Callable[..., dict]] = None,
    ) -> Any:
        if self._stack and self.spans[self._stack[-1]].name == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, self.clock())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if note is not None:
            span.attrs = note(args, result)
            span.label = span.attrs.pop("label", "")
        return result

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover.

        Spans nest properly within one thread, so direct children never
        overlap and their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - covered for span, covered in zip(self.spans, child)]


@dataclass(frozen=True)
class Patch:
    """One wrapper: ``owner.attr`` becomes a span named ``name``.

    ``owner`` is a module, a class (the attribute is replaced in the
    class's own ``__dict__``, classmethods included) or an instance.
    ``note(args, result)`` returns span attributes; the key ``label``
    becomes the span's label.
    """

    owner: Any
    attr: str
    name: str
    note: Optional[Callable[..., dict]] = None

    def original(self) -> Any:
        if isinstance(self.owner, type):
            return self.owner.__dict__[self.attr]
        return getattr(self.owner, self.attr)


def _wrap(recorder: SpanRecorder, patch: Patch, original: Any) -> Any:
    name, note = patch.name, patch.note
    if isinstance(original, classmethod):
        func = original.__func__

        def wrapped_cls(cls, *args, **kwargs):
            return recorder.call(name, func, (cls, *args), kwargs, note)

        return classmethod(wrapped_cls)

    def wrapped(*args, **kwargs):
        return recorder.call(name, original, args, kwargs, note)

    return wrapped


@contextlib.contextmanager
def installed(recorder: SpanRecorder, patches: list) -> Iterator[None]:
    """Install every patch for the duration of the block, then restore."""
    undo: list = []
    try:
        for patch in patches:
            original = patch.original()
            _set(patch.owner, patch.attr, _wrap(recorder, patch, original))
            undo.append((patch.owner, patch.attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            _set(owner, attr, original)


def _set(owner: Any, attr: str, value: Any) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        # ProgramSpec is a frozen dataclass; its builder field is what
        # ProgramSpec.plan looks up, so the wrapper goes on the instance
        object.__setattr__(owner, attr, value)
