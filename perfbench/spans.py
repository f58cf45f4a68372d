"""In-memory spans around trajtransfer's public functions, wrapped from outside.

A :class:`Tracer` replaces a function at the module attribute its caller looks
up (``run_rollout`` finds ``estimate_delta`` as ``trajtransfer.simbench.
estimate_delta`` but ``coarse_align`` as ``trajtransfer.registration.
coarse_align``) with a wrapper that records a span: name, start, end, self
time, parent span and rollout id.  Nothing under ``src/`` changes; the
originals are put back when :meth:`Tracer.installed` exits.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

ROLLOUT_SPAN = "simbench.rollout"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    rollout: int | None  # id of the enclosing simbench.rollout span
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass(frozen=True)
class Target:
    """One wrapped function: the span name and where its caller looks it up."""

    span: str
    module: str
    attr: str  # "name" or "Class.method"
    before: object = None  # hook(tracer, span, args, kwargs)
    after: object = None  # hook(tracer, span, args, kwargs, result) -> result


class Tracer:
    """Collects spans for the targets installed with :meth:`installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._seq = 0
        self._rollout = None
        self.gicp_demo_cloud = None  # demo cloud of the generalized_icp call in progress

    def _open(self, name: str) -> Span:
        self._seq += 1
        parent = self._stack[-1].id if self._stack else None
        span_id = self._seq
        if name == ROLLOUT_SPAN:
            self._rollout = span_id
        span = Span(span_id, name, perf_counter(), parent, self._rollout)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.name == ROLLOUT_SPAN:
            self._rollout = None
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(target.span)
            if target.before is not None:
                target.before(tracer, span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.after is not None:
                result = target.after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for target in targets:
                owner, name = _resolve(target.module, target.attr)
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(target, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name
