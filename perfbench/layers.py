"""Span recording around the program's layer boundaries.

Every span is recorded from the benchmark's own code, around a call into
one of the program's public entry points: subclasses of the injected
``LayoutScheduler``, ``AutoTuner`` and ``Kernel``, the module attribute
through which ``repro.core.scheduler`` calls ``repro.features``, and an
instance wrapper on ``ServingFleet.predict_batch``.  Nothing under
``src/`` is edited.

A span has a name, a start, an end, a parent and the id of the operation
(one fit, one serving session) it belongs to.  Spans stay in memory until
the run ends.  A span's self time is its duration minus its children's
durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import repro.core.scheduler as scheduler_module
from repro.core import LayoutScheduler
from repro.core.autotune import AutoTuner
from repro.perf import OpCounter
from repro.svm.kernels import GaussianKernel

#: Which layer each span's self time belongs to.  ``core.apply`` is the
#: scheduler's decide-then-convert call: with its ``core.decide`` child
#: removed, what is left is the conversion, which is ``formats`` work.
SPAN_LAYER = {
    "bench.loop": "loop",
    "svm.fit": "svm",
    "core.apply": "formats",
    "core.decide": "core",
    "core.probe": "core",
    "features.profile": "features",
    "formats.kernel": "formats",
    "serve.session": "door",
    "serve.rpc": "serve",
}


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **{f"attr.{k}": v for k, v in self.attrs.items()},
        }


class SpanRecorder:
    """In-memory spans on the monotonic clock, for one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(span_id, parent, self.op, name, start, end, attrs)
            )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per layer (see :data:`SPAN_LAYER`)."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        layer = SPAN_LAYER[s.name]
        out[layer] = out.get(layer, 0.0) + own[s.span_id]
    return out


# -- training-path wrappers ----------------------------------------------


class TimedTuner(AutoTuner):
    """The default probe, with a ``core.probe`` span per call."""

    def __init__(self, spans: SpanRecorder) -> None:
        super().__init__()
        self._spans = spans

    def probe(self, rows, cols, values, shape, candidates=None):
        with self._spans.span("core.probe") as attrs:
            results = super().probe(rows, cols, values, shape, candidates)
            attrs["candidates"] = len(results)
            return results


class TimedScheduler(LayoutScheduler):
    """The default hybrid scheduler, with ``core.apply`` and
    ``core.decide`` spans."""

    def __init__(self, spans: SpanRecorder) -> None:
        super().__init__("hybrid", tuner=TimedTuner(spans))
        self._spans = spans

    def decide(self, matrix):
        with self._spans.span("core.decide") as attrs:
            decision = super().decide(matrix)
            attrs["fmt"] = decision.fmt
            return decision

    def apply(self, matrix, *, iterations_hint=None):
        with self._spans.span("core.apply", src=matrix.name):
            return super().apply(matrix, iterations_hint=iterations_hint)


class TimedKernel(GaussianKernel):
    """The Gaussian kernel, with a ``formats.kernel`` span per call and
    an :class:`OpCounter` per storage format.

    The span covers the format's SMSV/SpMM plus the kernel's
    elementwise transform of the result.  ``counters`` is shared by
    every kernel of a run, so byte counts add up across fits.
    """

    def __init__(
        self,
        gamma: float,
        spans: SpanRecorder,
        counters: Dict[str, OpCounter],
    ) -> None:
        super().__init__(gamma)
        self._spans = spans
        self.counters = counters

    def _counter(self, fmt: str) -> OpCounter:
        return self.counters.setdefault(fmt, OpCounter())

    def row(self, X, v, v_norm_sq, row_norms_sq, counter=None):
        with self._spans.span("formats.kernel", fmt=X.name, rows=1):
            return super().row(
                X, v, v_norm_sq, row_norms_sq, self._counter(X.name)
            )

    def rows(self, X, vectors, v_norms_sq, row_norms_sq, counter=None):
        vectors = list(vectors)
        with self._spans.span(
            "formats.kernel", fmt=X.name, rows=len(vectors)
        ):
            return super().rows(
                X, vectors, v_norms_sq, row_norms_sq, self._counter(X.name)
            )


@contextmanager
def timed_profiling(spans: SpanRecorder) -> Iterator[None]:
    """Wrap the ``profile_from_coo`` that ``repro.core.scheduler`` calls
    (the nine-parameter profile) in a ``features.profile`` span."""
    inner = scheduler_module.profile_from_coo

    def profile_from_coo(*args, **kwargs):
        with spans.span("features.profile"):
            return inner(*args, **kwargs)

    scheduler_module.profile_from_coo = profile_from_coo
    try:
        yield
    finally:
        scheduler_module.profile_from_coo = inner


# -- serving-path wrapper ------------------------------------------------


@contextmanager
def timed_rpcs(fleet, spans: SpanRecorder) -> Iterator[None]:
    """Shadow ``fleet.predict_batch`` with an instance attribute that
    records one ``serve.rpc`` span per dispatched batch."""
    inner = fleet.predict_batch

    def predict_batch(key, shard, req_ids, *rest):
        with spans.span("serve.rpc", model=key, shard=shard, k=len(req_ids)):
            return inner(key, shard, req_ids, *rest)

    fleet.predict_batch = predict_batch
    try:
        yield
    finally:
        del fleet.predict_batch
