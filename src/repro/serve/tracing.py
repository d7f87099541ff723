"""Span tracing for the serving stack: record, propagate, export.

A :class:`SpanRecorder` collects :class:`Span` records on a lock-free
fast path — each thread appends to its own ring buffer, so the only lock
a recording thread ever takes is its private buffer's (contended only
during a concurrent :meth:`~SpanRecorder.snapshot`).  Tracing is off by
default; when disabled every entry point is a single attribute check.

Cross-process propagation rides the existing task tuples: the parent
ships a ``trace_on`` flag with each batch, the worker records spans
relative to its own batch start, and the dispatcher re-anchors them on
the parent monotonic clock using the same offset-free duration scheme
the queue-wait accounting uses — worker clocks never need to agree with
the parent's, only durations cross the boundary.

Deeply nested layers (the plan cache's compile path, the executor's MAC
sweep) emit spans without signature changes through a thread-local batch
context: :func:`batch_context` pins (tracer, trace_id, parent span) for
the current thread, and :func:`stage_span` inside any callee attaches to
it — or no-ops at the cost of one TLS read when tracing is off.

Exports: Chrome ``trace_event`` JSON (:func:`write_chrome_trace`,
loadable in Perfetto / ``chrome://tracing``) and per-stage time
attribution (:func:`stage_totals`) — the measured per-stage constants
the ROADMAP cost-model item fits against.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core import executor as _executor_mod

__all__ = [
    "Span",
    "SpanRecorder",
    "batch_context",
    "stage_span",
    "current_batch_context",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "stage_totals",
    "execution_coverage",
]

#: Stage names that execute *inside* the worker's measured service
#: duration — their sum is the numerator of :func:`execution_coverage`.
EXECUTION_STAGES = (
    "decode",
    "plan_compile",
    "mac",
    "temporal_chain",
)


@dataclass(frozen=True)
class Span:
    """One completed span: pure data, safe to ship between processes."""

    name: str
    track: str
    start_s: float
    dur_s: float
    trace_id: int
    span_id: int
    parent_id: Optional[int] = None
    args: Mapping[str, Any] = field(default_factory=dict)
    cat: str = "serve"


class _ThreadBuffer:
    """Per-thread span ring: drop-oldest beyond ``capacity``."""

    __slots__ = ("lock", "spans", "capacity", "dropped")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.spans: List[Span] = []
        self.capacity = capacity
        self.dropped = 0

    def append(self, span: Span) -> None:
        with self.lock:
            self.spans.append(span)
            if len(self.spans) > self.capacity:
                overflow = len(self.spans) - self.capacity
                del self.spans[:overflow]
                self.dropped += overflow


class SpanRecorder:
    """Ring-buffered span sink with a thread-local fast path.

    Recording takes only the calling thread's buffer lock, which is
    uncontended unless a snapshot is concurrently draining that same
    buffer — there is no global lock on the hot path.  ``snapshot()``
    copies without clearing (safe under load); ``drain()`` moves spans
    out (the worker-side per-batch harvest).
    """

    def __init__(
        self,
        enabled: bool = False,
        capacity_per_thread: int = 8192,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self._capacity = capacity_per_thread
        self._tls = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- id allocation -------------------------------------------------

    def new_ids(self) -> Tuple[int, int]:
        """A fresh (trace_id, root span_id) pair for a new request."""
        return next(self._ids), next(self._ids)

    # -- recording -----------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(self._capacity)
            self._tls.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def record_span(
        self,
        name: str,
        track: str,
        start_s: float,
        dur_s: float,
        trace_id: int,
        parent_id: Optional[int] = None,
        span_id: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> Optional[int]:
        """Append a completed span; returns its span id (None if disabled)."""
        if not self.enabled:
            return None
        sid = span_id if span_id is not None else next(self._ids)
        self._buffer().append(
            Span(
                name=name,
                track=track,
                start_s=start_s,
                dur_s=max(0.0, dur_s),
                trace_id=trace_id,
                span_id=sid,
                parent_id=parent_id,
                args=dict(args) if args else {},
            )
        )
        return sid

    @contextmanager
    def span(
        self,
        name: str,
        track: str,
        trace_id: int,
        parent_id: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[Optional[int]]:
        """Time a block and record it as one span on exit."""
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        start = self.clock()
        try:
            yield sid
        finally:
            self.record_span(
                name,
                track,
                start,
                self.clock() - start,
                trace_id,
                parent_id=parent_id,
                span_id=sid,
                args=args,
            )

    # -- harvest -------------------------------------------------------

    def snapshot(self) -> Tuple[Span, ...]:
        """All recorded spans, start-ordered; does not clear (safe to
        call while other threads keep recording)."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        spans: List[Span] = []
        for buf in buffers:
            with buf.lock:
                spans.extend(buf.spans)
        spans.sort(key=lambda s: (s.start_s, s.span_id))
        return tuple(spans)

    def drain(self) -> List[Span]:
        """Move all spans out (worker-side per-batch harvest)."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        spans: List[Span] = []
        for buf in buffers:
            with buf.lock:
                spans.extend(buf.spans)
                buf.spans = []
        spans.sort(key=lambda s: (s.start_s, s.span_id))
        return spans

    def clear(self) -> None:
        self.drain()

    @property
    def dropped(self) -> int:
        with self._buffers_lock:
            buffers = list(self._buffers)
        return sum(b.dropped for b in buffers)


# ----------------------------------------------------------------------
# Thread-local batch context: spans from nested layers, no plumbing
# ----------------------------------------------------------------------

_BATCH_TLS = threading.local()


@dataclass(frozen=True)
class _BatchCtx:
    tracer: SpanRecorder
    trace_id: int
    parent_id: Optional[int]
    track: str


def current_batch_context() -> Optional[_BatchCtx]:
    return getattr(_BATCH_TLS, "ctx", None)


@contextmanager
def batch_context(
    tracer: SpanRecorder,
    trace_id: int,
    parent_id: Optional[int],
    track: str,
) -> Iterator[None]:
    """Pin (tracer, trace, parent, track) for this thread so spans from
    nested layers (plan cache, executor) attach without signature
    changes.  Contexts nest; the previous one is restored on exit."""
    prev = getattr(_BATCH_TLS, "ctx", None)
    _BATCH_TLS.ctx = _BatchCtx(tracer, trace_id, parent_id, track)
    try:
        yield
    finally:
        _BATCH_TLS.ctx = prev


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path —
    avoids allocating a generator per instrumented block when off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _StageSpan:
    """Times a block and records it against a pinned batch context."""

    __slots__ = ("_ctx", "_name", "_args", "_start")

    def __init__(
        self, ctx: _BatchCtx, name: str, args: Optional[Mapping[str, Any]]
    ) -> None:
        self._ctx = ctx
        self._name = name
        self._args = args

    def __enter__(self) -> None:
        self._start = self._ctx.tracer.clock()
        return None

    def __exit__(self, *exc: Any) -> None:
        ctx = self._ctx
        ctx.tracer.record_span(
            self._name,
            ctx.track,
            self._start,
            ctx.tracer.clock() - self._start,
            ctx.trace_id,
            parent_id=ctx.parent_id,
            args=self._args,
        )
        return None


def stage_span(name: str, args: Optional[Mapping[str, Any]] = None):
    """Record a stage span against the current thread's batch context;
    a cheap no-op (one TLS read, shared no-op manager) when there is no
    context or tracing is disabled."""
    ctx = getattr(_BATCH_TLS, "ctx", None)
    if ctx is None or not ctx.tracer.enabled:
        return _NOOP_SPAN
    return _StageSpan(ctx, name, args)


def _executor_stage_hook() -> Optional[Callable[[str, float, float], None]]:
    """Stage hook installed into :mod:`repro.core.executor`.

    Called once per sweep: returns an ``emit(stage, start_s, dur_s)``
    closure bound to the current batch context, or ``None`` so the
    executor skips all clock reads when this thread isn't traced.
    """
    ctx = getattr(_BATCH_TLS, "ctx", None)
    if ctx is None or not ctx.tracer.enabled:
        return None
    tracer, trace_id, parent_id, track = (
        ctx.tracer,
        ctx.trace_id,
        ctx.parent_id,
        ctx.track,
    )

    def emit(stage: str, start_s: float, dur_s: float) -> None:
        tracer.record_span(
            stage, track, start_s, dur_s, trace_id, parent_id=parent_id
        )

    return emit


_executor_mod.set_stage_hook(_executor_stage_hook)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------


def to_chrome_trace(
    spans: Sequence[Span], process_name: str = "repro-serve"
) -> Dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document (Perfetto-loadable).

    Each span becomes one complete ("X") event with microsecond ts/dur;
    tracks map to tids (sorted by name for stable layouts), announced via
    "M" ``thread_name`` metadata events.
    """
    pid = os.getpid()
    tracks = sorted({s.track for s in spans})
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    base = min((s.start_s for s in spans), default=0.0)
    for s in spans:
        args: Dict[str, Any] = {
            "trace_id": s.trace_id,
            "span_id": s.span_id,
        }
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args.update(s.args)
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start_s - base) * 1e6,
                "dur": s.dur_s * 1e6,
                "pid": pid,
                "tid": tids[s.track],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, spans: Sequence[Span], process_name: str = "repro-serve"
) -> Dict[str, Any]:
    doc = to_chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc: Any) -> int:
    """Validate a ``trace_event`` document; returns the duration-event
    count.  The schema checker the CI trace-smoke job runs — raises
    :class:`ValueError` on the first malformed event."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be an object with traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    n_duration = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i}: not an object")
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str):
            raise ValueError(f"event {i}: missing name")
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            raise ValueError(f"event {i}: pid/tid must be integers")
        if ph == "M":
            continue
        if ph != "X":
            raise ValueError(f"event {i}: unsupported phase {ph!r}")
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i}: ts must be a non-negative number")
        if not isinstance(dur, (int, float)) or dur < 0:
            raise ValueError(f"event {i}: dur must be a non-negative number")
        n_duration += 1
    return n_duration


# ----------------------------------------------------------------------
# Per-stage time attribution
# ----------------------------------------------------------------------


def stage_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: ``{name: {count, total_s, mean_s}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"count": 0.0, "total_s": 0.0})
        agg["count"] += 1.0
        agg["total_s"] += s.dur_s
    for agg in out.values():
        agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0
    return out


def execution_coverage(
    spans: Sequence[Span], service_total_s: float
) -> float:
    """Fraction of measured batch service time the execution-stage spans
    account for — the acceptance gate asserts this is near 1.0."""
    if service_total_s <= 0.0:
        return 0.0
    covered = sum(s.dur_s for s in spans if s.name in EXECUTION_STAGES)
    return covered / service_total_s
