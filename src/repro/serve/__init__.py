"""`repro.serve` — batched, plan-cached stencil-serving runtime.

The offline pipeline compiles a stencil once and runs one grid; this
subsystem amortizes that compilation across a request stream (SPIDER's
preparation cost is O(1) in problem size, §4.2) and fuses same-plan
requests into batched SpTC passes:

* :mod:`plan_cache` — LRU cache of AOT compile plans, keyed on
  ``(spec fingerprint, variant, precision, tile plan)``;
* :mod:`batching` — request futures and the same-plan coalescing queue;
* :mod:`workers` — sharded worker loops with spec-affinity routing, as
  in-process threads (``backend="thread"``) or per-shard worker processes
  with private plan caches (``backend="process"``, bit-identical results);
* :mod:`shm` — the process backend's zero-copy shared-memory grid/result
  transport (``transport="shm"``, default): per-shard slab pairs with a
  parent-side free-list allocator and generation-tagged descriptors;
* :mod:`service` — the :class:`StencilService` façade
  (``submit / submit_many / submit_solve / stats / drain``) with a
  synchronous fallback;
* :mod:`sessions` — solver-session futures: ``submit_solve`` decomposes a
  multigrid V-cycle or smoother chain into per-iteration operator submits
  riding the paths above, with convergence-aware early exit;
* :mod:`telemetry` — latency / occupancy / cache-hit histograms feeding
  :mod:`repro.analysis`-style reports and Prometheus text exposition;
* :mod:`metrics` — bounded streaming histograms plus the counter/gauge
  registry the serving components publish into;
* :mod:`tracing` — end-to-end span tracing (submit → coalesce → pack →
  ipc → mac → unpack → resolve, across process boundaries) with Chrome
  ``trace_event`` export and per-stage time attribution;
* :mod:`faults` — the deterministic fault-injection harness
  (:class:`FaultPlan` / :class:`FaultInjector`) driving the self-healing
  layer's chaos tests: seeded worker kills, slab corruption, queue
  stalls, pack failures — all counted parent-side so schedules are
  replayable and survive worker respawns;
* :mod:`tuning` — the ``repro tune`` engine: calibrate the
  :mod:`repro.core.costmodel` roofline from measured serve batches, rank
  the knob grid, cross-check top candidates against micro-benches, and
  emit the tuned-profile JSON a :class:`StencilService` loads at startup.
"""

from .batching import BatchQueue, DeadlineExceeded, ServeRequest
from .faults import FaultInjector, FaultPlan, FaultSpec, InjectedFault
from .metrics import (
    Counter,
    MetricsRegistry,
    StreamingHistogram,
    validate_prometheus_text,
)
from .plan_cache import (
    CacheStats,
    PlanCache,
    PlanKey,
    plan_key_for,
    spec_fingerprint,
)
from .service import ServiceClosedError, StencilService
from .sessions import SolveHandle
from .shm import BlockRef, SlabAllocator, SlabAttachments, SlabError
from .telemetry import (
    Histogram,
    ServiceStats,
    ServiceTelemetry,
    format_service_report,
)
from .tuning import (
    default_knob_config,
    format_tune_report,
    measure_batch_ms,
    probe_calibration_samples,
    tune_profile,
)
from .tracing import (
    Span,
    SpanRecorder,
    format_stage_table,
    stage_totals,
    to_chrome_trace,
    validate_chrome_trace,
)
from .workers import (
    RetryPolicy,
    WorkerCrashed,
    WorkerPool,
    is_transient_failure,
)

__all__ = [
    "BatchQueue",
    "DeadlineExceeded",
    "ServeRequest",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "ServiceClosedError",
    "WorkerCrashed",
    "is_transient_failure",
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "plan_key_for",
    "spec_fingerprint",
    "StencilService",
    "SolveHandle",
    "BlockRef",
    "SlabAllocator",
    "SlabAttachments",
    "SlabError",
    "Histogram",
    "ServiceStats",
    "ServiceTelemetry",
    "format_service_report",
    "Counter",
    "MetricsRegistry",
    "StreamingHistogram",
    "validate_prometheus_text",
    "Span",
    "SpanRecorder",
    "format_stage_table",
    "stage_totals",
    "to_chrome_trace",
    "validate_chrome_trace",
    "WorkerPool",
    "default_knob_config",
    "format_tune_report",
    "measure_batch_ms",
    "probe_calibration_samples",
    "tune_profile",
]
