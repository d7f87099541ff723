"""Serving telemetry: latency / occupancy / cache-effectiveness histograms.

Every batch a worker (or the synchronous fallback path) executes is
recorded here; :meth:`ServiceTelemetry.snapshot` plus the per-worker
:class:`~repro.serve.plan_cache.CacheStats` roll up into a
:class:`ServiceStats`, which :func:`format_service_report` renders in the
same fixed-width report style as the :mod:`repro.analysis` table
generators (and is re-exported there for reporting pipelines), and
:meth:`ServiceStats.to_prometheus` renders in the Prometheus text
exposition format for scraping.

Latency/occupancy distributions are kept in bounded
:class:`~repro.serve.metrics.StreamingHistogram` sketches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .metrics import MetricSample, StreamingHistogram, render_prometheus
from .plan_cache import CacheStats

__all__ = [
    "Histogram",
    "ServiceStats",
    "ServiceTelemetry",
    "TelemetrySnapshot",
    "format_service_report",
]

#: Stages an error can be attributed to, in pipeline order.  "deadline"
#: collects requests expired by the deadline machinery (when a worker takes
#: their batch) rather than failed by a stage proper.
ERROR_STAGES = ("submit", "pack", "ipc", "execute", "resolve", "deadline")


class Histogram:
    """Exact-sample histogram with percentile queries.

    Keeps every raw sample, so memory grows without bound.  It is the
    exact reference the bounded
    :class:`~repro.serve.metrics.StreamingHistogram` (same ``summary()``
    contract) is tested against.
    """

    def __init__(self) -> None:
        self._values: List[float] = []

    def record(self, value: float) -> None:
        self._values.append(float(value))

    def extend(self, values: Sequence[float]) -> None:
        self._values.extend(float(v) for v in values)

    def merge(self, other: "Histogram") -> None:
        self._values.extend(other._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else 0.0

    @property
    def max(self) -> float:
        return float(np.max(self._values)) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, p))

    def summary(self, scale: float = 1.0) -> Dict[str, float]:
        """``{count, mean, p50, p90, p99, max}`` with values * ``scale``."""
        if not self._values:
            return {k: 0.0 for k in ("count", "mean", "p50", "p90", "p99", "max")}
        p50, p90, p99 = np.percentile(self._values, [50, 90, 99])
        return {
            "count": float(self.count),
            "mean": self.mean * scale,
            "p50": float(p50) * scale,
            "p90": float(p90) * scale,
            "p99": float(p99) * scale,
            "max": self.max * scale,
        }


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable copy of the counters at one instant (all times in ms).

    ``sweeps`` counts stencil sweeps *advanced* rather than requests
    served: a temporal super-sweep request (``submit(..., steps=t)``)
    contributes ``t``, so sweeps/s is the throughput measure that stays
    comparable between the per-sweep round-trip path and in-worker
    chained multi-sweep serving.
    """

    requests: int
    batches: int
    errors: int
    occupancy: Dict[str, float]
    latency_ms: Dict[str, float]
    queue_wait_ms: Dict[str, float]
    service_ms: Dict[str, float]
    sweeps: int = 0
    #: bulk grid/result payload bytes that crossed an IPC pipe (pickled
    #: mp-queue payloads).  Thread/sync backends never pipe, and the shm
    #: transport ships descriptors only, so this is ~0 everywhere except
    #: the process backend's queue transport — which is exactly what makes
    #: the shm win visible in traffic stats, not just benchmarks.
    ipc_payload_bytes: int = 0
    #: errors broken down by the pipeline stage they occurred in
    #: (submit/pack/ipc/execute/resolve); values sum to ``errors``
    errors_by_stage: Dict[str, int] = field(default_factory=dict)
    #: completed solver sessions (``submit_solve``) and how many of them
    #: hit their tolerance before ``max_iters`` ran out
    solves: int = 0
    solves_converged: int = 0
    #: sessions that died on an exception: a failing operator
    #: application, a missed deadline or a closed service
    solve_failures: int = 0
    #: total solver iterations across all completed sessions (exact)
    solve_iterations_total: int = 0
    #: iterations-per-solve distribution (``{count, mean, p50, ...}``)
    solve_iterations: Dict[str, float] = field(default_factory=dict)
    #: per-iteration relative residual-norm distribution across sessions
    solve_residual: Dict[str, float] = field(default_factory=dict)
    # -- recovery counters (the self-healing layer) ---------------------
    #: requests re-enqueued after a transient failure (worker crash, slab
    #: error, injected fault) — each re-execution is byte-identical
    retries: int = 0
    #: dead worker processes respawned by the supervisor
    worker_restarts: int = 0
    #: shard transport directions downgraded shm -> queue after repeated
    #: slab errors (task and result directions count independently)
    slab_degrades: int = 0
    #: batches executed in-parent as the terminal fallback (no live shard)
    inline_batches: int = 0
    #: batches on which the fault-injection harness fired
    faults_injected: int = 0

    @property
    def deadline_expired(self) -> int:
        """Requests expired by the deadline machinery (== the "deadline"
        stage's error count)."""
        return self.errors_by_stage.get("deadline", 0)

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy["mean"]

    @property
    def ipc_bytes_per_request(self) -> float:
        """Mean piped payload bytes per served request."""
        return self.ipc_payload_bytes / self.requests if self.requests else 0.0


class ServiceTelemetry:
    """Thread-safe accumulator the workers and sync path record into.

    Distributions are bounded streaming histograms.  Per-batch accounting
    is computed outside the lock and merged in one acquire, so the
    dispatcher's hot loop holds the lock O(1) per batch rather than
    O(batch size).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._sweeps = 0
        self._batches = 0
        self._errors = 0
        self._errors_by_stage: Dict[str, int] = {}
        self._ipc_payload_bytes = 0
        self._latency_s = StreamingHistogram()
        self._queue_wait_s = StreamingHistogram()
        self._occupancy = StreamingHistogram()
        self._service_s = StreamingHistogram()
        self._solves = 0
        self._solves_converged = 0
        self._solve_failures = 0
        self._solve_iterations_total = 0
        self._solve_iters = StreamingHistogram()
        self._solve_residual = StreamingHistogram()
        self._retries = 0
        self._worker_restarts = 0
        self._slab_degrades = 0
        self._inline_batches = 0
        self._faults_injected = 0

    def record_batch(
        self, requests: Sequence, started_s: float, finished_s: float
    ) -> None:
        """Account one executed batch of resolved :class:`ServeRequest`s."""
        # accumulate per-batch values lock-free, merge under the lock once
        n = len(requests)
        sweeps = 0
        latencies = []
        waits = []
        for r in requests:
            sweeps += int(getattr(r, "steps", 1))
            latencies.append(finished_s - r.submitted_s)
            waits.append(started_s - r.submitted_s)
        service = finished_s - started_s
        with self._lock:
            self._batches += 1
            self._requests += n
            self._sweeps += sweeps
            self._occupancy.record(n)
            self._service_s.record(service)
            self._latency_s.extend(latencies)
            self._queue_wait_s.extend(waits)

    def record_error(self, requests: Sequence, stage: str = "execute") -> None:
        """Account failed requests, attributed to the pipeline ``stage``
        the failure occurred in (one of :data:`ERROR_STAGES`)."""
        n = len(requests)
        with self._lock:
            self._errors += n
            self._errors_by_stage[stage] = (
                self._errors_by_stage.get(stage, 0) + n
            )

    def record_solve(
        self, iterations: int, residual: float, converged: bool
    ) -> None:
        """Account one completed solver session (``submit_solve``)."""
        with self._lock:
            self._solves += 1
            if converged:
                self._solves_converged += 1
            self._solve_iterations_total += int(iterations)
            self._solve_iters.record(float(iterations))

    def record_solve_iteration(self, residual: float) -> None:
        """Account one solver iteration's parent-side residual norm."""
        with self._lock:
            self._solve_residual.record(float(residual))

    def record_solve_failure(self) -> None:
        """Account a solver session that died on an exception."""
        with self._lock:
            self._solve_failures += 1

    # -- recovery accounting (see TelemetrySnapshot field docs) ---------
    def record_retries(self, n: int = 1) -> None:
        with self._lock:
            self._retries += int(n)

    def record_worker_restart(self) -> None:
        with self._lock:
            self._worker_restarts += 1

    def record_slab_degrade(self) -> None:
        with self._lock:
            self._slab_degrades += 1

    def record_inline_batch(self) -> None:
        with self._lock:
            self._inline_batches += 1

    def record_fault_injected(self) -> None:
        with self._lock:
            self._faults_injected += 1

    def record_ipc(self, payload_bytes: int) -> None:
        """Account bulk payload bytes that crossed an IPC pipe (both
        directions; the process backend's feeder and dispatcher call this
        for pickled-array payloads — shm descriptors don't count)."""
        with self._lock:
            self._ipc_payload_bytes += int(payload_bytes)

    def snapshot(self) -> TelemetrySnapshot:
        with self._lock:
            return TelemetrySnapshot(
                requests=self._requests,
                batches=self._batches,
                errors=self._errors,
                sweeps=self._sweeps,
                ipc_payload_bytes=self._ipc_payload_bytes,
                errors_by_stage=dict(self._errors_by_stage),
                occupancy=self._occupancy.summary(),
                latency_ms=self._latency_s.summary(scale=1e3),
                queue_wait_ms=self._queue_wait_s.summary(scale=1e3),
                service_ms=self._service_s.summary(scale=1e3),
                solves=self._solves,
                solves_converged=self._solves_converged,
                solve_failures=self._solve_failures,
                solve_iterations_total=self._solve_iterations_total,
                solve_iterations=self._solve_iters.summary(),
                solve_residual=self._solve_residual.summary(),
                retries=self._retries,
                worker_restarts=self._worker_restarts,
                slab_degrades=self._slab_degrades,
                inline_batches=self._inline_batches,
                faults_injected=self._faults_injected,
            )


@dataclass(frozen=True)
class ServiceStats:
    """Everything :meth:`StencilService.stats` reports.

    ``backend`` names the worker substrate the counters were aggregated
    over (``"thread"``, ``"process"``, or ``"sync"`` for the workerless
    fallback).  With the process backend every number here still covers
    all shards: workers piggyback cache snapshots on result messages and
    the parent-side dispatcher records batches into the shared
    :class:`ServiceTelemetry`, so aggregation is backend-transparent.
    """

    workers: int
    submitted: int
    inflight: int
    telemetry: TelemetrySnapshot
    cache: CacheStats
    per_worker_cache: Tuple[CacheStats, ...] = field(default_factory=tuple)
    backend: str = "thread"
    #: bulk-byte transport of the process backend ("shm"/"queue");
    #: "local" for backends that share an address space (thread, sync)
    transport: str = "local"
    #: per-stage time attribution from the span recorder
    #: (``{stage: {count, total_s, mean_s}}``); empty unless tracing ran
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: counter/gauge registry snapshot (shm backpressure, plan compiles,
    #: loop timings) — exposition-ready samples
    metrics: Tuple[MetricSample, ...] = field(default_factory=tuple)
    #: effective ordered-MAC threads per worker shard (the resolved
    #: per-shard budget every plan runs with; 1 = serial MAC)
    mac_threads: int = 1

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    def to_prometheus(self) -> str:
        """Everything here in the Prometheus text exposition format."""
        t = self.telemetry
        samples: List[MetricSample] = [
            MetricSample(
                "repro_serve_requests_total", "counter",
                "Requests served.", float(t.requests),
            ),
            MetricSample(
                "repro_serve_sweeps_total", "counter",
                "Stencil sweeps advanced.", float(t.sweeps),
            ),
            MetricSample(
                "repro_serve_batches_total", "counter",
                "Fused batches executed.", float(t.batches),
            ),
            MetricSample(
                "repro_serve_errors_total", "counter",
                "Requests failed.", float(t.errors),
            ),
            MetricSample(
                "repro_serve_ipc_payload_bytes_total", "counter",
                "Bulk payload bytes piped over IPC.",
                float(t.ipc_payload_bytes),
            ),
            MetricSample(
                "repro_serve_solves_total", "counter",
                "Solver sessions completed.", float(t.solves),
            ),
            MetricSample(
                "repro_serve_solves_converged_total", "counter",
                "Solver sessions that hit tolerance before max_iters.",
                float(t.solves_converged),
            ),
            MetricSample(
                "repro_serve_solve_failures_total", "counter",
                "Solver sessions that died on an exception.",
                float(t.solve_failures),
            ),
            MetricSample(
                "repro_serve_solve_iterations_total", "counter",
                "Solver iterations across all completed sessions.",
                float(t.solve_iterations_total),
            ),
            MetricSample(
                "repro_serve_retries_total", "counter",
                "Requests re-enqueued after a transient failure.",
                float(t.retries),
            ),
            MetricSample(
                "repro_serve_worker_restarts_total", "counter",
                "Dead worker processes respawned by the supervisor.",
                float(t.worker_restarts),
            ),
            MetricSample(
                "repro_serve_deadline_expired_total", "counter",
                "Requests expired by the deadline machinery.",
                float(t.deadline_expired),
            ),
            MetricSample(
                "repro_serve_slab_degrades_total", "counter",
                "Shard transport directions downgraded shm to queue.",
                float(t.slab_degrades),
            ),
            MetricSample(
                "repro_serve_inline_batches_total", "counter",
                "Batches executed in-parent as the terminal fallback.",
                float(t.inline_batches),
            ),
            MetricSample(
                "repro_serve_faults_injected_total", "counter",
                "Batches on which the fault-injection harness fired.",
                float(t.faults_injected),
            ),
            MetricSample(
                "repro_serve_inflight_requests", "gauge",
                "Requests submitted but not yet resolved.",
                float(self.inflight),
            ),
            MetricSample(
                "repro_serve_workers", "gauge",
                "Worker shards.", float(self.workers),
            ),
            MetricSample(
                "repro_serve_plan_cache_hits_total", "counter",
                "Plan cache hits.", float(self.cache.hits),
            ),
            MetricSample(
                "repro_serve_plan_cache_misses_total", "counter",
                "Plan cache misses.", float(self.cache.misses),
            ),
            MetricSample(
                "repro_serve_plan_cache_evictions_total", "counter",
                "Plan cache evictions.", float(self.cache.evictions),
            ),
            MetricSample(
                "repro_serve_plan_workspace_bytes", "gauge",
                "Resident plan workspace bytes.",
                float(self.cache.workspace_bytes),
            ),
        ]
        for stage in ERROR_STAGES:
            count = t.errors_by_stage.get(stage, 0)
            samples.append(
                MetricSample(
                    "repro_serve_stage_errors_total", "counter",
                    "Request errors by pipeline stage.", float(count),
                    labels=(("stage", stage),),
                )
            )
        for name, help_text, summary in (
            ("repro_serve_latency_seconds",
             "End-to-end request latency.", t.latency_ms),
            ("repro_serve_queue_wait_seconds",
             "Submit-to-execution-start wait.", t.queue_wait_ms),
            ("repro_serve_batch_service_seconds",
             "Batch execution time.", t.service_ms),
            ("repro_serve_batch_occupancy",
             "Requests fused per batch.", t.occupancy),
            ("repro_serve_solve_iterations",
             "Iterations per solver session.", t.solve_iterations),
            ("repro_serve_solve_residual",
             "Per-iteration relative residual norm.", t.solve_residual),
        ):
            if not summary:
                continue  # solver summaries are empty on direct construction
            # snapshot dicts are ms-scaled except the dimensionless ones
            scale = (
                1.0
                if name.endswith(("occupancy", "iterations", "residual"))
                else 1e-3
            )
            for q, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                samples.append(
                    MetricSample(
                        name, "summary", help_text,
                        summary[key] * scale, labels=(("quantile", q),),
                    )
                )
            samples.append(
                MetricSample(
                    name, "summary", help_text,
                    summary["mean"] * scale * summary["count"],
                    suffix="_sum",
                )
            )
            samples.append(
                MetricSample(
                    name, "summary", help_text, summary["count"],
                    suffix="_count",
                )
            )
        for stage, agg in sorted(self.stages.items()):
            samples.append(
                MetricSample(
                    "repro_serve_stage_seconds_total", "counter",
                    "Traced time by pipeline stage.", agg["total_s"],
                    labels=(("stage", stage),),
                )
            )
            samples.append(
                MetricSample(
                    "repro_serve_stage_spans_total", "counter",
                    "Traced spans by pipeline stage.", agg["count"],
                    labels=(("stage", stage),),
                )
            )
        samples.extend(self.metrics)
        return render_prometheus(samples)


def format_service_report(stats: ServiceStats) -> str:
    """Fixed-width serving report (analysis-table style)."""
    t = stats.telemetry
    backend = stats.backend
    if stats.transport != "local":
        backend = f"{backend}/{stats.transport}"
    lines = [
        f"{'workers':<22} {stats.workers} ({backend})",
        f"{'MAC threads':<22} {stats.mac_threads} per shard"
        + (" (serial)" if stats.mac_threads == 1 else ""),
        f"{'requests served':<22} {t.requests}",
        f"{'sweeps advanced':<22} {t.sweeps}",
        f"{'fused batches':<22} {t.batches}",
        f"{'errors':<22} {t.errors}"
        + (
            "  ("
            + "  ".join(
                f"{stage} {n}"
                for stage, n in sorted(t.errors_by_stage.items())
            )
            + ")"
            if t.errors_by_stage
            else ""
        ),
        f"{'batch occupancy':<22} mean {t.occupancy['mean']:.2f}"
        f"  max {t.occupancy['max']:.0f}",
    ]
    if (
        t.retries
        or t.worker_restarts
        or t.slab_degrades
        or t.inline_batches
        or t.deadline_expired
    ):
        lines.append(
            f"{'recovery':<22} retries {t.retries}"
            f"  restarts {t.worker_restarts}"
            f"  degrades {t.slab_degrades}"
            f"  inline {t.inline_batches}"
            f"  expired {t.deadline_expired}"
        )
    if t.faults_injected:
        lines.append(f"{'faults injected':<22} {t.faults_injected}")
    if t.solves or t.solve_failures:
        lines += [
            f"{'solver sessions':<22} {t.solves} solves"
            f"  converged {t.solves_converged}"
            f"  failed {t.solve_failures}",
            f"{'iterations/solve':<22} "
            f"mean {t.solve_iterations.get('mean', 0.0):.1f}"
            f"  p90 {t.solve_iterations.get('p90', 0.0):.0f}"
            f"  max {t.solve_iterations.get('max', 0.0):.0f}"
            f"  (total {t.solve_iterations_total})",
            f"{'solve residual':<22} "
            f"p50 {t.solve_residual.get('p50', 0.0):.2e}"
            f"  p90 {t.solve_residual.get('p90', 0.0):.2e}"
            f"  max {t.solve_residual.get('max', 0.0):.2e}",
        ]
    lines += [
        f"{'IPC payload':<22} {t.ipc_payload_bytes / 1e6:.2f} MB piped"
        f"  ({t.ipc_bytes_per_request:.0f} B/request)",
        f"{'plan cache':<22} hits {stats.cache.hits}"
        f"  misses {stats.cache.misses}"
        f"  evictions {stats.cache.evictions}"
        f"  hit-rate {stats.cache.hit_rate * 100:.1f}%",
        f"{'plan workspaces':<22} "
        f"{stats.cache.workspace_bytes / 1e6:.2f} MB resident",
    ]
    if stats.cache.slab_bytes:
        lines.append(
            f"{'shm slabs':<22} "
            f"{stats.cache.slab_bytes / 1e6:.2f} MB reserved"
        )
    for label, h in (
        ("latency (ms)", t.latency_ms),
        ("queue wait (ms)", t.queue_wait_ms),
        ("batch service (ms)", t.service_ms),
    ):
        lines.append(
            f"{label:<22} p50 {h['p50']:.3f}  p90 {h['p90']:.3f}"
            f"  p99 {h['p99']:.3f}  max {h['max']:.3f}"
        )
    if stats.per_worker_cache:
        for i, c in enumerate(stats.per_worker_cache):
            lines.append(
                f"{f'  worker[{i}] cache':<22} hits {c.hits}"
                f"  misses {c.misses}  size {c.size}/{c.capacity}"
            )
    if stats.stages:
        lines.append("stage attribution")
        for stage, agg in sorted(
            stats.stages.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            lines.append(
                f"{f'  {stage}':<22} {int(agg['count']):>6} spans"
                f"  total {agg['total_s'] * 1e3:10.3f} ms"
                f"  mean {agg['mean_s'] * 1e6:10.1f} us"
            )
        gemm = stats.stages.get("mac.gemm")
        if gemm is not None and t.batches:
            # one mac.gemm span per column block of each output range,
            # from the thread that ran the range; blocks/batch counts
            # GEMM calls, not threads (a serial 1D sweep of 2**20 points
            # issues 43 blocks), so the thread budget is printed beside it
            lines.append(
                f"{'MAC gemm':<22} "
                f"{gemm['total_s'] / t.batches * 1e3:.3f} ms/batch"
                f"  ({gemm['count'] / t.batches:.1f} blocks/batch, "
                f"{stats.mac_threads} threads)"
            )
    return "\n".join(lines)
