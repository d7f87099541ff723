"""Sharded worker loops with spec-affinity routing.

Each shard owns a private :class:`~repro.serve.plan_cache.PlanCache` and is
fed from a :class:`~repro.serve.batching.BatchQueue`; requests are routed
to shards by a deterministic hash of their plan key, so every distinct
stencil configuration always lands on the same shard and its warm plan
cache stays hot (no cross-worker cache churn, no plan duplication beyond
the shard's working set).  Routing by key also means a shard's queue only
ever holds requests it can coalesce with at most ``#keys-per-shard``
head-of-line switches.

Two interchangeable backends implement the shard loop:

* ``backend="thread"`` — daemon threads in this process.  The executor
  releases the GIL inside the numpy MAC, so shards overlap, but Python-side
  work (gathers, padding, bookkeeping) still serializes on the GIL.
* ``backend="process"`` — one worker **process** per shard.  Coalescing
  and routing stay in the parent (identical batching semantics); each
  coalesced batch crosses a ``multiprocessing`` queue as pure data
  (request ids, the plan key and spec as dicts, parent-side submit
  timestamps, and one payload per grid), the worker compiles-or-hits its
  **private in-process PlanCache** — compile plans are reconstructible
  from their :class:`~repro.core.pipeline.PlanRecipe`, which is what
  makes the spec dict sufficient.  A dispatcher thread in the parent
  resolves futures and records telemetry, so
  :class:`~repro.serve.telemetry.ServiceTelemetry` and cache statistics
  aggregate across processes exactly as they do across threads.

  How the bulk grid/result bytes travel is the pool's ``transport``:

  * ``transport="shm"`` (default) — per-shard shared-memory slab pairs
    (:mod:`repro.serve.shm`).  The feeder writes each grid straight into
    a task-slab block and enqueues only a generation-tagged descriptor;
    the worker wraps a zero-copy ndarray view over the block and the
    executor materializes results directly into pre-reserved result-slab
    blocks (``out=`` destinations), so the result message is descriptors
    too.  Bulk bytes never cross a pipe.  Grids that cannot fit under
    the slab byte cap fall back to the queue payload per request, so
    correctness never depends on slab capacity.
  * ``transport="queue"`` — every payload rides the mp queue as a pickled
    contiguous array (the pre-slab behaviour, kept as the portable
    fallback and as the differential baseline the benchmarks compare
    against).

  Both transports are byte-identical by construction: the transport moves
  bits, the executor math never changes.

Both backends are **bit-identical**: batch composition never perturbs the
fused pipeline's numerics (strictly ordered MAC), and a worker process
recompiles byte-for-byte the plan the parent would have built (the
cross-backend differential test suite asserts equality on raw result
bytes).  ``close()`` has the same drain semantics for both: pending
requests complete, then workers exit; submits after close raise.

Every path completes a batch the same way.  Thread shards, the inline
rung and the service's synchronous path serve through :func:`run_batch`,
and the process dispatcher completes worker results through the same
expire / resolve / fail / retry helpers, so deadlines, retries,
telemetry and spans mean the same thing on every path.

Temporal super-sweeps
---------------------
A request whose sweep-aware plan key carries ``steps > 1`` executes as one
*super-sweep* inside the worker instead of ``t`` round-trips through the
batch queue (and, on the process backend, ``t`` IPC grid copies — the
dominant per-request cost of that path): the batch is advanced ``t``
chained, strictly ordered sweeps through the cached plain plan,
intermediates never leaving the worker.  Byte-identical to ``t``
sequential round-trips by construction (same floating-point operations in
the same order), for every boundary condition.  Kernel fusion with
boundary-ring repair is :class:`~repro.core.temporal.TemporalSpider`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as std_queue
import signal
import threading
import time
import warnings
from collections import deque
from contextlib import nullcontext
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.executor import SweepRunner
from ..gpu.device import A100_80GB_PCIE, DeviceSpec
from ..sptc.macpool import resolve_mac_threads
from ..sptc.mma import MmaPrecision
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.spec import StencilSpec
from .batching import BatchQueue, DeadlineExceeded, ServeRequest
from .faults import FaultInjector, FaultPlan, InjectedFault
from .metrics import MetricsRegistry
from .plan_cache import CacheStats, PlanCache, PlanKey
from .shm import BlockRef, SlabAllocator, SlabAttachments, SlabError
from .telemetry import ServiceTelemetry
from .tracing import SpanRecorder, batch_context, stage_span

__all__ = [
    "RetryPolicy",
    "WorkerCrashed",
    "WorkerPool",
    "WORKER_BACKENDS",
    "WORKER_TRANSPORTS",
    "execute_serve_batch",
    "is_transient_failure",
    "run_batch",
]

#: Supported ``WorkerPool(backend=...)`` choices.
WORKER_BACKENDS: Tuple[str, ...] = ("thread", "process")


class WorkerCrashed(RuntimeError):
    """A worker process died without completing its in-flight batches.

    Transient by definition (the machine is fine, the process is not):
    the retry machinery re-enqueues affected requests — byte-identical
    re-execution, since requests are pure functions of (plan, grid).
    Surfaces to callers only once the retry budget (or every shard) is
    exhausted.
    """


def is_transient_failure(exc: BaseException) -> bool:
    """Whether a failure is safe and sensible to retry.

    Transient failures — a crashed worker, a shared-memory protocol
    violation, an injected fault — say nothing about the request itself,
    so re-executing it elsewhere can succeed and is byte-identical by
    the purity argument above.  Everything else (a bad spec, a numerics
    bug, a deadline) is deterministic: retrying would fail identically
    and must surface immediately.
    """
    return isinstance(exc, (WorkerCrashed, SlabError)) or bool(
        getattr(exc, "transient", False)
    )


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the self-healing layer (all recovery is opt-out).

    Parameters
    ----------
    retry_budget:
        Re-enqueues each request survives after transient failures before
        its future fails.  Retried requests re-route through spec
        affinity (respawning shards keep their traffic; terminally dead
        shards rehash onto the survivors).
    restart_budget:
        Respawns a shard's worker process gets within ``budget_window_s``
        before the shard is tombstoned for good.  Each consecutive
        respawn backs off exponentially from ``restart_backoff_s``.
    restart_backoff_s:
        Base delay before the first respawn; doubles per consecutive
        restart (0.05s, 0.1s, 0.2s, ...).
    budget_window_s:
        A worker that stays alive this long refills its shard's restart
        budget — a crash per hour is supervision working, a crash loop
        is not.
    slab_error_threshold:
        Repeated :class:`~repro.serve.shm.SlabError`\\ s in one transport
        direction (task vs result) before that direction degrades
        shm → queue for the shard (directions degrade independently;
        respawns reset the degradation).  ``0`` disables degradation.
    inline_fallback:
        When no live shard remains (restart budgets exhausted
        everywhere), execute batches in-parent through a lazily built
        plan cache instead of failing them — the terminal rung of the
        degradation ladder.  ``False`` fails them with
        :class:`WorkerCrashed` instead.

    Solve sessions never touch a worker, so no knob here applies to them.
    """

    retry_budget: int = 2
    restart_budget: int = 3
    restart_backoff_s: float = 0.05
    budget_window_s: float = 60.0
    slab_error_threshold: int = 3
    inline_fallback: bool = True

    def __post_init__(self) -> None:
        for name in ("retry_budget", "restart_budget", "slab_error_threshold"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"restart_backoff_s must be >= 0, "
                f"got {self.restart_backoff_s}"
            )
        if self.budget_window_s < 0:
            raise ValueError(
                f"budget_window_s must be >= 0, got {self.budget_window_s}"
            )

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """Pre-self-healing semantics: no respawns, no retries, no
        fallback — a dead shard tombstones and its futures fail fast
        (what the no-recovery tests pin down)."""
        return cls(
            retry_budget=0,
            restart_budget=0,
            restart_backoff_s=0.0,
            slab_error_threshold=0,
            inline_fallback=False,
        )

#: Supported process-backend grid/result transports (module docstring).
WORKER_TRANSPORTS: Tuple[str, ...] = ("shm", "queue")

#: BLAS/OpenMP thread-count variables pinned to 1 in worker processes.
#: The ordered MAC deliberately never calls BLAS (einsum's C core is
#: single-threaded and strictly ordered), but any *other* numpy op a
#: worker runs — pads, casts, the reference oracle in tests — could spin
#: up a BLAS/OpenMP pool per process and fight the MAC pool for cores.
#: One explicit MAC pool per shard, sized ``cpu_count // n_shards``, is
#: the only intentional parallelism in a worker.
_BLAS_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas_env_hygiene() -> None:
    """Pin numpy's internal threading to 1 for worker processes.

    Called in the parent before worker processes start, so every start
    method inherits the setting (spawn/forkserver children initialize
    their BLAS under it; fork children inherit the parent's already-
    initialized BLAS, where these variables were read at import time —
    either way no library pool exceeds what was configured).  Only unset
    variables are touched: an operator who explicitly sized a BLAS pool
    keeps it, and is expected to budget ``mac_threads`` accordingly.
    """
    for var in _BLAS_THREAD_ENV_VARS:
        os.environ.setdefault(var, "1")


def _result_dtype(precision: str) -> np.dtype:
    """Output dtype of a served sweep (the executor's ``acc_dtype``) —
    needed parent-side to reserve result-slab blocks before compiling."""
    return np.dtype(
        np.float32 if precision == MmaPrecision.FP16 else np.float64
    )


def execute_serve_batch(
    cache: PlanCache,
    key: PlanKey,
    spec: StencilSpec,
    grids: List[Grid],
    out: Optional[List[np.ndarray]] = None,
    runner: Optional[SweepRunner] = None,
) -> List[np.ndarray]:
    """Serve one coalesced batch through a plan cache (all backends).

    This is the single execution path shared by thread-backend workers,
    process-backend worker mains and the synchronous fallback: resolve
    the plain plan for ``key``, run one fused sweep over the batch — or
    ``key.steps`` chained sweeps when ``key.steps > 1`` — on the caller's
    ``runner``, and return one freshly-owned result array per grid.
    ``out`` redirects the per-grid results into caller-supplied
    destination arrays (the shm transport's slab-backed views) instead of
    fresh allocations; numerics are unaffected.
    """
    plan = cache.get_or_build(key.base(), spec=spec)
    if key.steps == 1:
        span = stage_span("mac", args={"batch": len(grids)})
    else:
        span = stage_span("temporal_chain", args={"steps": key.steps})
    with span:
        return plan.executor.sweep(
            grids, steps=key.steps, out=out, runner=runner
        )


# ----------------------------------------------------------------------
# The batch lifecycle, shared by every execution path
# ----------------------------------------------------------------------

def _batch_trace(
    tracer: Optional[SpanRecorder], batch: Sequence[ServeRequest]
) -> Optional[tuple]:
    """``(trace_id, root span_id)`` of the batch's first traced request
    while tracing is on, else None; batch-level spans parent-link to it."""
    if tracer is None or not tracer.enabled:
        return None
    return next((r.trace for r in batch if r.trace is not None), None)


def _expire(
    batch: Sequence[ServeRequest],
    telemetry: Optional[ServiceTelemetry],
    now: Optional[float] = None,
) -> List[ServeRequest]:
    """Drop completed requests and fail expired ones with
    :class:`DeadlineExceeded`; the live remainder is returned."""
    if now is None:
        now = time.monotonic()
    live: List[ServeRequest] = []
    expired: List[ServeRequest] = []
    for r in batch:
        if not r.done():
            (expired if r.expired(now) else live).append(r)
    if expired and telemetry is not None:
        telemetry.record_error(expired, stage="deadline")
    for r in expired:
        r._fail(
            DeadlineExceeded(f"request {r.req_id} missed its deadline"),
            started_s=now,
            finished_s=now,
        )
    return live


def _fail_all(
    reqs: Sequence[ServeRequest],
    exc: BaseException,
    stage: str,
    telemetry: Optional[ServiceTelemetry],
    started: Optional[float] = None,
    finished: Optional[float] = None,
) -> None:
    """Fail every request with ``exc``, counted under the error ``stage``
    (one of :data:`~repro.serve.telemetry.ERROR_STAGES`).  The errors are
    counted before the futures complete, so a woken caller sees them;
    ``started`` / ``finished`` default to now."""
    if not reqs:
        return
    now = time.monotonic()
    if telemetry is not None:
        telemetry.record_error(reqs, stage=stage)
    for r in reqs:
        r._fail(
            exc,
            started_s=now if started is None else started,
            finished_s=now if finished is None else finished,
        )


def _resolve_all(
    batch: Sequence[ServeRequest],
    outs: Sequence[np.ndarray],
    started: float,
    finished: float,
    telemetry: Optional[ServiceTelemetry],
    tracer: Optional[SpanRecorder],
    track: str,
) -> None:
    """Complete a served batch: record it in telemetry and each request's
    ``queue`` and ``request`` spans, resolve the futures, then record the
    batch's ``resolve`` span.  Everything a caller can observe about its
    request is recorded before its future resolves."""
    trace = _batch_trace(tracer, batch)
    if telemetry is not None:
        telemetry.record_batch(batch, started, finished)
    if trace is not None:
        for r in batch:
            if r.trace is None:
                continue
            tracer.record_span(
                "queue",
                track,
                r.submitted_s,
                started - r.submitted_s,
                r.trace[0],
                parent_id=r.trace[1],
            )
            tracer.record_span(
                "request",
                track,
                r.submitted_s,
                finished - r.submitted_s,
                r.trace[0],
                span_id=r.trace[1],
            )
    resolve_t0 = time.monotonic()
    for r, out in zip(batch, outs):
        r._resolve(
            out,
            batch_size=len(batch),
            started_s=started,
            finished_s=finished,
        )
    if trace is not None:
        tracer.record_span(
            "resolve",
            track,
            resolve_t0,
            time.monotonic() - resolve_t0,
            trace[0],
            parent_id=trace[1],
        )


def _retry(
    reqs: Sequence[ServeRequest],
    exc: BaseException,
    stage: str,
    place: Callable[[ServeRequest], bool],
    telemetry: Optional[ServiceTelemetry],
    charge: bool = True,
) -> None:
    """The retry funnel for requests hit by a transient failure ``exc``.

    Each live request is handed to ``place``, which queues or runs it
    again and returns False if nothing will take it; re-execution is
    byte-identical because a request is a pure function of (plan, grid).
    With ``charge`` every placement spends one unit of the request's
    retry budget and counts as a retry, and a spent budget fails the
    request instead.  Requests left over fail with ``exc`` under
    ``stage``.
    """
    retried = 0
    refused: List[ServeRequest] = []
    for r in _expire(reqs, telemetry):
        if charge:
            if not r.retries_left:
                refused.append(r)
                continue
            r.retries_left -= 1
        if not place(r):
            refused.append(r)
        elif charge:
            retried += 1
    if retried and telemetry is not None:
        telemetry.record_retries(retried)
    _fail_all(refused, exc, stage, telemetry)


def run_batch(
    batch: Sequence[ServeRequest],
    cache: PlanCache,
    *,
    runner: Optional[SweepRunner] = None,
    telemetry: Optional[ServiceTelemetry] = None,
    tracer: Optional[SpanRecorder] = None,
    track: str = "inline",
    injector: Optional[FaultInjector] = None,
    shard: int = 0,
    place: Optional[Callable[[ServeRequest], bool]] = None,
) -> bool:
    """Serve one coalesced batch in this process, start to finish.

    Thread shards, the inline rung and the synchronous path all serve
    through here: drop completed requests and expire overdue ones,
    record the ``coalesce`` span, fire an armed ``fail_batch`` fault for
    ``shard``, execute through :func:`execute_serve_batch` on ``runner``
    and complete the batch.  A transient failure goes through the retry
    funnel to ``place``; without ``place``, or for any other failure, the
    batch fails.  Returns True once the batch resolved.
    """
    started = time.monotonic()
    batch = _expire(batch, telemetry, started)
    if not batch:
        return False
    req0 = batch[0]
    trace = _batch_trace(tracer, batch)
    if trace is not None:
        tracer.record_span(
            "coalesce",
            track,
            req0.submitted_s,
            started - req0.submitted_s,
            trace[0],
            parent_id=trace[1],
            args={"batch": len(batch)},
        )
    try:
        if injector is not None and injector.should_fire("fail_batch", shard):
            if telemetry is not None:
                telemetry.record_fault_injected()
            raise InjectedFault(f"injected batch failure on {track}")
        with (
            batch_context(tracer, trace[0], trace[1], track)
            if trace is not None
            else nullcontext()
        ):
            outs = execute_serve_batch(
                cache,
                req0.key,
                req0.spec,
                [r.grid for r in batch],
                runner=runner,
            )
    except Exception as exc:
        if place is not None and is_transient_failure(exc):
            _retry(batch, exc, "execute", place, telemetry)
        else:
            _fail_all(batch, exc, "execute", telemetry, started)
        return False
    _resolve_all(
        batch,
        outs,
        started,
        time.monotonic(),
        telemetry,
        tracer,
        track,
    )
    return True


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------

def _pick_mp_context():
    """Start-method selection for the process backend.

    ``fork`` is the cheapest (no interpreter re-exec, works from any
    parent, including stdin/REPL-driven ones) but is only safe while the
    parent has **no other live threads** — a forked child can inherit a
    mutex held mid-operation by another thread, and Python 3.12+ warns on
    exactly this.  So: fork when the parent is single-threaded at pool
    construction, otherwise ``forkserver`` (forks from a clean,
    thread-free server process) and ``spawn`` as the portable fallback.
    ``REPRO_MP_START_METHOD`` overrides the choice outright.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_MP_START_METHOD")
    if override:
        return multiprocessing.get_context(override)
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _picklable_exc(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in.

    ``multiprocessing`` queues pickle in a background feeder thread, so an
    unpicklable exception would be *silently dropped* there and the parent
    would hang waiting for the batch — pre-flighting the pickle in the
    worker turns that failure mode into an explicit RuntimeError result.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _decode_batch(
    attachments: SlabAttachments, payload: tuple, precision: str
) -> Tuple[List[Grid], Optional[List[np.ndarray]]]:
    """Worker-side payload decode: grids + slab-backed result destinations.

    An ``("shm", block, grid_shape, dtype, bcs, result_block)`` payload
    becomes per-grid zero-copy ndarray views over one task-slab batch
    block (generation-validated); a ``("raw", arrays, bcs,
    result_block)`` payload arrives already materialized by pickle.  In
    either case a reserved result block becomes per-grid writable views
    over the result slab — the executor's ``out=`` destinations — and
    ``outs=None`` (no reservation) sends results back pickled: the two
    transport directions degrade independently.
    """
    if payload[0] == "shm":
        _, block, gshape, dtype_str, bcs, rblock = payload
        batch_shape = (len(bcs),) + tuple(gshape)
        batch = attachments.view(block, batch_shape, np.dtype(dtype_str))
        grids = [
            Grid(batch[b], BoundaryCondition(bc))
            for b, bc in enumerate(bcs)
        ]
    else:
        _, arrays, bcs, rblock = payload
        batch_shape = (len(bcs),) + arrays[0].shape
        grids = [
            Grid(a, BoundaryCondition(bc)) for a, bc in zip(arrays, bcs)
        ]
    outs = None
    if rblock is not None:
        res = attachments.view(
            rblock, batch_shape, _result_dtype(precision)
        )
        outs = [res[b] for b in range(len(bcs))]
    return grids, outs


def _drain_rel_spans(
    tracer: SpanRecorder, started: float, trace_on: bool
) -> Optional[List[Tuple[str, float, float]]]:
    """Harvest a worker batch's spans as ``(name, start - batch start,
    duration)`` triples — durations and offsets only, never absolute
    worker-clock readings, so the parent can re-anchor them on its own
    monotonic clock (see :meth:`WorkerPool._dispatch_results`)."""
    if not trace_on:
        return None
    return [
        (s.name, s.start_s - started, s.dur_s) for s in tracer.drain()
    ]


def _process_worker_main(
    worker_id: int,
    task_q,
    result_q,
    cache_capacity: int,
    device_dict: dict,
    mac_threads: Optional[int] = None,
) -> None:
    """Worker-process shard loop (module-level so every mp start method —
    fork *and* spawn — can import it).

    Owns a private :class:`PlanCache`; every batch message carries the plan
    key and spec as pure-data dicts, so the worker recompiles (once, then
    cache-hits) exactly the plan the parent's thread backend would use.
    Every result/exit message piggybacks a :class:`CacheStats` snapshot
    (itself a pure-data dataclass), which is how per-shard cache counters
    aggregate across process boundaries without a synchronous RPC.

    Timing: the worker reports only the batch's **service duration** —
    a clock *difference*, immune to any cross-process clock offset —
    and echoes the parent-side submit timestamps it was handed; the
    parent dispatcher anchors the duration against its own clock and
    clamps with the echoed timestamps (see
    :meth:`WorkerPool._dispatch_results`).

    Shared-memory payloads are consumed as zero-copy views and results
    are materialized straight into the reserved result-slab blocks via
    the executor's ``out=`` destinations, so an shm result message
    carries descriptors only.

    ``mac_threads`` is this shard's pre-resolved ordered-MAC thread
    budget (the parent divides the machine across shards so N worker
    processes never oversubscribe cores).  It sizes the worker's one
    :class:`~repro.core.executor.SweepRunner`, built here — runners never
    cross a process boundary — and closed when the loop exits.
    """
    device = DeviceSpec.from_dict(device_dict)
    cache = PlanCache(capacity=cache_capacity, device=device)
    runner = SweepRunner(mac_threads)
    attachments = SlabAttachments()
    clock = time.monotonic
    # worker-local span recorder: spans ship back as (name, start
    # relative to batch start, duration) triples — durations only ever
    # cross the process boundary, so the parent can re-anchor them on its
    # own clock exactly like the service-duration accounting
    tracer = SpanRecorder()
    try:
        while True:
            msg = task_q.get()
            if msg is None:
                result_q.put(("exit", worker_id, cache.stats(runner)))
                return
            req_ids, key_dict, spec_dict, submitted, payload, trace_on = msg
            tracer.enabled = bool(trace_on)
            started = clock()
            try:
                with batch_context(tracer, 0, None, "worker"):
                    with stage_span("decode"):
                        key = PlanKey.from_dict(key_dict)
                        spec = StencilSpec.from_dict(spec_dict)
                        grids, outs = _decode_batch(
                            attachments, payload, key.precision
                        )
                    if outs is not None:
                        # shm batch with a reserved result block: the
                        # executor materializes results straight into the
                        # result slab (no intermediate arrays,
                        # descriptor-only reply)
                        execute_serve_batch(
                            cache, key, spec, grids, outs, runner
                        )
                        results = ("shm",)
                    else:
                        # queue transport, or the slab-cap fallback (grids
                        # and/or results too big to reserve): results ride
                        # the pipe as pickled arrays
                        results = (
                            "raw",
                            execute_serve_batch(
                                cache, key, spec, grids, runner=runner
                            ),
                        )
            except Exception as exc:
                result_q.put(
                    (
                        "err",
                        worker_id,
                        req_ids,
                        submitted,
                        _picklable_exc(exc),
                        clock() - started,
                        cache.stats(runner),
                        _drain_rel_spans(tracer, started, trace_on),
                    )
                )
                continue
            result_q.put(
                (
                    "ok",
                    worker_id,
                    req_ids,
                    submitted,
                    results,
                    clock() - started,
                    cache.stats(runner),
                    _drain_rel_spans(tracer, started, trace_on),
                )
            )
            # drop slab views before the next dequeue: the parent frees
            # (and may recycle) these blocks once it processes the result
            del grids, outs, results
    finally:
        runner.close()
        attachments.close()


class WorkerPool:
    """N sharded workers plus the spec-affinity router.

    Parameters
    ----------
    num_workers:
        Shard count.
    max_batch_size:
        Occupancy cap of the per-shard :class:`BatchQueue` (identical for
        both backends — batching always happens in the parent).  A shard
        takes its next batch as soon as it is free — a thread shard once
        it finishes a batch, a process feeder once it ships one — so a
        batch fuses what queued while its shard was busy, and no request
        waits for company.
    cache_capacity / device:
        Per-shard plan-cache sizing and the machine model plans compile
        against.
    telemetry:
        Shared :class:`ServiceTelemetry`; the thread backend records into
        it directly, the process backend through the parent-side result
        dispatcher — either way one accumulator aggregates every shard.
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
    transport:
        Process-backend bulk-byte transport: ``"shm"`` (default,
        shared-memory slab pairs with descriptor-only queue messages) or
        ``"queue"`` (pickled arrays on the mp queues).  Ignored by the
        thread backend, which shares an address space.
    slab_initial_bytes / slab_max_bytes:
        Per-shard, per-direction shared-memory slab sizing for the shm
        transport: the first segment's size and the hard byte cap.  The
        cap bounds *in-flight* bytes — a transiently full slab applies
        backpressure to the feeder rather than falling back — and is
        deliberately small so hot blocks recycle through cache instead of
        sprawling across cold pages; only a single batch that cannot fit
        in an empty slab degrades to the pickled queue payload.
    mac_threads:
        Per-shard ordered-MAC thread budget: the size of each shard's
        :class:`~repro.core.executor.SweepRunner` (one per thread shard
        in :attr:`runners`, one inside each worker process) and of the
        inline rung's runner.  ``None`` (the default) resolves to
        ``REPRO_MAC_THREADS`` or ``cpu_count // num_workers`` — the
        division that keeps N shards (threads *or* processes) from
        oversubscribing the machine.  An explicit count is taken as-is,
        per shard.  Results are bit-identical for every setting; the
        resolved value is exposed as :attr:`mac_threads`.  :meth:`close`
        stops every runner's threads.
    retry_policy:
        The self-healing knobs (:class:`RetryPolicy`); ``None`` means the
        defaults — supervision, retry, degradation and inline fallback
        all on.  :meth:`RetryPolicy.disabled` restores the
        pre-self-healing fail-fast semantics.
    faults:
        A :class:`~repro.serve.faults.FaultPlan` to arm deterministic
        fault injection against this pool (tests, chaos benchmarks).
        All injection happens parent-side, so the schedule is replayable
        and survives worker respawns.

    Self-healing (process backend)
    ------------------------------
    A shard whose worker process dies without its exit sentinel is
    *respawned* — fresh process, fresh slab pair, fresh task queue, same
    plan knobs, so the replacement compiles byte-identical plans — under
    an exponentially backed-off restart budget that refills after
    ``budget_window_s`` of good behaviour.  In-flight batches the
    dead worker owned re-enqueue through each request's retry budget
    (byte-identical re-execution: requests are pure functions of
    (plan, grid), and duplicated in-flight copies are absorbed by the
    futures' first-completion-wins idempotence).  A shard that exhausts
    its restart budget is tombstoned and its traffic *rehashes* onto the
    surviving shards; when no shard survives, batches execute in-parent
    through a lazily built plan cache (``inline_fallback``).  Repeated
    :class:`~repro.serve.shm.SlabError`\\ s degrade the offending
    transport direction shm → queue for that shard until its next
    respawn.  Every rung is counted in telemetry.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        max_batch_size: int = 8,
        cache_capacity: int = 64,
        device: DeviceSpec = A100_80GB_PCIE,
        telemetry: Optional[ServiceTelemetry] = None,
        backend: str = "thread",
        transport: str = "shm",
        slab_initial_bytes: int = 1 << 20,
        slab_max_bytes: int = 8 << 20,
        tracer: Optional[SpanRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        mac_threads: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if backend not in WORKER_BACKENDS:
            raise ValueError(
                f"unsupported worker backend {backend!r}; "
                f"choose one of {WORKER_BACKENDS}"
            )
        if transport not in WORKER_TRANSPORTS:
            raise ValueError(
                f"unsupported transport {transport!r}; "
                f"choose one of {WORKER_TRANSPORTS}"
            )
        self.backend = backend
        self.transport = transport if backend == "process" else "local"
        #: effective per-shard MAC threads — the size of every runner
        #: this pool's shards sweep on
        self.mac_threads = resolve_mac_threads(mac_threads, num_workers)
        self.telemetry = telemetry
        self.tracer = tracer
        self.metrics = metrics
        #: self-healing knobs; shared by both backends (the thread
        #: backend uses the retry budget and inline fallback, the process
        #: backend additionally supervises and degrades)
        self._policy = retry_policy or RetryPolicy()
        self._injector = (
            FaultInjector(faults) if faults is not None and faults else None
        )
        self._device = device
        self._cache_capacity = int(cache_capacity)
        # in-parent execution fallback (terminal rung of the degradation
        # ladder); its cache is built lazily on first use
        self._parent_cache: Optional[PlanCache] = None
        self._parent_cache_lock = threading.Lock()
        self._parent_runner = SweepRunner(self.mac_threads)
        #: one runner per thread shard (empty on the process backend,
        #: whose workers build their own)
        self.runners: List[SweepRunner] = []
        self._feeder_busy = self._dispatcher_busy = None
        self._dead_shard_counter = None
        self._slab_gauge = None
        if metrics is not None:
            self._feeder_busy = metrics.counter(
                "repro_serve_feeder_busy_seconds_total",
                "Parent-side feeder time spent packing and shipping.",
            )
            self._dispatcher_busy = metrics.counter(
                "repro_serve_dispatcher_busy_seconds_total",
                "Parent-side dispatcher time spent resolving results.",
            )
            self._dead_shard_counter = metrics.counter(
                "repro_serve_dead_shards_total",
                "Worker shards that died without an exit sentinel.",
            )
        self.queues: List[BatchQueue] = [
            BatchQueue(max_batch_size=max_batch_size)
            for _ in range(num_workers)
        ]
        #: lock-free routing view: indices of shards accepting traffic
        self._alive: Tuple[int, ...] = tuple(range(num_workers))
        if backend == "thread":
            self.caches: List[PlanCache] = [
                PlanCache(capacity=cache_capacity, device=device)
                for _ in range(num_workers)
            ]
            self.runners = [
                SweepRunner(self.mac_threads) for _ in range(num_workers)
            ]
            self.workers: List[threading.Thread] = [
                threading.Thread(
                    target=self._serve_shard,
                    args=(i,),
                    name=f"spider-serve-{i}",
                    daemon=True,
                )
                for i in range(num_workers)
            ]
            for w in self.workers:
                w.start()
            return

        # -- process backend -------------------------------------------
        # pin numpy's BLAS/OpenMP pools to 1 thread in the workers (only
        # where unset): the per-shard MAC pool is the one intentional
        # source of parallelism, and a library pool per process on top of
        # it would oversubscribe every core the budget just divided up
        _blas_env_hygiene()
        ctx = _pick_mp_context()
        # respawns must reuse this context: queues from one context cannot
        # pickle into another's children (fork-context SemLocks name
        # semaphores that spawn re-execs cannot re-open)
        self._ctx = ctx
        self._num_workers = num_workers
        self._slab_initial = int(slab_initial_bytes)
        self._slab_max = int(slab_max_bytes)
        self._closing = False
        # -- supervision state (all guarded by _pending_lock) -----------
        # per-shard lifecycle: "up" (serving) -> "down" (dead, respawn
        # pending) -> "up" again, or "dead" (tombstoned: budget exhausted
        # or pool closing)
        self._shard_state: List[str] = ["up"] * num_workers
        self._restarts = [0] * num_workers
        self._last_death = [0.0] * num_workers
        self._respawn_at: List[Optional[float]] = [None] * num_workers
        # bumped on every death: feeders detect mid-pack slab/queue
        # recycling by comparing the epoch they registered under
        self._epoch = [0] * num_workers
        # per-shard [task-direction, result-direction] SlabError counts
        # and the corresponding shm -> queue degradation flags
        self._slab_errors = [[0, 0] for _ in range(num_workers)]
        self._slab_degraded = [[False, False] for _ in range(num_workers)]
        # feeders park here while their shard is down; set while the
        # shard is up or terminally dead (i.e. whenever state can only
        # change under _pending_lock, never mid-wait)
        self._gates = [threading.Event() for _ in range(num_workers)]
        for g in self._gates:
            g.set()
        # per-shard (task, result) slab allocator pairs — parent-owned;
        # segments are created lazily, so a queue-transport pool never
        # touches /dev/shm
        self._slabs: List[Optional[Tuple[SlabAllocator, SlabAllocator]]] = [
            (
                SlabAllocator(slab_initial_bytes, slab_max_bytes),
                SlabAllocator(slab_initial_bytes, slab_max_bytes),
            )
            if self.transport == "shm"
            else None
            for _ in range(num_workers)
        ]
        if metrics is not None and self.transport == "shm":
            for slabs in self._slabs:
                slabs[0].bind_metrics(metrics)
                slabs[1].bind_metrics(metrics)
            self._slab_gauge = metrics.gauge(
                "repro_serve_shm_slab_bytes",
                "Shared memory reserved across all shard slab pairs.",
            )
            self._slab_gauge.set_function(
                lambda: sum(
                    self.slab_nbytes(i) for i in range(num_workers)
                )
            )
        # req_id -> (shard, request): the shard index lets worker-death
        # handling fail exactly the requests the dead shard owned
        self._pending: Dict[int, Tuple[int, ServeRequest]] = {}
        # first-req-id-of-batch -> (shard, task_block, result_block):
        # whoever pops an entry — dispatcher, reaper or feeder — owns
        # returning its slab blocks to the shard's free lists
        self._batch_blocks: Dict[
            int, Tuple[int, Optional[BlockRef], Optional[BlockRef]]
        ] = {}
        # first-req-id-of-batch -> parent-clock ship timestamp; populated
        # only while tracing (the dispatcher turns it into the ipc span)
        self._batch_shipped: Dict[int, float] = {}
        self._pending_lock = threading.Lock()
        # terminally dead shards (restart budget exhausted / closing):
        # routing rehashes around them, their feeders redistribute
        self._dead_shards: set = set()
        # last-known per-shard cache stats (piggybacked on every result)
        self._shard_stats: List[CacheStats] = [
            CacheStats(0, 0, 0, 0, self._cache_capacity, 0)
            for _ in range(num_workers)
        ]
        self._task_qs = [ctx.Queue() for _ in range(num_workers)]
        # one result queue per worker incarnation, like the task queues:
        # a worker SIGKILLed mid-put dies holding its queue's cross-process
        # write lock, so a queue shared with its replacement (or another
        # shard) would block every later writer forever
        self._result_qs = [ctx.Queue() for _ in range(num_workers)]
        self.workers = [
            ctx.Process(
                target=_process_worker_main,
                args=(
                    i,
                    self._task_qs[i],
                    self._result_qs[i],
                    self._cache_capacity,
                    device.to_dict(),
                    self.mac_threads,
                ),
                name=f"spider-serve-proc-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for p in self.workers:
            p.start()
        self._feeders = [
            threading.Thread(
                target=self._feed_shard,
                args=(i,),
                name=f"spider-serve-feed-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for t in self._feeders:
            t.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_results,
            name="spider-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def route(self, req: ServeRequest) -> int:
        """Shard index for a request — a pure function of its plan key
        and the set of shards accepting traffic.

        While every shard is up this is the classic affinity hash; once
        shards tombstone, their keys *rehash* deterministically onto the
        survivors (every live key keeps its affinity).  ``-1`` means no
        shard accepts traffic (the inline-fallback cue).  The ``_alive``
        tuple is read without the lock: it is replaced atomically and a
        momentarily stale read just routes to a shard whose death handler
        will retry the request.

        A shard that is *down but recovering* still accepts traffic when
        no shard is up: its parent-side queue and feeder persist across
        the respawn (the feeder parks on the shard's gate), so routing
        there parks the request for tens of milliseconds of backoff
        instead of spilling it to the terminal fallback while the
        supervisor is mid-restart.
        """
        h = req.key.routing_hash()
        alive = self._alive
        if len(alive) == self.num_workers:
            return h % self.num_workers
        if alive:
            return alive[h % len(alive)]
        if self.backend == "process":
            with self._pending_lock:
                recovering = (
                    ()
                    if self._closing
                    else tuple(
                        j
                        for j in range(self._num_workers)
                        if self._shard_state[j] == "down"
                    )
                )
            if recovering:
                return recovering[h % len(recovering)]
        return -1

    def submit(self, req: ServeRequest) -> int:
        """Queue a request on its shard; returns the shard, or -1 when no
        shard is left and the inline rung served it.  Raises on a closed
        pool, and with :class:`WorkerCrashed` when no shard is left and
        inline fallback is off — never a parked future."""
        if req.retries_left is None:
            req.retries_left = self._policy.retry_budget
        shard = self.route(req)
        if shard >= 0:
            self.queues[shard].put(req)
        elif self._policy.inline_fallback:
            self._run_inline([req])
        else:
            raise WorkerCrashed(
                "every serve worker process died unexpectedly and the "
                "restart budget is exhausted; no shard accepts requests"
            )
        return shard

    def _serve_shard(self, shard: int) -> None:
        """Thread-backend shard loop: take the next batch as soon as the
        last one is served, until the queue is closed and drained."""
        queue = self.queues[shard]
        while True:
            batch = queue.get_batch()
            if batch is None:
                return
            self._run_batch(batch, self.caches[shard], shard)

    def _run_batch(
        self, batch: Sequence[ServeRequest], cache: PlanCache, shard: int
    ) -> bool:
        """:func:`run_batch` with this pool's hooks; ``shard`` is -1 on
        the inline rung, where no faults are injected."""
        inline = shard < 0
        return run_batch(
            batch,
            cache,
            runner=self._parent_runner if inline else self.runners[shard],
            telemetry=self.telemetry,
            tracer=self.tracer,
            track="inline" if inline else f"shard-{shard}",
            injector=None if inline else self._injector,
            shard=shard,
            place=self._place,
        )

    def cache_stats(self) -> List[CacheStats]:
        """Per-shard cache stats; process shards fold in their parent-side
        slab bytes (``CacheStats.slab_bytes``), so the service report can
        show shared-memory residency next to workspace residency."""
        if self.backend == "thread":
            return [c.stats(r) for c, r in zip(self.caches, self.runners)]
        with self._pending_lock:
            stats = list(self._shard_stats)
        return [
            dataclasses.replace(s, slab_bytes=self.slab_nbytes(i))
            for i, s in enumerate(stats)
        ]

    def slab_nbytes(self, shard: int) -> int:
        """Bytes of shared memory reserved for one shard's slab pair."""
        slabs = self._slabs[shard] if self.backend == "process" else None
        if slabs is None:
            return 0
        return slabs[0].nbytes + slabs[1].nbytes

    def close(self, join: bool = True) -> None:
        """Close every queue; workers drain what's pending, then exit.

        Process backend: the per-shard feeders forward everything still
        queued, then send each worker its exit sentinel; ``join=True``
        additionally waits for feeders, worker processes and the result
        dispatcher, so on return every result is resolved and
        ``process.is_alive()`` is False for every worker.  A pending
        respawn is cancelled (the shard tombstones instead): close wins
        over recovery.  Once everything that sweeps has stopped, the
        shard and inline runners stop their MAC threads.
        """
        if self.backend == "process":
            with self._pending_lock:
                self._closing = True
                for i in range(self._num_workers):
                    if self._shard_state[i] == "down":
                        # cancel the pending respawn; the feeder's gate
                        # opens onto a terminal state
                        self._shard_state[i] = "dead"
                        self._dead_shards.add(i)
                        self._respawn_at[i] = None
                        self._gates[i].set()
                self._alive = tuple(
                    j
                    for j in range(self._num_workers)
                    if self._shard_state[j] == "up"
                )
        for q in self.queues:
            q.close()
        if not join:
            return
        if self.backend == "thread":
            for w in self.workers:
                w.join()
            # plans stay resident (stats remain queryable) but the
            # runners' parked MAC helpers stop: a closed pool leaves no
            # repro-mac threads behind.  Process workers close their own.
            for runner in self.runners:
                runner.close()
            self._parent_runner.close()
            self._drop_self_references()
            return
        self._join_feeders()
        for p in self.workers:
            p.join(timeout=60.0)
            if p.is_alive():  # pragma: no cover - defensive
                warnings.warn(
                    f"serve worker process {p.name} (pid {p.pid}) did not "
                    "exit within 60s of close; terminating it",
                    RuntimeWarning,
                )
                p.terminate()
                p.join(timeout=5.0)
        self._dispatcher.join()
        if self._result_qs:
            # under spawn/forkserver an mp queue unlinks its named
            # semaphores only once it is freed, and its feeder thread
            # holds two of them until it exits, so join the feeder threads
            # and drop the queues.  A worker that exited cleanly read its
            # exit sentinel, the last item its queue was fed, so that
            # feeder is idle; one feeding a dead worker may block on a
            # full pipe forever and is not joined
            for p, q in zip(self.workers, self._task_qs):
                q.close()
                if p.exitcode == 0:
                    q.join_thread()
            for q in self._result_qs:
                q.close()
            self._task_qs, self._result_qs = [], []
        # every worker has unmapped (joined above), every result is
        # resolved (dispatcher joined): unlink the shared-memory slabs
        for slabs in self._slabs:
            if slabs is not None:
                slabs[0].close()
                slabs[1].close()
        self._parent_runner.close()
        self._drop_self_references()

    def _drop_self_references(self) -> None:
        """Break the reference cycle a closed pool would otherwise sit in
        until a cyclic gc pass: the slab-bytes gauge's reader closes over
        ``self``.  Runs once every thread that could read it has been
        joined; the gauge keeps reading 0, the bytes the unlinked slabs
        now reserve."""
        if self._slab_gauge is not None:
            self._slab_gauge.set(0.0)

    def _join_feeders(self) -> None:
        """Join the per-shard feeder threads — loudly.

        Feeders only move already-coalesced batches into buffered mp
        queues, so they finish promptly; a feeder for a terminally dead
        shard gets a *short* grace (its remaining work is redistribution,
        no worker round-trips) and any feeder that fails to stop is
        reported with a :class:`RuntimeWarning` instead of being silently
        abandoned — a close() that leaked a thread must say so.
        """
        for i, t in enumerate(self._feeders):
            waited = 0.0
            while t.is_alive():
                with self._pending_lock:
                    terminal = self._shard_state[i] == "dead"
                limit = 5.0 if terminal else 60.0
                if waited >= limit:
                    warnings.warn(
                        f"serve feeder thread for shard {i} failed to "
                        f"stop within {limit:.0f}s of close(); abandoning "
                        "the daemon thread (requests it held have been "
                        "failed or redistributed)",
                        RuntimeWarning,
                    )
                    break
                t.join(timeout=0.25)
                waited += 0.25

    # -- process-backend internals --------------------------------------
    def _build_batch_payload(
        self, shard: int, batch: Sequence[ServeRequest], epoch: int
    ) -> Tuple[tuple, Optional[BlockRef], Optional[BlockRef], int]:
        """One coalesced batch -> (payload, task block, result block,
        bytes that will cross the mp pipe).

        A batch shares one plan key, hence one grid shape and dtype, so
        the shm transport packs it into a *single* task-slab block and
        reserves a single result-slab block — one alloc/write/free cycle
        per direction per batch keeps the allocator off the per-request
        path.  A *transiently* full slab applies backpressure (the feeder
        waits for in-flight batches to retire their blocks) rather than
        forfeiting zero-copy under burst load; only a payload that cannot
        fit in an empty slab — or a shard that died, so its blocks will
        never come back — degrades that direction to the pickled queue
        path, and the two directions degrade independently: a full result
        slab still ships the grids zero-copy.
        """
        arrays = [np.ascontiguousarray(r.grid.data) for r in batch]
        bcs = [r.grid.bc.value for r in batch]
        with self._pending_lock:
            slabs = self._slabs[shard]
            degraded = tuple(self._slab_degraded[shard])
        tb = rb = None
        if slabs is not None:
            task_slab, result_slab = slabs

            def shard_gone() -> bool:
                # aborts the backpressure wait the moment the shard dies
                # (its in-flight blocks are never coming back) or its
                # slabs are recycled under a respawn (epoch bump)
                with self._pending_lock:
                    return (
                        self._shard_state[shard] != "up"
                        or self._epoch[shard] != epoch
                    )

            if not degraded[0]:
                tb = task_slab.alloc_blocking(
                    sum(a.nbytes for a in arrays), should_abort=shard_gone
                )
            if not degraded[1]:
                racc = _result_dtype(batch[0].key.precision)
                rb = result_slab.alloc_blocking(
                    len(arrays) * arrays[0].size * racc.itemsize,
                    should_abort=shard_gone,
                )
        if tb is not None:
            task_slab.write_batch(tb, arrays)
            payload = (
                "shm",
                tb,
                arrays[0].shape,
                arrays[0].dtype.str,
                bcs,
                rb,
            )
            return payload, tb, rb, 0
        return (
            ("raw", arrays, bcs, rb),
            None,
            rb,
            sum(a.nbytes for a in arrays),
        )

    def _free_blocks(
        self,
        shard: int,
        tb: Optional[BlockRef],
        rb: Optional[BlockRef],
    ) -> None:
        slabs = self._slabs[shard]
        if slabs is None:
            return
        # frees from a previous slab generation are silent no-ops (the
        # allocator drops unknown segment names and closed allocators);
        # a SlabError here would mean a genuine protocol bug, but it must
        # degrade to a leaked block, never kill a feeder or the dispatcher
        try:
            slabs[0].free(tb)
        except SlabError:  # pragma: no cover - defensive
            pass
        try:
            slabs[1].free(rb)
        except SlabError:  # pragma: no cover - defensive
            pass

    def _await_shard(self, shard: int) -> bool:
        """Park until the shard accepts traffic again.

        True once the shard is (back) up; False once it is terminally
        dead — the caller redistributes its batch.  The gate is cleared
        while a respawn is pending and set on every terminal transition,
        so a parked feeder wakes promptly either way (the timeout only
        bounds a lost-wakeup race).
        """
        while True:
            with self._pending_lock:
                state = self._shard_state[shard]
            if state == "up":
                return True
            if state == "dead":
                return False
            self._gates[shard].wait(timeout=0.05)

    def _feed_shard(self, shard: int) -> None:
        """Parent-side shard feeder: coalesced batches -> pure data -> child.

        The feeder takes its next batch as soon as it has shipped the last
        one, so a batch holds what queued while it was packing and
        shipping; requests that arrive while the worker computes wait in
        the worker's task queue, not in the parent.

        Futures are registered in the pending table *before* the batch is
        shipped, so the dispatcher can never see a result for an unknown
        request id.  Slab blocks are allocated after registration and
        recorded into the pending entries before the ship, so whoever pops
        an entry — dispatcher, death handler or this feeder — owns
        returning its blocks.  The task tuple carries each request's
        **parent-side** ``time.monotonic()`` submit timestamp, keeping
        every queue-wait reading in one clock domain (see
        :meth:`_dispatch_results`).

        Supervision hooks: a feeder whose shard is *down* parks on the
        shard's gate until the respawn lands (then ships to the fresh
        worker and its fresh queue/slabs) or the shard tombstones (then
        redistributes the batch to the survivors).  The epoch captured at
        registration detects a death racing the pack, so blocks from a
        recycled slab generation are never shipped or freed against the
        replacement allocators.  All process-backend fault injection
        happens here, parent-side, so the schedule survives respawns.
        """
        queue = self.queues[shard]
        track = f"feeder-{shard}"
        while True:
            batch = queue.get_batch()
            if batch is None:
                with self._pending_lock:
                    terminal = self._shard_state[shard] == "dead"
                    task_q = self._task_qs[shard]
                if not terminal:
                    task_q.put(None)
                return
            loop_t0 = time.monotonic()
            batch = _expire(batch, self.telemetry, loop_t0)
            if not batch:
                continue
            tracer = self.tracer
            trace = _batch_trace(tracer, batch)
            if trace is not None:
                tracer.record_span(
                    "coalesce",
                    track,
                    batch[0].submitted_s,
                    loop_t0 - batch[0].submitted_s,
                    trace[0],
                    parent_id=trace[1],
                    args={"batch": len(batch)},
                )
            # register under the shard's current epoch — or park while a
            # respawn is pending, or hand a tombstoned shard's traffic to
            # the survivors.  Either the registration sees the shard up,
            # or the death handler — which flips the state *before*
            # sweeping pending, under this same lock — sees the
            # registrations; no interleaving strands a request.
            registered = False
            while not registered:
                if not self._await_shard(shard):
                    break
                with self._pending_lock:
                    if self._shard_state[shard] != "up":
                        continue  # raced a death mid-wakeup; park again
                    epoch0 = self._epoch[shard]
                    for r in batch:
                        self._pending[r.req_id] = (shard, r)
                    registered = True
            if not registered:
                self._redistribute(batch, self._crash_exc(shard))
                continue
            if self._injector is not None:
                delay = self._injector.stall_delay(shard)
                if delay > 0:
                    self._note_fault()
                    time.sleep(delay)
            try:
                pack_t0 = time.monotonic()
                if (
                    self._injector is not None
                    and self._injector.should_fire("fail_pickle", shard)
                ):
                    self._note_fault()
                    raise InjectedFault(
                        f"injected payload-pack failure on shard {shard}"
                    )
                payload, tb, rb, ipc_bytes = self._build_batch_payload(
                    shard, batch, epoch0
                )
                pack_t1 = time.monotonic()
            except Exception as exc:
                # a payload-build failure must fail (or retry) its batch,
                # not silently kill this feeder thread and hang callers
                with self._pending_lock:
                    batch = [
                        self._pending.pop(r.req_id)[1]
                        for r in batch
                        if r.req_id in self._pending
                    ]
                if is_transient_failure(exc):
                    self._retry_or_fail(batch, exc, "pack")
                else:
                    _fail_all(batch, exc, "pack", self.telemetry)
                continue
            if trace is not None:
                tracer.record_span(
                    "pack",
                    track,
                    pack_t0,
                    pack_t1 - pack_t0,
                    trace[0],
                    parent_id=trace[1],
                    args={"ipc_bytes": ipc_bytes},
                )
            # re-check the shard unconditionally: alloc_blocking aborts
            # its backpressure wait when the shard dies, and shipping
            # anyway would push a payload into a queue nobody reads.  A
            # flipped state or bumped epoch means the death handler
            # already swept (and retried) this batch's registrations —
            # drop it; the stale blocks' frees are no-ops against the
            # replacement allocators and their old segments are unlinked.
            with self._pending_lock:
                stale = (
                    self._shard_state[shard] != "up"
                    or self._epoch[shard] != epoch0
                )
                if not stale and (tb is not None or rb is not None):
                    self._batch_blocks[batch[0].req_id] = (shard, tb, rb)
                task_q = self._task_qs[shard]
            if stale:
                self._free_blocks(shard, tb, rb)
                continue
            if (
                self._injector is not None
                and payload[0] == "shm"
                and self._injector.should_fire("corrupt_slab", shard)
            ):
                # corrupt the *shipped* descriptor's generation tag: the
                # worker's validation rejects the view (SlabError, a
                # transient the retry path heals), while the true
                # descriptor kept in _batch_blocks still frees cleanly
                self._note_fault()
                bad = payload[1]._replace(
                    generation=payload[1].generation + 1
                )
                payload = ("shm", bad) + payload[2:]
            if self._injector is not None and self._injector.should_fire(
                "kill_worker", shard
            ):
                # SIGKILL *before* the ship: the batch is deterministically
                # lost in flight and supervision must recover it
                self._note_fault()
                self._kill_shard(shard)
            if ipc_bytes and self.telemetry is not None:
                self.telemetry.record_ipc(ipc_bytes)
            req0 = batch[0]
            shipped = time.monotonic()
            if trace is not None:
                with self._pending_lock:
                    self._batch_shipped[req0.req_id] = shipped
            task_q.put(
                (
                    [r.req_id for r in batch],
                    req0.key.to_dict(),
                    req0.spec.to_dict(),
                    [r.submitted_s for r in batch],
                    payload,
                    trace is not None,
                )
            )
            if self._feeder_busy is not None:
                self._feeder_busy.inc(shipped - loop_t0)

    def _dispatch_results(self) -> None:
        """Parent-side result loop: resolve futures, aggregate telemetry.

        Runs until every worker has acknowledged its exit sentinel — or
        died terminally: the loop polls worker liveness whenever the
        result queue is idle *and* periodically under load, so a shard
        process dying without its sentinel (OOM-kill, segfault) gets its
        in-flight batches retried (or failed, with a fully spent budget)
        promptly either way, and due respawns are started from here.  A
        transiently all-down pool keeps dispatching: the loop only exits
        once every shard has exited or tombstoned with no respawn
        pending.  Per-message handling is defensive — a malformed message
        fails its own batch, never the dispatcher.

        Timing is **offset-free by construction**: the worker reports only
        the batch's service *duration* (a clock difference, valid across
        any clock offset) and this thread anchors it against the parent's
        own ``time.monotonic`` at receipt — ``finished = now``,
        ``started = now - duration``, clamped from below by the batch's
        parent-clock submit timestamps (which rode the task tuple and are
        echoed back), so result transit can never read as negative queue
        wait.  Queue-wait and latency then subtract parent-clock submit
        timestamps from parent-clock anchors — no reading ever mixes two
        processes' clocks (the residual skew is the result message's
        transit, which under the shm transport is a descriptor-only
        send).  Shm results are copied out of the result
        slab into freshly-owned arrays here — one memcpy that decouples
        the caller-visible result from slab lifetime — and every popped
        request returns its slab blocks to the shard's free lists.
        """
        exited = [False] * self.num_workers
        inbox: Deque = deque()
        last_sweep = time.monotonic()
        while not self._dispatch_done(exited):
            msg = self._next_result(inbox, exited, 0.05)
            if msg is None:
                self._reap_dead_workers(exited)
                self._maybe_respawn(exited)
                last_sweep = time.monotonic()
                continue
            handle_t0 = time.monotonic()
            if handle_t0 - last_sweep >= 0.05:
                # sweep under sustained load too — a steady result stream
                # from surviving shards must not starve another shard's
                # death detection or its due respawn
                self._reap_dead_workers(exited)
                self._maybe_respawn(exited)
                last_sweep = handle_t0
            reqs: List[ServeRequest] = []
            try:
                kind, worker_id = msg[0], msg[1]
                if kind == "exit":
                    with self._pending_lock:
                        self._shard_stats[worker_id] = msg[2]
                    exited[worker_id] = True
                    continue
                (
                    _,
                    _,
                    req_ids,
                    submitted,
                    payload,
                    service_dur,
                    stats,
                    wspans,
                ) = msg
                finished = time.monotonic()
                started = finished - float(service_dur)
                if submitted:
                    # the batch cannot have started before its last
                    # request was submitted (parent clock, round-tripped
                    # through the task tuple): clamping the anchored
                    # estimate keeps result transit from ever reading as
                    # negative queue wait
                    started = min(finished, max(started, max(submitted)))
                with self._pending_lock:
                    self._shard_stats[worker_id] = stats
                    # ids can be absent if the shard was (wrongly) presumed
                    # dead and reaped — those futures already failed (and
                    # the reaper returned the batch's blocks)
                    entries = [self._pending.pop(i, None) for i in req_ids]
                    blocks = self._batch_blocks.pop(req_ids[0], None)
                    shipped = self._batch_shipped.pop(req_ids[0], None)
                reqs = [e[1] for e in entries if e is not None]
                tracer = self.tracer
                trace = _batch_trace(tracer, reqs)
                track = f"shard-{worker_id}"
                if trace is not None:
                    trace_id, root = trace
                    if shipped is not None:
                        # everything between ship and receipt that was not
                        # the worker's measured service time is transport:
                        # queue pickling, pipe transit, scheduler latency
                        tracer.record_span(
                            "ipc",
                            track,
                            shipped,
                            max(
                                0.0,
                                (finished - shipped) - float(service_dur),
                            ),
                            trace_id,
                            parent_id=root,
                        )
                    # worker spans arrive as (name, start relative to the
                    # worker's batch start, duration): re-anchor on the
                    # parent-clock `started` estimate — offsets and
                    # durations only, no cross-process clock reading
                    for name, rel, dur in wspans or ():
                        tracer.record_span(
                            name,
                            track,
                            started + max(0.0, float(rel)),
                            float(dur),
                            trace_id,
                            parent_id=root,
                        )
                if kind == "err":
                    if blocks is not None:
                        self._free_blocks(*blocks)
                    if isinstance(payload, SlabError):
                        # the worker rejected its task-block view:
                        # a task-direction transport failure
                        self._note_slab_error(worker_id, 0)
                    if is_transient_failure(payload):
                        self._retry_or_fail(reqs, payload, "execute")
                    else:
                        _fail_all(
                            reqs,
                            payload,
                            "execute",
                            self.telemetry,
                            started,
                            finished,
                        )
                    continue
                ipc_bytes = 0
                unpack_t0 = time.monotonic()
                try:
                    if payload[0] == "shm":
                        if blocks is None or blocks[2] is None:
                            # only reachable for reaped batches (no live
                            # futures) or a protocol bug — never silent
                            outs = None
                        else:
                            shard0, r0 = blocks[0], reqs[0]
                            outs = self._slabs[shard0][1].read_batch(
                                blocks[2],
                                (len(req_ids),) + r0.grid.shape,
                                _result_dtype(r0.key.precision),
                            )
                    else:
                        outs = payload[1]
                        ipc_bytes = sum(o.nbytes for o in outs)
                except SlabError as exc:
                    # result-direction transport failure: the result
                    # bytes are unreadable, but re-execution is
                    # byte-identical — send the batch back through retry
                    self._note_slab_error(worker_id, 1)
                    self._retry_or_fail(reqs, exc, "resolve")
                    continue
                finally:
                    if blocks is not None:
                        self._free_blocks(*blocks)
                if trace is not None:
                    tracer.record_span(
                        "unpack",
                        track,
                        unpack_t0,
                        time.monotonic() - unpack_t0,
                        trace_id,
                        parent_id=root,
                    )
                if outs is None and reqs:
                    raise RuntimeError(
                        "shm result arrived for a batch whose blocks are "
                        "gone (reaped or never reserved)"
                    )
                if ipc_bytes and self.telemetry is not None:
                    self.telemetry.record_ipc(ipc_bytes)
                _resolve_all(
                    reqs,
                    [o for e, o in zip(entries, outs or ()) if e is not None],
                    started,
                    finished,
                    self.telemetry,
                    tracer,
                    track,
                )
            except Exception as exc:  # pragma: no cover - defensive
                # a malformed message must fail (at most) its own batch,
                # never kill the dispatcher and hang every future
                if not reqs:
                    reqs = self._pop_ids_from_malformed(msg)
                _fail_all(
                    [r for r in reqs if not r.done()],
                    exc,
                    "resolve",
                    self.telemetry,
                )
            finally:
                if self._dispatcher_busy is not None:
                    self._dispatcher_busy.inc(
                        time.monotonic() - handle_t0
                    )

    def _pop_ids_from_malformed(self, msg) -> List[ServeRequest]:
        """Best-effort request extraction from a message that failed to
        process (see the dispatcher's defensive except): frees any slab
        blocks the popped batches held and returns the requests."""
        try:
            ids = [i for i in msg[2] if isinstance(i, int)]
        except Exception:
            return []
        with self._pending_lock:
            entries = [
                self._pending.pop(i) for i in ids if i in self._pending
            ]
            blocks = [
                self._batch_blocks.pop(i)
                for i in ids
                if i in self._batch_blocks
            ]
            for i in ids:
                self._batch_shipped.pop(i, None)
        for b in blocks:
            self._free_blocks(*b)
        return [e[1] for e in entries]

    # -- supervision: death, respawn, retry, degradation ----------------
    def _dispatch_done(self, exited: List[bool]) -> bool:
        """The dispatcher may exit only once every worker has exited (or
        tombstoned) *and* no shard still awaits a respawn — a transiently
        all-down pool must keep dispatching for its replacements."""
        if not all(exited):
            return False
        with self._pending_lock:
            return not any(s == "down" for s in self._shard_state)

    def _crash_exc(self, shard: int) -> WorkerCrashed:
        return WorkerCrashed(
            f"serve worker process {shard} died unexpectedly "
            f"(exitcode {self.workers[shard].exitcode})"
        )

    def _next_result(
        self, inbox: Deque, exited: List[bool], timeout: float
    ):
        """The next result message, or None when no shard sends one
        within ``timeout``.

        Refills ``inbox`` with one message from every ready result queue
        of a shard still running, so a busy shard cannot starve the
        others.  A shard marked exited is not read again: after a clean
        exit nothing follows its sentinel, and after a death its results
        belong to batches the death sweep already re-placed.  Dispatcher
        thread only; it is also the only thread that swaps a shard's
        queue (on respawn).
        """
        if not inbox:
            queues = [
                q for q, done in zip(self._result_qs, exited) if not done
            ]
            ready = multiprocessing.connection.wait(
                [q._reader for q in queues], timeout
            )
            for q in queues:
                if q._reader in ready:
                    try:
                        inbox.append(q.get(block=False))
                    except std_queue.Empty:
                        pass
        return inbox.popleft() if inbox else None

    def _reap_dead_workers(self, exited: List[bool]) -> None:
        """Detect dead-without-sentinel workers and run their shard's
        death handling — explicit recovery or explicit errors, never a
        hang."""
        for i in range(self._num_workers):
            if exited[i]:
                continue
            with self._pending_lock:
                up = self._shard_state[i] == "up"
                p = self.workers[i]
            if up and not p.is_alive():
                self._on_worker_death(i, exited)

    def _on_worker_death(self, i: int, exited: List[bool]) -> None:
        """One shard's worker died: schedule its respawn (or tombstone
        it), sweep and retry the in-flight batches it owned.

        The state flip, the epoch bump and the pending/block sweep happen
        in one critical section, so a feeder either registers against the
        live shard (and this sweep retries its batch) or observes the
        death before shipping — no interleaving strands a request.
        """
        exited[i] = True
        if self._dead_shard_counter is not None:
            self._dead_shard_counter.inc()
        now = time.monotonic()
        with self._pending_lock:
            if self._shard_state[i] != "up":  # pragma: no cover - race
                return
            if (
                self._last_death[i]
                and now - self._last_death[i] > self._policy.budget_window_s
            ):
                # the last incarnation survived a full window: supervision
                # was working, refill the budget
                self._restarts[i] = 0
            self._last_death[i] = now
            terminal = (
                self._closing
                or self._restarts[i] >= self._policy.restart_budget
            )
            if terminal:
                self._shard_state[i] = "dead"
                self._dead_shards.add(i)
                self._respawn_at[i] = None
                self._gates[i].set()
            else:
                self._shard_state[i] = "down"
                self._respawn_at[i] = now + (
                    self._policy.restart_backoff_s * (2 ** self._restarts[i])
                )
                self._gates[i].clear()
            # feeders mid-pack detect the recycling through this bump
            self._epoch[i] += 1
            self._alive = tuple(
                j
                for j in range(self._num_workers)
                if self._shard_state[j] == "up"
            )
            dead_ids = [
                rid
                for rid, (shard, _) in self._pending.items()
                if shard == i
            ]
            dead = [self._pending.pop(rid)[1] for rid in dead_ids]
            block_ids = [
                bid
                for bid, (shard, _, _) in self._batch_blocks.items()
                if shard == i
            ]
            blocks = [self._batch_blocks.pop(bid) for bid in block_ids]
            # shipped stamps are keyed by a batch's first req id,
            # which is always among the shard's dead pending ids
            for rid in dead_ids:
                self._batch_shipped.pop(rid, None)
        for b in blocks:
            self._free_blocks(*b)
        # a death sweep condemns every batch shipped to the shard since
        # the last dispatch — most were innocent bystanders queued behind
        # the one that (maybe) triggered the crash.  Redistribution burns
        # no per-request retry budget; runaway crash loops are bounded by
        # the shard restart budget instead, whose exhaustion tombstones
        # the shard and diverts traffic to survivors / the inline rung.
        self._redistribute(dead, self._crash_exc(i))

    def _maybe_respawn(self, exited: List[bool]) -> None:
        now = time.monotonic()
        for i in range(self._num_workers):
            with self._pending_lock:
                due = (
                    not self._closing
                    and self._shard_state[i] == "down"
                    and self._respawn_at[i] is not None
                    and now >= self._respawn_at[i]
                )
            if due:
                self._respawn_shard(i, exited)

    def _respawn_shard(self, i: int, exited: List[bool]) -> None:
        """Replace a dead shard worker: fresh process, fresh slab pair,
        fresh task queue — same context, same plan knobs, so the
        replacement compiles byte-identical plans.

        Runs on the dispatcher thread only.  The swap happens under the
        pending lock after the new process has started, and a close()
        racing the respawn wins: the fresh worker is torn straight back
        down and the shard tombstones.
        """
        old_q = self._task_qs[i]
        old_rq = self._result_qs[i]
        old_slabs = self._slabs[i]
        new_slabs = None
        if self.transport == "shm":
            new_slabs = (
                SlabAllocator(self._slab_initial, self._slab_max),
                SlabAllocator(self._slab_initial, self._slab_max),
            )
            if self.metrics is not None:
                new_slabs[0].bind_metrics(self.metrics)
                new_slabs[1].bind_metrics(self.metrics)
        task_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_process_worker_main,
            args=(
                i,
                task_q,
                result_q,
                self._cache_capacity,
                self._device.to_dict(),
                self.mac_threads,
            ),
            name=f"spider-serve-proc-{i}",
            daemon=True,
        )
        proc.start()
        with self._pending_lock:
            rollback = self._closing
            if not rollback:
                self.workers[i] = proc
                self._task_qs[i] = task_q
                self._result_qs[i] = result_q
                self._slabs[i] = new_slabs
                self._restarts[i] += 1
                self._shard_state[i] = "up"
                self._respawn_at[i] = None
                self._slab_errors[i] = [0, 0]
                self._slab_degraded[i] = [False, False]
                self._dead_shards.discard(i)
                self._alive = tuple(
                    j
                    for j in range(self._num_workers)
                    if self._shard_state[j] == "up"
                )
                exited[i] = False
                self._gates[i].set()
        if rollback:  # pragma: no cover - close() raced the respawn
            with self._pending_lock:
                self._shard_state[i] = "dead"
                self._dead_shards.add(i)
                self._respawn_at[i] = None
                self._gates[i].set()
                self._alive = tuple(
                    j
                    for j in range(self._num_workers)
                    if self._shard_state[j] == "up"
                )
            proc.terminate()
            proc.join(timeout=5.0)
            if new_slabs is not None:
                new_slabs[0].close()
                new_slabs[1].close()
            task_q.close()
            task_q.cancel_join_thread()
            result_q.close()
        else:
            if self.telemetry is not None:
                self.telemetry.record_worker_restart()
        # the dead incarnation's transport retires: every pending entry
        # and block of the old epoch was swept at death, so nothing will
        # read the old queues or free against the old allocators (results
        # still in the old result queue belong to swept batches)
        if old_slabs is not None:
            old_slabs[0].close()
            old_slabs[1].close()
        old_q.close()
        old_q.cancel_join_thread()
        if not rollback:
            old_rq.close()

    def _place(self, r: ServeRequest) -> bool:
        """Route a request to a live shard, else run it on the inline
        rung; False when neither takes it (inline fallback is off)."""
        target = self.route(r)
        if target >= 0:
            try:
                self.queues[target].put(r)
                return True
            except RuntimeError:
                pass  # queue closed under us; fall through
        if not self._policy.inline_fallback:
            return False
        self._run_inline([r])
        return True

    def _retry_or_fail(
        self, reqs: Sequence[ServeRequest], exc: BaseException, stage: str
    ) -> None:
        """Re-place requests after a transient failure, charging each
        one's retry budget; spent budgets fail under ``stage``."""
        _retry(reqs, exc, stage, self._place, self.telemetry)

    def _redistribute(
        self, batch: Sequence[ServeRequest], exc: BaseException
    ) -> None:
        """Re-place a dead shard's traffic without charging retries: its
        requests may never have reached a worker.  A request nothing
        takes fails with ``exc``."""
        _retry(batch, exc, "ipc", self._place, self.telemetry, charge=False)

    def _inline_cache(self) -> PlanCache:
        with self._parent_cache_lock:
            if self._parent_cache is None:
                self._parent_cache = PlanCache(
                    capacity=self._cache_capacity, device=self._device
                )
            return self._parent_cache

    def _run_inline(self, batch: Sequence[ServeRequest]) -> None:
        """Terminal rung: serve a batch in-parent, synchronously, through
        a lazily built plan cache on the pool's inline runner; inline
        results are byte-identical to worker results."""
        if (
            self._run_batch(batch, self._inline_cache(), -1)
            and self.telemetry is not None
        ):
            self.telemetry.record_inline_batch()

    def _note_fault(self) -> None:
        if self.telemetry is not None:
            self.telemetry.record_fault_injected()

    def _note_slab_error(self, shard: int, direction: int) -> None:
        """Count one transport-direction SlabError; past the policy
        threshold the direction degrades shm -> queue for this shard
        (its next respawn resets it)."""
        threshold = self._policy.slab_error_threshold
        if threshold <= 0:
            return
        degraded = False
        with self._pending_lock:
            self._slab_errors[shard][direction] += 1
            if (
                self._slab_errors[shard][direction] >= threshold
                and not self._slab_degraded[shard][direction]
            ):
                self._slab_degraded[shard][direction] = True
                degraded = True
        if degraded and self.telemetry is not None:
            self.telemetry.record_slab_degrade()

    def _kill_shard(self, shard: int) -> None:
        """SIGKILL the shard's worker process (fault injection only)."""
        with self._pending_lock:
            p = self.workers[shard]
        if p.pid is None or not p.is_alive():
            return
        try:
            os.kill(p.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover
            return
        p.join(timeout=5.0)
