"""`StencilService` — the serving façade.

Turns the one-shot ``Spider(spec).run(grid)`` pipeline into a runtime that
serves a request stream: plan-cached AOT compilation (compile once per
distinct stencil configuration), same-plan batch fusion, and N sharded
workers with spec-affinity routing.

>>> from repro import StencilService
>>> from repro.stencil import Grid, named_stencil
>>> with StencilService(workers=4) as svc:
...     handle = svc.submit(named_stencil("heat2d"), Grid.random((64, 64)))
...     out = handle.result()
...     svc.stats().cache_hit_rate
...

``workers=0`` selects the synchronous fallback path: ``submit`` executes
inline on the caller thread (still through the plan cache), which is the
right mode for single-tenant scripts and makes the service trivially
correct to embed anywhere threads are unwelcome.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Deque, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.executor import SweepRunner
from ..core.pipeline import SpiderVariant
from ..gpu.device import A100_80GB_PCIE, DeviceSpec
from ..sptc.macpool import resolve_mac_threads
from ..sptc.mma import MmaPrecision
from ..stencil import multigrid
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.solvers import HISTORY_LIMIT, PlanExecutor
from ..stencil.spec import StencilSpec
from .batching import DeadlineExceeded, ServeRequest
from .faults import FaultInjector, FaultPlan
from .sessions import SolveHandle
from .metrics import MetricsRegistry
from .plan_cache import CacheStats, PlanCache, plan_key_for
from .telemetry import ServiceStats, ServiceTelemetry, format_service_report
from .tracing import (
    SpanRecorder,
    batch_context,
    stage_totals,
    write_chrome_trace,
)
from .workers import (
    WORKER_TRANSPORTS,
    RetryPolicy,
    WorkerPool,
    _fail_all,
    run_batch,
)

__all__ = ["ServiceClosedError", "StencilService"]


class ServiceClosedError(RuntimeError):
    """Raised by ``submit`` / ``submit_solve`` on a closed service.

    Subclasses :class:`RuntimeError` so pre-existing callers catching the
    broad class keep working; new callers can distinguish "service shut
    down" from worker-side failures.
    """


class StencilService:
    """Batched, plan-cached stencil-serving runtime.

    Parameters
    ----------
    workers:
        Number of sharded worker threads; ``0`` selects the synchronous
        fallback path (inline execution, no threads).
    max_batch_size:
        Cap on how many same-plan requests fuse into one executor pass.
        A worker takes its next batch as soon as it is free, so a batch
        fuses what queued while the worker was busy; an idle worker
        serves a lone request at once.
    cache_capacity:
        Per-worker plan-cache capacity (LRU).
    precision / variant / device:
        Forwarded to compilation, same semantics as :class:`repro.Spider`.
    backend:
        Worker backend, ``"thread"`` (default) or ``"process"`` — see
        :class:`repro.serve.workers.WorkerPool`.  Results are bit-identical
        across backends; ``"process"`` escapes the GIL entirely (per-shard
        worker processes with private plan caches), the right choice on
        multi-core hosts.  Ignored when ``workers == 0``.
    transport:
        How the process backend moves bulk grid/result bytes: ``"shm"``
        (default) writes them through per-shard shared-memory slabs and
        pipes only descriptors — zero-copy on the worker side; ``"queue"``
        pickles arrays over the mp queues (portable fallback).  Results
        are byte-identical either way.  Ignored by thread/sync backends,
        which share an address space.
    trace:
        Enable span tracing (off by default — the recorder exists either
        way but records nothing while disabled, so the cost of leaving
        this off is one attribute check per would-be span).  While on,
        every request is traced submit → queue/coalesce → pack → ipc →
        plan_compile/mac → unpack → resolve, across process boundaries;
        harvest with :meth:`trace_spans` / :meth:`export_trace`.
    mac_threads:
        Ordered-MAC threads of each :class:`~repro.core.executor.SweepRunner`
        the service runs sweeps on: one per worker shard, one for the
        synchronous path, and one per solve session.  ``None`` (default)
        resolves adaptively — ``REPRO_MAC_THREADS`` or
        ``cpu_count // workers``, so N shards never oversubscribe the
        machine; the sync fallback gets the whole machine.  Results are
        bit-identical for every value (each output element is summed
        inside the one output range that owns it); the effective count
        is exposed as
        :attr:`mac_threads`, as a ``repro_serve_mac_threads`` gauge, and
        in the service report.  Every runner's threads stop with its
        owner: the shard's pool, the session, or :meth:`close`.
    retry_policy:
        The self-healing budget knobs (:class:`repro.serve.workers.RetryPolicy`):
        per-request retry budget, worker restart budget and backoff, slab
        degradation threshold and inline fallback.  Solve sessions run in
        this process and never retry.  ``None`` selects the defaults
        (recovery on); ``RetryPolicy.disabled()`` restores fail-fast
        semantics.
    default_deadline_s:
        Service-wide default request deadline in seconds (``None`` = no
        deadline).  ``submit(..., timeout=)`` overrides it per request;
        expired requests fail with :class:`~repro.serve.batching.DeadlineExceeded`
        when a worker takes their batch instead of occupying it.
    faults:
        Deterministic fault-injection plan for chaos testing — a
        :class:`~repro.serve.faults.FaultPlan`, its dict form, inline
        JSON, or a path to a JSON file.  ``None`` (the default) injects
        nothing.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_batch_size: int = 8,
        cache_capacity: int = 64,
        precision: str = MmaPrecision.EXACT,
        variant: SpiderVariant = SpiderVariant.SPTC_CO,
        device: DeviceSpec = A100_80GB_PCIE,
        backend: str = "thread",
        transport: str = "shm",
        trace: bool = False,
        mac_threads: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        default_deadline_s: Optional[float] = None,
        faults: Union[FaultPlan, dict, str, None] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        if transport not in WORKER_TRANSPORTS:
            raise ValueError(
                f"unsupported transport {transport!r}; "
                f"choose one of {WORKER_TRANSPORTS}"
            )
        self.precision = MmaPrecision.validate(precision)
        self.variant = variant
        self.device = device
        self.backend = backend if workers > 0 else "sync"
        self.transport = (
            transport if (workers > 0 and backend == "process") else "local"
        )
        self._policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._default_deadline_s = default_deadline_s
        fault_plan = FaultPlan.coerce(faults)
        self.fault_plan: Optional[FaultPlan] = fault_plan
        # the sync fallback executes on the caller thread, so it carries
        # its own injector (the pool-owned one never sees those batches)
        self._sync_injector = (
            FaultInjector(fault_plan)
            if (workers == 0 and fault_plan is not None and fault_plan)
            else None
        )
        self._telemetry = ServiceTelemetry()
        self.tracer = SpanRecorder(enabled=trace)
        self.metrics = MetricsRegistry()
        self._clock = time.monotonic
        self._ids = itertools.count()
        self._solve_ids = itertools.count()
        self._lock = threading.Lock()
        self._inflight: Deque[ServeRequest] = deque()
        self._solves: Deque[SolveHandle] = deque()
        self._ops_since_sweep = 0
        self._submitted = 0
        self._closed = False
        self._pool: Optional[WorkerPool] = None
        if workers > 0:
            self._pool = WorkerPool(
                workers,
                max_batch_size=max_batch_size,
                cache_capacity=cache_capacity,
                device=device,
                telemetry=self._telemetry,
                backend=backend,
                transport=transport,
                tracer=self.tracer,
                metrics=self.metrics,
                mac_threads=mac_threads,
                retry_policy=self._policy,
                faults=fault_plan,
            )
            self.mac_threads = self._pool.mac_threads
            if backend == "thread":
                for cache in self._pool.caches:
                    cache.bind_metrics(self.metrics)
        else:
            # the sync fallback is the only executor in this process, so
            # its adaptive budget is the whole machine (shards=1)
            self.mac_threads = resolve_mac_threads(mac_threads, 1)
        # the service's own plans: the sync path's requests and every
        # solve session (on any backend) run here, in this process.  Sync
        # callers share one runner and take turns on its lock; each solve
        # session brings its own
        self._local_cache = PlanCache(capacity=cache_capacity, device=device)
        self._local_cache.bind_metrics(self.metrics)
        self._sync_runner = SweepRunner(self.mac_threads)
        self.metrics.gauge(
            "repro_serve_mac_threads",
            "Effective ordered-MAC threads per worker shard.",
        ).set(float(self.mac_threads))

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._pool.num_workers if self._pool else 0

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: StencilSpec,
        grid: Union[Grid, np.ndarray],
        steps: int = 1,
        *,
        timeout: Optional[float] = None,
    ) -> ServeRequest:
        """Enqueue ``steps`` sweeps; returns a future-like :class:`ServeRequest`.

        ``steps > 1`` requests execute as one temporal super-sweep inside
        the worker: ``steps`` chained sweeps through the plain plan, with
        no per-sweep queue round-trips.  The result is byte-identical to
        submitting the grid ``steps`` times sequentially.  Requests
        coalesce by ``(plan, steps)``: only same-plan requests advancing
        the same number of sweeps share a batch.

        ``timeout`` attaches a deadline (seconds from now; defaults to the
        service's ``default_deadline_s``): a request still unserved when it
        expires fails with :class:`~repro.serve.batching.DeadlineExceeded`
        — shed when a worker takes its batch rather than occupying the
        worker.  A request whose execution already started runs to
        completion.
        """
        steps = int(steps)
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if not isinstance(grid, Grid):
            grid = Grid(np.asarray(grid))
        key = plan_key_for(
            spec, self.variant, self.precision, grid.shape, steps=steps
        )
        req = ServeRequest(
            req_id=next(self._ids),
            spec=spec,
            grid=grid,
            key=key,
            submitted_s=self._clock(),
        )
        deadline = timeout if timeout is not None else self._default_deadline_s
        if deadline is not None:
            req.deadline_s = req.submitted_s + deadline
        req.retries_left = self._policy.retry_budget
        if self.tracer.enabled:
            req.trace = self.tracer.new_ids()
        with self._lock:
            # closed-check and enqueue share the lock so a concurrent
            # close() cannot slip between them
            if self._closed:
                raise ServiceClosedError(
                    "cannot submit to a closed StencilService"
                )
            self._submitted += 1
            self._prune_inflight_locked()
            self._inflight.append(req)
        if self._pool is not None:
            try:
                self._pool.submit(req)
            except RuntimeError as exc:
                # queue closed under us (close() raced the enqueue): fail
                # the request so no waiter hangs on it
                _fail_all([req], exc, "submit", self._telemetry)
                raise
        else:
            self._run_sync(req)
        if req.trace is not None:
            self.tracer.record_span(
                "submit",
                "requests",
                req.submitted_s,
                self._clock() - req.submitted_s,
                req.trace[0],
                parent_id=req.trace[1],
            )
        return req

    def _prune_inflight_locked(self) -> None:
        """Drop completed requests from the in-flight deque so a long-lived
        service does not retain every grid/result it ever served (callers
        must hold ``self._lock``).

        Head pops are O(1) and cover the common in-order completion case; a
        full sweep runs periodically so one slow head request cannot pin
        the results of everything completed behind it.
        """
        while self._inflight and self._inflight[0].done():
            self._inflight.popleft()
        self._ops_since_sweep += 1
        if self._ops_since_sweep >= 256 and len(self._inflight) >= 256:
            self._inflight = deque(
                r for r in self._inflight if not r.done()
            )
            self._ops_since_sweep = 0

    def submit_many(
        self, items: Iterable[Tuple[StencilSpec, Union[Grid, np.ndarray]]]
    ) -> List[ServeRequest]:
        """Enqueue a burst of ``(spec, grid)`` pairs."""
        return [self.submit(spec, grid) for spec, grid in items]

    def run(
        self,
        spec: StencilSpec,
        grid: Union[Grid, np.ndarray],
        timeout: Optional[float] = None,
        *,
        steps: int = 1,
    ) -> np.ndarray:
        """Submit and block for the result (convenience)."""
        return self.submit(spec, grid, steps=steps).result(timeout)

    def _run_sync(self, req: ServeRequest) -> bool:
        """Synchronous path: the caller thread serves ``req`` as a batch
        of one through :func:`~repro.serve.workers.run_batch`, the same
        lifecycle as a thread shard.  A transient failure retries here,
        on the caller thread, within the request's retry budget: this
        method is its own retry ``place``, and it always takes the
        request."""
        run_batch(
            [req],
            self._local_cache,
            runner=self._sync_runner,
            telemetry=self._telemetry,
            tracer=self.tracer,
            track="sync",
            injector=self._sync_injector,
            place=self._run_sync,
        )
        return True

    # ------------------------------------------------------------------
    def submit_solve(
        self,
        spec: StencilSpec,
        rhs: Union[Grid, np.ndarray],
        *,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        max_iters: int = 100,
        cycle: str = "v",
        smoother: str = "jacobi",
        omega: float = 2.0 / 3.0,
        pre: int = 2,
        post: int = 2,
        coarse_sweeps: int = 8,
        record_history: bool = False,
        history_limit: int = HISTORY_LIMIT,
        timeout: Optional[float] = None,
    ) -> SolveHandle:
        """Run an iterative solve of ``A u = f`` as a solver *session*.

        ``spec`` is the stencil operator ``A`` (zero Dirichlet
        boundaries), ``rhs`` the right-hand side ``f``.  The session runs
        :func:`repro.stencil.multigrid.solve` once, on its own thread,
        through a :class:`~repro.stencil.solvers.PlanExecutor` of its own
        (its own scratch and MAC threads) over the service's own plan
        cache — a V-cycle (``cycle="v"``) or a smoother
        chain (``"jacobi"`` / ``"rb"``) whose operator applications never
        cross the request queue or a worker, on every backend.  Residual
        norms are computed after every iteration and the session exits as
        soon as ``||f - A u|| / ||f|| < tol``.

        Returns a :class:`~repro.serve.sessions.SolveHandle`; its
        ``result()`` is byte-identical to running
        :func:`repro.stencil.multigrid.solve` inline over a
        :class:`~repro.stencil.solvers.PlanExecutor` with the same
        configuration, by construction: it is that call.

        Validation (mirroring the inline solver APIs): ``tol <= 0``,
        ``max_iters < 1``, an ``x0`` whose shape mismatches ``rhs``, an
        unknown ``cycle``/``smoother``, or a non-zero-BC grid all raise
        :class:`ValueError` before the session starts.

        ``timeout`` (seconds; defaults to the service's
        ``default_deadline_s``) deadlines the whole session.  It is
        checked after every iteration: the handle fails with
        :class:`~repro.serve.batching.DeadlineExceeded` at the first
        iteration boundary past it, so a session outlives its deadline by
        at most one iteration.  A failing operator application fails the
        session.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if isinstance(rhs, Grid):
            if rhs.bc is not BoundaryCondition.ZERO:
                raise ValueError(
                    "submit_solve assumes zero Dirichlet boundaries; got "
                    f"a grid with bc={rhs.bc.name}"
                )
            rhs_arr = rhs.data
        else:
            rhs_arr = np.asarray(rhs, dtype=np.float64)
        multigrid.validate_solve_args(
            rhs_arr,
            x0=x0,
            tol=tol,
            max_iters=max_iters,
            cycle=cycle,
            smoother=smoother,
            omega=omega,
            history_limit=history_limit,
        )
        # derive the operator set eagerly so a zero-diagonal spec fails
        # here, synchronously, instead of inside the session thread
        multigrid.multigrid_operators(spec, omega)
        handle = SolveHandle(
            next(self._solve_ids), cycle, rhs_arr.shape
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "cannot submit to a closed StencilService"
                )
            while self._solves and self._solves[0].done():
                self._solves.popleft()
            self._solves.append(handle)
        trace_ids = self.tracer.new_ids() if self.tracer.enabled else None
        budget = timeout if timeout is not None else self._default_deadline_s
        deadline_s = None if budget is None else self._clock() + budget
        opts = dict(
            x0=x0,
            tol=tol,
            max_iters=max_iters,
            cycle=cycle,
            smoother=smoother,
            omega=omega,
            pre=pre,
            post=post,
            coarse_sweeps=coarse_sweeps,
            record_history=record_history,
            history_limit=history_limit,
        )
        threading.Thread(
            target=self._solve_session,
            name=f"spider-solve-{handle.solve_id}",
            args=(handle, spec, rhs_arr, opts, trace_ids, deadline_s),
            daemon=True,
        ).start()
        return handle

    def _solve_session(
        self, handle: SolveHandle, spec, rhs, opts, trace_ids, deadline_s
    ) -> None:
        """Session driver (one daemon thread per in-flight solve).

        Runs :func:`multigrid.solve` once over the service's plan cache,
        through a session-owned :class:`PlanExecutor` whose runner (and
        its MAC threads) closes when the session ends.  After every
        iteration ``on_iteration`` records progress, telemetry
        and the ``solver_iteration`` span, then stops the solve if the
        service has closed or the deadline has passed.  A traced session
        runs inside its own batch context, so the plan compiles and
        executor stages of its operator applications land on its track,
        under its ``solve`` root span.
        """
        clock = self._clock
        track = f"solve-{handle.solve_id}"
        session_start = clock()
        iter_start = [session_start]

        def on_iteration(it: int, residual: float) -> None:
            now = clock()
            handle._note_iteration(it, residual)
            self._telemetry.record_solve_iteration(residual)
            if trace_ids is not None:
                self.tracer.record_span(
                    "solver_iteration",
                    track,
                    iter_start[0],
                    now - iter_start[0],
                    trace_ids[0],
                    parent_id=trace_ids[1],
                    args={
                        "iteration": it,
                        "residual": residual,
                        "cycle": handle.cycle,
                    },
                )
            iter_start[0] = now
            if self._closed:
                raise ServiceClosedError(
                    f"solve {handle.solve_id} stopped after {it} "
                    "iterations: the service closed"
                )
            if deadline_s is not None and now >= deadline_s:
                raise DeadlineExceeded(
                    f"solve {handle.solve_id} missed its deadline after "
                    f"{it} iterations"
                )

        traced = (
            nullcontext()
            if trace_ids is None
            else batch_context(self.tracer, trace_ids[0], trace_ids[1], track)
        )
        executor = PlanExecutor(
            self._local_cache,
            precision=self.precision,
            variant=self.variant,
            mac_threads=self.mac_threads,
        )
        try:
            with traced, executor:
                result = multigrid.solve(
                    spec,
                    rhs,
                    executor=executor,
                    on_iteration=on_iteration,
                    **opts,
                )
        except Exception as exc:
            self._telemetry.record_solve_failure()
            handle._fail(exc)
            return
        self._telemetry.record_solve(
            result.iterations, result.residual, result.converged
        )
        if trace_ids is not None:
            self.tracer.record_span(
                "solve",
                track,
                session_start,
                clock() - session_start,
                trace_ids[0],
                span_id=trace_ids[1],
                args={
                    "iterations": result.iterations,
                    "converged": result.converged,
                },
            )
        handle._resolve(result)

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request — and every solver session —
        has been served.

        Raises :class:`TimeoutError` if the deadline passes first (requests
        keep their in-flight status; drain can be retried).
        """
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            head = None
            with self._lock:
                while self._solves and self._solves[0].done():
                    self._solves.popleft()
                if self._solves:
                    head = self._solves[0]
                else:
                    self._prune_inflight_locked()
                    head = self._inflight[0] if self._inflight else None
            if head is None:
                return
            remaining = None
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise TimeoutError("drain timed out")
            head.wait(remaining)

    def stats(self) -> ServiceStats:
        """Aggregate telemetry + plan-cache counters across all shards
        (``cache`` also counts the service's own cache, where solves run)."""
        local = (self._local_cache.stats(self._sync_runner),)
        if self._pool is None:
            per_worker = caches = local
        else:
            per_worker = tuple(self._pool.cache_stats())
            caches = per_worker + local
        with self._lock:
            self._prune_inflight_locked()
            submitted = self._submitted
            inflight = sum(1 for r in self._inflight if not r.done())
        return ServiceStats(
            workers=self.workers,
            submitted=submitted,
            inflight=inflight,
            telemetry=self._telemetry.snapshot(),
            cache=CacheStats.aggregate(caches),
            per_worker_cache=per_worker,
            backend=self.backend,
            transport=self.transport,
            stages=stage_totals(self.tracer.snapshot()),
            metrics=self.metrics.samples(),
            mac_threads=self.mac_threads,
        )

    def format_report(self) -> str:
        """Human-readable stats block (see :func:`format_service_report`)."""
        return format_service_report(self.stats())

    # -- tracing --------------------------------------------------------
    def trace_spans(self):
        """All spans recorded so far (start-ordered tuple)."""
        return self.tracer.snapshot()

    def export_trace(self, path: str) -> int:
        """Write the recorded spans as Chrome ``trace_event`` JSON
        (loadable in Perfetto / ``chrome://tracing``); returns the number
        of exported spans."""
        spans = self.tracer.snapshot()
        write_chrome_trace(path, spans)
        return len(spans)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests and shut the workers down (idempotent).

        Pending requests are drained before the worker threads exit.
        Running solve sessions stop at their next iteration boundary with
        :class:`ServiceClosedError`; ``close`` waits for them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            solves = list(self._solves)
        if self._pool is not None:
            self._pool.close(join=True)
        # no session thread outlives the service; each closes its own
        # runner on the way out
        for handle in solves:
            handle.wait()
        # plans (and their stats) stay resident; parked MAC helper
        # threads do not outlive the service
        self._sync_runner.close()

    def __enter__(self) -> "StencilService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        self.close()
