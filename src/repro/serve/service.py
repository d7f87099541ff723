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
from dataclasses import replace as _dc_replace
from typing import Deque, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.costmodel import TunedPlan, TunedProfile
from ..core.pipeline import SpiderVariant
from ..gpu.device import A100_80GB_PCIE, DeviceSpec
from ..sptc.macpool import resolve_mac_threads
from ..sptc.mma import MmaPrecision
from ..stencil import multigrid
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.solvers import HISTORY_LIMIT, SolveResult
from ..stencil.spec import StencilSpec
from .batching import DeadlineExceeded, ServeRequest
from .faults import FaultInjector, FaultPlan
from .sessions import SolveHandle
from .metrics import MetricsRegistry
from .plan_cache import CacheStats, PlanCache, plan_key_for
from .telemetry import ServiceStats, ServiceTelemetry, format_service_report
from .tracing import SpanRecorder, stage_totals, write_chrome_trace
from .workers import (
    TEMPORAL_MODES,
    WORKER_TRANSPORTS,
    RetryPolicy,
    WorkerPool,
    _fail_all,
    is_transient_failure,
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
    max_wait_s:
        Batching deadline: how long a pending request may wait for
        co-batchable arrivals (bounds added latency under light load).
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
    temporal_mode:
        How multi-sweep requests (``submit(..., steps=t)``) execute their
        temporal super-sweep: ``"exact"`` (default) chains ``t`` ordered
        sweeps inside the worker — byte-identical to ``t`` sequential
        round-trips — while ``"fused"`` runs the ``t``-fold self-convolved
        kernel as one fused GEMM plus exact boundary-ring repair (interior
        deviates by at most the last ulp).  See
        :mod:`repro.serve.workers`.
    trace:
        Enable span tracing (off by default — the recorder exists either
        way but records nothing while disabled, so the cost of leaving
        this off is one attribute check per would-be span).  While on,
        every request is traced submit → queue/coalesce → pack → ipc →
        plan_compile/mac → unpack → resolve, across process boundaries;
        harvest with :meth:`trace_spans` / :meth:`export_trace`.
    mac_threads:
        Per-shard ordered-MAC thread budget.  ``None`` (default) resolves
        adaptively — ``REPRO_MAC_THREADS`` or ``cpu_count // workers``,
        so N shards never oversubscribe the machine; the sync fallback
        gets the whole machine.  Results are bit-identical for every
        value (column blocks have independent per-element reductions);
        the effective count is exposed as :attr:`mac_threads`, as a
        ``repro_serve_mac_threads`` gauge, and in the service report.
    mac_col_block:
        Ordered-MAC column-block width plan parameter (``None`` = the
        operator default, see
        :class:`~repro.sptc.fused.FusedStencilOperator`).
    tuned_profile:
        A ``repro tune`` artifact to load at startup: a
        :class:`~repro.core.costmodel.TunedProfile`, its dict form, or a
        path to the JSON file.  Precedence is strict and per-knob:
        **explicit constructor arguments beat the profile, the profile
        beats built-in defaults**.  ``temporal_mode`` / ``max_batch_size``
        left at ``None`` take the profile's values (else ``"exact"`` / 8);
        per-plan MAC knobs apply only where ``mac_threads`` /
        ``mac_col_block`` were not given explicitly.  Results stay
        bit-identical for every profile — tuned knobs steer parallelism
        and batching, never numerics.  The active profile is visible in
        :meth:`stats` and the service report.
    retry_policy:
        The self-healing budget knobs (:class:`repro.serve.workers.RetryPolicy`):
        per-request retry budget, worker restart budget and backoff, slab
        degradation threshold, inline fallback, and per-session solve
        resume budget.  ``None`` selects the defaults (recovery on);
        ``RetryPolicy.disabled()`` restores fail-fast semantics.
    default_deadline_s:
        Service-wide default request deadline in seconds (``None`` = no
        deadline).  ``submit(..., timeout=)`` overrides it per request;
        expired requests fail with :class:`~repro.serve.batching.DeadlineExceeded`
        at coalescing or dispatch instead of occupying workers.
    faults:
        Deterministic fault-injection plan for chaos testing — a
        :class:`~repro.serve.faults.FaultPlan`, its dict form, inline
        JSON, or a path to a JSON file.  When ``None`` the plan armed via
        the ``REPRO_FAULTS`` environment variable (if any) is loaded, so
        whole test suites can run under injected chaos unmodified.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_batch_size: Optional[int] = None,
        max_wait_s: float = 0.002,
        cache_capacity: int = 64,
        precision: str = MmaPrecision.EXACT,
        variant: SpiderVariant = SpiderVariant.SPTC_CO,
        device: DeviceSpec = A100_80GB_PCIE,
        backend: str = "thread",
        transport: str = "shm",
        temporal_mode: Optional[str] = None,
        trace: bool = False,
        mac_threads: Optional[int] = None,
        mac_col_block: Optional[int] = None,
        tuned_profile: Union[TunedProfile, dict, str, None] = None,
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
        profile = tuned_profile
        if isinstance(profile, str):
            profile = TunedProfile.load(profile)
        elif isinstance(profile, dict):
            profile = TunedProfile.from_dict(profile)
        self.tuned_profile: Optional[TunedProfile] = profile
        tuned_plans: Tuple[TunedPlan, ...] = ()
        if profile is not None:
            # per-knob precedence: a None argument adopts the profile's
            # value; an explicit argument masks exactly that knob
            if temporal_mode is None:
                temporal_mode = profile.temporal_mode
            if max_batch_size is None:
                max_batch_size = profile.max_batch_size
            tuned_plans = profile.plans
            if mac_threads is not None or mac_col_block is not None:
                tuned_plans = tuple(
                    _dc_replace(
                        p,
                        mac_threads=(
                            None if mac_threads is not None else p.mac_threads
                        ),
                        mac_col_block=(
                            None
                            if mac_col_block is not None
                            else p.mac_col_block
                        ),
                    )
                    for p in tuned_plans
                )
        if temporal_mode is None:
            temporal_mode = "exact"
        if max_batch_size is None:
            max_batch_size = 8
        self._tuned_plans = tuned_plans
        if transport not in WORKER_TRANSPORTS:
            raise ValueError(
                f"unsupported transport {transport!r}; "
                f"choose one of {WORKER_TRANSPORTS}"
            )
        if temporal_mode not in TEMPORAL_MODES:
            raise ValueError(
                f"unsupported temporal_mode {temporal_mode!r}; "
                f"choose one of {TEMPORAL_MODES}"
            )
        self.precision = MmaPrecision.validate(precision)
        self.variant = variant
        self.device = device
        self.backend = backend if workers > 0 else "sync"
        self.transport = (
            transport if (workers > 0 and backend == "process") else "local"
        )
        self.temporal_mode = temporal_mode
        self._policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._default_deadline_s = default_deadline_s
        fault_plan = FaultPlan.coerce(faults)
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
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
        self._sync_cache: Optional[PlanCache] = None
        if workers > 0:
            self._pool = WorkerPool(
                workers,
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
                cache_capacity=cache_capacity,
                device=device,
                telemetry=self._telemetry,
                backend=backend,
                transport=transport,
                temporal_mode=temporal_mode,
                tracer=self.tracer,
                metrics=self.metrics,
                mac_threads=mac_threads,
                mac_col_block=mac_col_block,
                tuned_plans=tuned_plans,
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
            self._sync_cache = PlanCache(
                capacity=cache_capacity,
                device=device,
                mac_threads=self.mac_threads,
                mac_col_block=mac_col_block,
                tuned_plans=tuned_plans,
            )
            self._sync_cache.bind_metrics(self.metrics)
        self.metrics.gauge(
            "repro_serve_mac_threads",
            "Effective ordered-MAC threads per worker shard.",
        ).set(float(self.mac_threads))
        self.metrics.gauge(
            "repro_serve_tuned_plans",
            "Per-plan knob overrides active from the loaded tuned profile.",
        ).set(float(len(tuned_plans)))

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
        the worker (no per-sweep queue round-trips); the result is
        byte-identical to submitting the grid ``steps`` times sequentially
        under the default ``temporal_mode="exact"``.  Requests coalesce by
        ``(plan, steps)``: only same-plan requests advancing the same
        number of sweeps share a batch.

        ``timeout`` attaches a deadline (seconds from now; defaults to the
        service's ``default_deadline_s``): a request still unserved when it
        expires fails with :class:`~repro.serve.batching.DeadlineExceeded`
        — shed at the coalescing queue or at dispatch rather than occupying
        a worker.  A request whose execution already started runs to
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
            self._sync_cache,
            temporal_mode=self.temporal_mode,
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
        boundaries), ``rhs`` the right-hand side ``f``.  The session
        decomposes into per-iteration operator submits — smoothing sweeps,
        residuals, full-weighting restriction and bilinear prolongation
        for ``cycle="v"``, or a single smoother chain for
        ``cycle="jacobi"`` / ``"rb"`` — each riding the ordinary
        coalescing/sharding/shm path, so concurrent sessions (including
        different multigrid levels of different solves) interleave their
        applications in shared batches.  Residual norms are computed
        parent-side after every iteration and the session exits as soon as
        ``||f - A u|| / ||f|| < tol``.

        Returns a :class:`~repro.serve.sessions.SolveHandle`; its
        ``result()`` is byte-identical to running
        :func:`repro.stencil.multigrid.solve` inline over a
        plan-cached executor with the same configuration — same operator
        sequence, same fused plans, same parent-side glue.

        Validation (mirroring the inline solver APIs): ``tol <= 0``,
        ``max_iters < 1``, an ``x0`` whose shape mismatches ``rhs``, an
        unknown ``cycle``/``smoother``, or a non-zero-BC grid all raise
        :class:`ValueError` before any request is enqueued.

        ``timeout`` (seconds; defaults to the service's
        ``default_deadline_s``) deadlines the whole session: every
        per-iteration operator submit inherits the *remaining* budget, and
        the handle fails with
        :class:`~repro.serve.batching.DeadlineExceeded` once it runs out —
        a session never outlives its deadline by one iteration.

        A session is also *self-healing*: if an operator application fails
        transiently (worker crash, slab error, injected fault) after
        iteration ``k`` completed, the driver resumes the solve from the
        checkpointed iterate ``u_k`` — byte-identical to the uninterrupted
        trajectory, because iteration ``k+1`` depends only on ``u_k`` and
        ``f`` — up to ``RetryPolicy.solve_retries`` times per session.
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

        The driver owns the session's self-healing: ``on_state``
        checkpoints the last completed iterate, and a transient failure
        (within ``RetryPolicy.solve_retries``) restarts
        :func:`multigrid.solve` with ``x0`` = that checkpoint and the
        *remaining* iteration budget.  Because iteration ``k+1`` is a pure
        function of ``u_k`` and ``f``, the resumed trajectory — and the
        stitched iteration count / residual history — is byte-identical to
        an uninterrupted run.
        """
        clock = self._clock
        session_start = clock()
        iter_start = [session_start]
        # iterations completed in *prior* (interrupted) runs, and the last
        # checkpointed iterate / per-run progress of the current one
        base = [0]
        state = {"u": None, "run_it": 0}
        run_hist: List[float] = []
        prior_hist: List[float] = []
        resumes_left = self._policy.solve_retries

        def on_iteration(it: int, residual: float) -> None:
            now = clock()
            handle._note_iteration(base[0] + it, residual)
            self._telemetry.record_solve_iteration(residual)
            run_hist.append(residual)
            if trace_ids is not None:
                self.tracer.record_span(
                    "solver_iteration",
                    f"solve-{handle.solve_id}",
                    iter_start[0],
                    now - iter_start[0],
                    trace_ids[0],
                    parent_id=trace_ids[1],
                    args={
                        "iteration": base[0] + it,
                        "residual": residual,
                        "cycle": handle.cycle,
                    },
                )
            iter_start[0] = now

        def on_state(it: int, u: np.ndarray) -> None:
            # checkpoint the completed iterate for byte-identical resume
            state["u"] = u
            state["run_it"] = it

        def apply(s, g):
            # every operator application is an ordinary served request —
            # this is what makes sessions batch against each other.  Under
            # a session deadline every submit inherits the remaining
            # budget, so the per-request machinery sheds expired work.
            if deadline_s is None:
                return self.submit(s, g).result()
            remaining = deadline_s - clock()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"solve {handle.solve_id} missed its deadline after "
                    f"{base[0] + state['run_it']} iterations"
                )
            return self.submit(s, g, timeout=remaining).result()

        while True:
            run_opts = dict(opts)
            if state["u"] is not None:
                run_opts["x0"] = state["u"]
                run_opts["max_iters"] = opts["max_iters"] - base[0]
            try:
                result: SolveResult = multigrid.solve(
                    spec,
                    rhs,
                    executor=apply,
                    on_iteration=on_iteration,
                    on_state=on_state,
                    **run_opts,
                )
            except Exception as exc:
                completed = base[0] + state["run_it"]
                can_resume = (
                    is_transient_failure(exc)
                    and resumes_left > 0
                    and opts["max_iters"] - completed >= 1
                    and not isinstance(exc, DeadlineExceeded)
                )
                if not can_resume:
                    self._telemetry.record_solve_failure()
                    handle._fail(exc)
                    return
                resumes_left -= 1
                base[0] = completed
                state["run_it"] = 0
                prior_hist.extend(run_hist)
                run_hist.clear()
                self._telemetry.record_solve_resume()
                continue
            break
        if base[0] > 0:
            # stitch the interrupted runs back into one seamless result
            full_hist = prior_hist + list(result.residual_history)
            if opts["record_history"]:
                full_hist = full_hist[-int(opts["history_limit"]):]
            else:
                full_hist = []
            result = _dc_replace(
                result,
                iterations=base[0] + result.iterations,
                residual_history=full_hist,
            )
        self._telemetry.record_solve(
            result.iterations, result.residual, result.converged
        )
        if trace_ids is not None:
            self.tracer.record_span(
                "solve",
                f"solve-{handle.solve_id}",
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
        """Aggregate telemetry + plan-cache counters across all shards."""
        if self._pool is not None:
            per_worker = tuple(self._pool.cache_stats())
        else:
            assert self._sync_cache is not None
            per_worker = (self._sync_cache.stats(),)
        with self._lock:
            self._prune_inflight_locked()
            submitted = self._submitted
            inflight = sum(1 for r in self._inflight if not r.done())
        return ServiceStats(
            workers=self.workers,
            submitted=submitted,
            inflight=inflight,
            telemetry=self._telemetry.snapshot(),
            cache=CacheStats.aggregate(per_worker),
            per_worker_cache=per_worker,
            backend=self.backend,
            transport=self.transport,
            stages=stage_totals(self.tracer.snapshot()),
            metrics=self.metrics.samples(),
            mac_threads=self.mac_threads,
            tuned_profile=self._tuned_profile_summary(),
        )

    def _tuned_profile_summary(self) -> Optional[dict]:
        """Pure-data view of the active tuned profile (None if untuned)."""
        if self.tuned_profile is None:
            return None
        meta = self.tuned_profile.meta
        return {
            "plans": len(self._tuned_plans),
            "temporal_mode": self.tuned_profile.temporal_mode,
            "max_batch_size": self.tuned_profile.max_batch_size,
            "source": meta.get("source"),
            "winner": meta.get("winner"),
        }

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
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._pool is not None:
            self._pool.close(join=True)
        if self._sync_cache is not None:
            # plans (and their stats) stay resident; parked MAC helper
            # threads do not outlive the service
            self._sync_cache.release_pools()

    def __enter__(self) -> "StencilService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        self.close()
