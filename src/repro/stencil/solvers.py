"""Iterative solvers driven by plan-cached stencil executors.

The application layer the paper's introduction motivates (fluid dynamics,
earth modeling, wave equations) consumes stencils through iterative
schemes.  These drivers accept *any* executor with the
``(spec, grid) -> ndarray`` signature — but the default is no longer the
naive reference path: :class:`PlanExecutor` resolves
``(spec, precision, grid shape)`` through a
:class:`~repro.serve.plan_cache.PlanCache`, so every operator application
inside a solve runs the same fused compile plan the serving stack runs.
A served solver session (:meth:`repro.serve.StencilService.submit_solve`)
is a solve over a ``PlanExecutor`` on the service's own plan cache, so
its results are byte-identical to an inline solve, not merely close.

Pass :func:`~repro.stencil.reference.vectorized_stencil` explicitly to get
the old reference behaviour (solver-level tests still do, as long-horizon
equivalence tests).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from .grid import BoundaryCondition, Grid
from .spec import ShapeType, StencilSpec

__all__ = [
    "PlanExecutor",
    "SolveResult",
    "default_plan_executor",
    "jacobi_poisson",
    "power_iteration",
    "richardson",
    "validate_iteration_args",
]

Executor = Callable[[StencilSpec, Grid], np.ndarray]

#: default ring bound on recorded residual histories — long solves keep
#: the most recent window instead of growing without bound
HISTORY_LIMIT = 512


class PlanExecutor:
    """Executor that resolves ``(spec, precision, shape)`` through a
    :class:`~repro.serve.plan_cache.PlanCache`.

    The callable contract matches :data:`Executor`, so any solver in this
    module (and :mod:`repro.stencil.multigrid`) can run through cached
    fused plans by default.  Each call runs ``plan.executor.run(grid)``,
    a one-grid ``sweep``: the same call
    :func:`repro.serve.workers.execute_serve_batch` makes for a coalesced
    batch, so a sequential solver chain driven by this executor is
    byte-identical to the same chain served through
    :class:`~repro.serve.StencilService` on any backend.

    Parameters mirror the service: ``precision`` / ``variant`` select the
    compile configuration, ``cache`` shares an existing plan cache
    (otherwise a private one is created with ``cache_capacity`` entries).

    The executor owns a :class:`~repro.core.executor.SweepRunner` with
    ``mac_threads`` threads (``None`` = adaptive): its scratch and MAC
    pool, which :meth:`close` stops.  Threads calling one executor take
    turns on its runner; concurrent solves that should overlap each use
    their own ``PlanExecutor`` over a shared cache.  ``mac_threads=1``
    keeps the MAC serial — results are bit-identical for every thread
    count, so this only trades latency for thread hygiene.
    """

    def __init__(
        self,
        cache=None,
        *,
        precision: str = "exact",
        variant=None,
        device=None,
        cache_capacity: int = 16,
        mac_threads: Optional[int] = None,
    ) -> None:
        # imports are local so the stencil layer has no import-time
        # dependency on repro.serve / repro.core (which import back into
        # stencil submodules)
        from ..core.executor import SweepRunner
        from ..core.pipeline import SpiderVariant
        from ..serve.plan_cache import PlanCache
        from ..sptc.mma import MmaPrecision

        self.precision = MmaPrecision.validate(precision)
        self.variant = variant if variant is not None else SpiderVariant.SPTC_CO
        if cache is None:
            kwargs = dict(capacity=cache_capacity)
            if device is not None:
                kwargs["device"] = device
            cache = PlanCache(**kwargs)
        self.cache = cache
        self.runner = SweepRunner(mac_threads)

    def plan_for(self, spec: StencilSpec, grid_shape: Sequence[int]):
        """The cached :class:`~repro.core.pipeline.CompilePlan` this
        executor runs ``spec`` with at ``grid_shape`` (compiled on first
        use)."""
        from ..serve.plan_cache import plan_key_for

        key = plan_key_for(
            spec, self.variant, self.precision, tuple(grid_shape)
        )
        return self.cache.get_or_build(key, spec=spec)

    def __call__(self, spec: StencilSpec, grid) -> np.ndarray:
        if not isinstance(grid, Grid):
            grid = Grid(np.asarray(grid))
        return self.plan_for(spec, grid.shape).executor.run(
            grid, runner=self.runner
        )

    def stats(self):
        """Plan-cache counters (hits/misses/evictions/workspace bytes,
        this executor's scratch included)."""
        return self.cache.stats(self.runner)

    def close(self) -> None:
        """Stop the runner's MAC threads (plans stay resident; a later
        call starts them again)."""
        self.runner.close()

    def __enter__(self) -> "PlanExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


_DEFAULT_EXECUTOR: Optional[PlanExecutor] = None
_DEFAULT_EXECUTOR_LOCK = threading.Lock()


def default_plan_executor() -> PlanExecutor:
    """The process-wide shared :class:`PlanExecutor` solvers fall back to.

    Created on first use with a serial MAC (``mac_threads=1``): results
    are bit-identical for every thread count, and a module-level default
    must never leave parked helper threads behind after a solve returns.
    """
    global _DEFAULT_EXECUTOR
    with _DEFAULT_EXECUTOR_LOCK:
        if _DEFAULT_EXECUTOR is None:
            _DEFAULT_EXECUTOR = PlanExecutor(
                cache_capacity=16, mac_threads=1
            )
        return _DEFAULT_EXECUTOR


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``residual_history`` is opt-in (``record_history=True``) and
    ring-bounded to the solver's ``history_limit`` most recent iterations;
    ``residual`` and ``iterations`` are always exact regardless.
    """

    solution: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_history: List[float] = field(default_factory=list)


def validate_iteration_args(
    tol: float, max_iter: int, *, name: str = "max_iter"
) -> None:
    """Shared guard for iterative-solver knobs: raises :class:`ValueError`
    on ``tol <= 0`` (NaN included) or ``max_iter < 1``."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"{name} must be >= 1, got {max_iter}")


def _history_buffer(
    record_history: bool, history_limit: int
) -> Optional[Deque[float]]:
    if history_limit < 1:
        raise ValueError(f"history_limit must be >= 1, got {history_limit}")
    return deque(maxlen=int(history_limit)) if record_history else None


def _neighbor_average_spec(dims: int) -> StencilSpec:
    """The Jacobi neighbour-averaging stencil (star, r = 1)."""
    side = 3
    w = np.zeros((side,) * dims)
    centre = (1,) * dims
    for axis in range(dims):
        for off in (-1, 1):
            idx = list(centre)
            idx[axis] += off
            w[tuple(idx)] = 1.0 / (2 * dims)
    return StencilSpec(ShapeType.STAR, dims, 1, w, "jacobi")


def jacobi_poisson(
    rhs: np.ndarray,
    *,
    executor: Optional[Executor] = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    record_history: bool = False,
    history_limit: int = HISTORY_LIMIT,
) -> SolveResult:
    """Solve the Poisson problem ``-Δu = f`` (unit spacing, zero BC) by
    Jacobi iteration: ``u <- S u + f / (2d)`` with S the neighbour average.

    ``executor`` applies S; defaults to the shared plan-cached executor
    (:func:`default_plan_executor`), so the whole solve runs through the
    SpTC fast path.  Pass ``vectorized_stencil`` for the reference chain.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2, 3):
        raise ValueError("rhs must be 1D/2D/3D")
    validate_iteration_args(tol, max_iter)
    history = _history_buffer(record_history, history_limit)
    executor = executor or default_plan_executor()
    spec = _neighbor_average_spec(rhs.ndim)
    scale = 1.0 / (2 * rhs.ndim)

    u = np.zeros_like(rhs)
    rhs_norm = max(float(np.linalg.norm(rhs)), np.finfo(np.float64).eps)
    residual = np.inf
    for it in range(1, max_iter + 1):
        u_new = executor(spec, Grid(u, BoundaryCondition.ZERO)) + scale * rhs
        residual = float(np.linalg.norm(u_new - u)) / rhs_norm
        u = u_new
        if history is not None:
            history.append(residual)
        if residual < tol:
            return SolveResult(u, it, residual, True, list(history or ()))
    return SolveResult(u, max_iter, residual, False, list(history or ()))


def richardson(
    rhs: np.ndarray,
    operator_spec: StencilSpec,
    *,
    omega: float = 0.25,
    executor: Optional[Executor] = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    record_history: bool = False,
    history_limit: int = HISTORY_LIMIT,
) -> SolveResult:
    """Richardson iteration ``u <- u + ω (f - A u)`` for a stencil operator
    ``A`` given as a :class:`StencilSpec` (zero boundaries)."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if omega <= 0:
        raise ValueError("omega must be positive")
    validate_iteration_args(tol, max_iter)
    history = _history_buffer(record_history, history_limit)
    executor = executor or default_plan_executor()
    u = np.zeros_like(rhs)
    rhs_norm = max(float(np.linalg.norm(rhs)), np.finfo(np.float64).eps)
    residual = np.inf
    for it in range(1, max_iter + 1):
        au = executor(operator_spec, Grid(u, BoundaryCondition.ZERO))
        r = rhs - au
        residual = float(np.linalg.norm(r)) / rhs_norm
        if history is not None:
            history.append(residual)
        if residual < tol:
            return SolveResult(u, it, residual, True, list(history or ()))
        u = u + omega * r
    return SolveResult(u, max_iter, residual, False, list(history or ()))


def power_iteration(
    spec: StencilSpec,
    shape,
    *,
    executor: Optional[Executor] = None,
    iters: int = 100,
    seed: int = 0,
) -> float:
    """Spectral-radius estimate (dominant |eigenvalue|) of the stencil
    operator under zero boundaries.

    Useful for stability limits of explicit schemes (e.g. the Jacobi
    smoothing factor ``cos(pi/(n+1))`` that the tests check against).
    Returns the norm-growth ratio, which converges to the dominant
    magnitude even when ``±λ`` pairs coexist (as they do for the Jacobi
    operator, whose spectrum is symmetric).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    executor = executor or default_plan_executor()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = executor(spec, Grid(v, BoundaryCondition.ZERO))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        lam = norm  # ||A v|| with ||v|| = 1
        v = w / norm
    return lam
