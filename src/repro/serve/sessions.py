"""Solver sessions: iterative solves as first-class serving futures.

A :meth:`~repro.serve.StencilService.submit_solve` call is not one
request — it is a *session*: one :func:`repro.stencil.multigrid.solve`
call on its own daemon thread, whose operator applications (smoothing
sweeps, residuals, restrictions, prolongations) run through the
service's own plan cache, never through the request queue or a worker.
Residual norms after every iteration drive convergence-aware early exit,
and the iteration boundary is where a session notices its deadline or a
closed service.

:class:`SolveHandle` is the future the caller holds: ``result()`` blocks
for the final :class:`~repro.stencil.solvers.SolveResult`, while
``iterations`` / ``residual`` expose live progress while the session is
still running.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from ..stencil.solvers import SolveResult

__all__ = ["SolveHandle"]


class SolveHandle:
    """Future-like handle for one in-flight solver session."""

    __slots__ = (
        "solve_id",
        "cycle",
        "shape",
        "_event",
        "_result",
        "_exception",
        "_iterations",
        "_residual",
    )

    def __init__(
        self, solve_id: int, cycle: str, shape: Tuple[int, ...]
    ) -> None:
        self.solve_id = solve_id
        self.cycle = cycle
        self.shape = tuple(shape)
        self._event = threading.Event()
        self._result: Optional[SolveResult] = None
        self._exception: Optional[BaseException] = None
        self._iterations = 0
        self._residual = float("inf")

    # -- progress (updated by the session driver, racy-read safe) -------
    @property
    def iterations(self) -> int:
        """Iterations completed so far (exact once :meth:`done`)."""
        return self._iterations

    @property
    def residual(self) -> float:
        """Most recent relative residual norm (``inf`` before the first
        iteration completes)."""
        return self._residual

    def _note_iteration(self, iteration: int, residual: float) -> None:
        self._iterations = int(iteration)
        self._residual = float(residual)

    # -- completion ------------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the session finishes; True if it did in time."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> SolveResult:
        """The final :class:`SolveResult` (blocks; re-raises a failure)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"solve {self.solve_id} did not finish within {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The session's failure, or None if it succeeded (blocks)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"solve {self.solve_id} did not finish within {timeout}s"
            )
        return self._exception

    def _resolve(self, result: SolveResult) -> None:
        self._result = result
        self._iterations = result.iterations
        self._residual = result.residual
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()
