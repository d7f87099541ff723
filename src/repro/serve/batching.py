"""Request handles and the same-plan batch queue.

The serving runtime's second throughput lever (after plan caching) is
*batch fusion*: requests that resolve to the same compile plan and grid
shape can be stacked along a batch axis and pushed through one fused
:meth:`~repro.core.executor.SpiderExecutor.sweep` pass, amortizing the
per-sweep Python and GEMM-launch overhead across the whole batch — the same
phase-amortization idea as the SUMMA compute model's overlapped pipeline
(SNIPPETS.md).

:class:`BatchQueue` never holds a request back to wait for company: its
consumer asks for a batch only once it is free to run it (a thread shard
after it finishes a batch, a process feeder after it ships one), and
:meth:`~BatchQueue.get_batch` returns at once.  So a batch fuses exactly
what arrived while its consumer was busy, and an idle shard serves a lone
request immediately — the way Clipper (Crankshaw et al., NSDI 2017)
batches: a replica takes what queued up while it worked.  Requests with
*different* keys never share a batch — and because the sweep-aware
:class:`~repro.serve.plan_cache.PlanKey` carries ``steps``, multi-sweep
requests coalesce by ``(plan, steps)``: a batch only ever fuses requests
advancing the same plan by the same number of sweeps, so the whole batch
can ride one temporal super-sweep.  Keys are served oldest-pending-head
first, so sustained hot traffic cannot starve a colder key: once its
request is the oldest pending one, its batch goes next.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from ..stencil.grid import Grid
from ..stencil.spec import StencilSpec
from .plan_cache import PlanKey

__all__ = ["BatchQueue", "DeadlineExceeded", "ServeRequest"]


class DeadlineExceeded(TimeoutError):
    """A request (or solver session) outlived its deadline.

    Raised from ``result()`` when the request's deadline passed before its
    batch ran.  Whoever takes a batch checks it: a thread shard before it
    runs the batch, a process feeder before it ships it, a retry before
    it re-places a request, and the sync path before it runs.  Deadlines
    are enforced *server-side*, so an expired request stops consuming
    worker time instead of merely timing out its caller's wait.  A solver
    session raises it at its first iteration boundary past the deadline.
    Never retried: a deadline is a statement that the answer has stopped
    being useful.
    """


class ServeRequest:
    """One in-flight request: queue item and caller-facing future in one.

    Created by :meth:`StencilService.submit`; callers block on
    :meth:`result` (or poll :meth:`done`) and the owning worker resolves or
    fails it exactly once.
    """

    def __init__(
        self,
        req_id: int,
        spec: StencilSpec,
        grid: Grid,
        key: PlanKey,
        submitted_s: float,
        *,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.req_id = req_id
        self.spec = spec
        self.grid = grid
        self.key = key
        self.submitted_s = submitted_s
        #: absolute monotonic-clock deadline; whoever takes the request's
        #: batch past it fails the future with :class:`DeadlineExceeded`
        self.deadline_s = deadline_s
        #: re-enqueues left after a transient failure (worker crash, slab
        #: error); ``None`` until the owning pool stamps its retry budget
        #: on first submit.  Safe to retry at all because a request is a
        #: pure function of (plan, grid) — re-execution is byte-identical.
        self.retries_left: Optional[int] = None
        #: (trace_id, root span_id) when the owning service traces this
        #: request; workers parent their spans under the root span
        self.trace: Optional[tuple] = None
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.batch_size: Optional[int] = None
        self._event = threading.Event()
        self._done_lock = threading.Lock()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    # -- worker side ----------------------------------------------------
    # _resolve/_fail are idempotent (first completion wins): retry can
    # transiently leave two copies of a request in flight — e.g. a batch
    # presumed lost on a dead shard whose result was already in the pipe —
    # and the duplicate's completion must be a no-op, not an overwrite.
    def _resolve(
        self,
        value: np.ndarray,
        *,
        batch_size: int,
        started_s: float,
        finished_s: float,
    ) -> None:
        with self._done_lock:
            if self._event.is_set():
                return
            self._result = value
            self.batch_size = batch_size
            self.started_s = started_s
            self.finished_s = finished_s
            self._event.set()

    def _fail(self, exc: BaseException, *, started_s: float, finished_s: float) -> None:
        with self._done_lock:
            if self._event.is_set():
                return
            self._error = exc
            self.started_s = started_s
            self.finished_s = finished_s
            self._event.set()

    def expired(self, now: float) -> bool:
        """True once the request's deadline (if any) has passed."""
        return self.deadline_s is not None and now >= self.deadline_s

    @property
    def steps(self) -> int:
        """Sweeps this request advances — read from the sweep-aware plan
        key, the single source of truth the workers execute by (the
        telemetry layer sums it into the sweeps/s accounting)."""
        return self.key.steps

    # -- caller side ----------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        return self._event.is_set() and self._error is not None

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until served; returns the output grid or re-raises the
        worker-side exception."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.req_id} not served within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-resolve latency (None while in flight)."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Time spent queued before its batch started executing."""
        if self.started_s is None:
            return None
        return self.started_s - self.submitted_s


class BatchQueue:
    """Queue that groups pending requests by plan key.

    Parameters
    ----------
    max_batch_size:
        Hard cap on fused batch occupancy.

    Each shard has one consumer, which calls :meth:`get_batch` only once
    it is free to run (or ship) what it gets back.
    """

    def __init__(self, *, max_batch_size: int = 8) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.max_batch_size = int(max_batch_size)
        # per-key FIFOs, so a put and a batch extraction are O(1)/O(batch)
        # instead of scanning every pending request
        self._by_key: Dict[PlanKey, Deque[ServeRequest]] = {}
        self._pending_count = 0
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return self._pending_count

    def put(self, req: ServeRequest) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed BatchQueue")
            fifo = self._by_key.get(req.key)
            if fifo is None:
                fifo = deque()
                self._by_key[req.key] = fifo
            fifo.append(req)
            self._pending_count += 1
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; wakes the consumer so it can drain."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def get_batch(self) -> Optional[List[ServeRequest]]:
        """Next batch, or None once closed and drained.

        Blocks only while nothing is pending.  Returns the oldest pending
        request together with the requests of the *same* plan key queued
        behind it, up to ``max_batch_size``.  Deadlines are left to the
        consumer, which expires the batch it pulled before running it.
        """
        with self._cond:
            while not self._pending_count:
                if self._closed:
                    return None
                self._cond.wait()
            key, fifo = min(
                self._by_key.items(), key=lambda kv: kv[1][0].submitted_s
            )
            batch = [
                fifo.popleft()
                for _ in range(min(len(fifo), self.max_batch_size))
            ]
            if not fifo:
                del self._by_key[key]
            self._pending_count -= len(batch)
            return batch
