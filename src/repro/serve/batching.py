"""Request handles and the same-plan coalescing batch queue.

The serving runtime's second throughput lever (after plan caching) is
*batch fusion*: requests that resolve to the same compile plan and grid
shape can be stacked along a batch axis and pushed through one fused
:meth:`~repro.core.executor.SpiderExecutor.run_batch` pass, amortizing the
per-sweep Python and GEMM-launch overhead across the whole batch — the same
phase-amortization idea as the SUMMA compute model's overlapped pipeline
(SNIPPETS.md).

:class:`BatchQueue` implements the classic coalescing policy: a batch is
released as soon as ``max_batch_size`` same-key requests are pending, or
when the oldest pending request has waited ``max_wait_s`` (the deadline
bounds added latency under light load).  Requests with *different* keys
never share a batch — and because the sweep-aware
:class:`~repro.serve.plan_cache.PlanKey` carries ``steps``, multi-sweep
requests coalesce by ``(plan, steps)``: a batch only ever fuses requests
advancing the same plan by the same number of sweeps, so the whole batch
can ride one temporal super-sweep.  Keys are served oldest-pending-head first — an
overdue cold key always beats a hot key's next full batch, so sustained
hot traffic delays a cold request by at most one coalescing window plus
one batch service time — but while the oldest head is still inside its
window, any key that already has a full batch releases immediately.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, List, Optional

import numpy as np

from ..stencil.grid import Grid
from ..stencil.spec import StencilSpec
from .plan_cache import PlanKey

__all__ = ["BatchQueue", "DeadlineExceeded", "ServeRequest"]


class DeadlineExceeded(TimeoutError):
    """A request (or solver session) outlived its deadline.

    Raised from ``result()`` when the coalescing queue or a dispatch path
    expired the future — deadlines are enforced *server-side*, so an
    expired request stops consuming worker time instead of merely timing
    out its caller's wait.  A solver session raises it at its first
    iteration boundary past the deadline.  Never retried: a deadline is a
    statement that the answer has stopped being useful.
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
        #: absolute monotonic-clock deadline; the queue and dispatch paths
        #: expire the future with :class:`DeadlineExceeded` once passed
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
    """Single-consumer queue that coalesces same-plan requests.

    Parameters
    ----------
    max_batch_size:
        Hard cap on fused batch occupancy.
    max_wait_s:
        How long the oldest pending request may wait for co-batchable
        arrivals before its (possibly singleton) batch is released.
    clock:
        Monotonic time source (injectable for tests).

    Exactly one worker may consume from a queue: :meth:`get_batch` leaves
    pending requests visible while it waits out the coalescing deadline.
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 8,
        max_wait_s: float = 0.002,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self._clock = clock
        self._coalesced_batches = None
        self._coalesced_requests = None
        self._coalesced_sweeps = None
        # per-key FIFOs, ordered by each key's first pending arrival, so a
        # put and a batch extraction are O(1)/O(batch) instead of scanning
        # every pending request on every wakeup
        self._by_key: "OrderedDict[PlanKey, Deque[ServeRequest]]" = OrderedDict()
        self._pending_count = 0
        self._cond = threading.Condition()
        self._closed = False
        #: called with the list of requests this queue expired (already
        #: failed with :class:`DeadlineExceeded`) — the owning pool hangs
        #: its telemetry here
        self.on_expired: Optional[Callable[[List[ServeRequest]], None]] = None

    def bind_metrics(self, registry) -> None:
        """Register coalescing counters into a
        :class:`~repro.serve.metrics.MetricsRegistry`; idempotent per
        name, so every shard's queue shares the same counters."""
        self._coalesced_batches = registry.counter(
            "repro_serve_coalesced_batches_total",
            "Batches released by the coalescing queues.",
        )
        self._coalesced_requests = registry.counter(
            "repro_serve_coalesced_requests_total",
            "Requests released inside coalesced batches.",
        )
        self._coalesced_sweeps = registry.counter(
            "repro_serve_coalesced_sweeps_total",
            "Sweeps (fusion depth x occupancy) released in batches.",
        )

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
        """Next coalesced batch, or None once closed and drained.

        Blocks until at least one request is pending, then waits up to the
        head request's deadline for more requests with the *same* plan key,
        releasing early when ``max_batch_size`` is reached.

        Request deadlines are enforced here (the "at coalescing" half of
        the deadline contract): the wait wakes no later than the head
        request's deadline, and every popped request whose deadline has
        passed is failed with :class:`DeadlineExceeded` instead of being
        handed to a worker — an expired future never costs execute time.
        """
        while True:
            with self._cond:
                while not self._pending_count:
                    if self._closed:
                        return None
                    self._cond.wait()
                while True:
                    # priority 1: the oldest pending head, once its
                    # coalescing window has expired (or on close/full) —
                    # this bounds how long a cold key can be delayed by
                    # hot traffic
                    key, fifo = min(
                        self._by_key.items(),
                        key=lambda kv: kv[1][0].submitted_s,
                    )
                    if self._closed or len(fifo) >= self.max_batch_size:
                        break
                    now = self._clock()
                    remaining = fifo[0].submitted_s + self.max_wait_s - now
                    if fifo[0].deadline_s is not None:
                        # an expired head releases its batch immediately
                        # (it is failed below, co-batched live requests
                        # just ship a window early)
                        remaining = min(
                            remaining, fifo[0].deadline_s - now
                        )
                    if remaining <= 0:
                        break
                    # priority 2: while the oldest head is still inside
                    # its window, a different key that already has a full
                    # batch releases immediately instead of idling the
                    # worker
                    full = [
                        kv
                        for kv in self._by_key.items()
                        if len(kv[1]) >= self.max_batch_size
                    ]
                    if full:
                        key, fifo = min(
                            full, key=lambda kv: kv[1][0].submitted_s
                        )
                        break
                    self._cond.wait(remaining)
                batch = []
                while fifo and len(batch) < self.max_batch_size:
                    batch.append(fifo.popleft())
                if not fifo:
                    del self._by_key[key]
                self._pending_count -= len(batch)
            now = self._clock()
            expired = [r for r in batch if r.expired(now)]
            if expired:
                for r in expired:
                    r._fail(
                        DeadlineExceeded(
                            f"request {r.req_id} missed its deadline "
                            "while queued"
                        ),
                        started_s=now,
                        finished_s=now,
                    )
                if self.on_expired is not None:
                    self.on_expired(expired)
                batch = [r for r in batch if not r.done()]
            if not batch:
                # everything in this pop expired: go around (there may be
                # nothing left pending, or the queue may have closed)
                continue
            if self._coalesced_batches is not None:
                self._coalesced_batches.inc()
                self._coalesced_requests.inc(len(batch))
                self._coalesced_sweeps.inc(len(batch) * key.steps)
            return batch
