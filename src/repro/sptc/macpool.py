"""Persistent thread pool for the fused sweep's output ranges.

The executor cuts a large sweep into disjoint output ranges (leading-axis
planes; 1D: chunks of the line) and runs each range's gather, ordered
``K_all @ X`` GEMM, accumulator add and store as one task.  numpy's copy,
``np.einsum`` and add kernels release the GIL in their C cores, so the
ranges run concurrently on plain threads — and because each output
element's reduction order is fixed (ascending *w* inside einsum's kernel,
independent of operand shape, column offset or blocking; ascending kernel
row across the adds of the one range that owns the element), splitting a
sweep across threads cannot change any element's summation order.  The
single shape einsum special-cases is one output column (n = 1 degenerates
into its unrolled inner-product kernel), which is why :func:`col_blocks`
never emits a 1-wide block.

:class:`MacThreadPool` is deliberately not
``concurrent.futures.ThreadPoolExecutor``: the steady-state serving path
must not allocate, and a Future per task is garbage on every sweep.
Instead the pool keeps ``threads - 1`` persistent daemon helpers
parked on one condition variable; :meth:`MacThreadPool.run` publishes a
task list, wakes them, *participates in the drain itself* (the caller is
the Nth worker), and returns after a barrier — so total concurrency is
exactly ``threads`` and an idle pool costs nothing but parked threads.

Lifecycle contract (the serving layer depends on all three).  A pool's
one owner is a :class:`~repro.core.executor.SweepRunner`; compiled plans
never hold one:

* **single caller** — ``run`` is never re-entered concurrently.  The
  runner's ``lock``, held across each batch call, enforces this (and
  the same invariant for the runner's workspaces), so threads that
  share one runner take turns instead of interleaving;
* **never pickled** — runners never cross a process boundary; each
  process (a worker, a forked child) builds its own;
* **never inherited across fork** — the pool records its owning
  :func:`os.getpid`; the runner checks :attr:`MacThreadPool.pid` before
  reuse and simply drops (never joins) a pool object a forked child
  inherited, because its threads do not exist in the child and its
  condition variable may have been captured mid-acquire.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "MacThreadPool",
    "col_blocks",
    "live_mac_threads",
    "resolve_mac_threads",
    "split_ranges",
]

#: thread-name prefix of every pool helper — lifecycle tests count these
MAC_THREAD_PREFIX = "repro-mac"

#: environment override for the adaptive thread default (never overrides
#: an explicitly requested count; see :func:`resolve_mac_threads`)
MAC_THREADS_ENV = "REPRO_MAC_THREADS"


def resolve_mac_threads(
    requested: Optional[int] = None, shards: int = 1
) -> int:
    """Effective MAC threads for one runner.

    Resolution order: an explicit ``requested`` count wins outright (so a
    differential test pinning threads=1 vs threads=N is immune to the
    environment); otherwise the ``REPRO_MAC_THREADS`` variable overrides
    the adaptive default of ``cpu_count // shards`` — the per-shard core
    budget that keeps ``backend="process"`` with N worker processes from
    oversubscribing the machine.  Always >= 1.

    Both explicit paths validate identically: ``requested`` and
    ``REPRO_MAC_THREADS`` raise :class:`ValueError` for counts < 1 (the
    env path used to clamp silently, which hid misconfigured deployments
    behind an unexpected serial MAC).
    """
    if requested is not None:
        n = int(requested)
        if n < 1:
            raise ValueError(f"mac_threads must be >= 1, got {n}")
        return n
    env = os.environ.get(MAC_THREADS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"{MAC_THREADS_ENV} must be an integer, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(
                f"{MAC_THREADS_ENV} must be >= 1, got {n}"
            )
        return n
    cores = os.cpu_count() or 1
    return max(1, cores // max(1, int(shards)))


def col_blocks(n: int, block: int) -> List[Tuple[int, int]]:
    """Split ``n`` columns into ``[c0, c1)`` blocks of width ``block``.

    A trailing remainder of exactly one column is merged into the final
    block instead of emitted on its own: einsum's n = 1 call shape uses a
    different (unrolled inner-product) kernel, so a 1-wide block is the
    one blocking choice that could perturb the ordered MAC's numerics.
    Block *boundaries* otherwise never matter — each element's reduction
    runs over the w axis only.
    """
    if block < 2:
        raise ValueError(f"column block must be >= 2, got {block}")
    blocks: List[Tuple[int, int]] = []
    c0 = 0
    while c0 < n:
        c1 = min(c0 + block, n)
        if n - c1 == 1:
            c1 = n
        blocks.append((c0, c1))
        c0 = c1
    return blocks


def split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """``n`` indices as ``min(n, parts)`` contiguous near-even ranges."""
    parts = max(1, min(int(parts), n))
    step, extra = divmod(n, parts)
    ranges: List[Tuple[int, int]] = []
    i0 = 0
    for p in range(parts):
        i1 = i0 + step + (1 if p < extra else 0)
        ranges.append((i0, i1))
        i0 = i1
    return ranges


def live_mac_threads() -> int:
    """Live MAC-pool helper threads in this process (lifecycle tests)."""
    return sum(
        1
        for t in threading.enumerate()
        if t.name.startswith(MAC_THREAD_PREFIX)
    )


class MacThreadPool:
    """``threads - 1`` parked helpers + the calling thread (see module
    docstring for the lifecycle contract)."""

    def __init__(self, threads: int) -> None:
        if threads < 2:
            raise ValueError(
                f"MacThreadPool needs >= 2 threads, got {threads}"
            )
        self.threads = int(threads)
        #: owning process — a forked child must drop, never reuse, this pool
        self.pid = os.getpid()
        self._cond = threading.Condition()
        self._generation = 0
        self._fn: Optional[Callable[..., None]] = None
        self._tasks: Sequence[tuple] = ()
        self._next = 0
        self._active = 0  # helpers still inside the current generation
        self._errors: List[BaseException] = []
        self._closed = False
        self._helpers = [
            threading.Thread(
                target=self._helper_loop,
                name=f"{MAC_THREAD_PREFIX}-{self.pid}-{i}",
                daemon=True,
            )
            for i in range(self.threads - 1)
        ]
        for t in self._helpers:
            t.start()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def _helper_loop(self) -> None:
        seen = 0
        while True:
            with self._cond:
                while self._generation == seen and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                seen = self._generation
            self._drain()
            with self._cond:
                self._active -= 1
                if self._active == 0:
                    self._cond.notify_all()

    def _drain(self) -> None:
        """Pull and run tasks until the shared list is exhausted."""
        while True:
            with self._cond:
                i = self._next
                if i >= len(self._tasks):
                    return
                self._next = i + 1
            try:
                self._fn(*self._tasks[i])
            except BaseException as exc:  # propagate via run()'s barrier
                with self._cond:
                    self._errors.append(exc)

    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., None], tasks: Sequence[tuple]) -> None:
        """Execute ``fn(*task)`` for every task across all threads.

        The caller participates in the drain, then blocks on the barrier
        until every helper has left the generation; the first task
        exception (if any) is re-raised here.  Tasks must write to
        disjoint destinations — the pool provides no ordering between
        them, which is exactly why only order-free work (per-grid pads,
        a sweep's disjoint output ranges) is dispatched.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("MacThreadPool is shut down")
            self._fn = fn
            self._tasks = tasks
            self._next = 0
            self._errors = []
            self._active = len(self._helpers)
            self._generation += 1
            self._cond.notify_all()
        self._drain()
        with self._cond:
            while self._active:
                self._cond.wait()
            self._fn = None
            self._tasks = ()
            errors = self._errors
            self._errors = []
        if errors:
            raise errors[0]

    def shutdown(self) -> None:
        """Stop and join the helpers (idempotent; owner-process only)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for t in self._helpers:
            t.join(timeout=5.0)
