"""Cross-backend differential suite for `WorkerPool(backend="process")`.

The process backend ships requests to per-shard worker processes that
recompile plans from pure-data recipes into private plan caches.  That is
only shippable if equivalence is *enforced*: the same request stream
served by ``backend="thread"`` and ``backend="process"`` must return
byte-identical result arrays across dimensionalities, precisions and
boundary conditions.  This module also pins the lifecycle contract both
backends share — requests submitted before ``close()`` complete, submits
after ``close()`` raise, and no worker processes are left behind.
"""

import gc
import os
import time
import weakref

import numpy as np
import pytest

from repro.serve import (
    RetryPolicy,
    ServeRequest,
    StencilService,
    WorkerPool,
    plan_key_for,
)
from repro.stencil import (
    BoundaryCondition,
    Grid,
    named_stencil,
    open_loop_stream,
    serving_workloads,
)

BACKENDS = ["thread", "process"]

#: dims 1/2/3, star+box, radii 1-2 — the differential coverage matrix.
MIXED_SHAPE_IDS = ["wave1d", "heat2d", "blur2d", "Star-2D2R", "heat3d"]

ALL_BCS = [
    BoundaryCondition.ZERO,
    BoundaryCondition.PERIODIC,
    BoundaryCondition.REFLECT,
    BoundaryCondition.NEAREST,
]


def _mixed_request_stream(n_requests=60, seed=11):
    """One deterministic open-loop trace cycling every boundary condition.

    The trace mixes 1D/2D/3D workloads (star and box footprints); each
    request's grid is re-wrapped with a cycling boundary condition so the
    stream covers dims x BCs in one pass.  Grid sides all exceed the
    largest radius, keeping REFLECT legal.
    """
    workloads = serving_workloads(
        MIXED_SHAPE_IDS,
        size_1d=(96,),
        size_2d=(18, 22),
        size_3d=(7, 8, 9),
        seed=seed,
    )
    trace = list(open_loop_stream(workloads, n_requests, 500.0, seed=seed))
    return [
        (r.spec, Grid(r.grid.data, ALL_BCS[i % len(ALL_BCS)]))
        for i, r in enumerate(trace)
    ]


def _serve(requests, *, backend, precision="exact", workers=2):
    with StencilService(
        workers=workers,
        backend=backend,
        precision=precision,
        max_batch_size=4,
    ) as svc:
        handles = [svc.submit(spec, grid) for spec, grid in requests]
        svc.drain()
        stats = svc.stats()
    assert stats.telemetry.errors == 0
    assert stats.backend == backend
    return [h.result() for h in handles]


# ----------------------------------------------------------------------
# differential: thread vs process, byte-identical
# ----------------------------------------------------------------------


@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_cross_backend_bit_identity(precision):
    """The same open-loop stream returns byte-identical arrays on both
    backends, across dims x precision x boundary conditions."""
    requests = _mixed_request_stream()
    thread_outs = _serve(requests, backend="thread", precision=precision)
    process_outs = _serve(requests, backend="process", precision=precision)
    assert len(thread_outs) == len(process_outs) == len(requests)
    for a, b in zip(thread_outs, process_outs):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_cross_backend_identity_survives_worker_count():
    """Sharding differently (1 vs 3 workers) cannot perturb results."""
    requests = _mixed_request_stream(n_requests=30, seed=5)
    base = _serve(requests, backend="thread", workers=1)
    for backend in BACKENDS:
        outs = _serve(requests, backend=backend, workers=3)
        for a, b in zip(base, outs):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_error_routed_to_future_worker_survives(backend, rng):
    spec2d = named_stencil("heat2d")
    with StencilService(workers=2, backend=backend) as svc:
        bad = svc.submit(spec2d, Grid.random((32,), rng))  # 1D grid, 2D spec
        with pytest.raises(Exception):
            bad.result(timeout=30)
        good = svc.submit(spec2d, Grid.random((16, 16), rng))
        out = good.result(timeout=30)
        assert out.shape == (16, 16)
        stats = svc.stats()
    assert stats.telemetry.errors == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_stats_aggregate_across_shards(backend):
    requests = _mixed_request_stream(n_requests=40, seed=3)
    with StencilService(
        workers=2, backend=backend, max_batch_size=4
    ) as svc:
        for spec, grid in requests:
            svc.submit(spec, grid)
        svc.drain()
        stats = svc.stats()
    # every distinct (spec, shape) compiles exactly once pool-wide ...
    distinct = len({(id(spec), grid.shape) for spec, grid in requests})
    assert stats.cache.misses == len(
        {plan_key_for(spec, grid_shape=g.shape) for spec, g in requests}
    )
    assert distinct == stats.cache.misses
    # ... and the remaining lookups hit warm per-shard caches
    assert stats.cache.hits + stats.cache.misses == stats.telemetry.batches
    assert stats.cache.workspace_bytes > 0


# ----------------------------------------------------------------------
# drain / shutdown regression (both backends)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_requests_submitted_before_close_complete(backend, rng):
    spec = named_stencil("blur2d")
    svc = StencilService(
        workers=2, backend=backend, max_batch_size=8
    )
    handles = [
        svc.submit(spec, Grid.random((20, 20), rng)) for _ in range(24)
    ]
    # close without drain: the pool's drain semantics must finish them
    svc.close()
    assert all(h.done() for h in handles)
    assert all(not h.failed for h in handles)
    outs = [h.result(timeout=0) for h in handles]
    assert all(o.shape == (20, 20) for o in outs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_submit_after_close_raises(backend, rng):
    spec = named_stencil("heat2d")
    svc = StencilService(workers=2, backend=backend)
    svc.submit(spec, Grid.random((12, 12), rng))
    svc.close()
    with pytest.raises(RuntimeError):
        svc.submit(spec, Grid.random((12, 12), rng))


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_submit_after_close_raises(backend, rng):
    pool = WorkerPool(2, backend=backend)
    pool.close()
    spec = named_stencil("heat2d")
    grid = Grid.random((10, 10), rng)
    req = ServeRequest(
        0, spec, grid, plan_key_for(spec, grid_shape=grid.shape), 0.0
    )
    with pytest.raises(RuntimeError):
        pool.submit(req)


def test_no_orphaned_worker_processes(rng):
    pool = WorkerPool(2, backend="process")
    spec = named_stencil("heat2d")
    reqs = []
    for i in range(6):
        grid = Grid.random((14, 14), rng)
        reqs.append(
            ServeRequest(
                i,
                spec,
                grid,
                plan_key_for(spec, grid_shape=grid.shape),
                time.monotonic(),
            )
        )
        pool.submit(reqs[-1])
    pids = [p.pid for p in pool.workers]
    assert all(isinstance(pid, int) for pid in pids)
    pool.close(join=True)
    # drained: every request resolved before the workers exited
    assert all(r.done() and not r.failed for r in reqs)
    # no orphans: every worker process has exited cleanly after join
    assert all(not p.is_alive() for p in pool.workers)
    assert all(p.exitcode == 0 for p in pool.workers)


def test_dead_worker_fails_futures_instead_of_hanging(rng):
    """A worker killed mid-flight (OOM-kill stand-in) must fail its
    pending requests with an explicit error — and close() must return.
    Pins the pre-self-healing contract: recovery disabled."""
    pool = WorkerPool(
        1,
        backend="process",
        retry_policy=RetryPolicy.disabled(),
    )
    spec = named_stencil("heat2d")
    grid = Grid.random((12, 12), rng)
    req = ServeRequest(
        0, spec, grid, plan_key_for(spec, grid_shape=grid.shape), 0.0
    )
    # kill the worker before it can ever serve the batch: the request
    # ships to the dead worker, and the death sweep fails it
    pool.workers[0].terminate()
    pool.workers[0].join()
    pool.submit(req)
    pool.close(join=True)
    assert req.done() and req.failed
    with pytest.raises(RuntimeError, match="died unexpectedly"):
        req.result(timeout=0)
    assert not pool.workers[0].is_alive()


def test_submit_to_reaped_dead_shard_raises(rng):
    """Once a dead shard has been reaped (recovery disabled), new submits
    routed to it must be rejected immediately — not accepted into a queue
    nobody consumes."""
    pool = WorkerPool(
        1,
        backend="process",
        retry_policy=RetryPolicy.disabled(),
    )
    spec = named_stencil("heat2d")
    pool.workers[0].terminate()
    pool.workers[0].join()
    # the dispatcher reaps on its idle poll; wait for it
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with pool._pending_lock:
            if 0 in pool._dead_shards:
                break
        time.sleep(0.05)
    else:
        pytest.fail("dead worker was never reaped")
    grid = Grid.random((10, 10), rng)
    req = ServeRequest(
        0, spec, grid, plan_key_for(spec, grid_shape=grid.shape), 0.0
    )
    with pytest.raises(RuntimeError, match="died unexpectedly"):
        pool.submit(req)
    pool.close(join=True)


def test_process_close_is_idempotent(rng):
    svc = StencilService(workers=2, backend="process")
    svc.submit(named_stencil("heat2d"), Grid.random((12, 12), rng))
    svc.close()
    svc.close()  # second close must be a no-op, not a hang or error
    assert all(not p.is_alive() for p in svc._pool.workers)


@pytest.mark.parametrize("backend", BACKENDS)
def test_closed_pool_is_freed_without_cyclic_gc(backend, rng):
    """A closed pool sits in no reference cycle: once its service is
    dropped, reference counting alone frees it, with the cyclic gc off."""
    gc.collect()
    gc.disable()
    try:
        svc = StencilService(workers=1, backend=backend)
        svc.run(named_stencil("heat2d"), Grid.random((12, 12), rng))
        svc.close()
        pool = weakref.ref(svc._pool)
        del svc
        assert pool() is None
    finally:
        gc.enable()


def test_process_pool_safe_with_live_parent_threads(rng):
    """Creating a process pool while other threads are alive must avoid
    bare fork (thread-unsafe, deprecated on 3.12+) yet still serve
    bit-identically — this pins the forkserver/spawn context path."""
    spec = named_stencil("heat2d")
    grid = Grid.random((16, 16), rng)
    thread_svc = StencilService(workers=2, backend="thread")
    try:
        expected = thread_svc.run(spec, grid, timeout=60)
        # thread_svc's workers are alive here, so the new pool must pick
        # a non-fork start method
        with StencilService(workers=2, backend="process") as proc_svc:
            out = proc_svc.run(spec, grid, timeout=120)
        assert out.tobytes() == expected.tobytes()
    finally:
        thread_svc.close()
    with pytest.raises(ValueError, match="backend"):
        WorkerPool(1, backend="fiber")
    with pytest.raises(ValueError, match="backend"):
        StencilService(workers=1, backend="fiber")
