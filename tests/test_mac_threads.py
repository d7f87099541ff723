"""Differential and lifecycle suite for the multi-threaded ordered MAC.

The contract under test: spreading the fused ``K_all @ X`` product over
column blocks on the plan-owned :class:`~repro.sptc.macpool.MacThreadPool`
is **byte-identical** to the serial MAC for every thread count and block
width >= 2 — each output element's einsum reduction order is a function
of the w axis alone, so disjoint ``out[:, c0:c1]`` slices cannot perturb
it.  The suite pins that identity across dims x precision x boundary
conditions x steps on the thread, process and sync serving backends,
plus the pool's lifecycle contract: lazy creation, exclusion from
pickles, shutdown on plan-cache eviction/release/clear and service
close, and fork safety.

Small grids take the serial fast path under the default 4096-column
threshold, so every differential case here pins ``mac_col_block`` low —
otherwise "threads=4" would silently test the serial loop twice.
"""

import collections
import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_compile_plan
from repro.core.executor import SpiderExecutor
from repro.serve import PlanCache, StencilService, plan_key_for
from repro.sptc.macpool import (
    MAC_THREADS_ENV,
    MacThreadPool,
    col_blocks,
    live_mac_threads,
    resolve_mac_threads,
    split_ranges,
)
from repro.stencil import (
    BoundaryCondition,
    Grid,
    make_box_kernel,
    make_star_kernel,
    named_stencil,
)

ALL_BCS = [
    BoundaryCondition.ZERO,
    BoundaryCondition.PERIODIC,
    BoundaryCondition.REFLECT,
    BoundaryCondition.NEAREST,
]

#: forces the threaded path on test-sized grids (default 4096 would not)
SMALL_BLOCK = 8


def _run_released(spec, grid, **kw):
    """One sweep through a throwaway executor, pool released after."""
    ex = SpiderExecutor(spec, **kw)
    try:
        return ex.run(grid)
    finally:
        ex.release_mac_pool()


# ----------------------------------------------------------------------
# unit: block planning and thread resolution
# ----------------------------------------------------------------------


def test_col_blocks_covers_and_merges_one_wide_remainder():
    assert col_blocks(8, 4) == [(0, 4), (4, 8)]
    # remainder of one column merges into the final block: einsum's n=1
    # call shape uses a different kernel
    assert col_blocks(9, 4) == [(0, 4), (4, 9)]
    assert col_blocks(5, 2) == [(0, 2), (2, 5)]
    assert col_blocks(1, 4) == [(0, 1)]  # n=1 total: nothing to merge with
    assert col_blocks(0, 4) == []
    for n, block in [(1000, 7), (64, 64), (65, 64), (3, 2)]:
        blocks = col_blocks(n, block)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a1 == b0 for (_, a1), (b0, _) in zip(blocks, blocks[1:]))
        if n >= 2:
            assert all(c1 - c0 >= 2 for c0, c1 in blocks)


def test_col_blocks_rejects_width_below_two():
    with pytest.raises(ValueError, match="block"):
        col_blocks(16, 1)


def test_split_ranges_near_even_cover():
    assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_ranges(2, 5) == [(0, 1), (1, 2)]  # parts clamp to n
    assert split_ranges(6, 1) == [(0, 6)]
    for n, parts in [(17, 4), (100, 7), (3, 3)]:
        ranges = split_ranges(n, parts)
        widths = [i1 - i0 for i0, i1 in ranges]
        assert sum(widths) == n and max(widths) - min(widths) <= 1


def test_resolve_mac_threads_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(MAC_THREADS_ENV, "7")
    assert resolve_mac_threads(3) == 3  # explicit request wins outright
    assert resolve_mac_threads(None) == 7
    monkeypatch.delenv(MAC_THREADS_ENV)
    cores = os.cpu_count() or 1
    assert resolve_mac_threads(None) == max(1, cores)
    assert resolve_mac_threads(None, shards=cores + 1) == 1  # floor at 1


def test_resolve_mac_threads_rejects_bad_values(monkeypatch):
    with pytest.raises(ValueError, match="mac_threads"):
        resolve_mac_threads(0)
    with pytest.raises(ValueError, match="mac_threads"):
        resolve_mac_threads(-3)
    monkeypatch.setenv(MAC_THREADS_ENV, "lots")
    with pytest.raises(ValueError, match=MAC_THREADS_ENV):
        resolve_mac_threads(None)


@pytest.mark.parametrize("env_value", ["0", "-2"])
def test_resolve_mac_threads_env_rejects_nonpositive(monkeypatch, env_value):
    """The env path raises like the explicit path — no silent clamp to 1.

    ``REPRO_MAC_THREADS=0`` used to resolve to a serial MAC via
    ``max(1, ...)``, hiding misconfigured deployments; both paths now
    enforce the same >= 1 contract.
    """
    monkeypatch.setenv(MAC_THREADS_ENV, env_value)
    with pytest.raises(ValueError, match=MAC_THREADS_ENV):
        resolve_mac_threads(None)
    # an explicit request still wins outright and never consults the env
    assert resolve_mac_threads(3) == 3


def test_pool_runs_all_tasks_and_is_reusable():
    pool = MacThreadPool(3)
    try:
        out = np.zeros(37)

        def fill(i0, i1):
            out[i0:i1] = np.arange(i0, i1)

        for _ in range(3):  # steady-state reuse, same generation machinery
            out[:] = 0
            pool.run(fill, split_ranges(37, 6))
            assert np.array_equal(out, np.arange(37.0))
    finally:
        pool.shutdown()


def test_pool_propagates_first_error_and_survives():
    pool = MacThreadPool(2)
    try:

        def boom(i):
            raise RuntimeError(f"task {i}")

        with pytest.raises(RuntimeError, match="task"):
            pool.run(boom, [(0,), (1,), (2,)])
        # an error must not wedge the generation barrier
        hits = []
        pool.run(lambda i: hits.append(i), [(0,), (1,)])
        assert sorted(hits) == [0, 1]
    finally:
        pool.shutdown()


def test_pool_shutdown_idempotent_and_run_after_raises():
    baseline = live_mac_threads()
    pool = MacThreadPool(4)
    assert live_mac_threads() == baseline + 3  # caller is the 4th thread
    assert pool.pid == os.getpid()
    pool.shutdown()
    pool.shutdown()  # idempotent
    assert pool.closed
    assert live_mac_threads() == baseline
    with pytest.raises(RuntimeError, match="shut down"):
        pool.run(lambda: None, [()])


def test_pool_needs_at_least_two_threads():
    with pytest.raises(ValueError, match="threads"):
        MacThreadPool(1)


# ----------------------------------------------------------------------
# differential: executor, threads=1 vs threads=N byte-identical
# ----------------------------------------------------------------------

#: inputs big enough that the executor's gather and accumulator add run
#: on the MAC pool too, not only the column-blocked GEMM; the 3D star has
#: gapped active rows, a last axis that is not a multiple of L and
#: several line blocks
POOLED_CASES = [
    ("star", 2, 2, (400, 203)),
    ("star", 3, 1, (24, 40, 130)),
]

DIFF_CASES = [
    ("box", 1, 1, (97,)),
    ("star", 1, 3, (64,)),
    ("box", 2, 2, (18, 23)),
    ("star", 2, 1, (16, 16)),
    ("box", 3, 1, (7, 8, 9)),
] + POOLED_CASES


def _spy_pool(monkeypatch):
    """Count, by task-function name, the MAC pool runs of > 1 task."""
    ran = collections.Counter()
    real_run = MacThreadPool.run

    def run(self, fn, tasks):
        if len(tasks) > 1:
            ran[fn.__name__] += 1
        return real_run(self, fn, tasks)

    monkeypatch.setattr(MacThreadPool, "run", run)
    return ran


@pytest.mark.parametrize("precision", ["exact", "fp16"])
@pytest.mark.parametrize(
    "kind,dims,radius,shape",
    DIFF_CASES,
    ids=[f"{k}{d}D-r{r}" for k, d, r, _ in DIFF_CASES],
)
def test_threaded_mac_bit_identical(
    kind, dims, radius, shape, precision, monkeypatch
):
    """threads=1 vs threads=4 across dims x precision x all BCs."""
    ran = _spy_pool(monkeypatch)
    rng = np.random.default_rng(dims * 10 + radius)
    make = make_box_kernel if kind == "box" else make_star_kernel
    spec = make(dims, radius, rng)
    for bc in ALL_BCS:
        grid = Grid(rng.standard_normal(shape), bc)
        serial = _run_released(spec, grid, precision=precision, mac_threads=1)
        threaded = _run_released(
            spec,
            grid,
            precision=precision,
            mac_threads=4,
            mac_col_block=SMALL_BLOCK,
        )
        assert serial.dtype == threaded.dtype
        assert serial.tobytes() == threaded.tobytes(), (kind, bc)
    if (kind, dims, radius, shape) in POOLED_CASES:
        assert ran["gather_rows"] and ran["add_rows"], dict(ran)


def test_block_width_never_perturbs_numerics():
    """Any block width >= 2 (including widths that leave a remainder)
    matches the serial default-width MAC byte-for-byte."""
    rng = np.random.default_rng(7)
    spec = make_box_kernel(2, 2, rng)
    grid = Grid.random((24, 31), rng)
    base = _run_released(spec, grid, mac_threads=1)
    for block in (2, 3, 5, 64):
        out = _run_released(spec, grid, mac_threads=3, mac_col_block=block)
        assert out.tobytes() == base.tobytes(), block


def test_batched_sweeps_bit_identical_under_threads(monkeypatch):
    """run_batch (the serving execution shape) is thread-invariant too,
    including batches big enough to pad, gather and add on the pool."""
    ran = _spy_pool(monkeypatch)
    rng = np.random.default_rng(21)
    spec = make_star_kernel(2, 2, rng)
    small = [Grid.random((14, 17), rng) for _ in range(5)]
    big = [Grid.random((200, 203), rng, bc) for bc in ALL_BCS[1:]]
    ex1 = SpiderExecutor(spec, mac_threads=1)
    exN = SpiderExecutor(spec, mac_threads=4, mac_col_block=SMALL_BLOCK)
    try:
        for grids in (small, big):
            assert (
                ex1.run_batch(grids).tobytes()
                == exN.run_batch(grids).tobytes()
            )
    finally:
        exN.release_mac_pool()
    assert ran["pad_one"] and ran["gather_rows"] and ran["add_rows"], dict(ran)


def test_all_zero_kernel_skips_gemm_identically():
    """m_active == 0 (every kernel row compacted away): no GEMM is
    issued on either path and the output is exactly zero."""
    rng = np.random.default_rng(3)
    spec = make_box_kernel(2, 1, rng)
    zero = spec.with_weights(np.zeros_like(np.asarray(spec.weights)))
    grid = Grid.random((12, 14), rng)
    serial = _run_released(zero, grid, mac_threads=1)
    threaded = _run_released(
        zero, grid, mac_threads=3, mac_col_block=SMALL_BLOCK
    )
    assert not np.any(serial)
    assert serial.tobytes() == threaded.tobytes()


@given(
    dims=st.integers(1, 2),
    radius=st.integers(1, 2),
    side=st.integers(1, 9),
    threads=st.integers(2, 5),
    block=st.integers(2, 9),
    fp16=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_degenerate_shapes_thread_invariant(
    dims, radius, side, threads, block, fp16, seed
):
    """Property: tiny and degenerate grids — down to a single cell, where
    the executor zero-pads the GEMM to its 2-column minimum — are
    byte-identical between the serial and threaded MAC, fp16 included."""
    rng = np.random.default_rng(seed)
    spec = make_box_kernel(dims, radius, rng)
    shape = (side,) * dims
    grid = Grid(rng.standard_normal(shape), BoundaryCondition.ZERO)
    precision = "fp16" if fp16 else "exact"
    serial = _run_released(spec, grid, precision=precision, mac_threads=1)
    threaded = _run_released(
        spec,
        grid,
        precision=precision,
        mac_threads=threads,
        mac_col_block=block,
    )
    assert serial.tobytes() == threaded.tobytes()


# ----------------------------------------------------------------------
# lifecycle: lazy pools, pickling, cache teardown, fork safety
# ----------------------------------------------------------------------


def test_pool_created_lazily_and_only_when_parallel():
    baseline = live_mac_threads()
    rng = np.random.default_rng(0)
    ex = SpiderExecutor(
        make_box_kernel(2, 1, rng), mac_threads=3, mac_col_block=SMALL_BLOCK
    )
    op = ex.fused_operator
    assert op._mac_pool is None  # building a plan parks no threads
    assert live_mac_threads() == baseline
    try:
        ex.run(Grid.random((16, 16), rng))
        assert op._mac_pool is not None
        assert live_mac_threads() == baseline + 2
    finally:
        ex.release_mac_pool()
    assert live_mac_threads() == baseline
    # a serial plan never creates a pool at all
    ex1 = SpiderExecutor(make_box_kernel(2, 1, rng), mac_threads=1)
    ex1.run(Grid.random((16, 16), rng))
    assert ex1.fused_operator._mac_pool is None
    assert live_mac_threads() == baseline


def test_pickle_excludes_pool_and_ships_requested_values():
    rng = np.random.default_rng(5)
    spec = make_box_kernel(2, 2, rng)
    grid = Grid.random((14, 14), rng)
    ex = SpiderExecutor(spec, mac_threads=3, mac_col_block=SMALL_BLOCK)
    try:
        expected = ex.run(grid)
        assert ex.fused_operator._mac_pool is not None
        clone = pickle.loads(pickle.dumps(ex))
    finally:
        ex.release_mac_pool()
    op = clone.fused_operator
    assert op._mac_pool is None  # pool never crosses a pickle
    assert op.mac_threads == 3  # requested values survive the roundtrip
    assert op.mac_col_block == SMALL_BLOCK
    try:
        assert clone.run(grid).tobytes() == expected.tobytes()
    finally:
        clone.release_mac_pool()


def test_rehydrated_plan_re_resolves_adaptive_threads(monkeypatch):
    """A plan pickled with the adaptive default re-resolves in the
    *receiving* environment — the process-backend contract."""
    rng = np.random.default_rng(5)
    ex = SpiderExecutor(make_box_kernel(1, 1, rng))  # mac_threads=None
    payload = pickle.dumps(ex)
    monkeypatch.setenv(MAC_THREADS_ENV, "5")
    clone = pickle.loads(payload)
    assert clone.fused_operator.mac_threads == 5


def test_plan_cache_eviction_trim_clear_shut_pools_down():
    baseline = live_mac_threads()
    rng = np.random.default_rng(9)
    cache = PlanCache(
        capacity=1, mac_threads=3, mac_col_block=SMALL_BLOCK
    )
    spec_a, spec_b = named_stencil("heat2d"), named_stencil("jacobi2d")
    grid = Grid.random((16, 16), rng)

    plan_a = cache.get_or_build(
        plan_key_for(spec_a, grid_shape=(16, 16)), spec=spec_a
    )
    plan_a.executor.run(grid)
    assert live_mac_threads() == baseline + 2
    # capacity-1 LRU eviction must tear the evicted plan's pool down
    cache.get_or_build(
        plan_key_for(spec_b, grid_shape=(16, 16)), spec=spec_b
    )
    assert live_mac_threads() == baseline

    plan_b = cache.lookup(plan_key_for(spec_b, grid_shape=(16, 16)))
    plan_b.executor.run(grid)
    assert live_mac_threads() == baseline + 2
    cache.release_pools()
    assert live_mac_threads() == baseline

    plan_b.executor.run(grid)  # pool re-creates lazily after release
    assert live_mac_threads() == baseline + 2
    cache.clear()
    assert live_mac_threads() == baseline


def test_eviction_waits_for_a_running_batch():
    """A plan evicted while another thread runs it keeps its MAC pool
    until that batch ends: a pool shut down mid-run would leave the
    caller waiting on helpers that already exited."""
    baseline = live_mac_threads()
    cache = PlanCache(capacity=1, mac_threads=2, mac_col_block=SMALL_BLOCK)
    specs = [named_stencil("heat2d"), named_stencil("blur2d")]
    grid = Grid.random((32, 32), np.random.default_rng(5))
    plans, errors = [], []

    def caller(i):
        # the callers alternate specs, so each compile evicts the plan
        # the other caller is running
        try:
            for k in range(100):
                spec = specs[(i + k) % 2]
                key = plan_key_for(spec, grid_shape=grid.shape)
                plan = cache.get_or_build(key, spec=spec)
                plans.append(plan)
                plan.executor.run(grid)
        except Exception as exc:  # surfaced by the assertions below
            errors.append(exc)

    threads = [
        threading.Thread(target=caller, args=(i,), daemon=True)
        for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # a plan run after its eviction re-creates its pool outside the
    # cache's reach, so release every plan the callers held
    for plan in plans:
        plan.executor.release_mac_pool()
    assert live_mac_threads() == baseline


def test_stale_foreign_pid_pool_dropped_never_joined():
    """A pool object 'inherited from another process' (simulated by a
    foreign pid) is dropped without shutdown — its threads don't exist in
    this process — and a fresh pool is built under the current pid."""
    rng = np.random.default_rng(1)
    ex = SpiderExecutor(
        make_box_kernel(2, 1, rng), mac_threads=2, mac_col_block=SMALL_BLOCK
    )
    grid = Grid.random((16, 16), rng)
    try:
        expected = ex.run(grid)
        op = ex.fused_operator
        stale = op._pool()
        stale.pid = os.getpid() + 1  # simulate a fork-inherited pool
        fresh = op._pool()
        assert fresh is not stale
        assert not stale.closed  # dropped, never joined
        assert op.shutdown_pool() is None  # foreign pool: no-op too
        stale.pid = os.getpid()  # let the test clean it up for real
        stale.shutdown()
        assert ex.run(grid).tobytes() == expected.tobytes()
    finally:
        ex.release_mac_pool()


# ----------------------------------------------------------------------
# differential + lifecycle through the serving stack
# ----------------------------------------------------------------------


def _serve_all(requests, *, mac_threads, backend="thread", workers=2, **kw):
    with StencilService(
        workers=workers,
        backend=backend,
        max_batch_size=4,
        max_wait_s=0.001,
        mac_threads=mac_threads,
        mac_col_block=SMALL_BLOCK,
        **kw,
    ) as svc:
        handles = [
            svc.submit(spec, grid.copy(), steps=steps)
            for spec, grid, steps in requests
        ]
        svc.drain()
        stats = svc.stats()
    assert stats.telemetry.errors == 0
    assert stats.mac_threads == mac_threads
    return [h.result() for h in handles]


def _serving_requests(seed=13):
    """Mixed dims x BCs x steps request list (steps>1 covers the temporal
    super-sweep path under threading)."""
    rng = np.random.default_rng(seed)
    cases = [
        ("wave1d", (64,)),
        ("heat2d", (18, 22)),
        ("blur2d", (16, 16)),
        ("heat3d", (7, 8, 9)),
    ]
    out = []
    for i, (name, shape) in enumerate(cases):
        for steps in (1, 3):
            bc = ALL_BCS[(i + steps) % len(ALL_BCS)]
            out.append(
                (named_stencil(name), Grid(rng.standard_normal(shape), bc), steps)
            )
    return out


@pytest.mark.parametrize("backend,workers", [
    ("thread", 2),
    ("process", 2),
    ("thread", 0),  # workers=0: the in-thread sync path
], ids=["thread", "process", "sync"])
def test_serving_bit_identical_across_thread_counts(backend, workers):
    """The full serving stack (batching, plan cache, worker shards,
    temporal super-sweeps) returns byte-identical arrays for
    mac_threads=1 vs 3 on every backend."""
    requests = _serving_requests()
    serial = _serve_all(
        requests, mac_threads=1, backend=backend, workers=workers
    )
    threaded = _serve_all(
        requests, mac_threads=3, backend=backend, workers=workers
    )
    for (spec, grid, steps), a, b in zip(requests, serial, threaded):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), (spec.name, grid.bc, steps)


@pytest.mark.parametrize("workers", [0, 2], ids=["sync", "thread"])
def test_service_close_leaves_no_mac_threads(workers):
    baseline = live_mac_threads()
    rng = np.random.default_rng(2)
    svc = StencilService(
        workers=workers, mac_threads=3, mac_col_block=SMALL_BLOCK
    )
    svc.run(named_stencil("heat2d"), Grid.random((16, 16), rng))
    assert live_mac_threads() > baseline  # the MAC actually went parallel
    svc.close()
    assert live_mac_threads() == baseline
    svc.close()  # idempotent


def test_service_resolves_and_reports_mac_threads(monkeypatch):
    rng = np.random.default_rng(6)
    # explicit count: reported verbatim and exported as a gauge
    with StencilService(workers=1, mac_threads=2) as svc:
        svc.run(named_stencil("heat2d"), Grid.random((12, 12), rng))
        stats = svc.stats()
    assert stats.mac_threads == 2
    gauges = {
        s.name: s.value
        for s in stats.metrics
        if s.name == "repro_serve_mac_threads"
    }
    assert gauges["repro_serve_mac_threads"] == 2.0
    # env override reaches the sync path's adaptive resolution
    monkeypatch.setenv(MAC_THREADS_ENV, "4")
    with StencilService(workers=0) as svc:
        assert svc.stats().mac_threads == 4


def test_traced_service_emits_gemm_spans_per_block():
    """With tracing on and the threaded path engaged, per-block
    ``mac.gemm`` spans surface in the stage totals — including spans
    recorded on pool helper threads."""
    rng = np.random.default_rng(8)
    with StencilService(
        workers=1,
        trace=True,
        mac_threads=3,
        mac_col_block=SMALL_BLOCK,
    ) as svc:
        for _ in range(3):
            svc.run(named_stencil("heat2d"), Grid.random((24, 24), rng))
        stats = svc.stats()
    gemm = stats.stages.get("mac.gemm")
    assert gemm is not None
    # a 24x24 sweep spans several column blocks under an 8-wide plan, and
    # each block emits one span — strictly more spans than batches
    assert gemm["count"] > stats.telemetry.batches
    assert gemm["total_s"] >= 0.0
