"""Differential and lifecycle suite for the range-parallel fused sweep.

The contract under test: cutting a sweep into output ranges and running
each range's gather, ordered ``K_all @ X`` GEMM, ascending-row add and
store as one task on a runner's
:class:`~repro.sptc.macpool.MacThreadPool` is **byte-identical** to the
serial sweep for every thread count and column block width >= 2 — each
output element's einsum reduction order is a function of the w axis
alone, and its kernel rows add in ascending order inside the one range
that owns it.  The suite pins that identity across dims x precision x
boundary conditions x steps on the thread, process and sync serving
backends, plus the lifecycle contract of
:class:`~repro.core.executor.SweepRunner`: plans hold no threads, pools
start lazily and stop with their runner's owner, and fork safety.

A sweep under the default 4096-cell threshold runs as a single range, so
the in-process differential cases lower ``FusedStencilOperator.COL_BLOCK``
(:func:`_small_blocks`) — otherwise "threads=4" would silently test the
serial sweep twice.  Monkeypatching does not reach worker processes, so
the serving cases use grids that cross the default threshold.
"""

import collections
import contextlib
import gc
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Spider, build_compile_plan
from repro.core import executor as executor_module
from repro.core.executor import SpiderExecutor, SweepRunner
from repro.serve import PlanCache, StencilService, plan_key_for
from repro.sptc.fused import FusedStencilOperator
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


@contextlib.contextmanager
def _small_blocks(block=SMALL_BLOCK):
    """Lower the MAC's column block (and so its threading threshold)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FusedStencilOperator, "COL_BLOCK", block)
        yield


def _run_released(spec, grid, threads, **kw):
    """One sweep on a throwaway runner of ``threads``, closed after."""
    runner = SweepRunner(threads)
    try:
        return SpiderExecutor(spec, **kw).run(grid, runner)
    finally:
        runner.close()


def _run_threaded(spec, grid, threads=4, block=SMALL_BLOCK, **kw):
    """:func:`_run_released` with the threaded path forced on."""
    with _small_blocks(block):
        return _run_released(spec, grid, threads, **kw)


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

#: inputs whose output ranges span several sub-blocks each; the 3D star
#: has gapped active rows, a last axis that is not a multiple of L and
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
        serial = _run_released(spec, grid, 1, precision=precision)
        threaded = _run_threaded(spec, grid, precision=precision)
        assert serial.dtype == threaded.dtype
        assert serial.tobytes() == threaded.tobytes(), (kind, bc)
    if (kind, dims, radius, shape) in POOLED_CASES:
        assert ran["sweep_range"], dict(ran)


def test_block_width_never_perturbs_numerics():
    """Any block width >= 2 (including widths that leave a remainder)
    matches the serial default-width MAC byte-for-byte."""
    rng = np.random.default_rng(7)
    spec = make_box_kernel(2, 2, rng)
    grid = Grid.random((24, 31), rng)
    base = _run_released(spec, grid, 1)
    for block in (2, 3, 5, 64):
        out = _run_threaded(spec, grid, 3, block)
        assert out.tobytes() == base.tobytes(), block


def test_batched_sweeps_bit_identical_under_threads(monkeypatch):
    """A batch sweep (the serving execution shape) is thread-invariant too,
    including batches big enough to pad on the pool as well."""
    ran = _spy_pool(monkeypatch)
    rng = np.random.default_rng(21)
    spec = make_star_kernel(2, 2, rng)
    small = [Grid.random((14, 17), rng) for _ in range(5)]
    big = [Grid.random((200, 203), rng, bc) for bc in ALL_BCS[1:]]
    # one shared plan, two runners: each brings its own scratch
    ex = SpiderExecutor(spec)
    serial, threaded = SweepRunner(1), SweepRunner(4)
    try:
        for grids in (small, big):
            want = np.stack(ex.sweep(grids, runner=serial)).tobytes()
            with _small_blocks():
                got = np.stack(ex.sweep(grids, runner=threaded))
                assert got.tobytes() == want
    finally:
        threaded.close()
    assert ran["pad_one"] and ran["sweep_range"], dict(ran)


def test_one_plan_swept_concurrently_on_own_runners():
    """Threads sharing one plan, each on a runner of its own, run at once
    (the plan holds no lock) and never touch each other's scratch or
    pool: every result matches the serial sweep byte for byte."""
    rng = np.random.default_rng(11)
    ex = SpiderExecutor(make_star_kernel(2, 2, rng))
    grids = [Grid.random((130, 134), rng, bc) for bc in ALL_BCS]
    serial = SweepRunner(1)
    expected = [ex.run(g, serial).tobytes() for g in grids]
    runners = [SweepRunner(2) for _ in grids]
    wrong = [0] * len(grids)
    errors = []

    def caller(i):
        try:
            for _ in range(20):
                if ex.run(grids[i], runners[i]).tobytes() != expected[i]:
                    wrong[i] += 1
        except Exception as exc:  # surfaced by the assertions below
            errors.append(exc)

    threads = [
        threading.Thread(target=caller, args=(i,), daemon=True)
        for i in range(len(grids))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave callers more often
    try:
        with _small_blocks():  # every runner's pool takes part
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        for runner in runners:
            runner.close()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == [0] * len(grids)


def test_one_grid_sweep_is_one_pool_dispatch(monkeypatch):
    """A one-grid sweep runs gather, GEMM, add and store of each output
    range as one task of a single pool dispatch: no stage dispatches on
    its own (the pad of one grid stays on the calling thread)."""
    runs = []
    real_run = MacThreadPool.run

    def run(self, fn, tasks):
        runs.append((fn.__name__, len(tasks)))
        return real_run(self, fn, tasks)

    monkeypatch.setattr(MacThreadPool, "run", run)
    rng = np.random.default_rng(17)
    ex = SpiderExecutor(named_stencil("heat2d"))
    grid = Grid.random((512, 512), rng)
    runner = SweepRunner(2)
    try:
        threaded = ex.run(grid, runner)
    finally:
        runner.close()
    assert runs == [("sweep_range", 2)]
    assert threaded.tobytes() == _run_released(ex.spec, grid, 1).tobytes()


@pytest.mark.parametrize(
    "kind,dims,radius,shape",
    [
        ("box", 1, 2, (61,)),
        ("box", 2, 2, (26, 31)),
        ("star", 3, 1, (9, 8, 13)),
    ],
    ids=["box1D-r2", "box2D-r2", "star3D-r1"],
)
def test_chained_sweeps_bit_identical_under_threads(kind, dims, radius, shape):
    """A chained ``sweep`` stores each intermediate into the padded
    centers, which neighbouring ranges still read as sources, so those
    stores wait until every range has finished: three chained sweeps of
    range-split grids match the serial chain byte for byte, for one grid
    and for a batch whose ranges cross grids, under every BC (ZERO takes
    the center-only pad)."""
    rng = np.random.default_rng(dims * 100 + radius)
    make = make_box_kernel if kind == "box" else make_star_kernel
    ex = SpiderExecutor(make(dims, radius, rng))
    serial, threaded = SweepRunner(1), SweepRunner(3)
    try:
        for bc in ALL_BCS:
            for batch in (1, 2):
                grids = [
                    Grid(rng.standard_normal(shape), bc) for _ in range(batch)
                ]
                with _small_blocks():
                    want = ex.sweep(grids, steps=3, runner=serial)
                    got = ex.sweep(grids, steps=3, runner=threaded)
                for a, b in zip(want, got):
                    assert a.tobytes() == b.tobytes(), (bc, batch)
    finally:
        threaded.close()


def test_all_zero_kernel_skips_gemm_identically():
    """m_active == 0 (every kernel row compacted away): no GEMM is
    issued on either path and the output is exactly zero."""
    rng = np.random.default_rng(3)
    spec = make_box_kernel(2, 1, rng)
    zero = spec.with_weights(np.zeros_like(np.asarray(spec.weights)))
    grid = Grid.random((12, 14), rng)
    serial = _run_released(zero, grid, 1)
    threaded = _run_threaded(zero, grid, 3)
    assert not np.any(serial)
    assert serial.tobytes() == threaded.tobytes()


@given(
    dims=st.integers(1, 3),
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
    serial = _run_released(spec, grid, 1, precision=precision)
    threaded = _run_threaded(spec, grid, threads, block, precision=precision)
    assert serial.tobytes() == threaded.tobytes()


# ----------------------------------------------------------------------
# lifecycle: immutable plans, lazy pools, pickling, fork safety
# ----------------------------------------------------------------------


def test_compiled_plans_hold_no_lock_pool_or_workspace():
    """A plan is its operands and geometry: after threaded sweeps, none
    of its layers holds a lock, a pool or scratch."""
    rng = np.random.default_rng(4)
    plan = build_compile_plan(named_stencil("heat2d"))
    runner = SweepRunner(2)
    try:
        with _small_blocks():
            plan.executor.run(Grid.random((16, 16), rng), runner)
        assert runner._pool is not None
    finally:
        runner.close()
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    mutable = lock_types + (MacThreadPool, executor_module._PlanWorkspace)
    for layer in (plan, plan.executor, plan.fused_operator):
        for name, value in vars(layer).items():
            assert not isinstance(value, mutable), (type(layer), name)
            assert not isinstance(value, collections.OrderedDict), name


def test_pool_created_lazily_and_only_when_parallel():
    baseline = live_mac_threads()
    rng = np.random.default_rng(0)
    ex = SpiderExecutor(make_box_kernel(2, 1, rng))
    runner = SweepRunner(3)
    assert runner._pool is None  # a new runner parks no threads
    assert live_mac_threads() == baseline
    try:
        with _small_blocks():
            ex.run(Grid.random((16, 16), rng), runner)
            assert runner._pool is not None
            assert live_mac_threads() == baseline + 2
            runner.close()
            assert live_mac_threads() == baseline
            # a closed runner that sweeps again starts a new pool
            ex.run(Grid.random((16, 16), rng), runner)
            assert live_mac_threads() == baseline + 2
    finally:
        runner.close()
        runner.close()  # idempotent
    assert live_mac_threads() == baseline
    # a serial runner never creates a pool at all
    serial = SweepRunner(1)
    with _small_blocks():
        ex.run(Grid.random((16, 16), rng), serial)
    assert serial._pool is None
    assert live_mac_threads() == baseline


def test_pickle_excludes_pool_and_ships_requested_values(monkeypatch):
    """A pickled executor ships only its compile inputs — never a pool
    or scratch, which belong to runners — and runs identically."""
    monkeypatch.setattr(SpiderExecutor, "BATCH_ROWS", 7)
    rng = np.random.default_rng(5)
    spec = make_box_kernel(2, 2, rng)
    grid = Grid.random((14, 14), rng)
    ex = SpiderExecutor(spec, "fp16")
    runner = SweepRunner(3)
    try:
        with _small_blocks():
            expected = ex.run(grid, runner)
            assert runner._pool is not None
            clone = pickle.loads(pickle.dumps(ex))
            assert (clone.precision, clone.use_sptc) == ("fp16", True)
            assert clone not in runner._arenas
            assert clone.run(grid, runner).tobytes() == expected.tobytes()
    finally:
        runner.close()


def test_plan_cache_eviction_trim_clear_shut_pools_down():
    """Eviction and clear drop plans outright, even ones a runner has
    served: the runner's scratch for a dropped plan goes with the plan.
    Threads belong to the runner alone and stop when it closes."""
    baseline = live_mac_threads()
    rng = np.random.default_rng(9)
    cache = PlanCache(capacity=1)
    runner = SweepRunner(3)
    spec_a, spec_b = named_stencil("heat2d"), named_stencil("jacobi2d")
    grid = Grid.random((16, 16), rng)
    try:
        with _small_blocks():
            cache.get_or_build(
                plan_key_for(spec_a, grid_shape=(16, 16)), spec=spec_a
            ).executor.run(grid, runner)
            assert live_mac_threads() == baseline + 2
            one_plan = runner.workspace_nbytes()
            assert one_plan > 0
            # capacity-1 LRU eviction drops plan a, and a's scratch with it
            cache.get_or_build(
                plan_key_for(spec_b, grid_shape=(16, 16)), spec=spec_b
            ).executor.run(grid, runner)
            gc.collect()
            assert len(runner._arenas) == 1
            assert runner.workspace_nbytes() == one_plan
            cache.clear()
            gc.collect()
            assert len(runner._arenas) == 0
            assert runner.workspace_nbytes() == 0
            assert live_mac_threads() == baseline + 2
    finally:
        runner.close()
    assert live_mac_threads() == baseline


def test_spider_runs_share_one_default_pool(monkeypatch):
    """``Spider.run`` sweeps on the process-wide default runner, so
    repeated one-shot Spiders on a threaded-size grid start at most one
    pool between them, however many Spiders come and go."""
    monkeypatch.setenv(MAC_THREADS_ENV, "2")
    # a fresh default runner, so the pool this test starts is its own
    monkeypatch.setattr(executor_module, "_DEFAULT_RUNNER", None)
    baseline = live_mac_threads()
    grid = Grid.random((128, 128), np.random.default_rng(4))
    try:
        for _ in range(3):
            sp = Spider(named_stencil("heat2d"))
            sp.run(grid)
            del sp
        gc.collect()
        assert live_mac_threads() - baseline <= 1
    finally:
        executor_module.default_runner().close()
    assert live_mac_threads() == baseline


def test_evicted_plans_callers_still_run_leave_no_threads():
    """Two callers alternate plans on a capacity-1 service cache and run
    the plans they got on the service's sync runner, after later compiles
    evicted them too.  Plans own no threads, so nothing outlives
    close()."""
    baseline = threading.active_count()
    svc = StencilService(workers=0, mac_threads=2, cache_capacity=1)
    specs = [named_stencil("heat2d"), named_stencil("blur2d")]
    grid = Grid.random((128, 128), np.random.default_rng(5))
    errors = []

    def caller(i):
        held = []
        try:
            for k in range(20):
                spec = specs[(i + k) % 2]
                key = plan_key_for(spec, grid_shape=grid.shape)
                # this round's compile evicted the plan of the last round
                # (capacity 1, alternating specs); run both
                plan = svc._local_cache.get_or_build(key, spec=spec)
                held = [plan] + held[:1]
                for p in held:
                    p.executor.run(grid, svc._sync_runner)
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
    assert svc.stats().cache.evictions > 0
    svc.close()
    assert threading.active_count() == baseline


def test_stale_foreign_pid_pool_dropped_never_joined():
    """A pool object 'inherited from another process' (simulated by a
    foreign pid) is dropped without shutdown — its threads don't exist in
    this process — and a fresh pool is built under the current pid."""
    rng = np.random.default_rng(1)
    ex = SpiderExecutor(make_box_kernel(2, 1, rng))
    runner = SweepRunner(2)
    grid = Grid.random((16, 16), rng)
    try:
        with _small_blocks():
            expected = ex.run(grid, runner)
            stale = runner.pool()
            stale.pid = os.getpid() + 1  # simulate a fork-inherited pool
            fresh = runner.pool()
            assert fresh is not stale
            assert not stale.closed  # dropped, never joined
            stale.pid = os.getpid()  # let the test clean it up for real
            stale.shutdown()
            fresh.pid = os.getpid() + 1
            runner.close()  # a foreign pool: dropped, never joined
            assert not fresh.closed
            fresh.pid = os.getpid()
            fresh.shutdown()
            assert ex.run(grid, runner).tobytes() == expected.tobytes()
    finally:
        runner.close()


# ----------------------------------------------------------------------
# differential + lifecycle through the serving stack
# ----------------------------------------------------------------------


def _serve_all(requests, *, mac_threads, backend="thread", workers=2, **kw):
    with StencilService(
        workers=workers,
        backend=backend,
        max_batch_size=4,
        mac_threads=mac_threads,
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
    return [h.result() for h in handles], stats


def _serving_requests(seed=13):
    """Mixed dims x BCs x steps request list (steps>1 covers the temporal
    super-sweep path under threading).  Every shape crosses the MAC's
    4096-column threshold, so threads > 1 take the threaded path inside
    worker processes too."""
    rng = np.random.default_rng(seed)
    cases = [
        ("wave1d", (1 << 15,)),
        ("heat2d", (130, 134)),
        ("blur2d", (128, 128)),
        ("heat3d", (20, 24, 40)),
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
    mac_threads=1 vs 3 on every backend, and at 3 threads the MAC really
    splits its columns (more ``mac.gemm`` spans), worker processes
    included."""
    requests = _serving_requests()
    serial, serial_stats = _serve_all(
        requests, mac_threads=1, backend=backend, workers=workers, trace=True
    )
    threaded, threaded_stats = _serve_all(
        requests, mac_threads=3, backend=backend, workers=workers, trace=True
    )
    for (spec, grid, steps), a, b in zip(requests, serial, threaded):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), (spec.name, grid.bc, steps)
    assert (
        threaded_stats.stages["mac.gemm"]["count"]
        > serial_stats.stages["mac.gemm"]["count"]
    )


@pytest.mark.parametrize("workers", [0, 2], ids=["sync", "thread"])
def test_service_close_leaves_no_mac_threads(workers):
    baseline = live_mac_threads()
    rng = np.random.default_rng(2)
    svc = StencilService(workers=workers, mac_threads=3)
    svc.run(named_stencil("heat2d"), Grid.random((128, 128), rng))
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
    with StencilService(workers=1, trace=True, mac_threads=3) as svc:
        for _ in range(3):
            svc.run(named_stencil("heat2d"), Grid.random((128, 128), rng))
        stats = svc.stats()
    gemm = stats.stages.get("mac.gemm")
    assert gemm is not None
    # a 128x128 sweep spans several column blocks on the threaded path,
    # and each block emits one span — strictly more spans than batches
    assert gemm["count"] > stats.telemetry.batches
    assert gemm["total_s"] >= 0.0
