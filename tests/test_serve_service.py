"""StencilService end-to-end: sync fallback, sharded workers, telemetry,
error routing, and the 1,000-request mixed-spec acceptance run."""

import sys
import threading

import numpy as np
import pytest

from repro import Spider, StencilService
from repro.stencil import (
    Grid,
    closed_loop_stream,
    named_stencil,
    open_loop_stream,
    serving_workloads,
)


def _reference_outputs(requests):
    """Per-request Spider.run oracle (one compiled Spider per workload)."""
    spiders = {}
    outs = []
    for r in requests:
        sp = spiders.get(id(r.workload))
        if sp is None:
            sp = spiders[id(r.workload)] = Spider(r.spec)
        outs.append(sp.run(r.grid))
    return outs


# ----------------------------------------------------------------------
# synchronous fallback (workers=0)
# ----------------------------------------------------------------------


def test_sync_fallback_matches_spider(rng):
    spec = named_stencil("heat2d")
    grid = Grid.random((40, 40), rng)
    with StencilService(workers=0) as svc:
        out = svc.run(spec, grid)
        assert np.array_equal(out, Spider(spec).run(grid))
        handle = svc.submit(spec, Grid.random((40, 40), rng))
        assert handle.done()  # sync path resolves inline
        st = svc.stats()
    assert st.workers == 0
    assert st.submitted == 2
    assert st.telemetry.requests == 2
    assert st.cache.hits == 1 and st.cache.misses == 1


def test_sync_fallback_accepts_raw_arrays(rng):
    spec = named_stencil("blur2d")
    arr = rng.normal(size=(24, 24))
    with StencilService(workers=0) as svc:
        out = svc.run(spec, arr)
    assert np.array_equal(out, Spider(spec).run(Grid(arr)))


def test_sync_path_shared_by_threads_matches_single_caller(rng):
    """Caller threads sharing the sync path's plan cache get the bytes a
    single caller gets: they share the service's one sync runner and take
    turns on its lock, so concurrent callers never overwrite each other's
    workspace."""
    spec = named_stencil("heat2d")
    grids = [Grid.random((64, 64), rng) for _ in range(4)]
    with StencilService(workers=0, mac_threads=1) as svc:
        expected = [svc.run(spec, g).tobytes() for g in grids]
        wrong = [0] * len(grids)
        errors = []

        def caller(i):
            try:
                for _ in range(100):
                    if svc.run(spec, grids[i]).tobytes() != expected[i]:
                        wrong[i] += 1
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        threads = [
            threading.Thread(target=caller, args=(i,), daemon=True)
            for i in range(len(grids))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave callers more often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == [0] * len(grids)


def test_error_propagates_without_killing_service(rng):
    spec2d = named_stencil("heat2d")
    bad = Grid.random((64,), rng)  # 1D grid for a 2D stencil
    good = Grid.random((16, 16), rng)
    for workers in (0, 2):
        with StencilService(workers=workers) as svc:
            h_bad = svc.submit(spec2d, bad)
            with pytest.raises(ValueError):
                h_bad.result(timeout=10)
            assert h_bad.failed
            out = svc.submit(spec2d, good).result(timeout=10)
            assert np.array_equal(out, Spider(spec2d).run(good))
            assert svc.stats().telemetry.errors == 1


# ----------------------------------------------------------------------
# threaded service
# ----------------------------------------------------------------------


def test_threaded_results_match_reference():
    wls = serving_workloads(seed=5)
    reqs = list(closed_loop_stream(wls, 120, seed=6))
    refs = _reference_outputs(reqs)
    with StencilService(workers=4, max_batch_size=8) as svc:
        handles = svc.submit_many((r.spec, r.grid) for r in reqs)
        svc.drain(timeout=120)
        st = svc.stats()
    for h, ref in zip(handles, refs):
        assert np.array_equal(h.result(), ref)
    assert st.telemetry.requests == 120
    assert st.telemetry.errors == 0
    assert st.inflight == 0


def test_batching_actually_fuses(shard_gate):
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(0)
    grids = [Grid.random((16, 16), rng) for _ in range(32)]
    with StencilService(workers=1, max_batch_size=8) as svc:
        # the burst queues while the only shard is held in the first batch
        svc.submit(spec, grids[0])
        assert shard_gate.entered.wait(60)
        svc.submit_many((spec, g) for g in grids[1:])
        shard_gate.gate.set()
        svc.drain(timeout=120)
        st = svc.stats()
    # a burst of 32 same-spec requests must not run as 32 singletons
    assert st.telemetry.batches < 32
    assert st.telemetry.occupancy["mean"] >= 2.0
    assert st.telemetry.occupancy["max"] == 8.0


def test_batched_results_do_not_pin_the_fused_batch_array(shard_gate):
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(1)
    grids = [Grid.random((16, 16), rng) for _ in range(9)]
    with StencilService(workers=1, max_batch_size=8) as svc:
        svc.submit(spec, grids[0])  # holds the only shard
        assert shard_gate.entered.wait(60)
        handles = svc.submit_many((spec, g) for g in grids[1:])
        shard_gate.gate.set()
        svc.drain(timeout=120)
        assert svc.stats().telemetry.occupancy["max"] == 8.0  # fused
    for h in handles:
        out = h.result()
        assert out.base is None  # owns its data, not a view of the batch


def test_idle_shard_serves_a_lone_request_without_waiting():
    """An idle worker takes a request as soon as it arrives: nothing holds
    a lone request back to wait for others to batch with."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(2)
    with StencilService(workers=1, backend="thread") as svc:
        waits = []
        for _ in range(20):
            h = svc.submit(spec, Grid.random((16, 16), rng))
            h.result(timeout=60)
            waits.append(h.queue_wait_s)
    assert float(np.median(waits)) < 1e-3, waits


def test_inflight_sweep_does_not_retain_behind_slow_head():
    """Completed requests behind an unresolved head are swept periodically."""
    svc = StencilService(workers=0)
    spec = named_stencil("heat2d")
    slow = svc.submit(spec, Grid.random((8, 8)))
    slow._event.clear()  # simulate a head that never completes
    for _ in range(600):
        svc.run(spec, Grid.random((8, 8)))
    assert len(svc._inflight) < 400  # swept despite the stuck head
    slow._event.set()
    svc.close()


def test_spec_affinity_keeps_worker_caches_disjoint():
    wls = serving_workloads(seed=5)
    reqs = list(closed_loop_stream(wls, 200, seed=8))
    with StencilService(workers=4, max_batch_size=8) as svc:
        svc.submit_many((r.spec, r.grid) for r in reqs)
        svc.drain(timeout=120)
        st = svc.stats()
    # every distinct plan compiles on exactly one worker: total misses ==
    # number of distinct plan keys (here: one per workload)
    assert st.cache.misses == len(wls)


def test_open_loop_trace_serves(rng):
    wls = serving_workloads(["heat2d", "blur2d"], size_2d=(16, 16), seed=5)
    reqs = list(open_loop_stream(wls, 30, rate_rps=5000.0, seed=9))
    assert all(
        a.arrival_s <= b.arrival_s for a, b in zip(reqs, reqs[1:])
    )
    refs = _reference_outputs(reqs)
    with StencilService(workers=2) as svc:
        handles = svc.submit_many((r.spec, r.grid) for r in reqs)
        svc.drain(timeout=120)
    for h, ref in zip(handles, refs):
        assert np.array_equal(h.result(), ref)


def test_drain_empty_and_closed_lifecycle():
    svc = StencilService(workers=2)
    svc.drain()  # nothing in flight: returns immediately
    svc.close()
    svc.close()  # idempotent
    with pytest.raises(RuntimeError):
        svc.submit(named_stencil("heat2d"), Grid.random((8, 8)))


def test_service_parameter_validation():
    with pytest.raises(ValueError):
        StencilService(workers=-1)


def test_format_report_mentions_key_stats():
    with StencilService(workers=0) as svc:
        svc.run(named_stencil("heat2d"), Grid.random((16, 16)))
        text = svc.format_report()
    assert "plan cache" in text
    assert "latency (ms)" in text
    assert "batch occupancy" in text


# ----------------------------------------------------------------------
# acceptance: 1,000 mixed-spec requests through >= 4 workers
# ----------------------------------------------------------------------


def test_thousand_mixed_requests_bit_identical_and_cached():
    wls = serving_workloads(
        ["heat2d", "blur2d", "wave1d", "Star-2D2R", "heat3d"],
        size_2d=(24, 24),
        size_1d=(1024,),
        size_3d=(10, 10, 10),
        seed=11,
    )
    reqs = list(closed_loop_stream(wls, 1000, seed=12))
    refs = _reference_outputs(reqs)
    with StencilService(workers=4, max_batch_size=8) as svc:
        handles = svc.submit_many((r.spec, r.grid) for r in reqs)
        svc.drain(timeout=600)
        st = svc.stats()
    mismatches = sum(
        0 if np.array_equal(h.result(), ref) else 1
        for h, ref in zip(handles, refs)
    )
    assert mismatches == 0
    assert st.telemetry.requests == 1000
    assert st.telemetry.errors == 0
    assert st.workers == 4
    assert st.cache_hit_rate >= 0.90, st.cache
