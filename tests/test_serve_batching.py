"""Batch fusion (`SpiderExecutor.sweep`) equivalence and batch-queue policy."""

import time

import numpy as np
import pytest

from repro.core import Spider, SpiderVariant
from repro.core.executor import SpiderExecutor
from repro.serve import BatchQueue, ServeRequest, plan_key_for
from repro.stencil import (
    Grid,
    make_box_kernel,
    make_star_kernel,
    named_stencil,
)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

BATCH_CASES = [
    ("heat1d", (96,)),
    ("wave1d", (130,)),
    ("heat2d", (20, 33)),
    ("blur2d", (17, 40)),
    ("wave2d", (24, 24)),
    ("heat3d", (9, 11, 13)),
    ("blur3d", (8, 8, 8)),
]


@pytest.mark.parametrize("name,shape", BATCH_CASES)
def test_run_batch_bit_identical_to_per_grid_run(name, shape, rng):
    ex = SpiderExecutor(named_stencil(name))
    grids = [Grid.random(shape, rng) for _ in range(5)]
    ref = np.stack([ex.run(g) for g in grids])
    got = np.stack(ex.sweep(grids))
    assert got.shape == (5,) + shape
    assert np.array_equal(ref, got)


@pytest.mark.parametrize("variant", list(SpiderVariant))
@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_run_batch_all_variants_and_precisions(variant, precision, rng):
    spec = make_box_kernel(2, 3, rng, symmetric=True)
    sp = Spider(spec, precision, variant)
    grids = [Grid.random((24, 32), rng) for _ in range(4)]
    ref = np.stack([sp.run(g) for g in grids])
    got = np.stack(sp.executor.sweep(grids))
    assert got.dtype == ref.dtype
    assert np.array_equal(ref, got)


def test_run_batch_singleton_matches_run(rng):
    ex = SpiderExecutor(make_star_kernel(2, 2, rng))
    g = Grid.random((19, 27), rng)
    assert np.array_equal(ex.sweep([g])[0], ex.run(g))


def test_run_batch_crosses_batch_rows_chunking(rng, monkeypatch):
    """Fused batches spanning multiple BATCH_ROWS chunks stay exact."""
    monkeypatch.setattr(SpiderExecutor, "BATCH_ROWS", 16)
    ex = SpiderExecutor(named_stencil("heat2d"))
    grids = [Grid.random((24, 20), rng) for _ in range(3)]  # 72 lines, 5 chunks
    ref = np.stack([ex.run(g) for g in grids])
    assert np.array_equal(ref, ex.sweep(grids))


def test_run_batch_input_validation(rng):
    ex = SpiderExecutor(named_stencil("heat2d"))
    with pytest.raises(ValueError):
        ex.sweep([])
    with pytest.raises(ValueError):
        ex.sweep([Grid.random((16,), rng)])  # 1D grid, 2D executor
    with pytest.raises(ValueError):
        ex.sweep([Grid.random((16, 16), rng), Grid.random((16, 18), rng)])


# ----------------------------------------------------------------------
# BatchQueue
# ----------------------------------------------------------------------


def _req(spec, grid_shape, req_id=0, rng=None):
    rng = rng or np.random.default_rng(req_id)
    grid = Grid.random(grid_shape, rng)
    key = plan_key_for(spec, grid_shape=grid_shape)
    return ServeRequest(req_id, spec, grid, key, submitted_s=time.monotonic())


def test_queue_coalesces_same_key_only():
    q = BatchQueue(max_batch_size=8)
    heat, blur = named_stencil("heat2d"), named_stencil("blur2d")
    reqs = [
        _req(heat, (16, 16), 0),
        _req(heat, (16, 16), 1),
        _req(blur, (16, 16), 2),
        _req(heat, (16, 16), 3),
    ]
    for r in reqs:
        q.put(r)
    first = q.get_batch()
    assert [r.req_id for r in first] == [0, 1, 3]
    second = q.get_batch()
    assert [r.req_id for r in second] == [2]
    assert len(q) == 0


def test_queue_respects_max_batch_size():
    q = BatchQueue(max_batch_size=2)
    spec = named_stencil("heat2d")
    for i in range(5):
        q.put(_req(spec, (16, 16), i))
    sizes = [len(q.get_batch()) for _ in range(3)]
    assert sizes == [2, 2, 1]


def test_queue_shape_splits_batches():
    """Same spec, different grid shape -> different plan key -> no fusion."""
    q = BatchQueue(max_batch_size=8)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.put(_req(spec, (32, 32), 1))
    assert [r.req_id for r in q.get_batch()] == [0]
    assert [r.req_id for r in q.get_batch()] == [1]


def test_queue_releases_early_when_full():
    q = BatchQueue(max_batch_size=2)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.put(_req(spec, (16, 16), 1))
    start = time.monotonic()
    batch = q.get_batch()
    assert len(batch) == 2
    assert time.monotonic() - start < 1.0


def test_queue_serves_oldest_head_first_no_starvation():
    """A sustained hot key must not starve a colder key on the shard."""
    q = BatchQueue(max_batch_size=2)
    heat, blur = named_stencil("heat2d"), named_stencil("blur2d")
    # arrival order: A0 A1 B2 A3 A4 — B arrives before A3/A4
    for spec, rid in [(heat, 0), (heat, 1), (blur, 2), (heat, 3), (heat, 4)]:
        q.put(_req(spec, (16, 16), rid))
    batches = [[r.req_id for r in q.get_batch()] for _ in range(3)]
    assert batches[0] == [0, 1]
    assert batches[1] == [2]  # B served before the younger A requests
    assert batches[2] == [3, 4]


def test_queue_close_semantics():
    q = BatchQueue(max_batch_size=4)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.close()
    assert [r.req_id for r in q.get_batch()] == [0]
    assert q.get_batch() is None
    with pytest.raises(RuntimeError):
        q.put(_req(spec, (16, 16), 1))


def test_queue_parameter_validation():
    with pytest.raises(ValueError):
        BatchQueue(max_batch_size=0)


def test_request_handle_lifecycle():
    spec = named_stencil("heat2d")
    req = _req(spec, (8, 8), 7)
    assert not req.done()
    assert req.latency_s is None
    with pytest.raises(TimeoutError):
        req.result(timeout=0.01)
    out = np.ones((8, 8))
    req._resolve(out, batch_size=3, started_s=req.submitted_s + 0.5,
                 finished_s=req.submitted_s + 1.0)
    assert req.done() and not req.failed
    assert req.result() is out
    assert req.batch_size == 3
    assert req.latency_s == pytest.approx(1.0)
    assert req.queue_wait_s == pytest.approx(0.5)

    failed = _req(spec, (8, 8), 8)
    failed._fail(ValueError("boom"), started_s=0.0, finished_s=0.0)
    assert failed.failed
    with pytest.raises(ValueError, match="boom"):
        failed.result()
