"""Cross-backend differential suite for temporal fusion in the serving path.

The contract under test: ``submit(spec, grid, steps=t)`` executes one
in-worker temporal super-sweep whose result is **byte-identical** to ``t``
sequential ``submit()`` round-trips (re-wrapping each result with the
grid's boundary condition), on every backend — thread workers, process
workers, and the synchronous fallback — across dimensionalities,
precisions and boundary conditions.  The suite also pins the sweep-aware
plumbing: requests coalesce by ``(plan, steps)``, the sweep-aware
:class:`PlanKey` round-trips losslessly, every ``steps`` value shares one
plain plan, and telemetry counts sweeps.
"""

import numpy as np
import pytest

from repro.core.temporal import fuse_kernel
from repro.serve import (
    BatchQueue,
    PlanKey,
    ServeRequest,
    StencilService,
    format_service_report,
    plan_key_for,
    spec_fingerprint,
)
from repro.stencil import BoundaryCondition, Grid, named_stencil

#: dims 1/2/3, star + box footprints, radii 1-2.
TEMPORAL_SHAPES = [
    ("wave1d", (64,)),
    ("heat2d", (20, 24)),
    ("blur2d", (18, 22)),
    ("heat3d", (9, 10, 11)),
]

ALL_BCS = [
    BoundaryCondition.ZERO,
    BoundaryCondition.PERIODIC,
    BoundaryCondition.REFLECT,
    BoundaryCondition.NEAREST,
]

#: (backend, workers) choices: the sync fallback is workers == 0.
BACKENDS = [("thread", 2), ("process", 2), ("thread", 0)]


def _temporal_requests(seed=7):
    """Mixed-dims trace of (spec, grid, steps) cycling every BC."""
    rng = np.random.default_rng(seed)
    out = []
    for i, (name, shape) in enumerate(TEMPORAL_SHAPES):
        spec = named_stencil(name)
        for steps in (2, 3):
            bc = ALL_BCS[(i + steps) % len(ALL_BCS)]
            if bc is BoundaryCondition.REFLECT and min(shape) <= spec.radius:
                bc = BoundaryCondition.ZERO
            out.append((spec, Grid(rng.standard_normal(shape), bc), steps))
    return out


def _roundtrip(svc, spec, grid, steps):
    """The per-sweep path: ``steps`` sequential submit round-trips.

    Returns the final sweep's raw result array (float32 under fp16 —
    only *intermediate* results get re-wrapped into float64 grids, in
    both this path and the in-worker super-sweep).
    """
    cur, out = grid, None
    for _ in range(steps):
        out = svc.run(spec, cur, timeout=120)
        cur = Grid(out, grid.bc)
    return out


# ----------------------------------------------------------------------
# differential: super-sweep vs sequential round-trips, byte-identical
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend,workers", BACKENDS)
@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_steps_byte_identical_to_roundtrips(backend, workers, precision):
    requests = _temporal_requests()
    with StencilService(
        workers=workers,
        backend=backend,
        precision=precision,
        max_batch_size=4,
    ) as svc:
        fused = [
            svc.submit(spec, grid.copy(), steps=steps)
            for spec, grid, steps in requests
        ]
        svc.drain(timeout=300)
        fused_outs = [h.result() for h in fused]
        seq_outs = [
            _roundtrip(svc, spec, grid, steps)
            for spec, grid, steps in requests
        ]
        stats = svc.stats()
    assert stats.telemetry.errors == 0
    for (spec, grid, steps), a, b in zip(requests, fused_outs, seq_outs):
        assert a.shape == grid.shape
        assert a.tobytes() == b.tobytes(), (spec.name, grid.bc, steps)


def test_super_sweep_identity_survives_worker_count():
    """Sharding differently cannot perturb multi-sweep results."""
    requests = _temporal_requests(seed=3)
    outs = {}
    for backend, workers in (("thread", 1), ("thread", 3), ("process", 2)):
        with StencilService(
            workers=workers, backend=backend
        ) as svc:
            handles = [
                svc.submit(spec, grid.copy(), steps=steps)
                for spec, grid, steps in requests
            ]
            svc.drain(timeout=300)
            outs[(backend, workers)] = [h.result() for h in handles]
    base = outs[("thread", 1)]
    for key, other in outs.items():
        for a, b in zip(base, other):
            assert a.tobytes() == b.tobytes(), key


# ----------------------------------------------------------------------
# sweep-aware coalescing and plan keys
# ----------------------------------------------------------------------


def test_distinct_steps_never_share_a_batch(rng):
    """Requests differing only in ``steps`` must coalesce separately."""
    spec = named_stencil("heat2d")
    grid = Grid.random((12, 12), rng)
    q = BatchQueue(max_batch_size=8)
    reqs = []
    for i, steps in enumerate([1, 2, 1, 2, 3]):
        key = plan_key_for(spec, grid_shape=grid.shape, steps=steps)
        reqs.append(ServeRequest(i, spec, grid, key, 0.0))
        assert reqs[-1].steps == steps  # derived from the sweep-aware key
        q.put(reqs[-1])
    batches = [q.get_batch() for _ in range(3)]
    got = sorted(tuple(r.req_id for r in b) for b in batches)
    assert got == [(0, 2), (1, 3), (4,)]
    for b in batches:
        assert len({r.key.steps for r in b}) == 1


def test_plan_key_steps_identity_and_routing():
    spec = named_stencil("blur2d")
    base = plan_key_for(spec, grid_shape=(32, 32))
    swept = plan_key_for(spec, grid_shape=(32, 32), steps=4)
    assert base.steps == 1 and swept.steps == 4
    assert base != swept  # distinct cache/coalescing identity ...
    assert swept.base() == base
    assert base.base() is base
    # ... but identical routing: super-sweeps share their plain plan's shard
    assert base.routing_hash() == swept.routing_hash()
    with pytest.raises(ValueError):
        plan_key_for(spec, grid_shape=(32, 32), steps=0)


def test_submit_validates_steps(rng):
    with StencilService(workers=0) as svc:
        with pytest.raises(ValueError):
            svc.submit(named_stencil("heat2d"), Grid.random((8, 8), rng),
                       steps=0)


def test_telemetry_counts_sweeps(rng):
    spec = named_stencil("heat2d")
    with StencilService(workers=2) as svc:
        for steps in (1, 2, 5):
            svc.submit(spec, Grid.random((12, 12), rng), steps=steps)
        svc.drain(timeout=120)
        stats = svc.stats()
    assert stats.telemetry.requests == 3
    assert stats.telemetry.sweeps == 8
    # steps > 1 batches chain sweeps through the one plain plan
    assert stats.cache.misses == 1
    assert "sweeps advanced" in format_service_report(stats)


# ----------------------------------------------------------------------
# fuse_kernel steps=1 cache regression (satellite bugfix)
# ----------------------------------------------------------------------


def test_fuse_kernel_one_step_preserves_fingerprint_and_cache_hits():
    star = named_stencil("heat2d")  # star footprint
    fused1 = fuse_kernel(star, 1)
    assert fused1 is star  # no BOX relabeling, no weight copy
    assert spec_fingerprint(fused1) == spec_fingerprint(star)
    # a steps=1 recipe and a plain recipe build the same plan key
    assert plan_key_for(fused1, grid_shape=(16, 16)) == plan_key_for(
        star, grid_shape=(16, 16)
    )


# ----------------------------------------------------------------------
# sweep-aware serialization round-trips
# ----------------------------------------------------------------------


def test_plan_key_dict_roundtrip_with_steps():
    key = plan_key_for(named_stencil("heat2d"), grid_shape=(20, 24), steps=3)
    again = PlanKey.from_dict(key.to_dict())
    assert again == key
    assert again.steps == 3
    assert again.routing_hash() == key.routing_hash()
    # pre-sweep-aware dicts (no "steps") load as plain keys
    legacy = {k: v for k, v in key.to_dict().items() if k != "steps"}
    assert PlanKey.from_dict(legacy) == key.base()
