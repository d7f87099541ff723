"""Plan-cache semantics: fingerprints, hit/miss keys, LRU order, and
bit-identity of cached plans vs. fresh compiles."""

import numpy as np
import pytest

from repro.core import Spider, SpiderVariant, build_compile_plan
from repro.serve import CacheStats, PlanCache, plan_key_for, spec_fingerprint
from repro.serve.workers import execute_serve_batch
from repro.stencil import Grid, make_box_kernel, named_stencil


def test_fingerprint_equal_for_equal_specs():
    a = named_stencil("heat2d")
    b = named_stencil("heat2d")
    assert a is not b
    assert spec_fingerprint(a) == spec_fingerprint(b)


def test_fingerprint_ignores_cosmetic_name():
    a = named_stencil("heat2d")
    b = a.with_weights(np.asarray(a.weights))
    assert b.name == a.name
    object.__setattr__(b, "name", "renamed")
    assert spec_fingerprint(a) == spec_fingerprint(b)


def test_fingerprint_differs_on_weights_radius_shape():
    rng = np.random.default_rng(0)
    base = make_box_kernel(2, 2, rng)
    w = np.array(base.weights)
    w[0, 0] += 1e-12
    assert spec_fingerprint(base) != spec_fingerprint(base.with_weights(w))
    assert spec_fingerprint(base) != spec_fingerprint(
        make_box_kernel(2, 3, np.random.default_rng(0))
    )
    assert spec_fingerprint(named_stencil("heat2d")) != spec_fingerprint(
        named_stencil("jacobi2d")
    )


def test_hit_on_identical_spec_fingerprint():
    cache = PlanCache(capacity=4)
    spec_a = named_stencil("heat2d")
    spec_b = named_stencil("heat2d")  # distinct object, same kernel
    key_a = plan_key_for(spec_a, grid_shape=(32, 32))
    key_b = plan_key_for(spec_b, grid_shape=(32, 32))
    assert key_a == key_b
    plan1 = cache.get_or_build(key_a, spec=spec_a)
    plan2 = cache.get_or_build(key_b, spec=spec_b)
    assert plan2 is plan1
    st = cache.stats()
    assert (st.hits, st.misses) == (1, 1)


@pytest.mark.parametrize("what", ["variant", "precision", "tile"])
def test_miss_on_configuration_change(what):
    cache = PlanCache(capacity=8)
    spec = named_stencil("heat2d")
    base = plan_key_for(
        spec, SpiderVariant.SPTC_CO, "exact", grid_shape=(32, 32)
    )
    if what == "variant":
        other = plan_key_for(
            spec, SpiderVariant.TC, "exact", grid_shape=(32, 32)
        )
    elif what == "precision":
        other = plan_key_for(
            spec, SpiderVariant.SPTC_CO, "fp16", grid_shape=(32, 32)
        )
    else:
        other = plan_key_for(
            spec, SpiderVariant.SPTC_CO, "exact", grid_shape=(64, 64)
        )
    assert other != base
    cache.get_or_build(base, spec=spec)
    cache.get_or_build(other, spec=spec)
    st = cache.stats()
    assert (st.hits, st.misses, st.size) == (0, 2, 2)


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    spec = named_stencil("heat2d")
    ka = plan_key_for(spec, grid_shape=(16, 16))
    kb = plan_key_for(spec, grid_shape=(32, 32))
    kc = plan_key_for(spec, grid_shape=(64, 64))
    cache.get_or_build(ka, spec=spec)
    cache.get_or_build(kb, spec=spec)
    cache.get_or_build(ka, spec=spec)  # refresh A; B is now LRU
    cache.get_or_build(kc, spec=spec)  # evicts B
    assert kb not in cache
    assert ka in cache and kc in cache
    assert cache.keys() == (ka, kc)
    st = cache.stats()
    assert st.evictions == 1
    assert cache.lookup(kb) is None  # miss after eviction


def test_cached_plan_bit_identical_to_fresh_compile(rng):
    spec = named_stencil("wave2d")
    cache = PlanCache(capacity=2)
    key = plan_key_for(spec, grid_shape=(40, 48))
    plan = cache.get_or_build(key, spec=spec)
    grid = Grid.random((40, 48), rng)
    out_cached = Spider.from_plan(plan).run(grid)
    out_fresh = Spider(spec).run(grid)
    assert np.array_equal(out_cached, out_fresh)
    # second lookup returns the same plan object (no recompilation)
    assert cache.get_or_build(key, spec=spec) is plan
    assert np.array_equal(Spider.from_plan(plan).run(grid), out_fresh)


def test_plan_rejects_mismatched_spider_config():
    spec = named_stencil("heat2d")
    plan = build_compile_plan(spec)
    with pytest.raises(ValueError):
        Spider(named_stencil("jacobi2d"), plan=plan)
    with pytest.raises(ValueError):
        Spider(spec, "fp16", plan=plan)
    with pytest.raises(ValueError):
        Spider(spec, variant=SpiderVariant.TC, plan=plan)


def test_capacity_validation_and_clear():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)
    cache = PlanCache(capacity=2)
    spec = named_stencil("heat1d")
    cache.get_or_build(plan_key_for(spec, grid_shape=(64,)), spec=spec)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    st = cache.stats()
    assert st.misses == 1  # counters survive clear


def test_mac_knobs_reach_plain_and_fused_plans(rng):
    """A ``steps > 1`` batch builds exactly one plan, the plain plan of
    ``key.base()``, and chains its sweeps through it."""
    spec = named_stencil("heat2d")
    cache = PlanCache(capacity=4)
    key = plan_key_for(spec, grid_shape=(24, 24), steps=2)
    grids = [Grid(rng.standard_normal((24, 24))) for _ in range(2)]
    execute_serve_batch(cache, key, spec, grids)
    assert cache.keys() == (key.base(),)


def test_cache_stats_aggregate():
    parts = [
        CacheStats(hits=9, misses=1, evictions=0, size=1, capacity=4),
        CacheStats(hits=3, misses=2, evictions=1, size=2, capacity=4),
    ]
    agg = CacheStats.aggregate(parts)
    assert (agg.hits, agg.misses, agg.evictions) == (12, 3, 1)
    assert agg.hit_rate == pytest.approx(12 / 15)
    empty = CacheStats.aggregate([])
    assert empty.hit_rate == 0.0
