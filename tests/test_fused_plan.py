"""Fused single-GEMM fast path: bit-identity oracle + workspace arena.

The fused plan (`K_all` stacked at compile time, one windowing pass, one
ordered GEMM per line block, workspaces owned by the caller's
``SweepRunner``) must be bit-identical to the seed per-row fast path,
which is kept verbatim as ``SpiderExecutor._reference_run``.  These tests
sweep the equivalence matrix — dims × shape family × radius × precision ×
batch size, including line lengths that are not a multiple of L — and pin
the arena's zero-allocation steady state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    build_fused_operator,
    encode_kernel_row,
    stack_encoded_rows,
)
from repro.core.executor import SpiderExecutor, SweepRunner
from repro.core.pipeline import Spider, SpiderVariant, build_compile_plan
from repro.sptc.formats import Sparse24Matrix
from repro.stencil import (
    BoundaryCondition,
    Grid,
    make_box_kernel,
    make_star_kernel,
    naive_stencil,
    named_stencil,
)


def _make(dims, r, kind, rng):
    make = make_box_kernel if kind == "box" else make_star_kernel
    return make(dims, r, rng)


# ----------------------------------------------------------------------
# Bit-identity oracle: fused plan == seed per-row path
# ----------------------------------------------------------------------

EQUIVALENCE_MATRIX = [
    # (dims, radius, kind, shape) — shapes include non-multiple-of-L tails
    (1, 1, "box", (41,)),
    (1, 2, "star", (130,)),
    (1, 3, "box", (97,)),
    (2, 1, "box", (23, 41)),
    (2, 1, "star", (16, 16)),
    (2, 2, "box", (20, 33)),
    (2, 2, "star", (19, 27)),
    (2, 3, "box", (17, 40)),
    (2, 3, "star", (21, 35)),
    (3, 1, "box", (7, 9, 11)),
    (3, 1, "star", (8, 8, 8)),
    (3, 2, "box", (9, 11, 13)),
    (3, 2, "star", (6, 10, 14)),
    (3, 3, "star", (9, 9, 17)),
]


@pytest.mark.parametrize("dims,r,kind,shape", EQUIVALENCE_MATRIX)
@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_fused_bit_identical_to_reference(dims, r, kind, shape, precision, rng):
    spec = _make(dims, r, kind, rng)
    ex = SpiderExecutor(spec, precision)
    for batch in (1, 3):
        grids = [Grid.random(shape, rng) for _ in range(batch)]
        ref = ex._reference_run(grids)
        got = ex.run_batch(grids)
        assert got.dtype == ref.dtype
        assert np.array_equal(ref, got), (dims, r, kind, shape, precision, batch)


@pytest.mark.parametrize(
    "bc",
    [
        BoundaryCondition.ZERO,
        BoundaryCondition.PERIODIC,
        BoundaryCondition.REFLECT,
        BoundaryCondition.NEAREST,
    ],
)
def test_fused_bit_identical_across_boundary_conditions(bc, rng):
    spec = make_box_kernel(2, 2, rng)
    ex = SpiderExecutor(spec)
    grids = [Grid.random((19, 27), rng, bc) for _ in range(2)]
    assert np.array_equal(ex._reference_run(grids), ex.run_batch(grids))


@given(
    dims=st.integers(1, 3),
    r=st.integers(1, 3),
    kind=st.sampled_from(["box", "star"]),
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_fused_bit_identity_property(dims, r, kind, batch, seed):
    rng = np.random.default_rng(seed)
    spec = _make(dims, r, kind, rng)
    sizes = rng.integers(3 if dims < 3 else 4, 28 if dims < 3 else 12, dims)
    if kind == "star":  # REFLECT-style minimum not needed; keep sides sane
        sizes = np.maximum(sizes, 2)
    shape = tuple(int(s) for s in sizes)
    precision = "fp16" if seed % 2 else "exact"
    ex = SpiderExecutor(spec, precision)
    grids = [Grid.random(shape, rng) for _ in range(batch)]
    assert np.array_equal(ex._reference_run(grids), ex.run_batch(grids))


@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_fused_bit_identical_single_column_gemm(precision, rng):
    """Regression: grids small enough that a line block is ONE GEMM column
    (n_lines * chunks == 1) must still match the oracle bit-for-bit.

    einsum's single-output-column case degenerates into its unrolled
    inner-product kernel, whose reduction grouping differs from the
    >=2-column kernel at the last ulp; the fused operator always padded
    around that, but the per-row reference's ``sparse_matmul`` used to
    call it unpadded (found by hypothesis: 1D r=3 box, n=5, seed 44).
    """
    for r in (1, 2, 3):
        for n in range(3, 10):
            spec = make_box_kernel(1, r, rng)
            ex = SpiderExecutor(spec, precision)
            grids = [Grid.random((n,), rng)]
            assert np.array_equal(
                ex._reference_run(grids), ex.run_batch(grids)
            ), (r, n)


def test_fused_bit_identical_across_batch_rows_chunking(rng):
    """Line-block boundaries must not perturb a single bit."""
    spec = make_box_kernel(2, 2, rng)
    grids = [Grid.random((24, 20), rng) for _ in range(3)]
    a = SpiderExecutor(spec, batch_rows=7).run_batch(grids)
    b = SpiderExecutor(spec, batch_rows=512).run_batch(grids)
    assert np.array_equal(a, b)


def test_tc_variant_fused_consistency(rng):
    """The dense-TC ablation is batch-invariant and matches its reference
    to GEMM rounding (the seed TC path multiplies through the platform
    BLAS, whose per-element order is shape-dependent — the very effect the
    ordered SpTC kernel is built to avoid)."""
    spec = make_box_kernel(2, 3, rng)
    ex = SpiderExecutor(spec, use_sptc=False)
    grids = [Grid.random((24, 32), rng) for _ in range(4)]
    per_grid = np.stack([ex.run(g) for g in grids])
    fused = ex.run_batch(grids)
    assert np.array_equal(per_grid, fused)
    assert np.allclose(ex._reference_run(grids), fused, rtol=1e-12, atol=0)


def test_fp16_accumulates_float32_without_round_trip(rng):
    """Numerics contract: fp16 results are float32 end-to-end."""
    spec = make_box_kernel(2, 1, rng)
    ex = SpiderExecutor(spec, "fp16")
    g = Grid.random((16, 32), rng)
    out = ex.run(g)
    assert out.dtype == np.float32
    ref = naive_stencil(spec, g)
    rel = np.abs(out - ref) / (np.abs(ref) + 1.0)
    assert rel.max() < 2e-2
    # the reference oracle shares the contract (float32 accumulator)
    assert ex._reference_run([g]).dtype == np.float32


# ----------------------------------------------------------------------
# Compile-time stacking artifacts
# ----------------------------------------------------------------------


def test_stacked_operator_geometry(rng):
    spec = make_box_kernel(2, 2, rng)
    ex = SpiderExecutor(spec)
    op = ex.fused_operator
    assert op.m == len(ex._encoded) * ex.L
    stacked = stack_encoded_rows(ex._encoded)
    assert isinstance(stacked, Sparse24Matrix)
    assert stacked.m == op.m
    assert np.array_equal(stacked.values, op.sparse.values)
    assert np.array_equal(stacked.positions, op.sparse.positions)


def test_selection_expand_equals_swapped_matrix(rng):
    """Compile-time selection through the precomputed index tensor
    reproduces the dense swapped matrix exactly."""
    for r in (1, 2, 3):
        row = rng.standard_normal(2 * r + 1)
        enc = encode_kernel_row(row)
        assert np.array_equal(enc.sparse.selection_expand(), enc.swapped_matrix)


def test_selection_indices_cached(rng):
    enc = encode_kernel_row(rng.standard_normal(5))
    a = enc.sparse.selection_indices()
    assert enc.sparse.selection_indices() is a  # computed once per plan


def test_star_rows_compacted(rng):
    """Structurally-zero kernel rows (star corners) are dropped from the
    compiled operator — fewer GEMM rows, same results."""
    spec = make_star_kernel(3, 1, rng)
    op = SpiderExecutor(spec).fused_operator
    assert op.m_active < op.m
    assert len(op.active_kernel_rows) < op.n_rows


def test_fused_issue_accounting_packs_tiles(rng):
    """The stacked operator needs fewer mma.sp issues than the per-row
    loop: ragged L-row operands each round up to a full m16 tile."""
    spec = make_box_kernel(2, 2, rng)
    g = Grid.random((24, 24), rng)
    fused_ex = SpiderExecutor(spec)
    fused_ex.run(g)
    fused_issues = fused_ex.stream.count("mma.sp")
    ref_ex = SpiderExecutor(spec)
    ref_ex._reference_run([g])
    ref_issues = ref_ex.stream.count("mma.sp")
    assert 0 < fused_issues < ref_issues


def test_build_fused_operator_validates(rng):
    with pytest.raises(ValueError):
        build_fused_operator([], "exact")
    enc1 = encode_kernel_row(rng.standard_normal(3))
    enc3 = encode_kernel_row(rng.standard_normal(7))
    with pytest.raises(ValueError, match="disagree"):
        build_fused_operator([enc1, enc3], "exact")


# ----------------------------------------------------------------------
# Workspace arena: zero large allocations in steady state
# ----------------------------------------------------------------------


def test_workspace_reused_across_calls(rng):
    spec = make_box_kernel(2, 2, rng)
    ex = SpiderExecutor(spec)
    runner = SweepRunner(1)
    grids = [Grid.random((32, 40), rng) for _ in range(3)]
    ex.run_batch(grids, runner)
    assert runner._workspace_builds == 1
    ws = next(iter(runner._arenas[ex].values()))
    buffers = (ws.padded, ws.x_flat, ws.y_flat, ws.acc)
    for _ in range(3):
        ex.run_batch([Grid.random((32, 40), rng) for _ in range(3)], runner)
    assert runner._workspace_builds == 1  # steady state: no arena rebuilds
    ws2 = next(iter(runner._arenas[ex].values()))
    assert ws2 is ws
    for a, b in zip(buffers, (ws2.padded, ws2.x_flat, ws2.y_flat, ws2.acc)):
        assert a is b  # the same buffers, not reallocations


def test_workspace_grows_once_for_mixed_batch_sizes(rng):
    """Workspaces are keyed by shape and sized for the largest batch:
    variable coalesced batch sizes reuse one arena (prefix views) with
    bit-identical results."""
    spec = named_stencil("heat2d")
    ex = SpiderExecutor(spec)
    runner = SweepRunner(1)
    shape = (24, 24)
    ex.run_batch([Grid.random(shape, rng) for _ in range(4)], runner)
    builds = runner._workspace_builds
    for batch in (1, 3, 2, 4, 1):
        grids = [Grid.random(shape, rng) for _ in range(batch)]
        assert np.array_equal(
            ex._reference_run(grids), ex.run_batch(grids, runner)
        )
    assert runner._workspace_builds == builds


def test_workspace_per_geometry_and_lru_bound(rng):
    spec = make_box_kernel(2, 1, rng)
    ex = SpiderExecutor(spec)
    runner = SweepRunner(1)
    for n in range(8, 8 + 2 * (SweepRunner.MAX_WORKSPACES + 2), 2):
        ex.run(Grid.random((n, n), rng), runner)
    assert len(runner._arenas[ex]) <= SweepRunner.MAX_WORKSPACES


def test_workspace_nbytes_reported_through_plan_cache(rng):
    from repro.serve import PlanCache, plan_key_for

    spec = named_stencil("heat2d")
    cache = PlanCache(capacity=4)
    runner = SweepRunner(1)
    key = plan_key_for(spec)
    plan = cache.get_or_build(key, spec=spec)
    plan.executor.run(Grid.random((16, 16), rng), runner)
    stats = cache.stats(runner)
    assert runner.workspace_nbytes() > 0
    # the plans' operands plus the runner's scratch
    assert stats.workspace_bytes == plan.nbytes() + runner.workspace_nbytes()
    assert cache.stats().workspace_bytes == plan.nbytes()


def test_run_batch_split_results_own_their_memory(rng):
    spec = named_stencil("heat2d")
    ex = SpiderExecutor(spec)
    grids = [Grid.random((16, 20), rng) for _ in range(3)]
    outs = ex.run_batch_split(grids)
    assert all(o.flags["OWNDATA"] and o.flags["C_CONTIGUOUS"] for o in outs)
    kept = [o.copy() for o in outs]
    # a later batch through the same plan must not disturb earlier results
    ex.run_batch_split([Grid.random((16, 20), rng) for _ in range(3)])
    for a, b in zip(outs, kept):
        assert np.array_equal(a, b)
    for o, g in zip(outs, grids):
        assert np.array_equal(o, ex.run(g))


def test_run_batch_steps_matches_resubmit_chain(rng):
    """The chained multi-sweep is byte-identical to running one sweep,
    re-wrapping each result in a Grid with the same BC, and resubmitting —
    across dims, BCs (the ZERO center-only repad fast path included),
    batch sizes and precisions."""
    cases = [(1, (33,)), (2, (12, 18)), (3, (6, 7, 9))]
    for precision in ("exact", "fp16"):
        for dims, shape in cases:
            spec = make_box_kernel(dims, 1, rng)
            ex = SpiderExecutor(spec, precision)
            for bc in BoundaryCondition:
                for batch in (1, 3):
                    grids = [
                        Grid.random(shape, rng, bc) for _ in range(batch)
                    ]
                    chained = ex.run_batch_steps(grids, 3)
                    cur = grids
                    for _ in range(2):
                        outs = ex.run_batch(cur)
                        cur = [
                            Grid(outs[b], bc) for b in range(batch)
                        ]
                    expect = ex.run_batch_split(cur)
                    for a, b in zip(chained, expect):
                        assert a.dtype == b.dtype
                        assert a.tobytes() == b.tobytes(), (
                            precision, dims, bc, batch,
                        )
    with pytest.raises(ValueError):
        ex.run_batch_steps([Grid.random((6, 7, 9), rng)], 0)


def test_pad_into_matches_np_pad(rng):
    """The allocation-free halo fill is bitwise np.pad for every BC."""
    for dims, shape in [(1, (13,)), (2, (7, 11)), (3, (5, 6, 7))]:
        for r in (1, 2, 3):
            spec = make_box_kernel(dims, r, rng)
            ex = SpiderExecutor(spec)
            for bc in BoundaryCondition:
                if bc is BoundaryCondition.REFLECT and any(
                    s < r + 1 for s in shape
                ):
                    continue
                g = Grid.random(shape, rng, bc)
                want = g.padded(r)
                n2r = shape[-1] + 2 * r
                dest = np.full(
                    tuple(s + 2 * r for s in shape[:-1]) + (n2r + 5,), np.nan
                )
                ex._pad_into(g.data, g.bc, dest)
                assert np.array_equal(dest[..., :n2r], want), (dims, r, bc)
                assert np.all(dest[..., n2r:] == 0.0)


def test_pad_into_periodic_halo_wider_than_grid(rng):
    """Wrap padding must stay exact when the halo exceeds the period."""
    spec = make_box_kernel(2, 3, rng)
    ex = SpiderExecutor(spec)
    g = Grid.random((2, 9), rng, BoundaryCondition.PERIODIC)
    want = g.padded(3)
    dest = np.empty((8, 15 + 9))
    ex._pad_into(g.data, g.bc, dest)
    assert np.array_equal(dest[..., :15], want)


# ----------------------------------------------------------------------
# Plan integration
# ----------------------------------------------------------------------


def test_compile_plan_exposes_fused_operator(rng):
    spec = named_stencil("heat2d")
    plan = build_compile_plan(spec)
    assert plan.fused_operator is plan.executor.fused_operator
    assert plan.nbytes() == plan.fused_operator.nbytes() > 0


@pytest.mark.parametrize("variant", list(SpiderVariant))
def test_spider_variants_still_equivalent(variant, rng):
    spec = make_star_kernel(2, 2, rng)
    g = Grid.random((18, 23), rng)
    out = Spider(spec, variant=variant).run(g)
    assert np.allclose(out, naive_stencil(spec, g))
