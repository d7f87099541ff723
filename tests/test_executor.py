"""Equivalence tests for the SPIDER executor — the paper's central claim:
the transformed SpMM is mathematically equivalent to the stencil."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import SpiderExecutor
from repro.core.pipeline import Spider, SpiderVariant
from repro.sptc.mma import MmaPrecision
from repro.stencil import (
    BoundaryCondition,
    Grid,
    make_box_kernel,
    make_star_kernel,
    naive_stencil,
    named_stencil,
)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_1d_box(self, rng, r):
        spec = make_box_kernel(1, r, rng)
        g = Grid.random((173,), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["box", "star"])
    def test_2d(self, rng, r, kind):
        make = make_box_kernel if kind == "box" else make_star_kernel
        spec = make(2, r, rng)
        g = Grid.random((23, 41), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    @pytest.mark.parametrize("kind", ["box", "star"])
    def test_3d(self, rng, kind):
        make = make_box_kernel if kind == "box" else make_star_kernel
        spec = make(3, 1, rng)
        g = Grid.random((7, 9, 11), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    def test_large_radius_7(self, rng):
        # Box-2D7R — the paper's Table-3 configuration (two mma.sp k-tiles)
        spec = make_box_kernel(2, 7, rng)
        g = Grid.random((18, 40), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    @pytest.mark.parametrize(
        "bc",
        [
            BoundaryCondition.ZERO,
            BoundaryCondition.PERIODIC,
            BoundaryCondition.NEAREST,
            BoundaryCondition.REFLECT,
        ],
    )
    def test_boundary_conditions(self, rng, bc):
        spec = make_box_kernel(2, 2, rng)
        g = Grid.random((19, 27), rng, bc)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    def test_grid_not_multiple_of_L(self, rng):
        # n = 41 is not a multiple of L = 4 (r = 1): tail chunks trimmed
        spec = make_box_kernel(1, 1, rng)
        g = Grid.random((41,), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    def test_tiny_grid(self, rng):
        spec = make_box_kernel(2, 2, rng)
        g = Grid.random((1, 3), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    def test_batched_rows_consistent(self, rng, monkeypatch):
        spec = make_box_kernel(2, 1, rng)
        g = Grid.random((64, 33), rng)
        with monkeypatch.context() as mp:
            mp.setattr(SpiderExecutor, "BATCH_ROWS", 7)
            a = SpiderExecutor(spec).run(g)
        b = SpiderExecutor(spec).run(g)
        assert np.allclose(a, b)

    @given(
        r=st.integers(1, 3),
        rows=st.integers(2, 20),
        cols=st.integers(3, 40),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, r, rows, cols, seed):
        rng = np.random.default_rng(seed)
        spec = make_box_kernel(2, r, rng)
        g = Grid.random((rows, cols), rng)
        assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g))

    def test_dims_mismatch_rejected(self, rng):
        spec = make_box_kernel(2, 1, rng)
        with pytest.raises(ValueError):
            Spider(spec).run(Grid.random((10,), rng))

    def test_named_application_stencils(self, rng):
        for name in ("heat2d", "jacobi2d", "blur2d", "wave2d", "heat1d", "wave1d"):
            spec = named_stencil(name)
            shape = (31,) if spec.dims == 1 else (17, 19)
            g = Grid.random(shape, rng)
            assert np.allclose(Spider(spec).run(g), naive_stencil(spec, g)), name


class TestPrecisionModes:
    def test_fp16_tolerance(self, rng):
        spec = make_box_kernel(2, 1, rng)
        g = Grid.random((16, 32), rng)
        out = Spider(spec, precision=MmaPrecision.FP16).run(g)
        ref = naive_stencil(spec, g)
        rel = np.abs(out - ref) / (np.abs(ref) + 1.0)
        assert rel.max() < 2e-2  # half-precision storage error

    def test_bad_precision_rejected(self, rng):
        with pytest.raises(ValueError):
            Spider(make_box_kernel(1, 1, rng), precision="int8")


class TestVariants:
    def test_tc_variant_equivalent(self, rng):
        spec = make_box_kernel(2, 2, rng)
        g = Grid.random((14, 26), rng)
        out = Spider(spec, variant=SpiderVariant.TC).run(g)
        assert np.allclose(out, naive_stencil(spec, g))

    def test_tc_variant_issues_dense_mma(self, rng):
        spec = make_box_kernel(1, 1, rng)
        sp = Spider(spec, variant=SpiderVariant.TC)
        sp.run(Grid.random((40,), rng))
        assert sp.executor.stream.count("mma") > 0
        assert sp.executor.stream.count("mma.sp") == 0

    def test_sptc_variant_issues_sparse_mma(self, rng):
        spec = make_box_kernel(1, 1, rng)
        sp = Spider(spec)
        sp.run(Grid.random((40,), rng))
        assert sp.executor.stream.count("mma.sp") > 0
        assert sp.executor.stream.count("mma") == 0


class TestFaithfulPath:
    @pytest.mark.parametrize(
        "dims,r,shape",
        [(1, 1, (36,)), (1, 3, (40,)), (2, 1, (6, 12)), (2, 3, (5, 16)), (1, 7, (64,))],
    )
    def test_matches_reference(self, rng, dims, r, shape):
        spec = make_box_kernel(dims, r, rng)
        g = Grid.random(shape, rng)
        rep = Spider(spec).run_faithful(g)
        assert np.allclose(rep.output, naive_stencil(spec, g))

    def test_matches_fast_path(self, rng):
        spec = make_box_kernel(2, 2, rng)
        g = Grid.random((6, 18), rng)
        sp = Spider(spec)
        assert np.allclose(sp.run_faithful(g).output, sp.run(g))

    def test_without_row_swap_same_result_same_loads(self, rng):
        """Table 3 setup: both kernels compute the same thing; the
        integrated swap adds no loads or mma issues (only the explicit-copy
        variant pays extra stores)."""
        spec = make_box_kernel(2, 3, rng)
        g = Grid.random((5, 16), rng)
        sp = Spider(spec)
        with_swap = sp.run_faithful(g, apply_row_swap=True)
        without = sp.run_faithful(g, apply_row_swap=False)
        assert np.allclose(with_swap.output, without.output)
        assert with_swap.stream.count("lds") == without.stream.count("lds")
        assert with_swap.stream.count("mma.sp") == without.stream.count("mma.sp")
        assert with_swap.stream.count("sts") == 0
        assert without.stream.count("sts") > 0

    def test_identical_memory_audit(self, rng):
        """The swapped access pattern moves the same bytes in the same
        number of transactions with no extra bank conflicts (Table 3)."""
        spec = make_box_kernel(2, 3, rng)
        g = Grid.random((4, 16), rng)
        sp = Spider(spec)
        a = sp.run_faithful(g, apply_row_swap=True).smem_audit
        b = sp.run_faithful(g, apply_row_swap=False).smem_audit
        assert a.bytes_moved == b.bytes_moved
        assert a.transactions == b.transactions
        assert a.bank_conflicts == b.bank_conflicts

    def test_large_grid_rejected(self, rng):
        spec = make_box_kernel(2, 1, rng)
        with pytest.raises(ValueError, match="faithful"):
            Spider(spec).run_faithful(Grid.random((512, 512), rng))

    def test_tc_variant_not_supported(self, rng):
        spec = make_box_kernel(1, 1, rng)
        sp = Spider(spec, variant=SpiderVariant.TC)
        with pytest.raises(ValueError, match="SpTC"):
            sp.run_faithful(Grid.random((32,), rng))
