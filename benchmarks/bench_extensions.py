"""Extension benches: device sensitivity, FP16 precision study, temporal
fusion, and analytical autotuning — robustness checks around the paper's
conclusions (not paper artifacts themselves; indexed in DESIGN.md §6).
"""

import numpy as np
import pytest

from repro.analysis.precision import (
    format_precision,
    iterated_error,
    sweep_single_sweep_error,
)
from repro.analysis.sensitivity import (
    format_sweep,
    sweep_bandwidth,
    sweep_sptc_ratio,
)
from repro.core.autotune import autotune_tile_plan
from repro.core.temporal import TemporalSpider
from repro.stencil import Grid, named_stencil, run_iterations


@pytest.mark.paper_artifact("sensitivity")
def test_sensitivity_sweeps(report):
    bw = sweep_bandwidth()
    ratio = sweep_sptc_ratio()
    report(
        "Sensitivity: do Figure-10 conclusions survive other devices?",
        "HBM bandwidth sweep:\n"
        + format_sweep(bw)
        + "\n\nSpTC:TC peak-ratio sweep:\n"
        + format_sweep(ratio),
    )
    # at the A100 point SPIDER wins everywhere
    a100 = [p for p in bw if p.scale == 1.0][0]
    assert a100.spider_wins_everywhere
    # the win degrades gracefully as the sparse-pipe advantage vanishes
    margins = [p.min_margin for p in ratio]
    assert margins == sorted(margins)


@pytest.mark.paper_artifact("precision")
def test_precision_study(report):
    samples = sweep_single_sweep_error()
    errs = iterated_error(steps=20)
    report(
        "FP16 SpTC datapath error study",
        format_precision(samples)
        + f"\n\niterated heat2d error: step1 {errs[0]:.2e} -> "
        f"step20 {errs[-1]:.2e}",
    )
    for s in samples:
        if s.magnitude <= 1e4:
            assert s.rel_l2 < 1e-2
    assert errs[-1] < 0.05


@pytest.mark.paper_artifact("temporal")
def test_temporal_fusion_exactness(rng, report):
    spec = named_stencil("heat2d")
    g = Grid.random((40, 56), rng)
    ts = TemporalSpider(spec, steps=2)
    fused = ts.run(g, 8)
    plain, _ = run_iterations(spec, g, 8)
    err = float(np.max(np.abs(fused.data - plain.data)))
    report(
        "Temporal fusion (2-step super-sweeps, strip-corrected boundaries)",
        f"8 steps of heat2d on 40x56: max error vs plain stepping {err:.2e}; "
        f"modeled traffic saving {ts.traffic_savings():.2f}x "
        f"(fused radius {ts.fused_radius})",
    )
    assert err < 1e-9
    assert ts.traffic_savings() > 1.5


@pytest.mark.paper_artifact("autotune")
def test_autotune_report(report):
    big = autotune_tile_plan(2, (10240, 10240))
    small = autotune_tile_plan(2, (512, 512))
    report(
        "Analytical tile autotuning (model-driven, milliseconds not hours)",
        f"(10240,10240): best block {big.best.block} warp {big.best.warp} "
        f"score {big.score:.3f} over {big.evaluated} candidates\n"
        f"(512,512):     best block {small.best.block} warp {small.best.warp} "
        f"score {small.score:.3f}\n"
        f"top-5 at paper size: {[(b, round(s, 3)) for b, s in big.ranking]}",
    )
    assert big.evaluated > 10


def test_bench_sensitivity_sweep(benchmark):
    pts = benchmark(lambda: sweep_bandwidth(scales=(1.0,)))
    assert pts[0].avg_speedup


def test_bench_fused_temporal_step(benchmark, rng):
    spec = named_stencil("heat2d")
    g = Grid.random((64, 64), rng)
    ts = TemporalSpider(spec, steps=2)
    out = benchmark(lambda: ts.run(g, 2))
    assert out.shape == g.shape


def test_bench_autotune(benchmark):
    res = benchmark(lambda: autotune_tile_plan(2, (4096, 4096)))
    assert res.best is not None
