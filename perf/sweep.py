"""``sweep``: single fused sweeps of four paper shapes, one caller.

Setup: a synchronous ``StencilService(workers=0)`` (MAC threads default
to ``nproc``).  Traffic: repeated rounds; each round runs one ZERO-BC
sweep of heat2d 512x512, Box-2D3R 512x512, heat3d 64x64x64 and 1D2R over
2**20 points, on the same inputs every round.  ``core.executor`` and
``sptc.fused`` do nearly all the work and ``serve`` almost none.  Star
r=1 shapes are scatter-bound and Box-2D3R is GEMM-bound, so a kernel
change shows up per shape.  The largest grid is 8 MiB, well inside a
large L3: this measures compute, not DRAM.

End-to-end: ``latency_ms_p50`` / ``latency_ms_tail`` (p75) of a round,
and ``mstencil_s``: the round's points over the sum of the per-shape
median sweep times.  Outputs are checked off the clock: the first
round's are ``allclose`` to ``vectorized_stencil``, and every later
round's are byte-identical to the first round's.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from repro.serve import SpanRecorder, StencilService
from repro.stencil import serving_workloads, vectorized_stencil

from .common import (
    EXECUTOR_STAGES,
    SETUPS,
    ZERO_COUNTS,
    Result,
    SpanTally,
    gemm_counts,
    layer_metrics,
    memcpy_gb_s,
    pct,
    peak_rss_mb,
    same_bytes,
    tail_samples,
    vectorized_floor_s,
)

#: (label used in reports, workload generator id)
SHAPES = (
    ("heat2d", "heat2d"),
    ("box2d3r", "Box-2D3R"),
    ("heat3d", "heat3d"),
    ("1d2r", "1D2R"),
)

#: p90 of rounds moved by up to 27% between runs while the host's CPU
#: steal drifted; p75 is the highest percentile that held still
TAIL_PCT = 75


def inputs(seed: int, smoke: bool = False):
    """The four (workload, grid) pairs of a round, made from ``seed``."""
    if smoke:
        sizes = dict(size_1d=(4096,), size_2d=(48, 48), size_3d=(12, 12, 12))
    else:
        sizes = dict(size_1d=(1 << 20,), size_2d=(512, 512), size_3d=(64, 64, 64))
    wls = serving_workloads([sid for _, sid in SHAPES], seed=seed, **sizes)
    rng = np.random.default_rng(seed)
    return [(wl, wl.make_grid(rng)) for wl in wls]


class _Rounds:
    """Round times, per-shape sweep times and output checks of one phase."""

    def __init__(self, n_shapes: int) -> None:
        self.round_s: List[float] = []
        self.cpu_s: List[float] = []
        self.shape_s: List[List[float]] = [[] for _ in range(n_shapes)]
        self.attempted = 0
        self.failed = 0


def _run_rounds(svc, pairs, seconds, first, tallies, bench) -> _Rounds:
    phase = _Rounds(len(pairs))
    tracing = svc.tracer.enabled
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not phase.round_s:
        outs = []
        round_s = 0.0
        cpu0 = time.process_time()
        for i, (wl, grid) in enumerate(pairs):
            t0 = time.perf_counter()
            with bench.span("bench.submit", SHAPES[i][0], 0):
                req = svc.submit(wl.spec, grid)
            with bench.span("bench.result", SHAPES[i][0], 0):
                out = req.result()
            dt = time.perf_counter() - t0
            phase.shape_s[i].append(dt)
            round_s += dt
            outs.append(out)
            if tracing:
                tallies[i].add(svc.tracer.drain())
        phase.cpu_s.append(time.process_time() - cpu0)
        phase.round_s.append(round_s)
        # off the clock: every round must reproduce the first round's bytes
        for i, out in enumerate(outs):
            phase.attempted += 1
            if first[i] is None:
                first[i] = out
            elif not same_bytes(out, first[i]):
                phase.failed += 1
    return phase


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    pairs = inputs(seed, smoke)
    points = [math.prod(g.shape) for _, g in pairs]
    setups = []
    svc = None
    bench = SpanRecorder(enabled=False)
    first: List = [None] * len(pairs)
    tallies = [SpanTally() for _ in pairs]
    setup, tally = SpanTally(), SpanTally()
    try:
        for _ in range(1 if smoke else SETUPS):
            if svc is not None:
                svc.close()
            t0 = time.perf_counter()
            svc = StencilService(workers=0, trace=trace)
            for wl, grid in pairs:
                svc.run(wl.spec, grid)
            setups.append(time.perf_counter() - t0)

        if trace:
            # compile spans come from the traced set-up; then half the run
            # untraced and half traced, which gives the tracing overhead
            setup.add(svc.tracer.drain())
            svc.tracer.disable()
            plain = _run_rounds(svc, pairs, seconds / 2, first, tallies, bench)
            before = svc.stats()
            svc.tracer.enable()
            bench.enable()
            phase = _run_rounds(svc, pairs, seconds / 2, first, tallies, bench)
            stats = svc.stats()
        else:
            phase = _run_rounds(svc, pairs, seconds, first, tallies, bench)
        rss = peak_rss_mb()
    finally:
        if svc is not None:
            svc.close()

    attempted = phase.attempted + (plain.attempted if trace else 0)
    failed = phase.failed + (plain.failed if trace else 0)
    # off the clock: the first round against the numpy reference
    for (wl, grid), out in zip(pairs, first):
        ref = vectorized_stencil(wl.spec, grid)
        if not np.allclose(out, ref, rtol=1e-9, atol=1e-9):
            failed += 1
    floors = [
        vectorized_floor_s(wl.spec, grid, 3 if smoke else 10, bench)
        for wl, grid in pairs
    ]
    medians = [float(np.median(s)) for s in phase.shape_s]
    report: Dict[str, object] = {
        "mac_threads": svc.mac_threads,
        "rounds": len(phase.round_s),
        "tail_pct": TAIL_PCT,
        "tail_samples_beyond": tail_samples(len(phase.round_s), TAIL_PCT),
        "setup_s_samples": setups,
        "error_rate": failed / attempted,
        "cpu_ms_per_op": pct(phase.cpu_s, 50) * 1e3,
        "floor.memcpy_gb_s": memcpy_gb_s(),
        "per_shape": {
            label: {
                "points": points[i],
                "sweep_ms_p50": medians[i] * 1e3,
                "mstencil_s": points[i] / medians[i] / 1e6,
                "floor_vectorized_ms": floors[i] * 1e3,
            }
            for i, (label, _) in enumerate(SHAPES)
        },
    }
    if not trace:
        metrics = {
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": rss,
            "latency_ms_p50": pct(phase.round_s, 50) * 1e3,
            "latency_ms_tail": pct(phase.round_s, TAIL_PCT) * 1e3,
            "mstencil_s": sum(points) / sum(medians) / 1e6,
        }
        return Result(attempted, failed, metrics, report)

    n_rounds = len(phase.round_s)
    shape_counts = [gemm_counts(wl.spec, grid.shape) for wl, grid in pairs]
    counts = ZERO_COUNTS
    for c in shape_counts:
        counts = counts + c * n_rounds
    for t in tallies:
        tally.merge(t)
    tally.add(bench.drain())
    metrics = layer_metrics(
        setup=setup,
        tally=tally,
        stats=stats,
        before=before,
        counts=counts,
        floor_s=sum(floors) * n_rounds,
        floor_ms_per_op=sum(floors) * 1e3,
        memcpy=report["floor.memcpy_gb_s"],
        overhead_pct=(pct(phase.round_s, 50) / pct(plain.round_s, 50) - 1.0) * 100.0,
        # a synchronous request is its own batch of one: its coalescing
        # wait is its queue wait
        fallback_coalesce_ms=stats.telemetry.queue_wait_ms["mean"],
    )
    for i, (label, _) in enumerate(SHAPES):
        t = tallies[i]
        sweeps = t.count["mac.pad"]
        shape_report = report["per_shape"][label]
        exec_ms = 0.0
        for stage in EXECUTOR_STAGES:
            ms = t.mean_ms(stage, sweeps)
            shape_report[stage.split(".")[1] + "_ms"] = ms
            exec_ms += ms
        shape_report["floor_ratio"] = exec_ms / (floors[i] * 1e3)
        shape_report["useful_op_ratio"] = (
            shape_counts[i].useful_macs / shape_counts[i].executed_macs
        )
    report["client_ms_per_sweep"] = {
        name: tally.mean_ms(name) for name in ("bench.submit", "bench.result")
    }
    return Result(attempted, failed, metrics, report)
