"""``serve``: small requests kept in flight on the process backend.

Setup: ``StencilService(backend="process", transport="shm")`` with
``max(1, nproc // 2)`` workers (two workers oversubscribe two cores and
make latency swing from run to run).  Traffic: one generator thread
keeps eight requests outstanding (the service's batch cap), an equal
mix of heat2d, blur2d, wave2d and Box-2D3R at 64x64 and wave1d at 4096
points; one request in eight advances ``steps=4``.  Per-request
compute is tiny, so batching, the workers and the shm transport set the
latency and the CPU cost, and the MAC barely matters.

This is a closed loop, not the open loop of independent users: on a
small shared VM, open-loop latency at 200-800 req/s followed the host's
CPU steal (p50 from 4.6 to 30 ms across runs), not the program.  With a
fixed number outstanding, latency is the pipeline's service time under
load and tracks the program.

End-to-end: request latency p50 / p90 (``latency_ms_tail``) and the
points advanced per second.  The report adds the CPU time (this process
plus its workers) per request.

Inputs are a seeded pool of 240 requests, sent in order, round and
round: 48 of each kind, 6 of which advance ``steps=4``, in a seeded order
on seeded grids.  The mix is fixed rather than drawn request by request
(as ``closed_loop_stream`` does): a drawn pool's share of a kind moved by
up to a fifth from seed to seed, and median latency by 7% with it.
Every response is checked: its hash must equal that of
``StencilService(workers=0)`` on the same ``(spec, grid, steps)``,
computed off the clock before the run.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Dict, List

import numpy as np

from repro.serve import SpanRecorder, StencilService
from repro.stencil import serving_workloads

from .common import (
    SETUPS,
    ZERO_COUNTS,
    Result,
    SpanTally,
    cpu_s,
    digest,
    gemm_counts,
    layer_metrics,
    memcpy_gb_s,
    nproc,
    pct,
    peak_rss_mb,
    tail_samples,
    transport_report,
    vectorized_floor_s,
)

SPEC_IDS = ("heat2d", "blur2d", "wave2d", "Box-2D3R", "wave1d")
IN_FLIGHT = 8
#: pool sizes are multiples of ``len(SPEC_IDS) * LONG_EVERY``
POOL = 240
SMOKE_POOL = 40
#: one request in ``LONG_EVERY`` advances ``LONG_STEPS`` sweeps
LONG_EVERY = 8
LONG_STEPS = 4
#: p99 followed the host: one run with 5% CPU steal moved it by 40%,
#: where p90 moved by 12%
TAIL_PCT = 90

#: spans are harvested this often while tracing, so per-thread span
#: rings never overflow
DRAIN_EVERY_S = 0.2


def workloads(seed: int, smoke: bool = False):
    sizes = (
        dict(size_1d=(256,), size_2d=(16, 16))
        if smoke
        else dict(size_1d=(4096,), size_2d=(64, 64))
    )
    return serving_workloads(list(SPEC_IDS), seed=seed, **sizes)


def inputs(wls, seed: int, smoke: bool = False):
    """The seeded request pool: (workload index, grid, steps) triples, the
    same number of each kind and of each kind's long requests."""
    per_kind = (SMOKE_POOL if smoke else POOL) // len(wls)
    mix = [
        (k, LONG_STEPS if j < per_kind // LONG_EVERY else 1)
        for k in range(len(wls))
        for j in range(per_kind)
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mix))
    return [(mix[i][0], wls[mix[i][0]].make_grid(rng), mix[i][1]) for i in order]


class _Phase:
    """Latencies and check results of one measured phase."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.sent: List[int] = []  # pool index of every request sent
        self.failed = 0
        self.points = 0
        self.elapsed_s = 0.0
        self.cpu_s = 0.0


def _drive(svc, wls, pool, expect, seconds, bench, tally) -> _Phase:
    """Keep ``IN_FLIGHT`` requests outstanding for ``seconds``, then drain."""
    phase = _Phase()
    pending: deque = deque()
    tracing = svc.tracer.enabled

    def finish(item) -> None:
        k, sent, req = item
        req.wait()
        if req.failed or digest(req.result()) != expect[k]:
            phase.failed += 1
        else:
            phase.latency_s.append(req.finished_s - sent)

    cpu0 = cpu_s()
    start = time.monotonic()
    end = start + seconds
    last_drain = start
    n = 0
    while True:
        now = time.monotonic()
        while now < end and len(pending) < IN_FLIGHT:
            k = n % len(pool)
            kind, grid, steps = pool[k]
            sent = time.monotonic()
            with bench.span("bench.submit", "loadgen", 0):
                req = svc.submit(wls[kind].spec, grid, steps=steps)
            pending.append((k, sent, req))
            phase.sent.append(k)
            phase.points += math.prod(grid.shape) * steps
            n += 1
        if not pending:
            break
        with bench.span("bench.result", "loadgen", 0):
            finish(pending.popleft())
            while pending and pending[0][2].done():
                finish(pending.popleft())
        if tracing and now - last_drain >= DRAIN_EVERY_S:
            tally.add(svc.tracer.drain())
            last_drain = now
    phase.elapsed_s = time.monotonic() - start
    phase.cpu_s = cpu_s() - cpu0
    if tracing:
        tally.add(svc.tracer.drain())
    return phase


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    wls = workloads(seed, smoke)
    pool = inputs(wls, seed, smoke)
    # off the clock, before the run: the synchronous service's answers
    with StencilService(workers=0) as ref:
        expect = [digest(ref.run(wls[k].spec, g, steps=s)) for k, g, s in pool]
    warm = [wl.make_grid() for wl in wls]
    workers = max(1, nproc() // 2)
    setups = []
    svc = None
    bench = SpanRecorder(enabled=False)
    setup, tally = SpanTally(), SpanTally()
    try:
        for _ in range(1 if smoke else SETUPS):
            if svc is not None:
                svc.close()
            t0 = time.perf_counter()
            svc = StencilService(
                workers=workers, backend="process", transport="shm", trace=trace
            )
            for wl, grid in zip(wls, warm):
                svc.run(wl.spec, grid)
                svc.run(wl.spec, grid, steps=LONG_STEPS)
            setups.append(time.perf_counter() - t0)

        if trace:
            # half the run untraced, half traced: the difference in
            # latency is the tracing overhead
            setup.add(svc.tracer.drain())
            svc.tracer.disable()
            plain = _drive(svc, wls, pool, expect, seconds / 2, bench, tally)
            before = svc.stats()
            svc.tracer.enable()
            bench.enable()
            phase = _drive(svc, wls, pool, expect, seconds / 2, bench, tally)
            phases = [plain, phase]
        else:
            phase = _drive(svc, wls, pool, expect, seconds, bench, tally)
            phases = [phase]
        stats = svc.stats()
        rss = peak_rss_mb()
    finally:
        if svc is not None:
            svc.close()

    attempted = sum(len(p.sent) for p in phases)
    failed = sum(p.failed for p in phases)
    report: Dict[str, object] = {
        "workers": workers,
        "in_flight": IN_FLIGHT,
        "requests": len(phase.sent),
        "tail_pct": TAIL_PCT,
        "tail_samples_beyond": tail_samples(len(phase.latency_s), TAIL_PCT),
        "setup_s_samples": setups,
        "error_rate": failed / attempted,
        "cpu_ms_per_op": phase.cpu_s / len(phase.sent) * 1e3,
        "service_errors": stats.telemetry.errors,
        "floor.memcpy_gb_s": memcpy_gb_s(),
    }
    if not trace:
        metrics = {
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": rss,
            "latency_ms_p50": pct(phase.latency_s, 50) * 1e3,
            "latency_ms_tail": pct(phase.latency_s, TAIL_PCT) * 1e3,
            "mstencil_s": phase.points / phase.elapsed_s / 1e6,
        }
        return Result(attempted, failed, metrics, report)

    reps = 3 if smoke else 20
    floors = [vectorized_floor_s(wl.spec, g, reps, bench) for wl, g in zip(wls, warm)]
    per_kind = [gemm_counts(wl.spec, wl.grid_shape) for wl in wls]
    counts = ZERO_COUNTS
    floor_s = 0.0
    slab_bytes = 0
    for k in phase.sent:
        kind, grid, steps = pool[k]
        counts = counts + per_kind[kind] * steps
        floor_s += floors[kind] * steps
        slab_bytes += 2 * grid.data.nbytes  # grid in, result out
    tally.add(bench.drain())
    metrics = layer_metrics(
        setup=setup,
        tally=tally,
        stats=stats,
        before=before,
        counts=counts,
        floor_s=floor_s,
        floor_ms_per_op=floor_s / len(phase.sent) * 1e3,
        memcpy=report["floor.memcpy_gb_s"],
        overhead_pct=(
            pct(phase.latency_s, 50) / pct(plain.latency_s, 50) - 1.0
        ) * 100.0,
    )
    report.update(transport_report(tally, stats, before, slab_bytes))
    report["client_us_per_request"] = {
        name: tally.mean_ms(name) * 1e3 for name in ("bench.submit", "bench.result")
    }
    return Result(attempted, failed, metrics, report)
