"""``solve``: closed-loop multigrid solves on the thread backend.

Setup: ``StencilService(workers=1, backend="thread")``.  Traffic: one
generator thread keeps two V-cycle solver sessions in flight, each a 2D
Poisson solve on a 31x31 grid (``solver_workloads((2,))``) to tol 1e-6
within 40 iterations.  This is the same batching layer as ``serve`` but
latency-bound: every solve is a dependent chain of ~300 tiny requests
over ~14 plans, so a batching change that helps ``serve`` and costs
dependent chains, or the reverse, shows here.  There is no transport.

End-to-end: time to a solution, p50 and p75 (``latency_ms_tail``; a
30 s run holds ~60 solves, so well over ten lie beyond it), and
``mstencil_s``: the stencil points the solves applied over the time to
the last solution.  Every solve is checked off the clock: it must have
converged, and its solution and iteration count must be byte-identical
to an inline ``multigrid.solve`` over a ``PlanExecutor``, whose replay
also counts the operator applications (and so the points) of each solve.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.serve import SpanRecorder, StencilService, spec_fingerprint
from repro.stencil import (
    Grid,
    PlanExecutor,
    multigrid,
    solve_stream,
    solver_workloads,
)

from .common import (
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

IN_FLIGHT = 2
TOL = 1e-6
MAX_ITERS = 40
TAIL_PCT = 75
DRAIN_EVERY_S = 0.2
#: how often the generator looks for a finished session (tts resolution)
POLL_S = 0.005


def solves(seed: int, smoke: bool = False):
    """The seeded stream of solve requests (lazy, unbounded in practice)."""
    size = (7, 7) if smoke else (31, 31)
    wls = solver_workloads((2,), size_2d=size)
    return solve_stream(wls, 1 << 30, tol=TOL, max_iters=MAX_ITERS, seed=seed)


def _solve(svc, req):
    return svc.submit_solve(req.spec, req.rhs, tol=req.tol, max_iters=req.max_iters)


class _Phase:
    def __init__(self) -> None:
        self.done: List[Tuple[object, object, float]] = []  # (request, result, tts)
        self.elapsed_s = 0.0
        self.cpu_s = 0.0

    @property
    def tts(self) -> List[float]:
        return [d[2] for d in self.done]


def _drive(svc, stream, seconds, bench, tally) -> _Phase:
    """Keep ``IN_FLIGHT`` sessions going for ``seconds``, then drain."""
    phase = _Phase()
    inflight: List = []
    tracing = svc.tracer.enabled
    cpu0 = time.process_time()
    start = time.monotonic()
    end = start + seconds
    last_drain = start
    while True:
        now = time.monotonic()
        if now < end or not (phase.done or inflight):
            while len(inflight) < IN_FLIGHT:
                req = next(stream)
                sent = time.monotonic()
                with bench.span("bench.submit_solve", "loadgen", 0):
                    handle = _solve(svc, req)
                inflight.append((handle, sent, req))
        if not inflight:
            break
        # a coarse poll: finer polling burns CPU in proportion to wall
        # time and would leak into cpu_ms_per_op
        inflight[0][0].wait(POLL_S)
        for item in [x for x in inflight if x[0].done()]:
            inflight.remove(item)
            handle, sent, req = item
            tts = time.monotonic() - sent
            try:
                with bench.span("bench.solve_result", "loadgen", 0):
                    result = handle.result()
            except Exception as exc:  # a failed session counts as a failed solve
                result = exc
            phase.done.append((req, result, tts))
        if tracing and now - last_drain >= DRAIN_EVERY_S:
            tally.add(svc.tracer.drain())
            last_drain = now
    phase.elapsed_s = time.monotonic() - start
    phase.cpu_s = time.process_time() - cpu0
    if tracing:
        tally.add(svc.tracer.drain())
    return phase


class _CountingExecutor:
    """An inline ``PlanExecutor`` that counts applications per (spec, shape)."""

    def __init__(self) -> None:
        self.inner = PlanExecutor(mac_threads=1)
        self.counts: Counter = Counter()
        self.specs: Dict = {}

    def __call__(self, spec, grid):
        shape = grid.shape if isinstance(grid, Grid) else np.shape(grid)
        key = (spec_fingerprint(spec), tuple(shape))
        self.counts[key] += 1
        self.specs[key] = spec
        return self.inner(spec, grid)


def _check(phases) -> Tuple[int, List[Counter], _CountingExecutor]:
    """Replay every solve inline; returns failures, the per-solve
    application counts (in phase order) and the counting executor."""
    apply = _CountingExecutor()
    failed = 0
    per_solve: List[Counter] = []
    for phase in phases:
        for req, result, _ in phase.done:
            before = Counter(apply.counts)
            ref = multigrid.solve(
                req.spec, req.rhs, executor=apply, tol=req.tol, max_iters=req.max_iters
            )
            per_solve.append(apply.counts - before)
            ok = (
                not isinstance(result, Exception)
                and result.converged
                and ref.converged
                and result.iterations == ref.iterations
                and same_bytes(result.solution, ref.solution)
            )
            failed += not ok
    apply.inner.close()
    return failed, per_solve, apply


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    stream = solves(seed, smoke)
    warm = next(stream)
    setups = []
    svc = None
    bench = SpanRecorder(enabled=False)
    setup, tally = SpanTally(), SpanTally()
    try:
        for _ in range(1 if smoke else SETUPS):
            if svc is not None:
                svc.close()
            t0 = time.perf_counter()
            svc = StencilService(workers=1, backend="thread", trace=trace)
            _solve(svc, warm).result()
            setups.append(time.perf_counter() - t0)

        if trace:
            setup.add(svc.tracer.drain())
            svc.tracer.disable()
            plain = _drive(svc, stream, seconds / 2, bench, tally)
            before = svc.stats()
            svc.tracer.enable()
            bench.enable()
            phase = _drive(svc, stream, seconds / 2, bench, tally)
            stats = svc.stats()
            phases = [plain, phase]
        else:
            phase = _drive(svc, stream, seconds, bench, tally)
            phases = [phase]
        rss = peak_rss_mb()
    finally:
        if svc is not None:
            svc.close()

    failed, per_solve, apply = _check(phases)
    attempted = sum(len(p.done) for p in phases)
    # the measured phase is the last one; its solves are the last counted
    mine = per_solve[len(per_solve) - len(phase.done):]
    points = sum(
        n * math.prod(key[1]) for counts in mine for key, n in counts.items()
    )
    iterations = [
        r.iterations for _, r, _ in phase.done if not isinstance(r, Exception)
    ]
    report: Dict[str, object] = {
        "in_flight": IN_FLIGHT,
        "solves": len(phase.done),
        "tail_pct": TAIL_PCT,
        "tail_samples_beyond": tail_samples(len(phase.done), TAIL_PCT),
        "setup_s_samples": setups,
        "error_rate": failed / attempted if attempted else 0.0,
        "iterations_per_solve": float(np.mean(iterations)) if iterations else 0.0,
        "cpu_ms_per_op": phase.cpu_s / len(phase.done) * 1e3,
        "plans": len(apply.counts),
        "floor.memcpy_gb_s": memcpy_gb_s(),
    }
    if not trace:
        metrics = {
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": rss,
            "latency_ms_p50": pct(phase.tts, 50) * 1e3,
            "latency_ms_tail": pct(phase.tts, TAIL_PCT) * 1e3,
            "mstencil_s": points / phase.elapsed_s / 1e6,
        }
        return Result(attempted, failed, metrics, report)

    reps = 3 if smoke else 20
    rng = np.random.default_rng(0)
    floor_of = {
        key: vectorized_floor_s(
            apply.specs[key], Grid(rng.standard_normal(key[1])), reps, bench
        )
        for key in apply.counts
    }
    counts_of = {key: gemm_counts(apply.specs[key], key[1]) for key in apply.counts}
    counts = ZERO_COUNTS
    floor_s = 0.0
    for solve_counts in mine:
        for key, n in solve_counts.items():
            counts = counts + counts_of[key] * n
            floor_s += floor_of[key] * n
    tally.add(bench.drain())
    metrics = layer_metrics(
        setup=setup,
        tally=tally,
        stats=stats,
        before=before,
        counts=counts,
        floor_s=floor_s,
        floor_ms_per_op=floor_s / len(mine) * 1e3 if mine else 0.0,
        memcpy=report["floor.memcpy_gb_s"],
        overhead_pct=(pct(phase.tts, 50) / pct(plain.tts, 50) - 1.0) * 100.0,
        iterations_per_solve=report["iterations_per_solve"],
    )
    iters = tally.count["solver_iteration"]
    report["sessions.request_ms_p50"] = pct(tally.request_s, 50) * 1e3
    report["sessions.request_samples"] = len(tally.request_s)
    report["sessions.glue_ms"] = (
        (tally.total["solver_iteration"] - sum(tally.request_s)) / iters * 1e3
        if iters
        else 0.0
    )
    return Result(attempted, failed, metrics, report)
