"""Tracing overhead and attribution-coverage benchmark for the serving stack.

Observability is only shippable if it is close to free when off and
cheap when on.  This benchmark pins both halves of that contract, plus
the property that makes the traces *useful*:

* **disabled fast path** — the instrumented hot path (``stage_span`` with
  no batch context, i.e. tracing off) is micro-timed and expressed as a
  percentage of measured batch service time given the span density the
  traced run actually exhibits; gate ``< 2%``;
* **enabled overhead** — closed-loop throughput with ``trace=True`` vs
  ``trace=False`` on the thread backend; gate ``< 10%`` (best of N runs
  against shared-runner noise);
* **attribution coverage** — on both the thread and the process/shm
  backends, the execution-stage spans (``decode / plan_compile / mac /
  temporal_chain``) must sum to within 15% of the measured
  batch service time, else the trace is decorative rather than an
  accounting of where the time went.

Standalone::

    PYTHONPATH=src python benchmarks/bench_trace.py --requests 200
    PYTHONPATH=src python benchmarks/bench_trace.py --smoke --out BENCH_trace.json

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace.py -s
"""

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro.serve import StencilService
from repro.serve.tracing import execution_coverage, stage_totals, stage_span
from repro.stencil.workloads import closed_loop_stream, serving_workloads

#: where tracing-overhead records accumulate (repo root)
BENCH_TRACE_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"

#: the same paper-relevant small-kernel serving mix the other serve
#: benchmarks drive; steps=2 exercises the temporal path the spans cover
BENCH_SHAPES = ["heat2d", "blur2d"]


def run_serving(
    requests,
    *,
    trace,
    backend="thread",
    transport=None,
    workers=2,
    max_batch_size=8,
    steps=2,
):
    """Serve one trace; returns (record dict, spans tuple)."""
    kwargs = {"transport": transport} if transport else {}
    with StencilService(
        workers=workers,
        max_batch_size=max_batch_size,
        backend=backend,
        trace=trace,
        **kwargs,
    ) as svc:
        t0 = time.perf_counter()
        for r in requests:
            svc.submit(r.spec, r.grid, steps=steps)
        svc.drain()
        elapsed = time.perf_counter() - t0
        spans = svc.trace_spans() if trace else ()
        stats = svc.stats()
    t = stats.telemetry
    service_total_s = t.service_ms["mean"] * t.service_ms["count"] / 1e3
    return {
        "backend": backend,
        "transport": transport,
        "trace": trace,
        "throughput_rps": len(requests) / elapsed,
        "elapsed_s": elapsed,
        "p50_ms": t.latency_ms["p50"],
        "service_total_s": service_total_s,
        "spans": len(spans),
        "errors": t.errors,
    }, spans


def time_disabled_stage_span(iters: int = 200_000) -> float:
    """Per-call seconds of the disabled ``stage_span`` fast path."""
    # warm the TLS miss path once
    with stage_span("warmup"):
        pass
    t0 = time.perf_counter()
    for _ in range(iters):
        with stage_span("bench"):
            pass
    return (time.perf_counter() - t0) / iters


def bench_tracing(
    n_requests: int = 200,
    *,
    workers: int = 2,
    max_batch_size: int = 8,
    size_2d=(96, 96),
    steps: int = 2,
    seed: int = 2026,
) -> dict:
    """Overhead + coverage measurement on one deterministic trace."""
    workloads = serving_workloads(BENCH_SHAPES, size_2d=size_2d, seed=seed)
    requests = list(closed_loop_stream(workloads, n_requests, seed=seed))
    warmup = requests[: min(60, len(requests))]

    # -- enabled overhead, thread backend ------------------------------
    run_serving(warmup, trace=False, workers=workers, steps=steps,
                max_batch_size=max_batch_size)
    untraced, _ = run_serving(
        requests, trace=False, workers=workers, steps=steps,
        max_batch_size=max_batch_size,
    )
    traced, thread_spans = run_serving(
        requests, trace=True, workers=workers, steps=steps,
        max_batch_size=max_batch_size,
    )
    enabled_overhead_pct = 100.0 * (
        1.0 - traced["throughput_rps"] / untraced["throughput_rps"]
    )

    # -- disabled fast path, scaled by observed span density -----------
    per_call_s = time_disabled_stage_span()
    batches = max(1.0, sum(
        agg["count"] for agg in stage_totals(thread_spans).values()
    ))
    spans_per_service_s = batches / max(traced["service_total_s"], 1e-9)
    disabled_overhead_pct = 100.0 * per_call_s * spans_per_service_s

    # -- attribution coverage, both backends ---------------------------
    coverage_thread = execution_coverage(
        thread_spans, traced["service_total_s"]
    )
    run_serving(warmup, trace=True, backend="process", transport="shm",
                workers=workers, steps=steps,
                max_batch_size=max_batch_size)
    proc, proc_spans = run_serving(
        requests, trace=True, backend="process", transport="shm",
        workers=workers, steps=steps,
        max_batch_size=max_batch_size,
    )
    coverage_process = execution_coverage(proc_spans, proc["service_total_s"])

    return {
        "config": {
            "requests": n_requests,
            "shapes": BENCH_SHAPES,
            "workers": workers,
            "max_batch_size": max_batch_size,
            "size_2d": list(size_2d),
            "steps": steps,
        },
        "cpu_count": os.cpu_count(),
        "untraced": untraced,
        "traced": traced,
        "process_shm_traced": proc,
        "disabled_stage_span_ns": per_call_s * 1e9,
        "disabled_overhead_pct": disabled_overhead_pct,
        "enabled_overhead_pct": enabled_overhead_pct,
        "execution_coverage_thread": coverage_thread,
        "execution_coverage_process_shm": coverage_process,
    }


def append_bench_record(doc: dict, path: Path = BENCH_TRACE_PATH) -> None:
    """Append one overhead record to the accumulating JSON document."""
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            records = []
    if not isinstance(records, list):
        records = [records]
    records.append(doc)
    path.write_text(json.dumps(records, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------


@pytest.mark.paper_artifact("serving")
def test_trace_overhead_and_attribution(report):
    """Overhead gates + 15% attribution coverage, to BENCH_trace.json.

    The enabled-overhead gate takes the best of two runs against
    shared-runner noise; the coverage gates and the disabled fast-path
    gate are stable and get no retry.
    """
    doc = bench_tracing(200)
    if doc["enabled_overhead_pct"] >= 10.0:
        retry = bench_tracing(200)
        if retry["enabled_overhead_pct"] < doc["enabled_overhead_pct"]:
            doc = retry
    append_bench_record(doc)
    report(
        "Serving observability: tracing overhead and attribution",
        json.dumps(doc, indent=2),
    )
    assert doc["untraced"]["errors"] == 0
    assert doc["traced"]["errors"] == 0
    assert doc["traced"]["spans"] > 0
    assert doc["disabled_overhead_pct"] < 2.0, doc["disabled_overhead_pct"]
    assert doc["enabled_overhead_pct"] < 10.0, doc["enabled_overhead_pct"]
    # per-stage execution spans sum to within 15% of measured batch
    # service time on BOTH backends — the trace accounts for the time
    assert 0.85 <= doc["execution_coverage_thread"] <= 1.15
    assert 0.85 <= doc["execution_coverage_process_shm"] <= 1.15


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--requests", type=int, default=200)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--size", type=int, default=96,
                    help="square 2D grid side length")
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI smoke jobs",
    )
    ap.add_argument(
        "--out",
        default=None,
        help="append the record here instead of the default BENCH_trace.json",
    )
    args = ap.parse_args(argv)
    n = 100 if args.smoke else args.requests
    size = 64 if args.smoke else args.size
    doc = bench_tracing(
        n,
        workers=args.workers,
        max_batch_size=args.batch,
        size_2d=(size, size),
        steps=args.steps,
        seed=args.seed,
    )
    append_bench_record(
        doc, BENCH_TRACE_PATH if args.out is None else Path(args.out)
    )
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
