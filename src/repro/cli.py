"""Command-line harness: regenerate any paper artifact from the shell.

Usage::

    python -m repro table2
    python -m repro table3
    python -m repro fig10
    python -m repro fig11 --shape Box-2D2R
    python -m repro fig12
    python -m repro sensitivity
    python -m repro precision
    python -m repro verify --shape Star-2D3R --size 48x64
    python -m repro serve-bench --requests 1000 --workers 4
    python -m repro serve-bench --steps 4 --backend process
    python -m repro serve-bench --backend process --transport queue
    python -m repro serve-bench --workers 1 --mac-threads 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__

__all__ = ["main"]


def _cmd_table2(args) -> int:
    from .analysis import format_table2, table2_rows

    print(format_table2(table2_rows(r=args.radius, c=args.tile)))
    return 0


def _cmd_table3(args) -> int:
    from .analysis import format_table3, table3_rows

    print(format_table3(table3_rows(radius=args.radius, grid_shape=(20, 64))))
    return 0


def _cmd_fig10(args) -> int:
    from .analysis import figure10, format_figure10

    print(format_figure10(figure10()))
    return 0


def _cmd_fig11(args) -> int:
    from .analysis import figure11, format_figure11

    print(format_figure11(figure11(args.shape)))
    return 0


def _cmd_fig12(args) -> int:
    from .analysis import figure12, format_figure12

    print(format_figure12(figure12()))
    return 0


def _cmd_sensitivity(args) -> int:
    from .analysis.sensitivity import format_sweep, sweep_bandwidth, sweep_sptc_ratio

    print("HBM bandwidth sweep:")
    print(format_sweep(sweep_bandwidth()))
    print("\nSpTC:TC peak-ratio sweep:")
    print(format_sweep(sweep_sptc_ratio()))
    return 0


def _cmd_precision(args) -> int:
    from .analysis.precision import (
        format_precision,
        iterated_error,
        sweep_single_sweep_error,
    )

    print("single-sweep FP16 error:")
    print(format_precision(sweep_single_sweep_error()))
    errs = iterated_error(steps=args.steps)
    print(f"\niterated heat2d error after {args.steps} steps: {errs[-1]:.2e}")
    return 0


def _parse_size(text: str) -> tuple:
    return tuple(int(t) for t in text.lower().split("x"))


def _cmd_verify(args) -> int:
    from .core import Spider
    from .stencil import make_workload, naive_stencil

    size = _parse_size(args.size) if args.size else None
    wl = make_workload(args.shape, size or ((2048,) if args.shape.startswith("1D") else (48, 64)))
    grid = wl.make_grid(np.random.default_rng(args.seed))
    out = Spider(wl.spec).run(grid)
    ref = naive_stencil(wl.spec, grid)
    err = float(np.max(np.abs(out - ref)))
    print(f"{wl.label}: max |SPIDER - reference| = {err:.3e}")
    if err > 1e-9:
        print("FAILED")
        return 1
    print("equivalent")
    return 0


def _cmd_serve_bench(args) -> int:
    """Drive a request stream through :class:`repro.serve.StencilService`."""
    import json
    import time

    from .serve import FaultPlan, StencilService, format_service_report
    from .stencil.workloads import (
        closed_loop_stream,
        open_loop_stream,
        serving_workloads,
        solve_stream,
        solver_workloads,
    )

    solve_mode = args.workload == "solve"
    if solve_mode:
        dims = tuple(
            int(d) for d in args.solve_dims.split(",") if d.strip()
        )
        workloads = solver_workloads(dims)
        requests = list(
            solve_stream(
                workloads,
                args.requests,
                tol=args.solve_tol,
                max_iters=args.solve_iters,
                cycle=args.cycle,
                rate_sps=args.rate,
                seed=args.seed,
            )
        )
    else:
        shapes = None
        if args.shapes:
            shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
        size = _parse_size(args.size) if args.size else (48, 48)
        workloads = serving_workloads(shapes, size_2d=size, seed=args.seed)
        if args.rate > 0:
            stream = open_loop_stream(
                workloads, args.requests, args.rate, seed=args.seed
            )
        else:
            stream = closed_loop_stream(
                workloads, args.requests, seed=args.seed
            )
        requests = list(stream)

    trace_path = getattr(args, "trace", None)
    faults = None
    if getattr(args, "faults", None):
        faults = FaultPlan.coerce(args.faults)
    elif getattr(args, "fault_rate", 0.0) > 0:
        faults = FaultPlan.chaos(args.fault_rate, seed=args.seed)
    with StencilService(
        workers=args.workers,
        max_batch_size=args.batch,
        backend=args.backend,
        transport=args.transport,
        trace=trace_path is not None,
        mac_threads=args.mac_threads,
        faults=faults,
    ) as svc:
        start = time.perf_counter()
        for r in requests:
            if r.arrival_s > 0:
                now = time.perf_counter() - start
                if r.arrival_s > now:
                    time.sleep(r.arrival_s - now)
            if solve_mode:
                svc.submit_solve(
                    r.spec,
                    r.rhs,
                    tol=r.tol,
                    max_iters=r.max_iters,
                    cycle=r.cycle,
                )
            else:
                svc.submit(r.spec, r.grid, steps=args.steps)
        svc.drain()
        elapsed = time.perf_counter() - start
        stats = svc.stats()
        spans = svc.trace_spans() if trace_path else ()
        if trace_path:
            svc.export_trace(trace_path)

    throughput = len(requests) / elapsed
    sweeps_per_s = stats.telemetry.sweeps / elapsed
    print(format_service_report(stats))
    if solve_mode:
        t = stats.telemetry
        solves_per_s = t.solves / elapsed
        iters_mean = t.solve_iterations.get("mean", 0.0)
        print(
            f"{'solve throughput':<22} {solves_per_s:.1f} solves/s "
            f"over {elapsed:.3f}s"
        )
        print(
            f"{'convergence':<22} {t.solves_converged}/{t.solves} "
            f"converged, {iters_mean:.1f} iters/solve"
        )
    else:
        print(
            f"{'throughput':<22} {throughput:.1f} req/s over {elapsed:.3f}s"
        )
        print(f"{'sweep throughput':<22} {sweeps_per_s:.1f} sweeps/s")
    if trace_path:
        from .serve import format_stage_table, stage_totals

        print(f"{'trace':<22} {len(spans)} spans -> {trace_path}")
        print(format_stage_table(stage_totals(spans)))
    if args.json:
        t = stats.telemetry
        doc = {
            "workload": args.workload,
            "requests": t.requests,
            "workers": stats.workers,
            "backend": stats.backend,
            "transport": stats.transport,
            "steps": args.steps,
            "mac_threads": stats.mac_threads,
            "sweeps": t.sweeps,
            "throughput_rps": throughput,
            "sweeps_per_s": sweeps_per_s,
            "latency_ms": t.latency_ms,
            "batch_occupancy": t.occupancy,
            "cache_hit_rate": stats.cache_hit_rate,
            "ipc_payload_bytes": t.ipc_payload_bytes,
            "ipc_bytes_per_request": t.ipc_bytes_per_request,
            "errors": t.errors,
            "fault_rate": getattr(args, "fault_rate", 0.0),
            "faults_injected": t.faults_injected,
            "retries": t.retries,
            "worker_restarts": t.worker_restarts,
            "slab_degrades": t.slab_degrades,
            "inline_batches": t.inline_batches,
        }
        if solve_mode:
            doc.update(
                {
                    "solves": t.solves,
                    "solves_converged": t.solves_converged,
                    "solve_failures": t.solve_failures,
                    "solves_per_s": t.solves / elapsed,
                    "iterations_per_solve": t.solve_iterations.get(
                        "mean", 0.0
                    ),
                    "solve_residual": t.solve_residual,
                }
            )
        print(json.dumps(doc, indent=2))
    failures = stats.telemetry.errors + stats.telemetry.solve_failures
    return 0 if failures == 0 else 1


def _cmd_trace(args) -> int:
    """Replay a serving workload with tracing on; emit the Chrome trace,
    a per-stage time-attribution table, and (optionally) Prometheus text."""
    import json
    import time

    from .serve import (
        StencilService,
        format_stage_table,
        stage_totals,
        validate_chrome_trace,
    )
    from .serve.tracing import EXECUTION_STAGES
    from .stencil.workloads import closed_loop_stream, serving_workloads

    shapes = None
    if args.shapes:
        shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    size = _parse_size(args.size) if args.size else (48, 48)
    workloads = serving_workloads(shapes, size_2d=size, seed=args.seed)
    requests = list(
        closed_loop_stream(workloads, args.requests, seed=args.seed)
    )

    with StencilService(
        workers=args.workers,
        max_batch_size=args.batch,
        backend=args.backend,
        transport=args.transport,
        trace=True,
        mac_threads=args.mac_threads,
    ) as svc:
        start = time.perf_counter()
        for r in requests:
            svc.submit(r.spec, r.grid, steps=args.steps)
        svc.drain()
        elapsed = time.perf_counter() - start
        stats = svc.stats()
        spans = svc.trace_spans()
        svc.export_trace(args.out)

    with open(args.out, "r", encoding="utf-8") as fh:
        n_events = validate_chrome_trace(json.load(fh))
    totals = stage_totals(spans)
    service_total = (
        stats.telemetry.service_ms["mean"]
        * stats.telemetry.service_ms["count"]
        / 1e3
    )
    covered = sum(
        totals[s]["total_s"] for s in EXECUTION_STAGES if s in totals
    )
    print(format_stage_table(totals))
    gemm = totals.get("mac.gemm")
    mac_line = f"  {'mac threads':<16} {stats.mac_threads} per shard"
    if gemm is not None and stats.telemetry.batches:
        # one span per column block of each output range: blocks/batch
        # counts GEMM calls, not threads (a serial sweep issues many)
        mac_line += (
            f" ({gemm['count'] / stats.telemetry.batches:.1f} gemm "
            f"blocks/batch, {gemm['total_s'] * 1e3:.2f} ms total)"
        )
    print(mac_line)
    print(
        f"  {'requests':<16} {len(requests)} in {elapsed:.3f}s "
        f"({len(requests) / elapsed:.1f} req/s)"
    )
    print(f"  {'trace':<16} {len(spans)} spans, {n_events} events -> {args.out}")
    print("  open in Perfetto: https://ui.perfetto.dev (drag the file in)")
    if service_total > 0:
        print(
            f"  {'coverage':<16} execution stages account for "
            f"{covered / service_total * 100:.1f}% of "
            f"{service_total * 1e3:.2f} ms batch service time"
        )
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(stats.to_prometheus())
        print(f"  {'prometheus':<16} -> {args.prometheus}")
    return 0 if stats.telemetry.errors == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPIDER reproduction: regenerate paper tables/figures",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="Table 2 cost comparison")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--tile", type=int, default=8)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("table3", help="Table 3 row-swapping cost")
    p.add_argument("--radius", type=int, default=7)
    p.set_defaults(fn=_cmd_table3)

    sub.add_parser("fig10", help="Figure 10 comparison").set_defaults(fn=_cmd_fig10)

    p = sub.add_parser("fig11", help="Figure 11 size sweep")
    p.add_argument("--shape", default="Box-2D2R")
    p.set_defaults(fn=_cmd_fig11)

    sub.add_parser("fig12", help="Figure 12 ablation").set_defaults(fn=_cmd_fig12)
    sub.add_parser("sensitivity", help="device sensitivity sweeps").set_defaults(
        fn=_cmd_sensitivity
    )

    p = sub.add_parser("precision", help="FP16 error study")
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(fn=_cmd_precision)

    p = sub.add_parser("verify", help="equivalence check for one shape")
    p.add_argument("--shape", default="Box-2D2R")
    p.add_argument("--size", default=None, help="e.g. 48x64")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "serve-bench",
        help="drive a request stream through the serving runtime",
    )
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--workload",
        choices=["sweep", "solve"],
        default="sweep",
        help="'sweep' drives single stencil applications (default); "
        "'solve' opens iterative Poisson solver sessions via "
        "submit_solve — each request is a full multigrid V-cycle or "
        "smoother-chain solve, run in the service process over its own "
        "plan cache (no batching, no workers)",
    )
    p.add_argument(
        "--solve-dims",
        default="2",
        metavar="D[,D...]",
        help="comma list of solve dimensionalities 1-3 (solve workload)",
    )
    p.add_argument(
        "--solve-tol",
        type=float,
        default=1e-6,
        help="relative residual tolerance per solve (solve workload)",
    )
    p.add_argument(
        "--solve-iters",
        type=int,
        default=40,
        help="iteration cap per solve (solve workload)",
    )
    p.add_argument(
        "--cycle",
        choices=["v", "jacobi", "rb"],
        default="v",
        help="iteration type per solve: multigrid V-cycle or a "
        "weighted-Jacobi / red-black smoother chain (solve workload)",
    )
    p.add_argument(
        "--backend",
        choices=["thread", "process"],
        default="thread",
        help="worker backend: GIL-sharing threads or per-shard worker "
        "processes (bit-identical results; process scales across cores)",
    )
    p.add_argument(
        "--transport",
        choices=["shm", "queue"],
        default="shm",
        help="process-backend bulk-byte transport: 'shm' moves grids and "
        "results through shared-memory slabs (descriptor-only queue "
        "messages, zero-copy in the worker); 'queue' pickles arrays over "
        "the mp queues (portable fallback); byte-identical results either "
        "way, ignored by the thread backend",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=8,
        help="max batch size",
    )
    p.add_argument(
        "--steps",
        type=int,
        default=1,
        help="sweeps per request: steps > 1 runs each request as one "
        "in-worker temporal super-sweep (bit-identical to that many "
        "sequential round-trips)",
    )
    p.add_argument(
        "--mac-threads",
        type=int,
        default=None,
        help="ordered-MAC threads per worker shard (default: adaptive — "
        "REPRO_MAC_THREADS or cpu_count // workers; results are "
        "bit-identical for every value)",
    )
    p.add_argument(
        "--shapes",
        default=None,
        help="comma list of named stencils or paper ids (default mix)",
    )
    p.add_argument("--size", default=None, help="2D grid size, e.g. 48x48")
    p.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="open-loop arrival rate in req/s (0 = closed-loop burst)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="also emit a JSON summary"
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="enable span tracing and write a Chrome trace_event JSON "
        "(Perfetto-loadable) plus a per-stage attribution table",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="chaos mode: inject seeded worker kills (process backend) "
        "and transient batch failures at this per-batch probability; the "
        "self-healing layer must absorb them — the bench fails on any "
        "failed request",
    )
    p.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="explicit fault-injection plan: inline JSON or a path to a "
        "FaultPlan JSON file (overrides --fault-rate)",
    )
    p.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser(
        "trace",
        help="replay a serving workload with tracing on; emit a "
        "Perfetto-loadable trace and per-stage time attribution",
    )
    p.add_argument("out", help="output path for the trace_event JSON")
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument(
        "--backend", choices=["thread", "process"], default="thread"
    )
    p.add_argument("--transport", choices=["shm", "queue"], default="shm")
    p.add_argument("--batch", type=int, default=8, help="max batch size")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument(
        "--mac-threads",
        type=int,
        default=None,
        help="ordered-MAC threads per worker shard (default: adaptive)",
    )
    p.add_argument(
        "--shapes",
        default=None,
        help="comma list of named stencils or paper ids (default mix)",
    )
    p.add_argument("--size", default=None, help="2D grid size, e.g. 48x48")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--prometheus",
        default=None,
        metavar="OUT.prom",
        help="also write the service stats as Prometheus text exposition",
    )
    p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch one subcommand; returns the exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
