"""Range-parallel fused sweep benchmark: threads=1 vs threads=cores.

With fused-K GEMM, temporal fusion and the shm transport landed, the
ordered einsum MAC is the dominant term in batch service time.  The
executor threads a sweep by output range — each thread runs gather,
GEMM, add and store for its own leading-axis planes as one task of a
runner's :class:`~repro.sptc.macpool.MacThreadPool` — with bit-identical
results by construction, since every output element is reduced in a
fixed order inside the one range that owns it.  This benchmark
measures, on one MAC-dominated configuration (2D r=2 box, grid large
enough to split into ranges):

* **single-request sweep throughput** of one executor on a
  ``SweepRunner(1)`` vs a ``SweepRunner(cores)`` — the acceptance gate
  (>= 1.5x, armed where ``os.cpu_count() >= 2`` like the PR 3 process
  gate);
* **bit-identity on the measured traffic** — serial and threaded sweeps
  are compared byte-for-byte before any record is written (blocking at
  every core count);
* **CPU-time hygiene** — worker CPU time must be ~ wall x threads: the
  serial run burning much more CPU than wall would mean a BLAS/OpenMP
  pool is fighting the MAC pool for cores (the oversubscription the
  ``OMP_NUM_THREADS=1`` worker env hygiene exists to prevent), and the
  threaded run must not exceed its stated budget;
* **serving throughput** of sequential single requests through
  :class:`repro.serve.StencilService` at both thread counts, recorded
  for the trajectory (the service adds batching/queue overhead on top,
  so the executor-level numbers carry the gate).

Results append to ``BENCH_mac_threads.json``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_mac_threads.py
    PYTHONPATH=src python benchmarks/bench_mac_threads.py --smoke --out BENCH_mac_threads.json

or under pytest (runs the gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_mac_threads.py -s
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import SpiderExecutor, SweepRunner
from repro.serve import StencilService
from repro.serve.workers import _BLAS_THREAD_ENV_VARS
from repro.stencil import Grid, make_box_kernel

#: where threads=1 vs threads=N records accumulate (repo root)
BENCH_MAC_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_mac_threads.json"
)


def _bench_threads(cores: int) -> int:
    """Thread count for the parallel arm: every usable core, but at least
    2 so the pool machinery is exercised (and its bit-identity asserted)
    even on a single-core host where the speedup gate stays disarmed."""
    return max(2, cores)


def _time_sweeps(executor, runner, grid, reps: int):
    """Best-per-sweep wall time plus whole-window CPU/wall ratio.

    ``time.process_time`` sums CPU over *all* threads of this process, so
    the ratio is the empirical core usage: ~1 for a serial MAC with a
    pinned BLAS, ~threads for a parallel MAC actually drawing its budget.
    """
    out = executor.run(grid, runner)  # warm workspaces, pool threads
    best = float("inf")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(reps):
        t0 = time.perf_counter()
        out = executor.run(grid, runner)
        best = min(best, time.perf_counter() - t0)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return best, (cpu / wall if wall > 0 else 0.0), out


def _serve_sequential(spec, grid, n_requests: int, mac_threads: int):
    """Sequential single-request stream: one request in flight at a time
    (occupancy 1), so per-request service time is one sweep's wall time
    plus serving overhead."""
    with StencilService(
        workers=1,
        max_batch_size=1,
        mac_threads=mac_threads,
    ) as svc:
        svc.run(spec, grid)  # warm
        t0 = time.perf_counter()
        for _ in range(n_requests):
            out = svc.run(spec, grid)
        elapsed = time.perf_counter() - t0
        stats = svc.stats()
    assert stats.telemetry.errors == 0
    assert stats.mac_threads == mac_threads
    return n_requests / elapsed, out


def bench_mac_threads(
    *,
    size=(384, 384),
    radius: int = 2,
    reps: int = 9,
    serve_requests: int = 24,
    threads=None,
    seed: int = 2026,
) -> dict:
    """One serial-vs-threaded comparison record, identity-checked."""
    cores = os.cpu_count() or 1
    threads = int(threads) if threads else _bench_threads(cores)
    rng = np.random.default_rng(seed)
    spec = make_box_kernel(2, radius, rng)
    grid = Grid.random(size, rng)

    executor = SpiderExecutor(spec)
    serial, parallel = SweepRunner(1), SweepRunner(threads)
    try:
        t_serial, serial_ratio, out_serial = _time_sweeps(
            executor, serial, grid, reps
        )
        t_parallel, parallel_ratio, out_parallel = _time_sweeps(
            executor, parallel, grid, reps
        )
    finally:
        parallel.close()
    identical = out_serial.tobytes() == out_parallel.tobytes()

    serve_serial, srv_out_1 = _serve_sequential(
        spec, grid, serve_requests, 1
    )
    serve_parallel, srv_out_n = _serve_sequential(
        spec, grid, serve_requests, threads
    )
    identical = identical and srv_out_1.tobytes() == srv_out_n.tobytes()
    identical = identical and out_serial.tobytes() == srv_out_1.tobytes()

    return {
        "config": {
            "shape": f"2D r={radius} box",
            "grid": list(size),
            "reps": reps,
            "serve_requests": serve_requests,
        },
        "cpu_count": cores,
        "threads": threads,
        "serial": {
            "sweeps_per_s": 1.0 / t_serial,
            "sweep_ms": t_serial * 1e3,
            "cpu_wall_ratio": serial_ratio,
        },
        "parallel": {
            "sweeps_per_s": 1.0 / t_parallel,
            "sweep_ms": t_parallel * 1e3,
            "cpu_wall_ratio": parallel_ratio,
        },
        "speedup": t_serial / t_parallel,
        "serving": {
            "serial_rps": serve_serial,
            "parallel_rps": serve_parallel,
            "speedup": serve_parallel / serve_serial,
        },
        "bit_identical_on_measured_traffic": identical,
        "gate_armed": cores >= 2,
        "blas_env": {
            var: os.environ.get(var) for var in _BLAS_THREAD_ENV_VARS
        },
    }


def append_bench_record(doc: dict, path: Path = BENCH_MAC_PATH) -> None:
    """Append one comparison record to the accumulating JSON document."""
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
def test_mac_threads_speedup(report):
    """Threads=1 vs threads=cores, recorded to BENCH_mac_threads.json.

    Bit-identity and the CPU-hygiene bounds are blocking at every core
    count; the >= 1.5x sweep-throughput gate arms where
    ``os.cpu_count() >= 2`` (best of two runs against shared-runner
    noise, like the PR 3 multi-core gate).
    """
    doc = bench_mac_threads()
    if doc["gate_armed"] and doc["speedup"] < 1.5:
        retry = bench_mac_threads()
        if retry["speedup"] > doc["speedup"]:
            doc = retry
    append_bench_record(doc)
    report(
        "Fused sweep: serial vs range-parallel",
        json.dumps(doc, indent=2),
    )
    assert doc["bit_identical_on_measured_traffic"]
    # env hygiene: a serial MAC burning way more CPU than wall means a
    # BLAS/OpenMP pool is running under it (the oversubscription bug)
    assert doc["serial"]["cpu_wall_ratio"] <= 2.0, doc["serial"]
    # the threaded MAC must stay inside its stated budget (~ wall x
    # threads; slack for interpreter-side work and ratio jitter)
    assert (
        doc["parallel"]["cpu_wall_ratio"] <= doc["threads"] * 1.5 + 0.5
    ), doc["parallel"]
    if doc["gate_armed"]:
        assert doc["speedup"] >= 1.5, doc["speedup"]
        # the win must come from actual concurrency, not a serial path
        # that merely got faster
        assert doc["parallel"]["cpu_wall_ratio"] >= 1.2, doc["parallel"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", type=int, default=384,
                    help="square 2D grid side length")
    ap.add_argument("--radius", type=int, default=2)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--requests", type=int, default=24,
                    help="sequential serving requests per thread count")
    ap.add_argument("--threads", type=int, default=None,
                    help="parallel-arm thread count (default: cores)")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI smoke jobs",
    )
    ap.add_argument(
        "--out",
        default=None,
        help="append the record here instead of BENCH_mac_threads.json",
    )
    args = ap.parse_args(argv)
    size = 224 if args.smoke else args.size
    doc = bench_mac_threads(
        size=(size, size),
        radius=args.radius,
        reps=5 if args.smoke else args.reps,
        serve_requests=12 if args.smoke else args.requests,
        threads=args.threads,
        seed=args.seed,
    )
    append_bench_record(
        doc, BENCH_MAC_PATH if args.out is None else Path(args.out)
    )
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
