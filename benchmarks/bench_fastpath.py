"""Fused-K fast-path benchmark: per-row seed path vs the fused plan.

Measures, for stencils spanning 1D/2D/3D x star/box x r in {1,2,3}:

* **single-sweep**: the kept per-row reference path
  (:meth:`SpiderExecutor._reference_run` — one line gather, windowing pass
  and GEMM per kernel row, allocating as the seed did) against the fused
  plan (:meth:`SpiderExecutor.run_batch` — one windowing pass, one ordered
  ``K_all @ X`` per line block, runner-owned workspaces);
* **serving throughput**: a closed-loop trace through
  :class:`repro.serve.StencilService`, whose workers now execute the fused
  plan via ``run_batch_split``.

Every timed configuration is first checked bit-identical between the two
paths (the fused plan's acceptance oracle).  Results are written to
``BENCH_fastpath.json`` so the trajectory is recorded per PR.

Standalone::

    PYTHONPATH=src python benchmarks/bench_fastpath.py            # full
    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke    # CI-sized

or under pytest (asserts the >=2x acceptance configs)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py -s
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.executor import SpiderExecutor
from repro.serve import StencilService
from repro.stencil import Grid, make_box_kernel, make_star_kernel
from repro.stencil.workloads import closed_loop_stream, serving_workloads

#: (label, dims, radius, kind, full-size shape, smoke-size shape)
SWEEP_CONFIGS = [
    ("1D r=1 box", 1, 1, "box", (1 << 20,), (1 << 14,)),
    ("1D r=3 star", 1, 3, "star", (1 << 20,), (1 << 14,)),
    ("2D r=1 star", 2, 1, "star", (512, 512), (96, 96)),
    ("2D r=2 box", 2, 2, "box", (512, 512), (96, 96)),
    ("2D r=3 box", 2, 3, "box", (512, 512), (96, 96)),
    ("3D r=1 star", 3, 1, "star", (64, 64, 64), (24, 24, 24)),
    ("3D r=2 box", 3, 2, "box", (48, 48, 48), (20, 20, 20)),
    ("3D r=3 star", 3, 3, "star", (40, 40, 40), (20, 20, 20)),
]

#: configurations the issue's acceptance criteria name (>= 2x single-sweep)
ACCEPTANCE = {"2D r=2 box", "3D r=1 star"}


def _time(fn, arg, reps):
    fn(arg)  # warm caches, plans and workspaces
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_single_sweep(smoke: bool, seed: int = 2026) -> list:
    rng = np.random.default_rng(seed)
    reps = 2 if smoke else 5
    rows = []
    for label, dims, r, kind, full, small in SWEEP_CONFIGS:
        shape = small if smoke else full
        make = make_box_kernel if kind == "box" else make_star_kernel
        spec = make(dims, r, rng)
        ex = SpiderExecutor(spec)
        g = Grid.random(shape, rng)
        assert np.array_equal(ex._reference_run([g]), ex.run_batch([g])), label
        t_old = _time(ex._reference_run, [g], reps)
        t_new = _time(ex.run_batch, [g], reps)
        points = int(np.prod(shape))
        rows.append(
            {
                "config": label,
                "shape": list(shape),
                "old_ms": t_old * 1e3,
                "fused_ms": t_new * 1e3,
                "speedup": t_old / t_new,
                "fused_mstencils_per_s": points / t_new / 1e6,
                "acceptance": label in ACCEPTANCE,
            }
        )
    return rows


def bench_serving(smoke: bool, seed: int = 2026) -> dict:
    n_requests = 120 if smoke else 600
    size_2d = (48, 48) if smoke else (128, 128)
    workloads = serving_workloads(
        ["heat2d", "blur2d", "wave2d", "Box-2D3R", "wave1d"],
        size_2d=size_2d,
        size_1d=(768,),
        seed=seed,
    )
    requests = list(closed_loop_stream(workloads, n_requests, seed=seed))
    with StencilService(workers=2, max_batch_size=16) as svc:
        svc.submit_many((r.spec, r.grid) for r in requests[: n_requests // 4])
        svc.drain()  # warm plans + workspaces off the clock
        t0 = time.perf_counter()
        svc.submit_many((r.spec, r.grid) for r in requests)
        svc.drain()
        elapsed = time.perf_counter() - t0
        stats = svc.stats()
    return {
        "requests": n_requests,
        "throughput_rps": n_requests / elapsed,
        "cache_hit_rate": stats.cache_hit_rate,
        "workspace_mb": stats.cache.workspace_bytes / 1e6,
        "errors": stats.telemetry.errors,
    }


def bench_fastpath(smoke: bool = False, seed: int = 2026) -> dict:
    sweeps = bench_single_sweep(smoke, seed)
    return {
        "config": {"mode": "smoke" if smoke else "full", "seed": seed},
        "single_sweep": sweeps,
        "serving": bench_serving(smoke, seed),
        "acceptance": {
            row["config"]: row["speedup"]
            for row in sweeps
            if row["acceptance"]
        },
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fastpath_result():
    return bench_fastpath(smoke=False)


@pytest.mark.paper_artifact("fastpath")
def test_fused_speedup_acceptance(fastpath_result, report):
    report(
        "Fused-K fast path: per-row seed vs fused single GEMM",
        json.dumps(fastpath_result, indent=2),
    )
    for label, speedup in fastpath_result["acceptance"].items():
        assert speedup >= 2.0, (label, speedup)


@pytest.mark.paper_artifact("fastpath")
def test_fused_never_slower(fastpath_result):
    for row in fastpath_result["single_sweep"]:
        assert row["speedup"] >= 1.0, (row["config"], row["speedup"])


@pytest.mark.paper_artifact("fastpath")
def test_serving_on_fused_path_clean(fastpath_result):
    serving = fastpath_result["serving"]
    assert serving["errors"] == 0
    assert serving["cache_hit_rate"] >= 0.75


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized grids and fewer reps (records, does not assert)",
    )
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"),
    )
    args = ap.parse_args(argv)
    result = bench_fastpath(smoke=args.smoke, seed=args.seed)
    print(json.dumps(result, indent=2))
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    if not args.smoke:
        bad = {k: v for k, v in result["acceptance"].items() if v < 2.0}
        if bad:
            print(f"ACCEPTANCE FAILED: {bad}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
