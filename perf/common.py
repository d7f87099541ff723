"""Shared measurement helpers for the three benchmark workloads.

Nothing here changes how the program runs: it reads clocks, public
service statistics and the spans the service already records, and adds
the benchmark's own spans around the public calls it makes.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import build_compile_plan
from repro.serve import SpanRecorder
from repro.serve.tracing import EXECUTION_STAGES
from repro.stencil import Grid, StencilSpec, vectorized_stencil

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5

#: payload sizes the serve workload's slabs carry: one 64x64 float64 grid,
#: and a full batch of eight (the service's default batch cap)
MEMCPY_SIZES = (64 * 64 * 8, 8 * 64 * 64 * 8)

#: executor stages the fused sweep reports, one span each per sweep
#: (``mac.gemm`` is one span per column block)
EXECUTOR_STAGES = ("mac.pad", "mac.gather", "mac.gemm", "mac.scatter", "mac.store")


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, object] = field(default_factory=dict)


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_samples(n: int, q: float) -> float:
    """Samples beyond percentile ``q`` in a run of ``n``."""
    return n * (100.0 - q) / 100.0


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte identity (distinguishes -0.0 from 0.0, unlike ``==``)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def digest(a: np.ndarray) -> bytes:
    """Short content hash of an array's shape, dtype and bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    h.update(np.ascontiguousarray(a).data)
    return h.digest()


def median_time(fn: Callable[[], object], reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Host facts and memory
# ----------------------------------------------------------------------


def _l3_bytes() -> Optional[int]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def host_facts(seed: int) -> Dict[str, object]:
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def cpu_jiffies() -> Tuple[int, int]:
    """Host-wide (steal, total) CPU jiffies from ``/proc/stat``; (0, 0)
    where unavailable.  Steal is time the hypervisor ran someone else."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_s() -> float:
    """CPU seconds used so far by this process (all threads) plus its live
    worker processes."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        if child.pid is not None:
            total += _proc_cpu_s(child.pid)
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    Read while the service is still open, so its worker processes are
    counted; each process contributes its own high-water mark.
    """
    kb = _vm_hwm_kb(os.getpid())
    for child in multiprocessing.active_children():
        if child.pid is not None:
            kb += _vm_hwm_kb(child.pid)
    return kb / 1024.0


# ----------------------------------------------------------------------
# Same-run floors
# ----------------------------------------------------------------------


def memcpy_gb_s(sizes: Iterable[int] = MEMCPY_SIZES, reps: int = 200) -> float:
    """Median GB/s of a plain ``np.copyto`` over the slab payload sizes
    (bytes copied, counted once, as ``shm.copy_gb_s`` counts them)."""
    rates = []
    for nbytes in sizes:
        src = np.random.default_rng(0).standard_normal(nbytes // 8)
        dst = np.empty_like(src)
        dt = median_time(lambda: np.copyto(dst, src), reps)
        rates.append(nbytes / dt / 1e9)
    return statistics.median(rates)


def vectorized_floor_s(
    spec: StencilSpec, grid: Grid, reps: int, bench: SpanRecorder
) -> float:
    """Median seconds of one ``vectorized_stencil`` sweep of ``grid``."""
    times = []
    for _ in range(reps):
        with bench.span("bench.vectorized", spec.name or "spec", 0):
            t0 = time.perf_counter()
            vectorized_stencil(spec, grid)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# GEMM geometry: exact operation counts of the fused sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GemmCounts:
    """Per-sweep counts of the fused GEMM for one (spec, grid shape).

    ``useful_macs`` are the stencil's own multiply-adds (non-zero taps x
    points); ``executed_macs`` are what the fused ``K_all @ X`` einsum
    performs; ``bytes`` is the computed operand traffic of that GEMM
    (X in, Y out, the compact kernel once), all float64.
    """

    useful_macs: int
    executed_macs: int
    bytes: int

    def __mul__(self, k: int) -> "GemmCounts":
        return GemmCounts(
            self.useful_macs * k, self.executed_macs * k, self.bytes * k
        )

    def __add__(self, other: "GemmCounts") -> "GemmCounts":
        return GemmCounts(
            self.useful_macs + other.useful_macs,
            self.executed_macs + other.executed_macs,
            self.bytes + other.bytes,
        )


ZERO_COUNTS = GemmCounts(0, 0, 0)


def gemm_counts(spec: StencilSpec, shape: Tuple[int, ...]) -> GemmCounts:
    """Counts of one fused sweep, from the plan the service would compile.

    Every padded line of the grid contributes ``ceil(n / L)`` GEMM
    columns, independent of how requests are batched.
    """
    op = build_compile_plan(spec).fused_operator
    r = spec.radius
    pad_lines = math.prod(s + 2 * r for s in shape[:-1])
    cols = pad_lines * math.ceil(shape[-1] / op.L)
    m, w = op.m_active, op.n_x_rows
    useful = int(np.count_nonzero(spec.weights)) * math.prod(shape)
    return GemmCounts(useful, m * w * cols, 8 * (w * cols + m * cols + m * w))


# ----------------------------------------------------------------------
# Span tallies
# ----------------------------------------------------------------------


class SpanTally:
    """Running per-name totals of drained spans.

    Keeps counts and summed durations for every span name, the raw
    durations of ``request`` spans (percentiles), and the self time of
    every ``submit`` span: its duration minus the execution-stage spans
    of the same trace that it contains (the synchronous path executes
    inside ``submit``).
    """

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.request_s: List[float] = []
        self.submit_self_s: List[float] = []

    def add(self, spans: Iterable) -> None:
        spans = list(spans)
        exec_by_trace: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in spans:
            self.count[s.name] += 1
            self.total[s.name] += s.dur_s
            if s.name in EXECUTION_STAGES:
                exec_by_trace[s.trace_id].append((s.start_s, s.start_s + s.dur_s))
            elif s.name == "request":
                self.request_s.append(s.dur_s)
        for s in spans:
            if s.name != "submit":
                continue
            end = s.start_s + s.dur_s
            inner = sum(
                max(0.0, min(end, e) - max(s.start_s, b))
                for b, e in exec_by_trace.get(s.trace_id, ())
            )
            self.submit_self_s.append(max(0.0, s.dur_s - inner))

    def merge(self, other: "SpanTally") -> None:
        self.count.update(other.count)
        for k, v in other.total.items():
            self.total[k] += v
        self.request_s.extend(other.request_s)
        self.submit_self_s.extend(other.submit_self_s)

    def mean_ms(self, name: str, per: Optional[float] = None) -> float:
        """Total ms of ``name`` spans divided by ``per`` (default: their count)."""
        n = self.count[name] if per is None else per
        return self.total[name] / n * 1e3 if n else 0.0


def metric_value(samples, name: str) -> float:
    """Sum of a registry metric's samples (0.0 when the backend has none)."""
    return float(sum(s.value for s in samples if s.name == name))


def layer_metrics(
    *,
    setup: SpanTally,
    tally: SpanTally,
    stats,
    before,
    counts: GemmCounts,
    floor_s: float,
    floor_ms_per_op: float,
    memcpy: float,
    overhead_pct: float,
    iterations_per_solve: float = 0.0,
    fallback_coalesce_ms: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metric set every workload reports from its traced phase.

    ``setup`` holds the spans of the traced set-up (where every plan
    compiles), ``tally`` those of the traced phase.  ``stats`` and
    ``before`` are :meth:`StencilService.stats` after and before the
    traced phase (phase deltas come from their difference).  ``counts``
    and ``floor_s`` cover exactly the sweeps executed in the traced
    phase; ``floor_ms_per_op`` is the vectorized floor of one operation
    of the workload (a round, a request, a solve).  Layers a workload
    does not exercise report 0 (no shm slabs on ``sweep``, no solver
    iterations on ``serve``).
    """
    t, t0 = stats.telemetry, before.telemetry
    sweeps = tally.count["mac.pad"]
    exec_s = sum(tally.total[n] for n in EXECUTOR_STAGES)
    batches = t.batches - t0.batches
    plans = setup.count["plan_compile"]
    submits = tally.count["submit"]
    iterations = tally.count["solver_iteration"]
    coalesce = (
        tally.mean_ms("coalesce") if tally.count["coalesce"] else fallback_coalesce_ms
    )
    return {
        "pipeline.compile_ms": setup.mean_ms("plan_compile"),
        "pipeline.plans": float(plans),
        "plan_cache.hit_rate": stats.cache.hit_rate,
        "plan_cache.lookups": float(stats.cache.lookups),
        "plan_cache.workspace_mb": stats.cache.workspace_bytes / 2**20,
        "executor.sweeps": float(sweeps),
        "executor.pad_ms": tally.mean_ms("mac.pad", sweeps),
        "executor.gather_ms": tally.mean_ms("mac.gather", sweeps),
        "executor.scatter_ms": tally.mean_ms("mac.scatter", sweeps),
        "executor.store_ms": tally.mean_ms("mac.store", sweeps),
        "executor.floor_ratio": exec_s / floor_s if floor_s else 0.0,
        "fused.gemm_ms": tally.mean_ms("mac.gemm", sweeps),
        "fused.gemm_blocks": tally.count["mac.gemm"] / sweeps if sweeps else 0.0,
        "fused.useful_op_ratio": (
            counts.useful_macs / counts.executed_macs if counts.executed_macs else 0.0
        ),
        "fused.flop_per_byte": (
            2 * counts.executed_macs / counts.bytes if counts.bytes else 0.0
        ),
        "service.submit_us": pct(tally.submit_self_s, 50) * 1e6,
        "service.submits": float(submits),
        "batching.queue_wait_ms_p50": t.queue_wait_ms["p50"],
        "batching.queue_wait_ms_p99": t.queue_wait_ms["p99"],
        "batching.queue_wait_samples": float(t.requests),
        "batching.occupancy": (t.requests - t0.requests) / batches if batches else 0.0,
        "batching.batches": float(batches),
        "batching.coalesce_ms": coalesce,
        "workers.retries": float(t.retries),
        "workers.restarts": float(t.worker_restarts),
        "workers.inline_batches": float(t.inline_batches),
        "shm.backpressure_stalls": metric_value(
            stats.metrics, "repro_serve_shm_backpressure_stalls_total"
        ),
        "shm.fallbacks": metric_value(stats.metrics, "repro_serve_shm_fallbacks_total"),
        "shm.slab_mb": stats.cache.slab_bytes / 2**20,
        "multigrid.iterations": iterations_per_solve,
        "sessions.requests_per_iteration": submits / iterations if iterations else 0.0,
        "floor.vectorized_ms": floor_ms_per_op,
        "floor.memcpy_gb_s": memcpy,
        "trace.overhead_pct": overhead_pct,
    }


def transport_report(
    tally: SpanTally, stats, before, slab_bytes: int
) -> Dict[str, float]:
    """Process-backend stages, per batch, for the report line.

    These spans exist only where batches cross a process boundary, so
    they are reported beside the per-layer metrics rather than as metrics
    every workload must carry.
    """
    batches = stats.telemetry.batches - before.telemetry.batches
    out = {
        f"workers.{name}_ms": tally.mean_ms(name, batches)
        for name in ("pack", "ipc", "decode", "unpack", "resolve")
    }
    for key, metric in (
        ("workers.feeder_busy_s", "repro_serve_feeder_busy_seconds_total"),
        ("workers.dispatcher_busy_s", "repro_serve_dispatcher_busy_seconds_total"),
    ):
        out[key] = metric_value(stats.metrics, metric) - metric_value(
            before.metrics, metric
        )
    copy_s = tally.total["pack"] + tally.total["unpack"]
    out["shm.copy_gb_s"] = slab_bytes / copy_s / 1e9 if copy_s else 0.0
    return out
