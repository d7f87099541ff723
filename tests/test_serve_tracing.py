"""End-to-end span tracing: recorder semantics and cross-process propagation.

The tracer's contract has two halves.  Locally, ``SpanRecorder`` must be
safe to snapshot while other threads keep recording — never dropping or
double-counting a span — and must degrade by dropping its *oldest* spans
when a thread's ring fills.  Across the process backend, worker-side
spans travel as ``(name, offset-from-batch-start, duration)`` triples and
are re-anchored on the parent's monotonic clock (the PR-5 offset-free
scheme), so a trace from ``submit(steps=3)`` must come back parent-linked
with non-negative, parent-clock-consistent timestamps on both transports
and under spawn/forkserver start methods.
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    SpanRecorder,
    StencilService,
    stage_totals,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.serve.tracing import EXECUTION_STAGES, execution_coverage
from repro.stencil import Grid, named_stencil

#: worker-side stages that must survive the IPC hop on the process backend
WORKER_STAGES = {"decode", "mac.gemm", "temporal_chain"}


def _serve_traced(backend, transport=None, n=8, steps=3):
    """Serve ``n`` traced requests; ``backend="sync"`` means ``workers=0``."""
    rng = np.random.default_rng(5)
    spec = named_stencil("heat2d")
    kwargs = {"transport": transport} if transport else {}
    with StencilService(
        workers=0 if backend == "sync" else 2,
        backend=backend,
        max_batch_size=4,
        trace=True,
        **kwargs,
    ) as svc:
        reqs = [
            svc.submit(spec, Grid.random((16, 16), rng), steps=steps)
            for _ in range(n)
        ]
        svc.drain()
        spans = svc.trace_spans()
        stats = svc.stats()
    for r in reqs:
        r.result()
    return spans, stats


# ----------------------------------------------------------------------
# SpanRecorder semantics
# ----------------------------------------------------------------------


def test_recorder_disabled_is_a_noop():
    rec = SpanRecorder()
    assert rec.record_span("x", "t", 0.0, 1.0, trace_id=1) is None
    with rec.span("y", "t", trace_id=1) as sid:
        assert sid is None
    assert rec.snapshot() == ()


def test_recorder_records_and_links_spans():
    rec = SpanRecorder(enabled=True)
    trace_id, root = rec.new_ids()
    rec.record_span(
        "request", "requests", 0.0, 2.0, trace_id, span_id=root
    )
    child = rec.record_span(
        "mac", "shard-0", 0.5, 1.0, trace_id, parent_id=root
    )
    spans = rec.snapshot()
    assert [s.name for s in spans] == ["request", "mac"]
    assert spans[1].parent_id == root
    assert spans[1].span_id == child
    assert spans[0].trace_id == spans[1].trace_id == trace_id


def test_recorder_ring_drops_oldest_and_counts():
    rec = SpanRecorder(enabled=True, capacity_per_thread=16)
    for i in range(40):
        rec.record_span(f"s{i}", "t", float(i), 1.0, trace_id=1)
    spans = rec.snapshot()
    assert len(spans) == 16
    assert rec.dropped == 24
    # oldest dropped: the survivors are the 16 most recent
    assert [s.name for s in spans] == [f"s{i}" for i in range(24, 40)]


def test_recorder_clamps_negative_durations():
    rec = SpanRecorder(enabled=True)
    rec.record_span("x", "t", 1.0, -0.5, trace_id=1)
    assert rec.snapshot()[0].dur_s == 0.0


def test_snapshot_under_load_never_drops_or_double_counts():
    rec = SpanRecorder(enabled=True, capacity_per_thread=100_000)
    n_threads, per_thread = 6, 5_000
    start = threading.Barrier(n_threads + 1)
    stop = threading.Event()

    def produce():
        start.wait()
        for i in range(per_thread):
            rec.record_span("s", "t", float(i), 1.0, trace_id=1)

    threads = [threading.Thread(target=produce) for _ in range(n_threads)]
    for t in threads:
        t.start()
    start.wait()
    while any(t.is_alive() for t in threads):
        snap = rec.snapshot()
        # a snapshot taken mid-stream holds no duplicates...
        ids = [s.span_id for s in snap]
        assert len(ids) == len(set(ids))
    for t in threads:
        t.join()
    # ...and the final harvest has every span exactly once
    final = rec.drain()
    assert len(final) == n_threads * per_thread
    assert rec.dropped == 0
    assert rec.snapshot() == ()  # drain moved them out


# ----------------------------------------------------------------------
# end-to-end traces, thread backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sync", "thread"])
def test_thread_backend_trace_covers_request_and_execution_stages(backend):
    spans, stats = _serve_traced(backend)
    names = {s.name for s in spans}
    assert {"submit", "queue", "coalesce", "request", "resolve"} <= names
    assert {"mac.gemm", "temporal_chain", "plan_compile"} <= names
    roots = {s.span_id for s in spans if s.name == "request"}
    assert len(roots) == 8
    for s in spans:
        assert s.dur_s >= 0.0
        if s.name != "request":
            assert s.parent_id in roots, f"{s.name} span not parent-linked"
    # stats() surfaces the same spans as per-stage aggregates
    assert stats.stages["request"]["count"] == 8.0
    assert stats.stages["mac.gemm"]["total_s"] > 0.0


def test_trace_disabled_by_default_records_nothing():
    rng = np.random.default_rng(1)
    spec = named_stencil("heat2d")
    with StencilService(workers=1, backend="thread") as svc:
        svc.submit(spec, Grid.random((8, 8), rng), steps=2).result()
        assert svc.trace_spans() == ()
        assert svc.stats().stages == {}


def test_chrome_trace_export_is_loadable(tmp_path):
    out = tmp_path / "trace.json"
    with StencilService(workers=1, backend="thread", trace=True) as svc:
        svc.submit(
            named_stencil("heat2d"), Grid.random((8, 8)), steps=2
        ).result()
        n = svc.export_trace(str(out))
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == n > 0
    events = doc["traceEvents"]
    # complete events carry µs timestamps relative to the trace start
    xs = [e for e in events if e["ph"] == "X"]
    assert min(e["ts"] for e in xs) == 0
    assert all(e["dur"] >= 0 for e in xs)
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"foo": []})
    with pytest.raises(ValueError, match="missing name"):
        validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    with pytest.raises(ValueError, match="pid/tid"):
        validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]})
    bad = to_chrome_trace(())
    bad["traceEvents"].append(
        {"ph": "X", "name": "x", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
    )
    with pytest.raises(ValueError, match="negative"):
        validate_chrome_trace(bad)


# ----------------------------------------------------------------------
# cross-process propagation (satellite d)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["shm", "queue"])
def test_process_backend_spans_propagate_and_anchor(transport):
    t0 = time.monotonic()
    spans, stats = _serve_traced("process", transport=transport)
    t1 = time.monotonic()
    names = {s.name for s in spans}
    # parent-side batch stages and IPC accounting
    assert {"pack", "ipc", "unpack", "resolve"} <= names
    # worker-side spans crossed the process boundary
    assert WORKER_STAGES <= names, f"missing {WORKER_STAGES - names}"
    roots = {s.span_id for s in spans if s.name == "request"}
    assert len(roots) == 8
    for s in spans:
        # re-anchored on the parent monotonic clock: inside the run window
        assert t0 <= s.start_s <= s.start_s + s.dur_s <= t1, s.name
        if s.name != "request":
            assert s.parent_id in roots, f"{s.name} span not parent-linked"
    # worker spans nest inside the service window their batch reported
    svc_total = (
        stats.telemetry.service_ms["mean"]
        * stats.telemetry.service_ms["count"]
        / 1e3
    )
    covered = execution_coverage(spans, svc_total)
    assert 0.0 < covered, "no execution-stage time attributed"
    totals = stage_totals(spans)
    assert any(stage in totals for stage in EXECUTION_STAGES)


_TRACE_SCRIPT = """
import numpy as np
from repro.serve import StencilService, validate_chrome_trace, to_chrome_trace
from repro.stencil import Grid, named_stencil

rng = np.random.default_rng(0)
spec = named_stencil("heat2d")
with StencilService(
    workers=2,
    backend="process",
    transport="{transport}",
    max_batch_size=4,
    trace=True,
) as svc:
    reqs = [
        svc.submit(spec, Grid.random((16, 16), rng), steps=3)
        for _ in range(8)
    ]
    svc.drain()
    spans = svc.trace_spans()
for r in reqs:
    r.result()
names = {{s.name for s in spans}}
assert {{"decode", "temporal_chain", "ipc", "pack"}} <= names, names
roots = {{s.span_id for s in spans if s.name == "request"}}
assert len(roots) == 8
assert all(s.start_s >= 0 and s.dur_s >= 0 for s in spans)
assert all(s.parent_id in roots for s in spans if s.name != "request")
validate_chrome_trace(to_chrome_trace(spans))
print("TRACED-OK", len(spans))
"""


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
@pytest.mark.parametrize("transport", ["shm", "queue"])
def test_trace_propagation_under_start_method(start_method, transport):
    """Spans propagate under the heavyweight mp start methods too.

    Runs in a subprocess so ``REPRO_MP_START_METHOD`` is read by a fresh
    interpreter (the pool caches its context per process).
    """
    env = dict(os.environ)
    env["REPRO_MP_START_METHOD"] = start_method
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::UserWarning",
            "-c",
            _TRACE_SCRIPT.format(transport=transport),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, f"stdout={proc.stdout}\nstderr={proc.stderr}"
    assert "TRACED-OK" in proc.stdout
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# stage-tagged error accounting rides the same plumbing
# ----------------------------------------------------------------------


def test_execute_errors_are_stage_tagged(shard_gate):
    rng = np.random.default_rng(2)
    spec = named_stencil("heat2d")
    with StencilService(workers=1, backend="thread", trace=True) as svc:
        ok = svc.submit(spec, Grid.random((12, 12), rng))
        assert shard_gate.entered.wait(60)  # the only shard is held
        # force an executor failure by corrupting the request while it
        # queues (a None grid blows up inside execute_serve_batch, not pack)
        bad = svc.submit(spec, Grid.random((12, 12), rng))
        bad.grid = None
        shard_gate.gate.set()
        assert ok.result() is not None
        svc.drain()
        stats = svc.stats()
    with pytest.raises(Exception):
        bad.result()
    assert stats.telemetry.errors == 1
    assert stats.telemetry.errors_by_stage.get("execute") == 1
