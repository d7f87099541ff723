"""Streaming metrics: bounded histograms, registry, Prometheus exposition.

The streaming histogram replaces the exact-sample one as the serving
default, so the contracts here are (a) agreement — percentiles within the
bucket resolution of the exact answer on random samples, count/mean/max
exactly equal — and (b) boundedness — memory grows with the data's
dynamic range, not its volume.  Plus the counter/gauge registry and the
Prometheus text format round-trip through the repo's own validator (the
same one CI runs against exported stats).
"""

import math
import threading

import numpy as np
import pytest

from repro.serve import (
    MetricsRegistry,
    ServiceStats,
    ServiceTelemetry,
    StreamingHistogram,
    validate_prometheus_text,
)
from repro.serve.plan_cache import CacheStats
from repro.serve.telemetry import Histogram


# ----------------------------------------------------------------------
# StreamingHistogram vs exact Histogram
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dist", ["lognormal", "uniform", "exponential"])
def test_streaming_percentiles_agree_with_exact_within_resolution(dist):
    rng = np.random.default_rng(42)
    values = {
        "lognormal": rng.lognormal(0.0, 1.5, size=20_000),
        "uniform": rng.uniform(1e-6, 1e3, size=20_000),
        "exponential": rng.exponential(0.01, size=20_000),
    }[dist]
    exact = Histogram()
    stream = StreamingHistogram()
    exact.extend(values)
    stream.extend(values)
    # half-bucket resolution plus slack for the exact percentile's linear
    # interpolation landing anywhere inside a bucket
    tol = 2.0 * stream.relative_error + 0.01
    for p in (50, 90, 99):
        e, s = exact.percentile(p), stream.percentile(p)
        assert s == pytest.approx(e, rel=tol), f"p{p}: exact {e} stream {s}"


def test_streaming_tracks_count_sum_max_exactly():
    rng = np.random.default_rng(7)
    values = rng.lognormal(0, 2, size=5000)
    h = StreamingHistogram()
    h.extend(values)
    assert h.count == 5000
    assert h.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert h.max == float(np.max(values))
    assert h.min == float(np.min(values))
    # summary carries the exact fields the report consumers assert on
    s = h.summary(scale=1e3)
    assert s["count"] == 5000.0
    assert s["max"] == pytest.approx(float(np.max(values)) * 1e3)


def test_streaming_memory_bounded_by_dynamic_range_not_volume():
    h = StreamingHistogram()
    rng = np.random.default_rng(0)
    # a million samples spanning 12 decades stay under ~1000 buckets,
    # where the exact histogram would hold every sample
    h.extend(10.0 ** rng.uniform(-6, 6, size=100_000))
    buckets_at_100k = h.bucket_count
    assert buckets_at_100k < 1000
    h.extend(10.0 ** rng.uniform(-6, 6, size=100_000))
    assert h.bucket_count <= buckets_at_100k + 8  # range, not volume


def test_streaming_zero_and_negative_values():
    h = StreamingHistogram()
    h.extend([0.0, 0.0, -1.0, 2.0])
    assert h.count == 4
    assert h.min == -1.0
    assert h.max == 2.0
    assert h.percentile(50) == 0.0  # zero bucket dominates the median


def test_streaming_merge_equals_combined_recording():
    rng = np.random.default_rng(3)
    a_vals = rng.exponential(1.0, size=3000)
    b_vals = rng.exponential(5.0, size=3000)
    a, b, combined = (
        StreamingHistogram(),
        StreamingHistogram(),
        StreamingHistogram(),
    )
    a.extend(a_vals)
    b.extend(b_vals)
    combined.extend(a_vals)
    combined.extend(b_vals)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    for p in (50, 90, 99):
        assert a.percentile(p) == pytest.approx(combined.percentile(p))


def test_streaming_merge_rejects_mismatched_base():
    with pytest.raises(ValueError, match="base"):
        StreamingHistogram(base=2.0).merge(StreamingHistogram(base=1.5))


def test_streaming_empty_summary_is_zeroes():
    s = StreamingHistogram().summary()
    assert s == {k: 0.0 for k in ("count", "mean", "p50", "p90", "p99", "max")}


# ----------------------------------------------------------------------
# ServiceTelemetry
# ----------------------------------------------------------------------


def _record_fake_batches(t: ServiceTelemetry, n: int = 50) -> None:
    class _R:
        steps = 1

        def __init__(self, sub):
            self.submitted_s = sub

    for i in range(n):
        base = float(i)
        t.record_batch([_R(base), _R(base + 0.001)], base + 0.01, base + 0.02)


def test_telemetry_errors_by_stage_breakdown():
    t = ServiceTelemetry()
    t.record_error([1, 2], stage="pack")
    t.record_error([3], stage="execute")
    t.record_error([4], stage="execute")
    snap = t.snapshot()
    assert snap.errors == 4
    assert snap.errors_by_stage == {"pack": 2, "execute": 2}
    assert sum(snap.errors_by_stage.values()) == snap.errors


# ----------------------------------------------------------------------
# registry + exposition
# ----------------------------------------------------------------------


def test_registry_counters_gauges_and_idempotent_registration():
    reg = MetricsRegistry()
    c1 = reg.counter("repro_test_ops_total", "ops")
    c2 = reg.counter("repro_test_ops_total")
    assert c1 is c2  # shards share one metric per name
    c1.inc()
    c2.inc(2.5)
    assert reg.snapshot()["repro_test_ops_total"] == 3.5
    g = reg.gauge("repro_test_depth", "queue depth")
    g.set(7)
    assert reg.snapshot()["repro_test_depth"] == 7.0
    g.set_function(lambda: 11.0)
    assert reg.snapshot()["repro_test_depth"] == 11.0
    with pytest.raises(ValueError):
        reg.gauge("repro_test_ops_total")  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("bad name!")
    with pytest.raises(ValueError):
        c1.inc(-1)


def test_registry_concurrent_increments_do_not_drop():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_total")

    def bump():
        for _ in range(10_000):
            c.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 80_000.0


def test_registry_prometheus_output_validates():
    reg = MetricsRegistry()
    reg.counter("repro_test_ops_total", "operations with \\ and\nnewline").inc(3)
    reg.gauge("repro_test_bytes", "resident bytes").set(1.5e9)
    text = reg.to_prometheus()
    n = validate_prometheus_text(text)
    assert n == 2
    assert "# TYPE repro_test_ops_total counter" in text
    assert "# TYPE repro_test_bytes gauge" in text


def test_service_stats_to_prometheus_validates_and_carries_stages():
    t = ServiceTelemetry()
    _record_fake_batches(t, n=10)
    t.record_error([1], stage="ipc")
    stats = ServiceStats(
        workers=2,
        submitted=20,
        inflight=0,
        telemetry=t.snapshot(),
        cache=CacheStats(5, 3, 0, 3, 64, 0),
        stages={"mac": {"count": 10.0, "total_s": 0.5, "mean_s": 0.05}},
    )
    text = stats.to_prometheus()
    validate_prometheus_text(text)
    assert 'repro_serve_stage_errors_total{stage="ipc"} 1.0' in text
    assert 'repro_serve_stage_seconds_total{stage="mac"} 0.5' in text
    assert "repro_serve_latency_seconds_count" in text
    assert "repro_serve_requests_total 20.0" in text


def test_prometheus_validator_rejects_malformed():
    with pytest.raises(ValueError, match="malformed sample"):
        validate_prometheus_text("not a metric line\n")
    with pytest.raises(ValueError, match="unknown metric type"):
        validate_prometheus_text("# TYPE repro_x widget\n")
    with pytest.raises(ValueError, match="duplicate TYPE"):
        validate_prometheus_text(
            "# TYPE repro_x counter\n# TYPE repro_x counter\n"
        )
    with pytest.raises(ValueError, match="after its samples"):
        validate_prometheus_text("repro_x 1\n# TYPE repro_x counter\n")
    # well-formed corner cases pass
    assert validate_prometheus_text("repro_x{a=\"b\"} 1e-3 1700000000\n") == 1
    assert validate_prometheus_text("repro_x +Inf\n") == 1
