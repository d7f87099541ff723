"""Streaming metrics: bounded histograms, counters/gauges, Prometheus text.

The serving telemetry's original :class:`~repro.serve.telemetry.Histogram`
keeps every raw sample — exact percentiles, but unbounded memory in a
long-running service.  :class:`StreamingHistogram` is the bounded
replacement: log-spaced buckets (geometric width ``base``), so memory is
O(log(value range)) regardless of sample count, percentiles are accurate
to within half a bucket (~2% at the default resolution), and two
histograms merge by adding bucket counts — which is what lets per-worker
accumulators roll up across shards and processes.

:class:`MetricsRegistry` is the complementary counter/gauge surface: the
serving components (:mod:`~repro.serve.shm` backpressure,
:mod:`~repro.serve.plan_cache` compiles, the :mod:`~repro.serve.workers`
feeder/dispatcher loops) register named metrics into the service's registry at construction and
bump them on the hot path (one uncontended lock each).  The registry
renders straight to the Prometheus text exposition format;
:func:`validate_prometheus_text` is the format checker CI runs against
the rendered output.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "MetricSample",
    "MetricsRegistry",
    "StreamingHistogram",
    "render_prometheus",
    "validate_prometheus_text",
]


class StreamingHistogram:
    """Log-bucketed streaming histogram with bounded memory.

    Values ``v > 0`` land in bucket ``floor(log(v) / log(base))``; the
    bucket's representative value is its geometric midpoint, so any
    percentile is off by at most ``sqrt(base) - 1`` relative (~2.2% at the
    default ``base = 2**(1/16)``).  Count, sum (hence mean), min and max
    are tracked exactly, so the summary fields existing report consumers
    assert on (``count``, ``mean``, ``max``) are identical to the
    exact-sample histogram's.  Non-positive values (a clamped queue wait
    is exactly 0.0) share one dedicated zero bucket.

    Memory is bounded by the dynamic range of the data, not its volume:
    values spanning 1e-9..1e9 occupy < 1000 buckets of one dict entry
    each, where the exact histogram would hold every sample forever.
    """

    __slots__ = (
        "base",
        "_log_base",
        "_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, base: float = 2.0 ** (1.0 / 16.0)) -> None:
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        self.base = float(base)
        self._log_base = math.log(self.base)
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def relative_error(self) -> float:
        """Worst-case relative percentile error (half a bucket)."""
        return math.sqrt(self.base) - 1.0

    def record(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        idx = math.floor(math.log(value) / self._log_base)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.record(v)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram in (bucket-wise; bases must match)."""
        if abs(other.base - self.base) > 1e-12:
            raise ValueError(
                f"cannot merge histograms with bases {self.base} and "
                f"{other.base}"
            )
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def bucket_count(self) -> int:
        """Resident buckets (the memory bound tests assert on)."""
        return len(self._buckets) + (1 if self._zero else 0)

    def percentile(self, p: float) -> float:
        """Approximate percentile, p in [0, 100] (within bucket resolution)."""
        if not self._count:
            return 0.0
        target = max(1, math.ceil(self._count * min(max(p, 0.0), 100.0) / 100.0))
        seen = self._zero
        if seen >= target:
            return min(0.0, self._max) if self._max < 0.0 else 0.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= target:
                rep = math.exp((idx + 0.5) * self._log_base)
                return min(max(rep, self._min), self._max)
        return self._max  # pragma: no cover - unreachable (counts add up)

    def summary(self, scale: float = 1.0) -> Dict[str, float]:
        """``{count, mean, p50, p90, p99, max}`` with values * ``scale``
        — the same contract as the exact histogram's summary."""
        if not self._count:
            return {k: 0.0 for k in ("count", "mean", "p50", "p90", "p99", "max")}
        return {
            "count": float(self._count),
            "mean": self.mean * scale,
            "p50": self.percentile(50) * scale,
            "p90": self.percentile(90) * scale,
            "p99": self.percentile(99) * scale,
            "max": self.max * scale,
        }


# ----------------------------------------------------------------------
# Counter / gauge registry
# ----------------------------------------------------------------------

#: Prometheus metric- and label-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing metric (one uncontended lock per bump)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Set-to-current-value metric; ``set_function`` makes it computed
    at read time (slab residency, queue depth — values owned elsewhere)."""

    __slots__ = ("name", "help", "_lock", "_value", "_fn")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            # a reader must never take the service down with it (the
            # callback may race shutdown); absent beats poisoned
            return 0.0


@dataclass(frozen=True)
class MetricSample:
    """One exposition-ready sample: pure data, safe to snapshot/ship."""

    name: str
    kind: str  # "counter" | "gauge" | "summary" | "untyped"
    help: str
    value: float
    labels: Tuple[Tuple[str, str], ...] = ()
    #: summaries suffix their count/sum samples; carried explicitly so
    #: rendering stays a pure function of the sample list
    suffix: str = ""


class MetricsRegistry:
    """Named counters and gauges the serving components register into.

    ``counter()`` / ``gauge()`` are idempotent per name — components
    constructed per shard (batch queues, slab allocators) share one
    metric object, so their bumps aggregate without any coordination
    beyond the metric's own lock.  Registering one name as two different
    kinds is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Union[Counter, Gauge]]" = {}

    def _register(self, cls, name: str, help: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def snapshot(self) -> Dict[str, float]:
        """Current values by name (tests and the CLI table read this)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.value for m in metrics}

    def samples(self) -> Tuple[MetricSample, ...]:
        """Exposition-ready snapshot (pure data, ships across threads)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return tuple(
            MetricSample(
                name=m.name,
                kind="counter" if isinstance(m, Counter) else "gauge",
                help=m.help,
                value=m.value,
            )
            for m in metrics
        )

    def to_prometheus(self) -> str:
        """Registered metrics in the Prometheus text exposition format."""
        return render_prometheus(self.samples())


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(samples: Iterable[MetricSample]) -> str:
    """Render samples to Prometheus text format (one HELP/TYPE per metric).

    Samples sharing a name are grouped under one header in first-seen
    order; labeled samples render as ``name{k="v"} value`` lines.
    """
    by_name: "Dict[str, List[MetricSample]]" = {}
    order: List[str] = []
    for s in samples:
        if not _NAME_RE.match(s.name):
            raise ValueError(f"invalid metric name {s.name!r}")
        if s.name not in by_name:
            by_name[s.name] = []
            order.append(s.name)
        by_name[s.name].append(s)
    lines: List[str] = []
    for name in order:
        group = by_name[name]
        head = group[0]
        if head.help:
            lines.append(f"# HELP {name} {_escape_help(head.help)}")
        lines.append(f"# TYPE {name} {head.kind}")
        for s in group:
            label_text = ""
            if s.labels:
                parts = []
                for k, v in s.labels:
                    if not _LABEL_RE.match(k):
                        raise ValueError(f"invalid label name {k!r}")
                    parts.append(f'{k}="{_escape_label(v)}"')
                label_text = "{" + ",".join(parts) + "}"
            lines.append(
                f"{s.name}{s.suffix}{label_text} {_format_value(s.value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


#: sample line: name[suffix]{labels} value — the value grammar accepts
#: floats, scientific notation and the spec's Inf/NaN spellings
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" ([-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|inf|NaN|nan))"
    r"(?: [0-9]+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)
_TYPE_KINDS = frozenset(
    {"counter", "gauge", "summary", "histogram", "untyped"}
)


def validate_prometheus_text(text: str) -> int:
    """Validate a Prometheus text exposition; returns the sample count.

    The format checker the CI trace-smoke job runs: every line must be a
    well-formed ``# HELP`` / ``# TYPE`` comment or sample; a metric's
    ``TYPE`` must precede its samples and appear at most once; sample
    names must belong to the most recent metric family or stand alone
    (untyped).  Raises :class:`ValueError` with the offending line.
    """
    typed: Dict[str, str] = {}
    seen_samples: Dict[str, int] = {}
    n_samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in _TYPE_KINDS:
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if name in typed:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            if name in seen_samples:
                raise ValueError(
                    f"line {lineno}: TYPE for {name!r} after its samples"
                )
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, labels = m.group(1), m.group(2)
        if labels:
            body = labels[1:-1].strip()
            if body:
                for pair in body.split(","):
                    if not _LABEL_PAIR_RE.match(pair.strip()):
                        raise ValueError(
                            f"line {lineno}: malformed label {pair!r}"
                        )
        # summary/histogram families sample under suffixed names
        family = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        seen_samples[family] = seen_samples.get(family, 0) + 1
        n_samples += 1
    return n_samples
