"""LRU cache of AOT compile plans — the serving layer's amortization lever.

SPIDER's preparation cost is O(1) in the problem size (§4.2): the strided
swapping transformation, row encoding, metadata synthesis and tile planning
depend only on the stencil kernel, not on the grid.  A serving runtime can
therefore compile a :class:`~repro.core.pipeline.CompilePlan` once per
distinct stencil configuration and reuse it across thousands of requests,
which turns the per-request cost from *compile + run* into *run* alone.

Plans are keyed on ``(StencilSpec fingerprint, SpiderVariant, precision,
tile plan)``: two requests share a plan iff they would have compiled the
exact same artifacts.  A cached plan goes through the same
:func:`~repro.core.pipeline.build_compile_plan` factory a fresh
``Spider(spec)`` uses, so cache hits are numerically indistinguishable from
recompilation (the test suite asserts bit-identity).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..core.executor import SweepRunner
from ..core.pipeline import CompilePlan, SpiderVariant, build_compile_plan
from ..gpu.device import A100_80GB_PCIE, DeviceSpec
from ..sptc.mma import MmaPrecision
from ..stencil.spec import StencilSpec

__all__ = [
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "plan_key_for",
    "spec_fingerprint",
]


def spec_fingerprint(spec: StencilSpec) -> str:
    """Stable content hash of a stencil spec.

    Two specs fingerprint equal iff they describe the same kernel: shape
    family, dimensionality, radius and the exact coefficient bytes.  The
    optional ``name`` tag is cosmetic and excluded.  Memoized on the spec
    (specs are frozen, so the digest can never go stale).
    """
    cached = spec.__dict__.get("_serve_fingerprint")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(spec.shape.value.encode())
    h.update(bytes((spec.dims, spec.radius)))
    h.update(spec.weights.tobytes())
    fp = h.hexdigest()[:16]
    object.__setattr__(spec, "_serve_fingerprint", fp)
    return fp


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compile plan (see module docstring).

    ``steps`` makes the key *sweep-aware*: a multi-sweep (temporal
    super-sweep) request carries the same spec fingerprint as its plain
    counterpart but a ``steps > 1`` tag, so the coalescer groups requests
    by ``(plan, steps)`` — only requests advancing the same number of
    sweeps fuse into one batch.  The cache itself never stores a
    ``steps > 1`` key: a super-sweep chains sweeps through the plain plan
    of :meth:`base`, so every ``steps`` value shares one compiled plan.
    """

    fingerprint: str
    variant: str
    precision: str
    tile_key: Tuple[int, ...]
    steps: int = 1

    def routing_hash(self) -> int:
        """Deterministic hash for spec-affinity worker routing.

        Unlike ``hash()`` this is stable across processes (no PYTHONHASHSEED
        salting), so a request stream shards identically on every run.
        ``steps`` is deliberately excluded: a super-sweep request must land
        on the same shard as its plain siblings so both share one warm
        plain plan.
        """
        text = f"{self.fingerprint}|{self.variant}|{self.precision}|{self.tile_key}"
        return int.from_bytes(
            hashlib.sha256(text.encode()).digest()[:8], "big"
        )

    def base(self) -> "PlanKey":
        """The plain (``steps == 1``) key this sweep-aware key builds on."""
        if self.steps == 1:
            return self
        return PlanKey(
            self.fingerprint, self.variant, self.precision, self.tile_key, 1
        )

    def to_dict(self) -> dict:
        """Pure-data (JSON-compatible) form, for cross-process transport."""
        return {
            "fingerprint": self.fingerprint,
            "variant": self.variant,
            "precision": self.precision,
            "tile_key": list(self.tile_key),
            "steps": int(self.steps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanKey":
        """Inverse of :meth:`to_dict`: an equal key (same routing hash).

        Tolerates pre-sweep-aware dicts without a ``steps`` entry.
        """
        return cls(
            fingerprint=data["fingerprint"],
            variant=data["variant"],
            precision=data["precision"],
            tile_key=tuple(int(t) for t in data["tile_key"]),
            steps=int(data.get("steps", 1)),
        )


def plan_key_for(
    spec: StencilSpec,
    variant: SpiderVariant = SpiderVariant.SPTC_CO,
    precision: str = MmaPrecision.EXACT,
    grid_shape: Tuple[int, ...] = (),
    steps: int = 1,
) -> PlanKey:
    """Build the cache key a request with this configuration resolves to."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return PlanKey(
        fingerprint=spec_fingerprint(spec),
        variant=variant.value,
        precision=MmaPrecision.validate(precision),
        tile_key=tuple(int(s) for s in grid_shape),
        steps=int(steps),
    )


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`PlanCache` (or an aggregate).

    ``workspace_bytes`` is the resident memory of a shard's serving
    state: every resident plan's precompiled fused operand plus the
    scratch of the shard's :class:`~repro.core.executor.SweepRunner`
    (padded-input buffer, X/Y staging, output accumulator per served
    plan and geometry), so cache sizing decisions can look at bytes, not
    just entry counts.

    ``slab_bytes`` is the shard's share of parent-owned shared-memory
    transport slabs (task + result, see :mod:`repro.serve.shm`) — zero for
    thread/sync shards and queue-transport pools.  It rides this snapshot
    because per-shard memory accounting aggregates here; the
    :class:`PlanCache` itself never allocates slabs.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    workspace_bytes: int = 0
    slab_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @staticmethod
    def aggregate(parts: Iterable["CacheStats"]) -> "CacheStats":
        """Sum counters across shards (per-worker caches)."""
        hits = misses = evictions = size = capacity = wbytes = sbytes = 0
        for p in parts:
            hits += p.hits
            misses += p.misses
            evictions += p.evictions
            size += p.size
            capacity += p.capacity
            wbytes += p.workspace_bytes
            sbytes += p.slab_bytes
        return CacheStats(
            hits, misses, evictions, size, capacity, wbytes, sbytes
        )


class PlanCache:
    """Thread-safe LRU cache of :class:`CompilePlan` objects.

    Parameters
    ----------
    capacity:
        Maximum number of resident plans; the least-recently-*used* plan is
        evicted on overflow (both hits and inserts refresh recency).
    device:
        Default machine model handed to the plan builder.

    Plans are immutable compiled data (no threads, no scratch), so
    eviction and :meth:`clear` simply drop them, even while a caller
    still runs one.  A runner keeps its scratch per plan weakly, to at
    most :attr:`~repro.core.executor.SweepRunner.MAX_WORKSPACES` grid
    shapes, so that scratch goes with the last reference to the plan.
    """

    def __init__(
        self,
        capacity: int = 64,
        device: DeviceSpec = A100_80GB_PCIE,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.device = device
        self._entries: "OrderedDict[PlanKey, CompilePlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compiles_counter = None
        self._compile_seconds_counter = None

    def bind_metrics(self, registry) -> None:
        """Register compile counters into a
        :class:`~repro.serve.metrics.MetricsRegistry` (worker-private
        caches in the process backend stay unbound and skip the bumps)."""
        self._compiles_counter = registry.counter(
            "repro_serve_plan_compiles_total",
            "Compile plans built on cache miss.",
        )
        self._compile_seconds_counter = registry.counter(
            "repro_serve_plan_compile_seconds_total",
            "Wall time spent building compile plans.",
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        """Peek without touching recency or counters."""
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[PlanKey, ...]:
        """Resident keys in LRU -> MRU order (eviction order)."""
        with self._lock:
            return tuple(self._entries.keys())

    def lookup(self, key: PlanKey) -> Optional[CompilePlan]:
        """Counted lookup: refreshes recency on hit, returns None on miss."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(key)
            return plan

    def insert(self, key: PlanKey, plan: CompilePlan) -> None:
        """Insert (or refresh) a plan, evicting LRU entries on overflow."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_build(self, key: PlanKey, *, spec: StencilSpec) -> CompilePlan:
        """Return the plan for ``key``, compiling it on first use.

        ``spec`` is the spec the key was derived from; a miss compiles it
        through the default :func:`build_compile_plan` factory with the
        key's variant / precision / tile shape.
        """
        with self._lock:  # RLock: lookup/insert compose under one hold
            plan = self.lookup(key)
            if plan is not None:
                return plan
            # local import: tracing pulls in the executor hook machinery,
            # which this module must not load unless a compile happens
            from .tracing import stage_span

            t0 = time.monotonic()
            with stage_span(
                "plan_compile", args={"variant": key.variant}
            ):
                built = build_compile_plan(
                    spec,
                    precision=key.precision,
                    variant=SpiderVariant(key.variant),
                    device=self.device,
                    grid_shape=key.tile_key or None,
                )
            if self._compiles_counter is not None:
                self._compiles_counter.inc()
                self._compile_seconds_counter.inc(time.monotonic() - t0)
            self.insert(key, built)
            return built

    # ------------------------------------------------------------------
    def stats(self, runner: Optional[SweepRunner] = None) -> CacheStats:
        """Counter snapshot; ``workspace_bytes`` adds the scratch of
        ``runner``, the runner that serves this cache's plans."""
        scratch = 0 if runner is None else runner.workspace_nbytes()
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                workspace_bytes=scratch
                + sum(p.nbytes() for p in self._entries.values()),
            )

    def clear(self) -> None:
        """Drop all plans (counters are kept)."""
        with self._lock:
            self._entries.clear()
