"""Deterministic fault injection for the serving runtime.

The self-healing layer in :mod:`repro.serve.workers` only earns trust if
its recovery paths are *provably* exercised: a chaos test that relies on
an OS scheduler to kill a worker "sometime during the run" cannot assert
much.  This module makes faults first-class, seeded data:

* :class:`FaultSpec` — one fault: *what* (``kind``), *where* (``shard``),
  and *when* — either deterministically (``at_batch``: the nth batch the
  targeted shard handles) or probabilistically (``rate``: a seeded
  Bernoulli draw per batch, replayable for a fixed seed and per-shard
  batch order).
* :class:`FaultPlan` — an immutable, JSON-serializable set of specs plus
  the seed.  ``StencilService(faults=plan)`` arms it (the plan, its dict
  form, inline JSON or a path to a JSON file).
* :class:`FaultInjector` — the runtime: all counters live parent-side
  (feeder / worker-thread / sync call sites ask ``should_fire`` per
  batch), so a respawned worker process can never double-count its
  predecessor's batches and the schedule survives recovery itself.

Fault kinds and where they bite:

``kill_worker``
    The feeder SIGKILLs the shard's worker process *before* shipping the
    triggering batch, so that batch is deterministically lost in flight —
    the supervision + idempotent-retry path must recover it.  Process
    backend only (threads cannot be killed); a no-op elsewhere.
``corrupt_slab``
    The feeder ships the batch with a corrupted generation tag in its
    task-block descriptor; the worker's generation validation rejects the
    view with a :class:`~repro.serve.shm.SlabError` (the parent's true
    descriptor still frees the block).  shm transport only.
``stall_queue``
    The feeder sleeps ``delay_s`` before shipping — a stuck batch, the
    scenario request deadlines exist for.
``fail_pickle``
    Payload packing raises (the pack stage's failure mode, e.g. an
    unpicklable grid); transient, so the retry budget applies.
``fail_batch``
    Batch execution raises a transient :class:`InjectedFault` — the
    kill-equivalent for the thread and sync backends, where there is no
    process to kill.

Every injected failure is *transient* (``exc.transient`` is True), which
is exactly the class of failure the retry machinery is allowed to retry:
requests are pure functions of (plan, grid), so re-executing one is
byte-identical by construction.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
]

#: Supported fault kinds (see the module docstring for semantics).
FAULT_KINDS: Tuple[str, ...] = (
    "kill_worker",
    "corrupt_slab",
    "stall_queue",
    "fail_pickle",
    "fail_batch",
)

class InjectedFault(RuntimeError):
    """A failure raised by the fault-injection harness.

    ``transient`` marks it retryable — the same contract real transient
    failures (:class:`~repro.serve.workers.WorkerCrashed`,
    :class:`~repro.serve.shm.SlabError`) satisfy.
    """

    transient = True


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, targeted shard, and a deterministic or seeded
    trigger.

    Exactly one of ``at_batch`` / ``rate`` must be set.  ``at_batch=n``
    fires on the nth matching batch (1-based, per shard) and then on the
    next ``count - 1`` batches; ``rate=p`` draws a seeded Bernoulli per
    batch, capped at ``count`` total firings per shard (``count=None`` =
    unbounded).  ``shard=None`` matches every shard, with independent
    per-shard counters and RNG streams either way.
    """

    kind: str
    shard: Optional[int] = None
    at_batch: Optional[int] = None
    rate: Optional[float] = None
    count: Optional[int] = 1
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unsupported fault kind {self.kind!r}; "
                f"choose one of {FAULT_KINDS}"
            )
        if (self.at_batch is None) == (self.rate is None):
            raise ValueError(
                "exactly one of at_batch / rate must be set "
                f"(got at_batch={self.at_batch}, rate={self.rate})"
            )
        if self.at_batch is not None and self.at_batch < 1:
            raise ValueError(f"at_batch must be >= 1, got {self.at_batch}")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got {self.count}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "at_batch": self.at_batch,
            "rate": self.rate,
            "count": self.count,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            kind=d["kind"],
            shard=d.get("shard"),
            at_batch=d.get("at_batch"),
            rate=d.get("rate"),
            count=d.get("count", 1),
            delay_s=float(d.get("delay_s", 0.05)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of :class:`FaultSpec`\\ s (pure data)."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def to_dict(self) -> dict:
        return {
            "faults": [f.to_dict() for f in self.faults],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec.from_dict(f) for f in d.get("faults", ())
            ),
            seed=int(d.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def coerce(
        cls, value: "FaultPlan | dict | str | None"
    ) -> Optional["FaultPlan"]:
        """A :class:`FaultPlan` from any accepted form: the plan itself,
        its dict form, inline JSON, or a path to a JSON file."""
        if value is None:
            return None
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        text = str(value).strip()
        if not text.startswith("{") and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        return cls.from_json(text)


@dataclass
class _Arm:
    """Mutable per-spec runtime state (the injector's internals)."""

    spec: FaultSpec
    fired: Dict[int, int] = field(default_factory=dict)
    rngs: Dict[int, np.random.Generator] = field(default_factory=dict)


class FaultInjector:
    """Parent-side runtime for a :class:`FaultPlan`.

    All call sites live in the parent process (feeders, the thread-backend
    workers, the sync path), each single-threaded per shard, so the
    per-(kind, shard) batch counters — and therefore the whole schedule —
    are deterministic for a fixed plan, seed and per-shard batch order.
    Recovery never perturbs the count: a respawned worker process has no
    counters of its own to reset.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._events: Dict[Tuple[str, int], int] = {}
        self._arms = [_Arm(spec=s) for s in plan.faults]
        self._fired_by_kind: Dict[str, int] = {}

    def should_fire(self, kind: str, shard: int) -> bool:
        """Count one ``kind`` event on ``shard``; True if any spec fires."""
        fired = False
        with self._lock:
            n = self._events.get((kind, shard), 0) + 1
            self._events[(kind, shard)] = n
            for idx, arm in enumerate(self._arms):
                spec = arm.spec
                if spec.kind != kind:
                    continue
                if spec.shard is not None and spec.shard != shard:
                    continue
                done = arm.fired.get(shard, 0)
                if spec.count is not None and done >= spec.count:
                    continue
                if spec.at_batch is not None:
                    hit = spec.at_batch <= n
                else:
                    rng = arm.rngs.get(shard)
                    if rng is None:
                        # one independent, replayable stream per
                        # (spec, shard): the seed sequence pins it
                        rng = np.random.default_rng(
                            [self.plan.seed, idx, shard]
                        )
                        arm.rngs[shard] = rng
                    hit = bool(rng.random() < spec.rate)
                if hit:
                    arm.fired[shard] = done + 1
                    fired = True
            if fired:
                self._fired_by_kind[kind] = (
                    self._fired_by_kind.get(kind, 0) + 1
                )
        return fired

    def stall_delay(self, shard: int) -> float:
        """Seconds to stall this shard's next ship (0.0 = no stall)."""
        if not self.should_fire("stall_queue", shard):
            return 0.0
        with self._lock:
            return max(
                (
                    a.spec.delay_s
                    for a in self._arms
                    if a.spec.kind == "stall_queue"
                    and (a.spec.shard is None or a.spec.shard == shard)
                ),
                default=0.05,
            )

    @property
    def fired(self) -> Dict[str, int]:
        """Total batches on which each kind fired (for reports/benches)."""
        with self._lock:
            return dict(self._fired_by_kind)

    @property
    def fired_total(self) -> int:
        with self._lock:
            return sum(self._fired_by_kind.values())
