"""Chaos differential suite for the self-healing serving layer.

The fault-injection harness (:mod:`repro.serve.faults`) makes failure a
*deterministic, replayable input*: every test here arms a seeded
:class:`FaultPlan`, runs a request stream through a supervised
:class:`StencilService`, and asserts the recovery machinery's contract —

* **zero failed requests**: supervision (worker respawn), idempotent batch
  retry, transport degradation and the inline fallback absorb every
  injected kill / slab corruption / transient failure;
* **bit-identity**: recovered results are byte-identical to a fault-free
  run, because a request is a pure function of (plan, grid);
* **hygiene**: no leaked shm segments, no orphaned session threads, and
  explicit errors (never hangs) once budgets are truly spent.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    ServiceClosedError,
    StencilService,
    WorkerCrashed,
    is_transient_failure,
)
from repro.stencil import Grid, named_stencil


def _grids(n=12, shape=(16, 16), seed=0):
    rng = np.random.default_rng(seed)
    return [Grid(rng.standard_normal(shape)) for _ in range(n)]


def _reference(spec, grids):
    """Fault-free sync-path outputs — the byte-identity baseline."""
    with StencilService(workers=0) as svc:
        return [svc.submit(spec, g).result() for g in grids]


def _serve_chaos(spec, grids, *, faults, transport="shm", workers=1,
                 retry_policy=None, backend="process", trace=False):
    with StencilService(
        workers=workers,
        backend=backend,
        transport=transport,
        max_batch_size=4,
        faults=faults,
        retry_policy=retry_policy,
        trace=trace,
    ) as svc:
        handles = [svc.submit(spec, g) for g in grids]
        svc.drain()
        outs = [h.result(timeout=120) for h in handles]
        stats = svc.stats()
    return outs, stats


# ----------------------------------------------------------------------
# the harness itself: validation, round-trip, determinism
# ----------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="explode", at_batch=1)  # unknown kind
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_worker")  # neither trigger
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_worker", at_batch=1, rate=0.5)  # both
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_worker", rate=1.5)  # rate out of range


def test_fault_plan_round_trip(tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="kill_worker", shard=0, at_batch=2),
            FaultSpec(kind="fail_batch", rate=0.25, count=None),
        ),
        seed=7,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.coerce(plan.to_json()) == plan
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    assert FaultPlan.coerce(str(path)) == plan
    assert FaultPlan.coerce(None) is None
    assert not FaultPlan(faults=())
    assert plan


def test_injector_is_deterministic():
    plan = FaultPlan(
        faults=(FaultSpec(kind="fail_batch", rate=0.3, count=None),),
        seed=13,
    )

    def schedule():
        inj = FaultInjector(plan)
        return [inj.should_fire("fail_batch", shard=0) for _ in range(64)]

    first = schedule()
    assert first == schedule()  # same seed -> same schedule
    assert any(first) and not all(first)
    other = FaultInjector(
        FaultPlan(faults=plan.faults, seed=14)
    )
    assert first != [
        other.should_fire("fail_batch", shard=0) for _ in range(64)
    ]


def test_injector_at_batch_and_count():
    plan = FaultPlan(
        faults=(FaultSpec(kind="kill_worker", at_batch=3, count=2),)
    )
    inj = FaultInjector(plan)
    fires = [inj.should_fire("kill_worker", shard=0) for _ in range(8)]
    assert fires == [False, False, True, True, False, False, False, False]
    assert inj.fired["kill_worker"] == 2
    assert inj.fired_total == 2
    # shard filters apply: a spec pinned to shard 1 never fires on 0
    pinned = FaultInjector(
        FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=1, at_batch=1),))
    )
    assert not any(
        pinned.should_fire("kill_worker", shard=0) for _ in range(4)
    )
    assert pinned.should_fire("kill_worker", shard=1)


def test_is_transient_failure_classification():
    assert is_transient_failure(WorkerCrashed("x"))
    assert is_transient_failure(InjectedFault("x"))
    assert not is_transient_failure(ValueError("x"))
    assert not is_transient_failure(DeadlineExceeded("x"))


# ----------------------------------------------------------------------
# the acceptance differential: SIGKILL + slab corruption, both transports
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["shm", "queue"])
def test_worker_kill_mid_stream_is_absorbed_bit_identically(transport):
    """A shard worker SIGKILLed mid-stream: supervision respawns it (or
    the inline rung absorbs the interim), every request is served, and
    the results are byte-identical to a fault-free run."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    before = set(os.listdir("/dev/shm"))
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=2),))
    outs, stats = _serve_chaos(spec, grids, faults=plan, transport=transport)
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.faults_injected >= 1
    # the kill was absorbed by some recovery rung
    assert t.retries + t.inline_batches + t.worker_restarts >= 1
    assert set(os.listdir("/dev/shm")) - before == set()


def test_corrupt_slab_descriptor_is_absorbed_bit_identically():
    """A corrupted generation tag on a shipped slab descriptor surfaces
    as a worker-side SlabError; the batch retries and the stream still
    resolves byte-identically with zero failures."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    plan = FaultPlan(faults=(FaultSpec(kind="corrupt_slab", shard=0, at_batch=1),))
    outs, stats = _serve_chaos(spec, grids, faults=plan, transport="shm")
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.faults_injected >= 1
    assert t.retries >= 1


def test_worker_respawn_serves_subsequent_traffic():
    """After the restart backoff the killed shard comes back as a fresh
    process (fresh slabs, replayed knobs) and serves new submits."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=2),))
    with StencilService(
        workers=1, backend="process", max_batch_size=4,
        faults=plan,
    ) as svc:
        for g in grids:
            svc.submit(spec, g)
        svc.drain()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if svc.stats().telemetry.worker_restarts >= 1:
                break
            time.sleep(0.05)
        assert svc.stats().telemetry.worker_restarts >= 1
        late = [svc.submit(spec, g) for g in grids]
        svc.drain()
        outs = [h.result(timeout=120) for h in late]
        stats = svc.stats()
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    assert stats.telemetry.errors == 0


def test_worker_killed_holding_its_result_queue_lock_is_replaced():
    """A worker SIGKILLed mid-put dies holding its result queue's
    cross-process write lock.  Its replacement must not write through
    that lock, or its first result blocks forever and the caller hangs.
    The parent holds the lock here, standing in for the dead worker."""
    spec = named_stencil("heat2d")
    grids = _grids(n=2)
    ref = _reference(spec, grids)
    with StencilService(
        workers=1, backend="process", max_batch_size=1,
    ) as svc:
        svc.submit(spec, grids[0]).result(timeout=120)
        result_q = svc._pool._result_qs[0]
        result_q._wlock.acquire()
        try:
            svc._pool.workers[0].kill()
            out = svc.submit(spec, grids[1]).result(timeout=30)
        finally:
            result_q._wlock.release()
        stats = svc.stats()
    assert out.tobytes() == ref[1].tobytes()
    assert stats.telemetry.worker_restarts >= 1
    assert stats.telemetry.errors == 0


@pytest.mark.parametrize(
    "backend, n, shape",
    [("thread", 16, (16, 16)), ("process", 64, (24, 24))],
    ids=["thread", "process"],
)
def test_rate_chaos_zero_failures(backend, n, shape):
    """Seeded, unbounded chaos on two workers: fail_batch on the thread
    backend, where the retry rung alone keeps the stream loss-free and
    bit-identical; kill_worker on the process backend, where respawns,
    rehashing and the inline rung do.  Process workers never run
    fail_batch, and the inline rung injects nothing."""
    spec = named_stencil("heat2d")
    grids = _grids(n=n, shape=shape)
    ref = _reference(spec, grids)
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="fail_batch", rate=0.3, count=None),
            FaultSpec(kind="kill_worker", rate=0.3, count=None),
        ),
        seed=5,
    )
    outs, stats = _serve_chaos(
        spec, grids, faults=plan, backend=backend, workers=2
    )
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.faults_injected >= 1
    if backend == "thread":
        assert t.retries >= 1
    else:
        assert t.worker_restarts >= 1


# ----------------------------------------------------------------------
# degradation ladder: transport downgrade, budget exhaustion, inline rung
# ----------------------------------------------------------------------


def test_repeated_slab_errors_degrade_transport():
    """With the degradation threshold at 1, a single injected slab
    corruption flips the shard's task direction to queue transport —
    subsequent batches ship pickled and the stream stays loss-free."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    plan = FaultPlan(
        faults=(FaultSpec(kind="corrupt_slab", shard=0, at_batch=1),)
    )
    outs, stats = _serve_chaos(
        spec, grids, faults=plan, transport="shm",
        retry_policy=RetryPolicy(slab_error_threshold=1),
    )
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.slab_degrades >= 1


def test_exhausted_restart_budget_rehashes_onto_survivors():
    """restart_budget=0: the killed shard tombstones immediately and its
    spec-affinity keys rehash deterministically onto the survivor."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=1),))
    outs, stats = _serve_chaos(
        spec, grids, faults=plan, workers=2,
        retry_policy=RetryPolicy(restart_budget=0),
    )
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.worker_restarts == 0


@pytest.mark.parametrize("trace", [False, True])
def test_all_shards_dead_falls_back_inline(trace):
    """Single shard, no restarts left: the in-parent inline executor is
    the terminal rung — still loss-free, still byte-identical, and traced
    like any other path (one ``request`` span per request)."""
    spec = named_stencil("heat2d")
    grids = _grids()
    ref = _reference(spec, grids)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=1),))
    outs, stats = _serve_chaos(
        spec, grids, faults=plan, workers=1,
        retry_policy=RetryPolicy(restart_budget=0), trace=trace,
    )
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.inline_batches >= 1
    if trace:
        assert stats.stages["request"]["count"] == len(grids)


def test_recovery_disabled_fails_fast():
    """RetryPolicy.disabled() restores the pre-self-healing contract:
    a killed worker fails its in-flight requests with WorkerCrashed."""
    spec = named_stencil("heat2d")
    grids = _grids(n=6)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=1),))
    with StencilService(
        workers=1, backend="process", max_batch_size=4,
        faults=plan, retry_policy=RetryPolicy.disabled(),
    ) as svc:
        handles = [svc.submit(spec, g) for g in grids]
        svc.drain()
        stats = svc.stats()
    failed = [h for h in handles if h.failed]
    assert failed, "fail-fast policy must surface the crash"
    with pytest.raises(WorkerCrashed, match="died unexpectedly"):
        failed[0].result(timeout=0)
    assert stats.telemetry.errors == len(failed)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("deadline_from", ["timeout", "default_deadline_s"])
def test_deadline_expires_while_queued(deadline_from, shard_gate):
    """A request whose deadline passes while its shard is busy fails with
    DeadlineExceeded when the shard takes it, and never runs."""
    g = _grids(n=1)[0]
    service_kw, submit_kw = {}, {}
    if deadline_from == "timeout":
        submit_kw["timeout"] = 0.05
    else:
        service_kw["default_deadline_s"] = 0.05
    with StencilService(workers=1, backend="thread", **service_kw) as svc:
        # park the only shard inside a batch of another plan key
        busy = svc.submit(named_stencil("blur2d"), g, timeout=60.0)
        assert shard_gate.entered.wait(60)
        h = svc.submit(named_stencil("heat2d"), g, **submit_kw)
        time.sleep(0.1)
        shard_gate.gate.set()
        with pytest.raises(DeadlineExceeded):
            h.result(timeout=60)
        assert busy.result(timeout=60).shape == g.shape
        stats = svc.stats()
    assert stats.telemetry.deadline_expired == 1
    assert stats.telemetry.requests == 1


def test_deadline_validation_and_unexpired_requests_serve():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    with StencilService(workers=1, backend="thread") as svc:
        with pytest.raises(ValueError):
            svc.submit(spec, g, timeout=0.0)
        out = svc.submit(spec, g, timeout=60.0).result(timeout=60)
    assert out.shape == g.shape
    with pytest.raises(ValueError):
        StencilService(workers=0, default_deadline_s=-1.0)


def test_sync_path_enforces_deadline():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    svc = StencilService(workers=0)
    try:
        req = svc.submit(spec, g, timeout=30.0)
        assert not req.failed  # plenty of budget: served inline
        # an already-expired deadline is rejected before execution
        expired = svc.submit(spec, g, timeout=1e-9)
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=0)
    finally:
        svc.close()


def test_solve_session_deadline():
    """The deadline is checked after every iteration, so an already-spent
    budget stops the session after its first one."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((17, 17))
    with StencilService(workers=1, backend="thread") as svc:
        handle = svc.submit_solve(
            spec, rhs, tol=1e-12, max_iters=50, timeout=1e-4
        )
        with pytest.raises(DeadlineExceeded):
            handle.result(timeout=120)
    assert handle.iterations == 1


# ----------------------------------------------------------------------
# sync-path retry
# ----------------------------------------------------------------------


def test_sync_backend_retries_injected_faults():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    ref = _reference(spec, [g])[0]
    plan = FaultPlan(faults=(FaultSpec(kind="fail_batch", at_batch=1, count=2),))
    with StencilService(workers=0, faults=plan) as svc:
        out = svc.submit(spec, g).result()
        stats = svc.stats()
    assert out.tobytes() == ref.tobytes()
    t = stats.telemetry
    assert t.retries == 2 and t.errors == 0 and t.faults_injected == 2


def test_sync_backend_exhausted_budget_surfaces_fault():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    # more consecutive faults than the budget can absorb
    plan = FaultPlan(faults=(FaultSpec(kind="fail_batch", at_batch=1, count=10),))
    with StencilService(
        workers=0, faults=plan, retry_policy=RetryPolicy(retry_budget=1)
    ) as svc:
        req = svc.submit(spec, g)
        with pytest.raises(InjectedFault):
            req.result(timeout=0)


# ----------------------------------------------------------------------
# solver sessions under faults
# ----------------------------------------------------------------------


def test_drained_sessions_leave_no_threads_behind():
    """Each solve session runs on its own runner, which closes when the
    session ends: once drain() returns, with the service still open, no
    session thread and no MAC helper started during the test remains."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(5)
    before = set(threading.enumerate())
    svc = StencilService(workers=1, backend="thread", mac_threads=2)
    try:
        # 127^2 is large enough for each session's runner to start a pool
        handles = [
            svc.submit_solve(
                spec, rng.standard_normal((127, 127)), tol=1e-10, max_iters=3
            )
            for _ in range(3)
        ]
        svc.drain()
        assert all(h.done() for h in handles)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            left = [
                th.name
                for th in threading.enumerate()
                if th not in before
                and th.name.startswith(("spider-solve-", "repro-mac"))
            ]
            if not left:
                break
            time.sleep(0.05)
        assert not left, f"threads outlived their solves: {left}"
    finally:
        svc.close()


def test_drain_races_concurrent_failing_solves():
    """drain() must return (not hang, not crash) while concurrent solve
    sessions are failing — the race between session bookkeeping and the
    drain sweep.  Each session fails inside its own thread: a 3D
    right-hand side for the 2D operator."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(6)
    with StencilService(workers=1, backend="thread") as svc:
        handles = []

        def burst():
            for _ in range(4):
                handles.append(
                    svc.submit_solve(
                        spec,
                        rng.standard_normal((13, 13, 13)),
                        tol=1e-10,
                        max_iters=4,
                    )
                )
        threads = [threading.Thread(target=burst) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.drain(timeout=240)
        assert len(handles) == 12
        assert all(h.done() for h in handles)
        # every accepted session fails explicitly
        assert all(h.exception(timeout=0) is not None for h in handles)


# ----------------------------------------------------------------------
# closed-service contract + observability
# ----------------------------------------------------------------------


def test_submit_on_closed_service_raises_service_closed():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    svc = StencilService(workers=0)
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit(spec, g)
    with pytest.raises(ServiceClosedError):
        svc.submit_solve(spec, np.zeros((8, 8)) + 1.0)
    # the subclass keeps the legacy RuntimeError contract
    assert issubclass(ServiceClosedError, RuntimeError)
    with pytest.raises(RuntimeError, match="closed StencilService"):
        svc.submit(spec, g)


def test_recovery_counters_reach_report_and_prometheus():
    spec = named_stencil("heat2d")
    grids = _grids()
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=2),))
    with StencilService(
        workers=1, backend="process", max_batch_size=4,
        faults=plan,
    ) as svc:
        for g in grids:
            svc.submit(spec, g)
        svc.drain()
        report = svc.format_report()
        stats = svc.stats()
    assert stats.telemetry.faults_injected >= 1
    assert "faults injected" in report
    text = stats.to_prometheus()
    for metric in (
        "repro_serve_retries_total",
        "repro_serve_worker_restarts_total",
        "repro_serve_faults_injected_total",
    ):
        assert metric in text, f"missing {metric}"
