"""Chaos differential suite for the self-healing serving layer.

The fault-injection harness (:mod:`repro.serve.faults`) makes failure a
*deterministic, replayable input*: every test here arms a seeded
:class:`FaultPlan`, runs a request stream through a supervised
:class:`StencilService`, and asserts the recovery machinery's contract —

* **zero failed requests**: supervision (worker respawn), idempotent batch
  retry, transport degradation and the inline fallback absorb every
  injected kill / slab corruption / transient failure;
* **bit-identity**: recovered results are byte-identical to a fault-free
  run, because a request is a pure function of (plan, grid) and a resumed
  solve of the checkpointed iterate replays the exact trajectory;
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
from repro.serve.faults import REPRO_FAULTS_ENV
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
        max_wait_s=0.001,
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


def test_fault_plan_env_arming(monkeypatch):
    plan = FaultPlan(faults=(FaultSpec(kind="fail_batch", at_batch=1),))
    monkeypatch.delenv(REPRO_FAULTS_ENV, raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv(REPRO_FAULTS_ENV, plan.to_json())
    assert FaultPlan.from_env() == plan
    # a service with no explicit plan arms the env plan
    svc = StencilService(workers=0)
    try:
        assert svc.fault_plan == plan
    finally:
        svc.close()


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
        workers=1, backend="process", max_batch_size=4, max_wait_s=0.001,
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


def test_rate_chaos_thread_backend_zero_failures():
    """Seeded fail_batch chaos on the thread backend: the retry rung
    alone keeps the stream loss-free and bit-identical."""
    spec = named_stencil("heat2d")
    grids = _grids(n=16)
    ref = _reference(spec, grids)
    plan = FaultPlan(
        faults=(FaultSpec(kind="fail_batch", rate=0.3, count=None),),
        seed=5,
    )
    outs, stats = _serve_chaos(
        spec, grids, faults=plan, backend="thread", workers=2
    )
    for a, b in zip(ref, outs):
        assert a.tobytes() == b.tobytes()
    t = stats.telemetry
    assert t.errors == 0
    assert t.faults_injected >= 1
    assert t.retries >= 1


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
        workers=1, backend="process", max_batch_size=4, max_wait_s=0.001,
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


def test_deadline_expires_at_coalescing():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    with StencilService(
        workers=1, backend="thread", max_wait_s=5.0, max_batch_size=64
    ) as svc:
        h = svc.submit(spec, g, timeout=0.05)
        with pytest.raises(DeadlineExceeded):
            h.result(timeout=60)
        stats = svc.stats()
    assert stats.telemetry.deadline_expired >= 1


def test_default_deadline_applies_service_wide():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    with StencilService(
        workers=1, backend="thread", max_wait_s=5.0, max_batch_size=64,
        default_deadline_s=0.05,
    ) as svc:
        h = svc.submit(spec, g)
        with pytest.raises(DeadlineExceeded):
            h.result(timeout=60)


def test_deadline_validation_and_unexpired_requests_serve():
    spec = named_stencil("heat2d")
    g = _grids(n=1)[0]
    with StencilService(workers=1, backend="thread", max_wait_s=0.001) as svc:
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
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((17, 17))
    with StencilService(
        workers=1, backend="thread", max_wait_s=5.0, max_batch_size=64
    ) as svc:
        handle = svc.submit_solve(
            spec, rhs, tol=1e-12, max_iters=50, timeout=0.05
        )
        with pytest.raises(DeadlineExceeded):
            handle.result(timeout=120)


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
# solver-session self-healing
# ----------------------------------------------------------------------


def test_solve_session_resumes_bit_identically_after_transient_failure():
    """Request retries off: a mid-solve transient failure surfaces to the
    session driver, which resumes from the checkpointed iterate —
    stitched iterations, residual history and solution are byte-identical
    to the uninterrupted solve."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((17, 17))
    with StencilService(workers=0) as svc:
        want = svc.submit_solve(
            spec, rhs, tol=1e-10, max_iters=8, record_history=True
        ).result(120)
    plan = FaultPlan(faults=(FaultSpec(kind="fail_batch", at_batch=6),))
    with StencilService(
        workers=1, backend="thread", max_wait_s=0.001, faults=plan,
        retry_policy=RetryPolicy(retry_budget=0),
    ) as svc:
        got = svc.submit_solve(
            spec, rhs, tol=1e-10, max_iters=8, record_history=True
        ).result(240)
        stats = svc.stats()
    assert got.solution.tobytes() == want.solution.tobytes()
    assert got.iterations == want.iterations
    assert got.residual_history == want.residual_history
    assert got.converged == want.converged
    assert stats.telemetry.solve_resumes >= 1


def test_solve_session_resumes_after_worker_kill_with_budgets_spent():
    """A mid-solve SIGKILL with every sub-session rung disabled (no
    request retries, no inline fallback) still yields the byte-identical
    solve: the crash surfaces to the session, which resumes once the
    supervisor has respawned the shard."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((17, 17))
    with StencilService(workers=0) as svc:
        want = svc.submit_solve(spec, rhs, tol=1e-10, max_iters=8).result(120)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=6),))
    with StencilService(
        workers=1, backend="process", max_wait_s=0.001, faults=plan,
        retry_policy=RetryPolicy(retry_budget=0, inline_fallback=False),
    ) as svc:
        got = svc.submit_solve(spec, rhs, tol=1e-10, max_iters=8).result(240)
        stats = svc.stats()
    assert got.solution.tobytes() == want.solution.tobytes()
    assert got.iterations == want.iterations
    assert stats.telemetry.worker_restarts >= 1


def test_solve_retries_exhausted_fails_explicitly():
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal((13, 13))
    # every batch dies and nothing may recover below the session
    plan = FaultPlan(
        faults=(FaultSpec(kind="kill_worker", rate=1.0, count=None),)
    )
    with StencilService(
        workers=1, backend="process", max_wait_s=0.001, faults=plan,
        retry_policy=RetryPolicy(
            retry_budget=0, restart_budget=1, inline_fallback=False,
            solve_retries=1,
        ),
    ) as svc:
        handle = svc.submit_solve(spec, rhs, tol=1e-10, max_iters=6)
        with pytest.raises((WorkerCrashed, InjectedFault)):
            handle.result(timeout=240)
        stats = svc.stats()
    assert stats.telemetry.solve_failures == 1


def test_no_orphaned_session_threads_after_mid_solve_kill():
    """Every spider-solve-* session thread terminates after a mid-solve
    worker kill — whether the session resumed or failed (satellite for
    the dead-shard session-cleanup contract)."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(5)
    plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0, at_batch=3),))
    with StencilService(
        workers=1, backend="process", max_wait_s=0.001, faults=plan
    ) as svc:
        handles = [
            svc.submit_solve(
                spec, rng.standard_normal((13, 13)), tol=1e-10, max_iters=5
            )
            for _ in range(3)
        ]
        svc.drain()
        assert all(h.done() for h in handles)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        orphans = [
            th.name
            for th in threading.enumerate()
            if th.name.startswith("spider-solve-")
        ]
        if not orphans:
            break
        time.sleep(0.05)
    assert not orphans, f"session threads outlived their solves: {orphans}"


def test_drain_races_concurrent_failing_solves():
    """drain() must return (not hang, not crash) while concurrent solve
    sessions are failing under fail-fast policy — the satellite race
    between session bookkeeping and the drain sweep."""
    spec = named_stencil("heat2d")
    rng = np.random.default_rng(6)
    plan = FaultPlan(
        faults=(FaultSpec(kind="kill_worker", rate=1.0, count=None),)
    )
    with StencilService(
        workers=1, backend="process", max_wait_s=0.001, faults=plan,
        retry_policy=RetryPolicy.disabled(),
    ) as svc:
        handles = []
        errs = []

        def burst():
            for _ in range(4):
                try:
                    handles.append(
                        svc.submit_solve(
                            spec,
                            rng.standard_normal((13, 13)),
                            tol=1e-10,
                            max_iters=4,
                        )
                    )
                except RuntimeError as exc:  # pool may be tombstoned
                    errs.append(exc)
        threads = [threading.Thread(target=burst) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.drain(timeout=240)
        assert all(h.done() for h in handles)
        # with recovery disabled every accepted session fails explicitly
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
        workers=1, backend="process", max_batch_size=4, max_wait_s=0.001,
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
