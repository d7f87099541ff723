"""Differential suite for solver sessions (`StencilService.submit_solve`).

A solver session runs a multigrid V-cycle or smoother chain on its own
thread over the service's plan cache.  The served solve must return
byte-identical solutions, iteration counts and residuals to the
sequential sync reference chain (:func:`repro.stencil.multigrid.solve`
over a :class:`PlanExecutor`), across dims x precision x
thread/process/sync backends.  This module also pins convergence-aware
early exit, concurrent sessions, residual-history bounding, tracing,
close() while a session runs, and the eager-validation contract.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import ServiceClosedError, StencilService
from repro.sptc.macpool import live_mac_threads
from repro.stencil import (
    BoundaryCondition,
    Grid,
    coarsen_shape,
    multigrid,
    multigrid_operators,
    poisson_operator_spec,
    solve_stream,
    solver_workloads,
)
from repro.stencil.solvers import PlanExecutor

BACKENDS = ["sync", "thread", "process"]

#: (dims, grid shape) — odd 2**k - 1 sides so V-cycles coarsen fully.
DIM_SHAPES = [(1, (63,)), (2, (31, 31)), (3, (15, 15, 15))]


def _service_kwargs(backend):
    if backend == "sync":
        return dict(workers=0)
    return dict(
        workers=2, backend=backend, max_batch_size=4
    )


def _reference_solve(spec, rhs, *, precision="exact", **opts):
    """Sequential sync reference: every operator apply is a direct
    fused-plan execution through a private PlanExecutor."""
    with PlanExecutor(precision=precision, mac_threads=1) as ex:
        return multigrid.solve(spec, rhs, executor=ex, **opts)


def _served_solves(requests, *, backend, precision="exact", **opts):
    with StencilService(
        precision=precision, **_service_kwargs(backend)
    ) as svc:
        handles = [
            svc.submit_solve(spec, rhs, **opts) for spec, rhs in requests
        ]
        svc.drain()
        results = [h.result(timeout=120) for h in handles]
        stats = svc.stats()
    assert stats.telemetry.solve_failures == 0
    assert stats.telemetry.errors == 0
    return results, stats


def _assert_same_solve(ref, got):
    assert ref.iterations == got.iterations
    assert ref.converged == got.converged
    assert ref.residual == got.residual
    assert ref.solution.dtype == got.solution.dtype
    assert ref.solution.tobytes() == got.solution.tobytes()


# ----------------------------------------------------------------------
# differential: served session vs sequential sync reference chain
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dims,shape", DIM_SHAPES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_v_cycle_session_matches_reference(backend, dims, shape, rng):
    """A served V-cycle solve is byte-identical to the sync reference
    chain, for every dimensionality and backend."""
    spec = poisson_operator_spec(dims)
    rhs = Grid.random(shape, rng)
    opts = dict(tol=1e-8, max_iters=30)
    ref = _reference_solve(spec, rhs, **opts)
    assert ref.converged
    (got,), _ = _served_solves([(spec, rhs)], backend=backend, **opts)
    _assert_same_solve(ref, got)


@pytest.mark.parametrize("cycle", ["jacobi", "rb"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_smoother_chain_session_matches_reference(backend, cycle, rng):
    """Smoother chains (weighted-Jacobi / red-black) are byte-identical
    too — including their parent-side mask merges and axpy glue."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    opts = dict(tol=1e-10, max_iters=25, cycle=cycle)
    ref = _reference_solve(spec, rhs, **opts)
    assert not ref.converged  # smoother chains converge slowly by design
    assert ref.iterations == 25
    (got,), _ = _served_solves([(spec, rhs)], backend=backend, **opts)
    _assert_same_solve(ref, got)


@pytest.mark.parametrize("backend", ["sync", "thread"])
def test_fp16_precision_session_matches_reference(backend, rng):
    """fp16 serving precision changes the numbers but not the identity:
    both paths run the same fp16 fused plans and the same parent glue."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    opts = dict(tol=1e-3, max_iters=20)
    ref = _reference_solve(spec, rhs, precision="fp16", **opts)
    (got,), _ = _served_solves(
        [(spec, rhs)], backend=backend, precision="fp16", **opts
    )
    _assert_same_solve(ref, got)


@pytest.mark.parametrize("backend", ["sync", "thread"])
def test_concurrent_sessions_match_their_solo_references(backend, rng):
    """Sessions submitted together must each match their solo reference
    bit-for-bit.  Their threads share the service's plan cache, so this
    also checks that callers sharing a plan never corrupt each other."""
    wls = solver_workloads((1, 2))
    requests = [
        (wl.spec, wl.make_grid(rng)) for wl in wls for _ in range(3)
    ]
    opts = dict(tol=1e-8, max_iters=30)
    refs = [_reference_solve(s, g, **opts) for s, g in requests]
    got, stats = _served_solves(requests, backend=backend, **opts)
    for ref, out in zip(refs, got):
        _assert_same_solve(ref, out)
    assert stats.telemetry.solves == len(requests)
    assert stats.telemetry.solves_converged == len(requests)


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_serves_no_requests(backend, rng):
    """A session is one inline solve over the service's own plan cache:
    it submits no request, forms no batch, and compiles exactly the plans
    a direct PlanExecutor solve compiles."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    opts = dict(tol=1e-8, max_iters=30)
    with PlanExecutor(mac_threads=1) as ex:
        ref = multigrid.solve(spec, rhs, executor=ex, **opts)
        plans = ex.stats().misses
    (got,), stats = _served_solves([(spec, rhs)], backend=backend, **opts)
    _assert_same_solve(ref, got)
    assert stats.telemetry.requests == 0
    assert stats.telemetry.batches == 0
    assert stats.cache.misses == plans


def test_early_exit_stops_before_iteration_cap(rng):
    """Convergence-aware early exit: a V-cycle on a well-conditioned
    Poisson problem converges well under the cap, and the served session
    stops at exactly the same iteration as the reference."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    opts = dict(tol=1e-6, max_iters=100)
    ref = _reference_solve(spec, rhs, **opts)
    assert ref.converged
    assert ref.iterations < 100
    (got,), stats = _served_solves([(spec, rhs)], backend="thread", **opts)
    _assert_same_solve(ref, got)
    assert stats.telemetry.solve_iterations_total == ref.iterations


def test_solve_stream_traffic_matches_reference(rng):
    """Solver traffic end to end: a solve_stream trace served
    concurrently equals the per-request references."""
    wls = solver_workloads((2,))
    trace = list(solve_stream(wls, 4, tol=1e-7, max_iters=30, seed=3))
    refs = [
        _reference_solve(r.spec, r.rhs, tol=r.tol, max_iters=r.max_iters)
        for r in trace
    ]
    with StencilService(**_service_kwargs("thread")) as svc:
        handles = [
            svc.submit_solve(r.spec, r.rhs, tol=r.tol, max_iters=r.max_iters)
            for r in trace
        ]
        svc.drain()
        got = [h.result(timeout=120) for h in handles]
    for ref, out in zip(refs, got):
        _assert_same_solve(ref, out)


# ----------------------------------------------------------------------
# session lifecycle, progress and history
# ----------------------------------------------------------------------


def test_handle_reports_live_progress_and_metadata(rng):
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(**_service_kwargs("thread")) as svc:
        h = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)
        res = h.result(timeout=120)
    assert h.done()
    assert h.cycle == "v"
    assert h.shape == (31, 31)
    assert h.iterations == res.iterations
    assert h.residual == res.residual
    assert h.exception(timeout=1) is None


def test_residual_history_opt_in_and_ring_bounded(rng):
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(workers=0) as svc:
        off = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=20)
        on = svc.submit_solve(
            spec, rhs, tol=1e-8, max_iters=20, record_history=True
        )
        ring = svc.submit_solve(
            spec,
            rhs,
            tol=1e-12,
            max_iters=20,
            record_history=True,
            history_limit=4,
        )
        svc.drain()
    assert off.result().residual_history == []
    history = on.result().residual_history
    assert len(history) == on.result().iterations
    assert history[-1] == on.result().residual
    bounded = ring.result()
    assert len(bounded.residual_history) == 4  # ring keeps the tail
    assert bounded.residual_history[-1] == bounded.residual
    # exact even when history is bounded: the same solve run alone with
    # unbounded history takes as many iterations and ends in the same tail
    with StencilService(workers=0) as svc:
        full = svc.submit_solve(
            spec, rhs, tol=1e-12, max_iters=20, record_history=True
        ).result()
    assert bounded.iterations == full.iterations
    assert bounded.residual_history == full.residual_history[-4:]


def test_drain_waits_for_sessions_and_close_rejects_new_ones(rng):
    spec = poisson_operator_spec(1)
    rhs = Grid.random((63,), rng)
    svc = StencilService(**_service_kwargs("thread"))
    try:
        h = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)
        svc.drain()
        assert h.done()
    finally:
        svc.close()
    with pytest.raises(RuntimeError):
        svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)


def test_close_stops_a_running_session_and_leaks_no_threads(rng):
    """close() stops a running session at its next iteration boundary and
    waits for it, so the session's runner has stopped its MAC threads and
    no thread the service started outlives it."""
    before = set(threading.enumerate())
    mac_baseline = live_mac_threads()
    svc = StencilService(workers=1, backend="thread", mac_threads=2)
    # 255^2 is large enough for the plans to start their MAC pools
    h = svc.submit_solve(
        poisson_operator_spec(2),
        Grid.random((255, 255), rng),
        tol=1e-15,
        max_iters=500,
    )
    deadline = time.monotonic() + 120.0
    while h.iterations < 1 and not h.done() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert h.iterations >= 1
    svc.close()
    assert h.done()
    assert isinstance(h.exception(timeout=0), ServiceClosedError)
    assert live_mac_threads() == mac_baseline
    # the session thread returns right after it fails its handle
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [t.name for t in threading.enumerate() if t not in before]
        if not leaked:
            break
        time.sleep(0.01)
    assert not leaked, f"threads outlived close(): {leaked}"


def test_solve_failure_routed_to_handle_and_counted(rng):
    """A mid-solve executor failure fails that handle (not the service)
    and increments the solve_failures counter."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(**_service_kwargs("thread")) as svc:
        bad = svc.submit_solve(
            spec, Grid.random((12, 12, 12), rng), tol=1e-8, max_iters=5
        )
        with pytest.raises(Exception):
            bad.result(timeout=120)
        assert bad.exception(timeout=1) is not None
        good = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)
        assert good.result(timeout=120).converged
        stats = svc.stats()
    assert stats.telemetry.solve_failures == 1
    assert stats.telemetry.solves == 1


# ----------------------------------------------------------------------
# validation: eager, synchronous ValueErrors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tol=0.0),
        dict(tol=-1e-8),
        dict(tol=float("nan")),
        dict(max_iters=0),
        dict(cycle="w"),
        dict(smoother="sor"),
        dict(omega=0.0),
        dict(history_limit=0),
    ],
)
def test_submit_solve_rejects_bad_arguments_eagerly(kwargs, rng):
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(workers=0) as svc:
        with pytest.raises(ValueError):
            svc.submit_solve(
                spec, rhs, **{"tol": 1e-8, "max_iters": 10, **kwargs}
            )
        assert svc.stats().telemetry.solve_failures == 0


def test_submit_solve_rejects_mismatched_x0_and_bad_rhs(rng):
    spec = poisson_operator_spec(2)
    with StencilService(workers=0) as svc:
        with pytest.raises(ValueError):
            svc.submit_solve(
                spec,
                Grid.random((31, 31), rng),
                x0=np.zeros((15, 15)),
                tol=1e-8,
                max_iters=10,
            )
        with pytest.raises(ValueError):  # ndim 4 unsupported
            svc.submit_solve(
                spec, np.zeros((3, 3, 3, 3)), tol=1e-8, max_iters=10
            )
        with pytest.raises(ValueError):  # non-zero Dirichlet boundary
            svc.submit_solve(
                spec,
                Grid.random((31, 31), rng, bc=BoundaryCondition.PERIODIC),
                tol=1e-8,
                max_iters=10,
            )


def test_validation_mirrors_direct_solver_api(rng):
    """submit_solve and multigrid.solve reject identically."""
    spec = poisson_operator_spec(2)
    rhs = np.zeros((31, 31))
    for kwargs in [dict(tol=0.0), dict(max_iters=0), dict(cycle="w")]:
        merged = {"tol": 1e-8, "max_iters": 10, **kwargs}
        with pytest.raises(ValueError):
            multigrid.solve(spec, rhs, **merged)
        with StencilService(workers=0) as svc:
            with pytest.raises(ValueError):
                svc.submit_solve(spec, rhs, **merged)


# ----------------------------------------------------------------------
# multigrid operator-set sanity (the specs the sessions are built from)
# ----------------------------------------------------------------------


def test_multigrid_hierarchy_coarsens_to_floor():
    assert coarsen_shape((63,)) == (31,)
    assert coarsen_shape((31, 31)) == (15, 15)
    assert coarsen_shape((7, 7)) == (3, 3)
    assert coarsen_shape((3, 3)) is None  # below MIN_COARSE_SIZE
    assert coarsen_shape((32, 32)) is None  # even side: not vertex-centred


def test_multigrid_operator_set_is_cacheable():
    """One operator set per (spec, omega) — five named specs the plan
    cache can key on, fingerprint-stable across calls."""
    spec = poisson_operator_spec(2)
    ops_a = multigrid_operators(spec)
    ops_b = multigrid_operators(spec)
    names = {s.name for s in ops_a.all_specs()}
    assert len(names) == 5
    for sa, sb in zip(ops_a.all_specs(), ops_b.all_specs()):
        assert sa.name == sb.name
        assert np.array_equal(sa.weights, sb.weights)


def test_telemetry_residuals_recorded_per_iteration(rng):
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(**_service_kwargs("thread")) as svc:
        h = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)
        res = h.result(timeout=120)
        t = svc.stats().telemetry
    assert t.solve_iterations_total == res.iterations
    assert t.solve_residual["count"] == float(res.iterations)
    assert t.solve_iterations["mean"] == float(res.iterations)


def test_traced_sessions_emit_solver_iteration_spans(rng):
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(trace=True, **_service_kwargs("thread")) as svc:
        res = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30).result(
            timeout=120
        )
        spans = svc.trace_spans()
    iter_spans = [s for s in spans if s.name == "solver_iteration"]
    assert len(iter_spans) == res.iterations
    assert any(s.name == "solve" for s in spans)


def test_traced_session_records_executor_stages_on_its_track(rng):
    """A traced session runs inside its own batch context: the plan
    compiles and executor stages of its operator applications land on
    its track, in its trace."""
    spec = poisson_operator_spec(2)
    rhs = Grid.random((31, 31), rng)
    with StencilService(trace=True, **_service_kwargs("thread")) as svc:
        h = svc.submit_solve(spec, rhs, tol=1e-8, max_iters=30)
        h.result(timeout=120)
        spans = svc.trace_spans()
    track = f"solve-{h.solve_id}"
    root = next(s for s in spans if s.name == "solve" and s.track == track)
    names = {
        s.name
        for s in spans
        if s.track == track and s.trace_id == root.trace_id
    }
    assert {"solver_iteration", "plan_compile", "mac.pad", "mac.gemm"} <= names
