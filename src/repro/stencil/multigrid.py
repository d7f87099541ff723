"""Geometric multigrid composed from served stencil operators.

Every heavy operation in a multigrid cycle — weighted-Jacobi and red-black
smoothing sweeps, the residual, full-weighting restriction, bilinear
prolongation — is expressed here as a plain :class:`StencilSpec`
application on some grid shape, so the whole cycle rides cached fused
plans through a :class:`~repro.stencil.solvers.PlanExecutor` (each
level's shape resolves to its own plan).
:meth:`repro.serve.StencilService.submit_solve` runs this same :func:`solve`
over a ``PlanExecutor`` on the service's own plan cache.

The glue between applications — axpy updates, red/black masking, strided
subsampling after full weighting, zero-stuffing before interpolation, the
residual norms that drive early exit — is deterministic numpy on the
caller's side.  Because the inline and the served path are the same call
through the same fused plans, their solutions are byte-identical, not
merely close (the differential suite in ``tests/test_serve_solvers.py``
checks this across backends and precisions).

Model problem and convergence semantics
---------------------------------------
The solver family targets second-order operators under zero Dirichlet
boundaries in index space (unit spacing) — canonically
:func:`poisson_operator_spec`, the dimensionless negative Laplacian with
diagonal ``2*dims``.  Coarsening is vertex-centred: a side of ``2m + 1``
interior points restricts onto ``m`` (fine odd indices), so sizes of the
form ``2**k - 1`` coarsen all the way down.  The restricted residual is
rescaled by :data:`COARSE_RESIDUAL_SCALE` ``= (H/h)**2 = 4`` — the
re-discretized coarse-grid operator of a second-order stencil — which is
what lets one dimensionless operator spec serve every level.  Convergence
is declared on the relative parent-side residual norm
``||f - A u|| / ||f|| < tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .grid import BoundaryCondition, Grid
from .solvers import (
    HISTORY_LIMIT,
    Executor,
    SolveResult,
    _history_buffer,
    default_plan_executor,
    validate_iteration_args,
)
from .spec import ShapeType, StencilSpec

__all__ = [
    "CYCLES",
    "SMOOTHERS",
    "COARSE_RESIDUAL_SCALE",
    "MultigridOperators",
    "coarsen_shape",
    "jacobi_smoother_spec",
    "multigrid_operators",
    "poisson_operator_spec",
    "prolongation_spec",
    "red_black_masks",
    "residual",
    "restriction_spec",
    "smooth",
    "solve",
    "v_cycle",
    "validate_solve_args",
]

#: supported solve cycles: a full V-cycle, or a chain of one smoother
CYCLES = ("v", "jacobi", "rb")

#: smoother kinds usable inside a V-cycle (and as standalone chains)
SMOOTHERS = ("jacobi", "rb")

#: residual rescale on restriction: ``(H/h)**2`` for the second-order
#: operators this module targets, so the same dimensionless operator spec
#: re-discretizes every level
COARSE_RESIDUAL_SCALE = 4.0

#: coarsening stops once a side would fall below this many points
MIN_COARSE_SIZE = 3


# ----------------------------------------------------------------------
# Operator set (each one a plain StencilSpec)
# ----------------------------------------------------------------------


def poisson_operator_spec(dims: int) -> StencilSpec:
    """The dimensionless negative Laplacian ``A`` (star, r = 1): centre
    ``2*dims``, axis neighbours ``-1`` — the model operator every solver
    workload in this repo drives."""
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    w = np.zeros((3,) * dims)
    centre = (1,) * dims
    w[centre] = 2.0 * dims
    for axis in range(dims):
        for off in (-1, 1):
            idx = list(centre)
            idx[axis] += off
            w[tuple(idx)] = -1.0
    return StencilSpec(ShapeType.STAR, dims, 1, w, f"poisson{dims}d")


def jacobi_smoother_spec(spec: StencilSpec, omega: float = 2.0 / 3.0) -> StencilSpec:
    """The weighted-Jacobi update operator ``M = I - (ω/d) A`` for a
    stencil operator ``A`` with diagonal (centre weight) ``d``.

    One smoothing sweep is then a single stencil application plus an axpy:
    ``u <- M u + (ω/d) f``.  ``ω = 1`` gives the plain Jacobi update the
    red-black half-sweeps reuse.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    centre = (spec.radius,) * spec.dims
    d = float(spec.weights[centre])
    if d == 0.0:
        raise ValueError(
            "operator spec needs a nonzero centre (diagonal) weight to "
            "derive a Jacobi smoother"
        )
    w = -(omega / d) * spec.weights
    w[centre] += 1.0
    name = f"{spec.name or 'op'}-jacobi-w{omega:g}"
    return StencilSpec(spec.shape, spec.dims, spec.radius, w, name)


def restriction_spec(dims: int) -> StencilSpec:
    """Full-weighting restriction kernel (box, r = 1): the ``dims``-fold
    outer product of ``[1/4, 1/2, 1/4]``.  Applied on the fine grid; the
    coarse values are the fine odd-index samples of the result."""
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    w1 = np.array([0.25, 0.5, 0.25])
    w = w1
    for _ in range(dims - 1):
        w = np.multiply.outer(w, w1)
    return StencilSpec(ShapeType.BOX, dims, 1, w, f"fullweight{dims}d")


def prolongation_spec(dims: int) -> StencilSpec:
    """Bilinear (multilinear) interpolation kernel (box, r = 1): the
    ``dims``-fold outer product of ``[1/2, 1, 1/2]``.  Applied to the
    zero-stuffed coarse grid it reproduces coarse values at coarse points
    and interpolates between them everywhere else."""
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    w1 = np.array([0.5, 1.0, 0.5])
    w = w1
    for _ in range(dims - 1):
        w = np.multiply.outer(w, w1)
    return StencilSpec(ShapeType.BOX, dims, 1, w, f"bilinear{dims}d")


@dataclass(frozen=True)
class MultigridOperators:
    """The full operator set of one multigrid hierarchy, derived once from
    the operator spec (the same specs apply at every level — shapes, not
    kernels, change under coarsening)."""

    operator: StencilSpec
    jacobi: StencilSpec
    gauss_seidel: StencilSpec
    restriction: StencilSpec
    prolongation: StencilSpec
    omega: float
    inv_diag: float
    jacobi_scale: float

    def all_specs(self) -> Tuple[StencilSpec, ...]:
        """Every distinct spec a cycle applies (plan-cache working set)."""
        return (
            self.operator,
            self.jacobi,
            self.gauss_seidel,
            self.restriction,
            self.prolongation,
        )


def multigrid_operators(
    spec: StencilSpec, omega: float = 2.0 / 3.0
) -> MultigridOperators:
    """Derive the smoother/transfer operator set for ``spec``.

    Raises :class:`ValueError` for a zero diagonal or ``omega <= 0``.
    """
    centre = (spec.radius,) * spec.dims
    d = float(spec.weights[centre])
    jacobi = jacobi_smoother_spec(spec, omega)  # validates omega and d
    return MultigridOperators(
        operator=spec,
        jacobi=jacobi,
        gauss_seidel=jacobi_smoother_spec(spec, 1.0),
        restriction=restriction_spec(spec.dims),
        prolongation=prolongation_spec(spec.dims),
        omega=float(omega),
        inv_diag=1.0 / d,
        jacobi_scale=float(omega) / d,
    )


# ----------------------------------------------------------------------
# Grid transfers and smoothing (parent-side glue is deterministic numpy)
# ----------------------------------------------------------------------


def coarsen_shape(shape: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """The next-coarser vertex-centred shape, or ``None`` at the coarsest
    level (a side even or too small to halve onto >= MIN_COARSE_SIZE)."""
    coarse = []
    for n in shape:
        if n % 2 == 0 or (n - 1) // 2 < MIN_COARSE_SIZE:
            return None
        coarse.append((n - 1) // 2)
    return tuple(coarse)


def red_black_masks(
    shape: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Checkerboard masks by index-parity sum (red = even)."""
    parity = np.zeros(shape, dtype=np.int64)
    for axis, n in enumerate(shape):
        idx = np.arange(n).reshape(
            (1,) * axis + (n,) + (1,) * (len(shape) - axis - 1)
        )
        parity = parity + idx
    red = (parity % 2) == 0
    return red, ~red


def residual(
    apply: Executor, ops: MultigridOperators, u: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """``r = f - A u`` with the operator applied through ``apply``."""
    return f - apply(ops.operator, Grid(u, BoundaryCondition.ZERO))


def restrict_full_weighting(
    apply: Executor, ops: MultigridOperators, fine: np.ndarray
) -> np.ndarray:
    """Full-weighting restriction: one served stencil sweep, then the
    odd-index subsample (parent-side strided view, copied)."""
    smoothed = apply(ops.restriction, Grid(fine, BoundaryCondition.ZERO))
    return smoothed[(slice(1, None, 2),) * fine.ndim].copy()


def prolong_bilinear(
    apply: Executor,
    ops: MultigridOperators,
    coarse: np.ndarray,
    fine_shape: Tuple[int, ...],
) -> np.ndarray:
    """Bilinear prolongation: zero-stuff the coarse values onto the fine
    odd indices (parent-side), then one served interpolation sweep."""
    stuffed = np.zeros(fine_shape, dtype=np.float64)
    stuffed[(slice(1, None, 2),) * len(fine_shape)] = coarse
    return apply(ops.prolongation, Grid(stuffed, BoundaryCondition.ZERO))


def smooth(
    apply: Executor,
    ops: MultigridOperators,
    u: np.ndarray,
    f: np.ndarray,
    sweeps: int,
    smoother: str = "jacobi",
    _masks: Optional[Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]]] = None,
) -> np.ndarray:
    """``sweeps`` smoothing sweeps on ``A u = f``.

    ``"jacobi"``: ``u <- M_ω u + (ω/d) f`` — one application per sweep.
    ``"rb"``: red-black relaxation — two half-sweeps per sweep, each a
    full-grid plain-Jacobi application accepted only on its colour (the
    masked merge is parent-side), so black points see updated red values.
    """
    if smoother not in SMOOTHERS:
        raise ValueError(
            f"unsupported smoother {smoother!r}; choose one of {SMOOTHERS}"
        )
    if smoother == "jacobi":
        for _ in range(sweeps):
            u = (
                apply(ops.jacobi, Grid(u, BoundaryCondition.ZERO))
                + ops.jacobi_scale * f
            )
        return u
    masks = _masks if _masks is not None else {}
    pair = masks.get(u.shape)
    if pair is None:
        pair = red_black_masks(u.shape)
        masks[u.shape] = pair
    red, black = pair
    for _ in range(sweeps):
        cand = (
            apply(ops.gauss_seidel, Grid(u, BoundaryCondition.ZERO))
            + ops.inv_diag * f
        )
        u = np.where(red, cand, u)
        cand = (
            apply(ops.gauss_seidel, Grid(u, BoundaryCondition.ZERO))
            + ops.inv_diag * f
        )
        u = np.where(black, cand, u)
    return u


def v_cycle(
    apply: Executor,
    ops: MultigridOperators,
    u: np.ndarray,
    f: np.ndarray,
    *,
    pre: int = 2,
    post: int = 2,
    smoother: str = "jacobi",
    coarse_sweeps: int = 8,
    _masks: Optional[Dict] = None,
) -> np.ndarray:
    """One recursive V-cycle on ``A u = f``.

    Pre-smooth, form the residual, restrict it (rescaled by
    :data:`COARSE_RESIDUAL_SCALE`), recurse on the coarse error equation
    from a zero guess, prolong the correction back, post-smooth.  At the
    coarsest level the error equation is relaxed ``coarse_sweeps`` times
    instead of recursing.
    """
    masks = _masks if _masks is not None else {}
    u = smooth(apply, ops, u, f, pre, smoother, masks)
    r = residual(apply, ops, u, f)
    cshape = coarsen_shape(u.shape)
    if cshape is None:
        e = smooth(
            apply, ops, np.zeros_like(u), r, coarse_sweeps, smoother, masks
        )
        u = u + e
    else:
        rc = COARSE_RESIDUAL_SCALE * restrict_full_weighting(apply, ops, r)
        ec = v_cycle(
            apply,
            ops,
            np.zeros(cshape),
            rc,
            pre=pre,
            post=post,
            smoother=smoother,
            coarse_sweeps=coarse_sweeps,
            _masks=masks,
        )
        u = u + prolong_bilinear(apply, ops, ec, u.shape)
    return smooth(apply, ops, u, f, post, smoother, masks)


# ----------------------------------------------------------------------
# Top-level solve driver (shared by inline and served sessions)
# ----------------------------------------------------------------------


def validate_solve_args(
    rhs: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float,
    max_iters: int,
    cycle: str = "v",
    smoother: str = "jacobi",
    omega: float = 2.0 / 3.0,
    history_limit: int = HISTORY_LIMIT,
) -> None:
    """Input validation shared by :func:`solve` and
    :meth:`repro.serve.StencilService.submit_solve` — every rejection is a
    :class:`ValueError` with a message naming the offending argument."""
    rhs = np.asarray(rhs)
    if rhs.ndim not in (1, 2, 3):
        raise ValueError(f"rhs must be 1D/2D/3D, got {rhs.ndim}D")
    validate_iteration_args(tol, max_iters, name="max_iters")
    if cycle not in CYCLES:
        raise ValueError(
            f"unsupported cycle {cycle!r}; choose one of {CYCLES}"
        )
    if smoother not in SMOOTHERS:
        raise ValueError(
            f"unsupported smoother {smoother!r}; choose one of {SMOOTHERS}"
        )
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if history_limit < 1:
        raise ValueError(f"history_limit must be >= 1, got {history_limit}")
    if x0 is not None:
        x0 = np.asarray(x0)
        if x0.shape != rhs.shape:
            raise ValueError(
                f"x0 shape {x0.shape} does not match rhs shape {rhs.shape}"
            )


def solve(
    spec: StencilSpec,
    rhs,
    *,
    executor: Optional[Executor] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iters: int = 100,
    cycle: str = "v",
    smoother: str = "jacobi",
    omega: float = 2.0 / 3.0,
    pre: int = 2,
    post: int = 2,
    coarse_sweeps: int = 8,
    record_history: bool = False,
    history_limit: int = HISTORY_LIMIT,
    on_iteration: Optional[Callable[[int, float], None]] = None,
) -> SolveResult:
    """Solve ``A u = f`` for the stencil operator ``spec`` (zero BC).

    ``cycle="v"`` iterates recursive V-cycles; ``"jacobi"`` / ``"rb"``
    iterate one smoothing sweep of that kind per iteration (a smoother
    chain).  After every iteration the relative residual
    ``||f - A u|| / ||f||`` is computed parent-side (one extra operator
    application through ``apply``) and the loop exits early once it drops
    below ``tol``.

    ``executor`` is any ``(spec, grid) -> ndarray`` callable; the default
    is the shared plan-cached executor.  ``on_iteration(it, residual)``
    is invoked after each iteration — the serving layer uses it for spans
    and telemetry without perturbing the numerics, and stops a session by
    raising from it.  A served solve session is this same call over a
    :class:`~repro.stencil.solvers.PlanExecutor`, which is the mechanism
    behind the byte-identity guarantee.
    """
    if isinstance(rhs, Grid):
        if rhs.bc is not BoundaryCondition.ZERO:
            raise ValueError(
                "solver sessions assume zero Dirichlet boundaries; got a "
                f"grid with bc={rhs.bc.name}"
            )
        rhs = rhs.data
    f = np.asarray(rhs, dtype=np.float64)
    validate_solve_args(
        f,
        x0=x0,
        tol=tol,
        max_iters=max_iters,
        cycle=cycle,
        smoother=smoother,
        omega=omega,
        history_limit=history_limit,
    )
    apply = executor or default_plan_executor()
    ops = multigrid_operators(spec, omega)
    u = (
        np.zeros_like(f)
        if x0 is None
        else np.array(x0, dtype=np.float64, copy=True)
    )
    rhs_norm = max(float(np.linalg.norm(f)), np.finfo(np.float64).eps)
    history = _history_buffer(record_history, history_limit)
    masks: Dict = {}
    residual_norm = np.inf
    for it in range(1, max_iters + 1):
        if cycle == "v":
            u = v_cycle(
                apply,
                ops,
                u,
                f,
                pre=pre,
                post=post,
                smoother=smoother,
                coarse_sweeps=coarse_sweeps,
                _masks=masks,
            )
        else:
            u = smooth(apply, ops, u, f, 1, cycle, masks)
        r = residual(apply, ops, u, f)
        residual_norm = float(np.linalg.norm(r)) / rhs_norm
        if history is not None:
            history.append(residual_norm)
        if on_iteration is not None:
            on_iteration(it, residual_norm)
        if residual_norm < tol:
            return SolveResult(
                u, it, residual_norm, True, list(history or ())
            )
    return SolveResult(
        u, max_iters, residual_norm, False, list(history or ())
    )
