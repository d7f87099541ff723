"""Workload generators mirroring the paper's evaluation setup (§4.1).

The paper benchmarks 1D stencils at problem size ``(1, 10240000)`` and 2D
stencils at ``(10240, 10240)``, with shapes 1D1R, 1D2R and Box/Star-2D{1,2,3}R.
:func:`paper_benchmark_suite` enumerates exactly that matrix;
:func:`paper_size_sweep` reproduces the Figure-11 problem-size sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .grid import BoundaryCondition, Grid
from .multigrid import CYCLES, poisson_operator_spec
from .solvers import validate_iteration_args
from .spec import (
    ShapeType,
    StencilSpec,
    make_box_kernel,
    make_star_kernel,
    named_stencil,
)

__all__ = [
    "Workload",
    "paper_benchmark_suite",
    "paper_size_sweep",
    "make_workload",
    "PAPER_1D_SIZE",
    "PAPER_2D_SIZE",
    "FIG11_1D_SIZES",
    "FIG11_2D_SIZES",
    "FIG12_SIZES",
    "ServingRequest",
    "serving_workloads",
    "closed_loop_stream",
    "open_loop_stream",
    "SERVING_SHAPE_IDS",
    "SOLVER_SIZES",
    "SolveRequest",
    "solver_workloads",
    "solve_stream",
]

#: Problem sizes used in §4.2 (Figure 10).
PAPER_1D_SIZE: Tuple[int, ...] = (10240000,)
PAPER_2D_SIZE: Tuple[int, ...] = (10240, 10240)

#: Figure 11 x-axes: 1D sizes are (1, 1024*X) for X in {256..40960};
#: 2D sizes are (X, X).
FIG11_1D_SIZES: List[int] = [1024 * x for x in (256, 8192, 16384, 24576, 32768, 40960)]
FIG11_2D_SIZES: List[int] = [512, 2048, 4096, 6144, 8192, 10240]

#: Figure 12 x-axis (Box-2D2R ablation): square problem sizes.
FIG12_SIZES: List[int] = [1280, 2560, 5120, 10240]


@dataclass(frozen=True)
class Workload:
    """A stencil spec paired with a problem size.

    ``grid_shape`` follows the paper's ``(A, B)`` notation for 2D and a
    1-tuple for 1D.
    """

    spec: StencilSpec
    grid_shape: Tuple[int, ...]

    @property
    def num_points(self) -> int:
        n = 1
        for s in self.grid_shape:
            n *= s
        return n

    @property
    def label(self) -> str:
        return f"{self.spec.benchmark_id}@{'x'.join(map(str, self.grid_shape))}"

    def make_grid(
        self,
        rng: Optional[np.random.Generator] = None,
        bc: BoundaryCondition = BoundaryCondition.ZERO,
    ) -> Grid:
        rng = rng or np.random.default_rng(42)
        return Grid.random(self.grid_shape, rng, bc)


def _spec_for(shape_id: str, rng: np.random.Generator) -> StencilSpec:
    """Build a random stencil spec from a paper-style id like 'Box-2D3R'."""
    sid = shape_id.strip()
    try:
        if sid.upper().startswith("1D"):
            radius = int(sid[2:-1])
            return make_box_kernel(1, radius, rng, symmetric=True, name=sid)
        prefix, rest = sid.split("-")
        dims = int(rest[0])
        radius = int(rest[2:-1])
    except (IndexError, ValueError):
        raise ValueError(
            f"unrecognized shape id {shape_id!r}; expected a paper id like "
            "'1D2R', 'Box-2D3R' or 'Star-2D1R', or a named stencil"
        ) from None
    if prefix.lower() == "box":
        return make_box_kernel(dims, radius, rng, symmetric=True, name=sid)
    if prefix.lower() == "star":
        return make_star_kernel(dims, radius, rng, symmetric=True, name=sid)
    raise ValueError(f"unrecognized shape id {shape_id!r}")


#: The 8 shapes of Figure 10, in plot order.
PAPER_SHAPE_IDS: List[str] = [
    "1D1R",
    "1D2R",
    "Box-2D1R",
    "Star-2D1R",
    "Box-2D2R",
    "Star-2D2R",
    "Box-2D3R",
    "Star-2D3R",
]


def make_workload(
    shape_id: str,
    grid_shape: Optional[Tuple[int, ...]] = None,
    seed: int = 7,
) -> Workload:
    """One workload by paper shape id, defaulting to the §4.2 problem size."""
    rng = np.random.default_rng(seed)
    spec = _spec_for(shape_id, rng)
    if grid_shape is None:
        grid_shape = PAPER_1D_SIZE if spec.dims == 1 else PAPER_2D_SIZE
    if len(grid_shape) != spec.dims:
        raise ValueError(
            f"grid shape {grid_shape} does not match {spec.dims}D stencil"
        )
    return Workload(spec, tuple(grid_shape))


def paper_benchmark_suite(seed: int = 7) -> List[Workload]:
    """The full Figure-10 benchmark matrix (8 shapes, paper sizes)."""
    return [make_workload(sid, seed=seed) for sid in PAPER_SHAPE_IDS]


def paper_size_sweep(shape_id: str, seed: int = 7) -> List[Workload]:
    """The Figure-11 problem-size sweep for one stencil shape."""
    rng = np.random.default_rng(seed)
    spec = _spec_for(shape_id, rng)
    if spec.dims == 1:
        return [Workload(spec, (n,)) for n in FIG11_1D_SIZES]
    return [Workload(spec, (n, n)) for n in FIG11_2D_SIZES]


# ----------------------------------------------------------------------
# Serving traffic (request streams for repro.serve)
# ----------------------------------------------------------------------

#: Default mixed-spec serving suite: three named application stencils plus
#: a paper shape, covering 1D and 2D and both footprint families.
SERVING_SHAPE_IDS: List[str] = ["heat2d", "blur2d", "wave1d", "Star-2D2R"]


@dataclass(frozen=True)
class ServingRequest:
    """One element of a serving traffic trace.

    ``arrival_s`` is the request's arrival offset from trace start:
    always ``0.0`` in closed-loop traces (the client issues the next
    request when the previous completes, so there is no arrival process),
    and Poisson-cumulative in open-loop traces (arrivals are independent
    of service completions — the harder regime for tail latency).
    """

    workload: Workload
    grid: Grid
    arrival_s: float = 0.0

    @property
    def spec(self) -> StencilSpec:
        return self.workload.spec


def serving_workloads(
    shape_ids: Optional[List[str]] = None,
    *,
    size_1d: Tuple[int, ...] = (4096,),
    size_2d: Tuple[int, ...] = (48, 48),
    size_3d: Tuple[int, ...] = (16, 16, 16),
    seed: int = 7,
) -> List[Workload]:
    """Small-problem workloads for serving traffic.

    ``shape_ids`` accepts both named application stencils (``"heat2d"``)
    and paper shape ids (``"Box-2D2R"``); grid sizes are picked per
    dimensionality — serving traffic is many small problems, not one
    paper-sized sweep.
    """
    shape_ids = list(shape_ids) if shape_ids else list(SERVING_SHAPE_IDS)
    rng = np.random.default_rng(seed)
    sizes = {1: tuple(size_1d), 2: tuple(size_2d), 3: tuple(size_3d)}
    out: List[Workload] = []
    for sid in shape_ids:
        try:
            spec = named_stencil(sid)
        except KeyError:
            spec = _spec_for(sid, rng)
        out.append(Workload(spec, sizes[spec.dims]))
    return out


def _pick_weights(
    n: int, weights: Optional[List[float]]
) -> Optional[np.ndarray]:
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0) or w.sum() <= 0:
        raise ValueError(f"weights must be {n} non-negative values")
    return w / w.sum()


def closed_loop_stream(
    workloads: List[Workload],
    n_requests: int,
    *,
    seed: int = 0,
    weights: Optional[List[float]] = None,
) -> Iterator[ServingRequest]:
    """Closed-loop trace: requests are issued back-to-back (no arrivals).

    Each request picks a workload (uniformly, or with a popularity skew via
    ``weights``) and draws a fresh random grid, so a trace is mixed-spec
    but repeat-heavy — exactly the regime plan caching targets.
    """
    rng = np.random.default_rng(seed)
    p = _pick_weights(len(workloads), weights)
    for _ in range(n_requests):
        wl = workloads[int(rng.choice(len(workloads), p=p))]
        yield ServingRequest(wl, wl.make_grid(rng), 0.0)


# ----------------------------------------------------------------------
# Solver traffic (iterative-solve sessions for submit_solve)
# ----------------------------------------------------------------------

#: default per-dimensionality Poisson solve sizes — vertex-centred
#: ``2**k - 1`` sides so multigrid coarsens all the way down
SOLVER_SIZES = {1: (63,), 2: (31, 31), 3: (15, 15, 15)}


@dataclass(frozen=True)
class SolveRequest:
    """One element of a solver traffic trace: a full iterative solve of
    ``A u = f`` to drive through ``StencilService.submit_solve``.

    ``arrival_s`` follows the same convention as :class:`ServingRequest`:
    0.0 in closed-loop traces, Poisson-cumulative in open-loop ones.
    """

    workload: Workload
    rhs: Grid
    tol: float = 1e-6
    max_iters: int = 40
    cycle: str = "v"
    arrival_s: float = 0.0

    @property
    def spec(self) -> StencilSpec:
        return self.workload.spec


def solver_workloads(
    dims: Tuple[int, ...] = (2,),
    *,
    size_1d: Tuple[int, ...] = SOLVER_SIZES[1],
    size_2d: Tuple[int, ...] = SOLVER_SIZES[2],
    size_3d: Tuple[int, ...] = SOLVER_SIZES[3],
) -> List[Workload]:
    """Poisson solver workloads, one per requested dimensionality.

    Each pairs the dimensionless negative-Laplacian operator
    (:func:`~repro.stencil.multigrid.poisson_operator_spec`) with a
    multigrid-friendly odd-sided grid; a mixed-dims list exercises the
    plan cache with several solver hierarchies at once.
    """
    sizes = {1: tuple(size_1d), 2: tuple(size_2d), 3: tuple(size_3d)}
    return [Workload(poisson_operator_spec(d), sizes[d]) for d in dims]


def solve_stream(
    workloads: List[Workload],
    n_solves: int,
    *,
    tol: float = 1e-6,
    max_iters: int = 40,
    cycle: str = "v",
    rate_sps: float = 0.0,
    seed: int = 0,
    weights: Optional[List[float]] = None,
) -> Iterator[SolveRequest]:
    """Solver traffic: ``n_solves`` iterative solves over ``workloads``.

    ``rate_sps = 0`` yields a closed-loop burst (issue as fast as sessions
    can be opened); ``rate_sps > 0`` yields Poisson arrivals at that many
    solves/second.  Each request draws a fresh random right-hand side, so
    a trace is repeat-heavy per operator but unique per solve, and every
    multigrid level of every session is its own plan in the cache.
    """
    validate_iteration_args(tol, max_iters, name="max_iters")
    if cycle not in CYCLES:
        raise ValueError(
            f"unsupported cycle {cycle!r}; choose one of {CYCLES}"
        )
    if rate_sps < 0:
        raise ValueError(f"rate_sps must be >= 0, got {rate_sps}")
    rng = np.random.default_rng(seed)
    p = _pick_weights(len(workloads), weights)
    t = 0.0
    for _ in range(n_solves):
        if rate_sps > 0:
            t += float(rng.exponential(1.0 / rate_sps))
        wl = workloads[int(rng.choice(len(workloads), p=p))]
        yield SolveRequest(
            wl, wl.make_grid(rng), tol, max_iters, cycle, t
        )


def open_loop_stream(
    workloads: List[Workload],
    n_requests: int,
    rate_rps: float,
    *,
    seed: int = 0,
    weights: Optional[List[float]] = None,
) -> Iterator[ServingRequest]:
    """Open-loop trace: Poisson arrivals at ``rate_rps`` requests/second.

    Arrival times are cumulative exponential inter-arrivals; a load driver
    should sleep until each request's ``arrival_s`` before submitting,
    regardless of completions (the latency-under-load regime).
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    rng = np.random.default_rng(seed)
    p = _pick_weights(len(workloads), weights)
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(1.0 / rate_rps))
        wl = workloads[int(rng.choice(len(workloads), p=p))]
        yield ServingRequest(wl, wl.make_grid(rng), t)
