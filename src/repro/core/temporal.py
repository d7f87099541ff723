"""Temporal kernel fusion on top of SPIDER.

The paper's related work (§5) surveys temporal blocking as the classic
answer to memory-bound stencils; SPIDER itself optimizes single sweeps.
This extension composes the two ideas: ``t`` applications of a linear
stencil are one stencil of radius ``t·r`` whose coefficient tensor is the
``t``-fold self-*convolution* of the kernel.  Fusing steps trades per-step
memory traffic for a larger (still 2:4-transformable) kernel — the regime
where SPIDER's parameter-access advantage compounds.

Boundary correctness: under Dirichlet-0 stepping, the plain scheme
re-clamps the halo to zero *every* step, while the fused operator lets
information propagate freely — so pure fusion is exact only at interior
points at least ``t·r`` cells from the boundary.  :class:`TemporalSpider`
therefore recomputes the boundary ring with plain stepping on thin strips
(classic trapezoidal-blocking bookkeeping): a strip of width ``2·t·r``
stepped ``t`` times reproduces the outer ``t·r`` ring exactly, because
corruption from the strip's artificial inner edge travels at most ``t·r``
cells.  On the ring this is *bit-identical* to plain stepping (the strip
performs the same floating-point sums on the same values); the interior
is mathematically exact but can differ from step-by-step execution in the
last ulp, because the fused kernel rounds once where plain stepping
rounds ``t`` times.  The serving runtime does not use this scheme: its
multi-sweep requests chain exact sweeps (see :mod:`repro.serve.workers`),
byte-identical to ``t`` round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sptc.mma import MmaPrecision
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.spec import ShapeType, StencilSpec
from .pipeline import Spider, SpiderVariant

__all__ = [
    "fuse_kernel",
    "repair_boundary_ring",
    "TemporalSpider",
]


def fuse_kernel(spec: StencilSpec, steps: int) -> StencilSpec:
    """The stencil equivalent to ``steps`` free-space sweeps of ``spec``.

    Repeated *convolution* of the kernel with itself (two correlation
    passes compose to a correlation with the self-convolved kernel); the
    result has radius ``steps·r``.  Star stencils densify under
    composition, so the fused spec is box-shaped for ``steps >= 2``.

    ``steps == 1`` returns ``spec`` unchanged: one sweep of a kernel *is*
    that kernel, and relabeling a star stencil as BOX would change its
    :func:`~repro.serve.plan_cache.spec_fingerprint` — a gratuitous
    plan-cache miss and recompile for a mathematically identical kernel.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        return spec
    # imported here: scipy.signal costs ~40 MB and ~0.5 s at import, and
    # only a multi-step fusion needs it
    from scipy import signal

    w = np.asarray(spec.weights)
    fused = w
    for _ in range(steps - 1):
        fused = signal.convolve(fused, w, mode="full")
    return StencilSpec(
        ShapeType.BOX,
        spec.dims,
        steps * spec.radius,
        fused,
        name=f"{spec.name or spec.benchmark_id}^x{steps}",
    )


def repair_boundary_ring(
    data: np.ndarray,
    fused: np.ndarray,
    ring: int,
    steps: int,
    plain_steps: Callable[[np.ndarray, int], np.ndarray],
    lane_stride: int = 1,
) -> np.ndarray:
    """Overwrite the fused result's outer ``ring`` with exact plain-stepped
    values; returns ``fused``.

    ``fused`` is one fused super-sweep of ``data`` (any dimensionality);
    for each axis the leading/trailing strip of width ``>= 2·ring`` from
    the *original* data is advanced ``steps`` plain Dirichlet-0 sweeps via
    ``plain_steps`` and its outer ``ring`` slab is copied back.  Each strip
    keeps every *true* domain edge on the other axes, so its outer slab —
    corners and edges included — is bit-identical to plain stepping on
    the whole domain: only the strip's artificial inner face contaminates,
    and that corruption stays ``>= ring`` cells away.  Overlapping corner
    writes are therefore writes of identical bytes, making the assignment
    order irrelevant.  Requires ``min(shape) > 2 * ring``.

    ``lane_stride`` must be the executing pipeline's lane width ``L`` when
    bit-identity of the ring matters: the SpTC datapath reduces each
    output element in an order fixed by its *lane* (position modulo ``L``
    along the last axis), so the trailing last-axis strip is widened to
    start on a multiple of ``L`` — keeping every strip cell in the lane it
    occupies in the full grid.  Leading strips start at 0 and are always
    aligned; other axes index *lines*, whose per-element order is
    position-independent.
    """

    def along(axis: int, sl: slice) -> tuple:
        idx = [slice(None)] * data.ndim
        idx[axis] = sl
        return tuple(idx)

    strip = 2 * ring
    for axis, n in enumerate(data.shape):
        start = n - strip
        if axis == data.ndim - 1 and lane_stride > 1:
            start = (start // lane_stride) * lane_stride
        lo = plain_steps(data[along(axis, slice(0, strip))], steps)
        hi = plain_steps(data[along(axis, slice(start, None))], steps)
        ring_lo = along(axis, slice(0, ring))
        ring_hi = along(axis, slice(-ring, None))
        fused[ring_lo] = lo[ring_lo]
        fused[ring_hi] = hi[ring_hi]
    return fused


@dataclass
class TemporalSpider:
    """SPIDER with ``t``-step temporal fusion and exact boundary handling.

    ``run(grid, total_steps)`` advances the grid ``total_steps`` sweeps
    using fused super-sweeps of ``steps`` each (plus a plain remainder),
    recomputing the boundary ring so the result matches plain Dirichlet-0
    stepping everywhere (bit-identically on the ring, to the last ulp in
    the interior — see the module docstring).

    Supports 1D, 2D and 3D stencils; only ``BoundaryCondition.ZERO``
    grids are accepted.
    """

    spec: StencilSpec
    steps: int = 2
    precision: str = MmaPrecision.EXACT
    variant: SpiderVariant = SpiderVariant.SPTC_CO

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        self.fused_spec = fuse_kernel(self.spec, self.steps)
        self._fused = Spider(self.fused_spec, self.precision, self.variant)
        self._plain = (
            self._fused
            if self.steps == 1
            else Spider(self.spec, self.precision, self.variant)
        )

    @property
    def fused_radius(self) -> int:
        return self.fused_spec.radius

    # ------------------------------------------------------------------
    def _plain_steps(self, data: np.ndarray, t: int) -> np.ndarray:
        out = data
        for _ in range(t):
            out = self._plain.run(Grid(out, BoundaryCondition.ZERO))
        return out

    def _super_step(self, data: np.ndarray) -> np.ndarray:
        """One fused super-sweep == ``steps`` plain Dirichlet-0 sweeps."""
        ring = self.fused_radius  # t*r cells are boundary-contaminated
        if min(data.shape) <= 2 * ring:
            # domain too small for an uncontaminated interior: step plainly
            return self._plain_steps(data, self.steps)
        fused = self._fused.run(Grid(data, BoundaryCondition.ZERO))
        return repair_boundary_ring(
            data,
            fused,
            ring,
            self.steps,
            self._plain_steps,
            lane_stride=self._plain.executor.L,
        )

    # ------------------------------------------------------------------
    def run(self, grid: Grid, total_steps: int) -> Grid:
        """Advance ``total_steps`` Dirichlet-0 sweeps (fused where possible)."""
        if total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if grid.bc is not BoundaryCondition.ZERO:
            raise ValueError(
                "temporal fusion requires ZERO boundaries (linear halo)"
            )
        data = grid.data
        full, rem = divmod(total_steps, self.steps)
        for _ in range(full):
            data = self._super_step(data)
        data = self._plain_steps(data, rem)
        if data is grid.data:
            # zero-step path: never hand back a Grid aliasing the caller's
            # buffer (mutating the result must not corrupt the input)
            data = data.copy()
        return Grid(data, BoundaryCondition.ZERO)

    def traffic_savings(self) -> float:
        """Modeled DRAM-traffic ratio: fused vs step-by-step execution.

        Step-by-step moves the grid ``steps`` times; fusion moves it once
        (with a ``steps·r`` halo and the boundary-strip recomputation,
        which is perimeter work and vanishes for large grids).  Returns
        plain/fused bytes — > 1 means fusion wins.
        """
        plain = self.steps * 2.0  # read + write per step per point
        fused = 2.0 + 0.1 * self.fused_radius  # one pass + halo overhead
        return plain / fused
