"""Calibrated roofline cost model of the emulator serving stack.

:mod:`repro.analysis.perfmodel` models the *paper's* A100 — fixed,
hand-calibrated constants mapping Table-1 costs to Figure-10 bars.  This
module models the *emulator serving stack itself*, on whatever machine it
is running on, and its constants are **fit from serve telemetry** rather
than transcribed: the tracer's per-stage spans (``mac.pad`` /
``mac.gather`` / ``mac.gemm`` / ``mac.scatter``), payload bytes and batch
service times are exactly the observations a roofline needs.

Model form (per served batch)::

    ops_eff = ops * (serial_frac + (1 - serial_frac) / parallel)
    t       = overhead_s * batch_overheads
            + block_overhead_s * n_blocks
            + max(ops_eff * inv_peak,  bytes_moved * inv_bw)

The max() is the classic roofline hinge (SNIPPETS #1: runtime = ops /
min(peak, intensity × bandwidth), rearranged to seconds); the Amdahl
factor models the MAC pool's threading (pad, gather, GEMM and the
range-partitioned accumulator add run on it once a block is big enough;
``serial_frac`` absorbs what stays serial: small blocks, the store and
Python-side dispatch); the two overhead terms absorb per-batch serving
cost and per-GEMM-block dispatch cost (csl-experiments'
measured-constant style: analytic counts × fitted overheads).  Five
parameters, all fit by :func:`calibrate`.

Feature extraction (:func:`batch_features`) mirrors the fused executor's
actual geometry — line blocks of ``batch_rows`` padded lines, ``ceil(n/L)``
chunks per line, the operator's ``_plan_blocks`` column-split rule — so
knob changes (``mac_threads``, ``mac_col_block``, batch cap) move the
features the same way they move the real pipeline; ``temporal_mode``
compares chained sweeps against a kernel-fused super-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..sptc.fused import FusedStencilOperator
from ..sptc.macpool import col_blocks
from .kernel_matrix import choose_L, padded_width

__all__ = [
    "BatchFeatures",
    "batch_features",
    "CostModel",
    "CalibrationSample",
    "CalibrationResult",
    "calibrate",
]

#: serial_frac values the calibration grid-searches (the Amdahl knee is
#: shallow; a coarse grid suffices and keeps the fit deterministic)
_SERIAL_FRACS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


# ----------------------------------------------------------------------
# features: knobs + workload geometry -> roofline inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchFeatures:
    """Roofline inputs for one served batch (analytic, no measurement)."""

    #: fused-GEMM multiply-adds over the whole batch (all sweeps)
    ops: float
    #: workspace traffic in bytes (padded buffer + X + Y + accumulator)
    bytes_moved: float
    #: GEMM dispatch count: line blocks × column blocks × sweeps
    n_blocks: float
    #: effective parallel ways = min(mac_threads, column blocks per GEMM)
    parallel: int
    #: per-batch overhead units: 1 for a fused super-sweep, ``steps`` for
    #: exact temporal mode (each step pays batching/validation again)
    batch_overheads: int

    @property
    def intensity(self) -> float:
        """Arithmetic intensity (MACs per byte) — diagnostic only."""
        return self.ops / max(self.bytes_moved, 1.0)


def _kernel_rows(radius: int, dims: int) -> int:
    side = 2 * radius + 1
    if dims == 1:
        return 1
    if dims == 2:
        return side
    return side * side


def _sweep_geometry(
    radius: int,
    grid_shape: Tuple[int, ...],
    batch: int,
    *,
    mac_threads: int,
    mac_col_block: int,
    batch_rows: int,
    itemsize: int,
) -> Tuple[float, float, float, int]:
    """(ops, bytes, n_blocks, parallel) of ONE fused sweep.

    Mirrors :class:`~repro.core.executor._PlanWorkspace` and the fused
    operator's ``_plan_blocks`` — these are the counts the real pipeline
    executes, not an idealized tiling — except that the accumulator term
    counts interior lines, where the executor's accumulator also spans
    the halo-position lines it never stores.
    """
    L = choose_L(radius)
    width = padded_width(radius)
    n = grid_shape[-1]
    lead = grid_shape[:-1]
    dims = len(grid_shape)
    chunks = math.ceil(n / L)
    chunks_ext = math.ceil((chunks * L - L + width) / L)
    n_rows = _kernel_rows(radius, dims)
    m_active = n_rows * L
    n_x_rows = width  # upper bound on compact X rows; fit absorbs the gap
    lines_per_grid = int(np.prod(lead)) if lead else 1
    pad_lines_per_grid = (
        int(np.prod([s + 2 * radius for s in lead])) if lead else 1
    )
    n_lines = batch * lines_per_grid
    n_pad_lines = batch * pad_lines_per_grid
    blk = min(batch_rows, n_pad_lines)
    n_line_blocks = math.ceil(n_pad_lines / blk)
    cells_total = n_pad_lines * chunks

    ops = float(m_active) * n_x_rows * cells_total
    acc_elems = n_lines * chunks * L
    elems = (
        n_pad_lines * chunks_ext * L  # padded input buffer
        + n_x_rows * cells_total  # X gather
        + m_active * cells_total  # Y
        + 2.0 * acc_elems  # scatter-accumulate read+write
    )
    bytes_moved = float(itemsize) * elems

    # column split of one line-block GEMM: the operator's _plan_blocks rule
    cells_blk = max(blk * chunks, 2)
    if mac_threads < 2 or cells_blk < mac_col_block:
        n_col_blocks = 1
    else:
        block = min(
            mac_col_block,
            max(
                FusedStencilOperator.MIN_COL_BLOCK,
                math.ceil(cells_blk / (2 * mac_threads)),
            ),
        )
        n_col_blocks = len(col_blocks(cells_blk, max(2, block)))
        if n_col_blocks < 2:
            n_col_blocks = 1
    parallel = min(mac_threads, n_col_blocks) if n_col_blocks > 1 else 1
    n_blocks = float(n_line_blocks * n_col_blocks)
    return ops, bytes_moved, n_blocks, parallel


def batch_features(
    radius: int,
    grid_shape: Tuple[int, ...],
    batch: int,
    *,
    steps: int = 1,
    temporal_mode: str = "exact",
    mac_threads: int = 1,
    mac_col_block: int = FusedStencilOperator.COL_BLOCK,
    precision: str = "exact",
    batch_rows: int = 512,
) -> BatchFeatures:
    """Features of one served batch under the given knobs.

    ``temporal_mode="fused"`` with ``steps > 1`` models
    :class:`~repro.core.temporal.TemporalSpider`'s super-step: one sweep
    of the ``steps``-fold self-convolved kernel (radius ``steps·r``),
    paying the batch overhead once.  ``"exact"`` models ``steps`` chained
    base-radius sweeps, each with its own per-sweep overhead — what the
    serving runtime runs for a ``steps > 1`` request.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    itemsize = 4 if precision == "fp16" else 8
    fused = temporal_mode == "fused" and steps > 1
    eff_radius = radius * steps if fused else radius
    sweeps = 1 if fused else steps
    ops, bts, blocks, parallel = _sweep_geometry(
        eff_radius,
        tuple(grid_shape),
        batch,
        mac_threads=mac_threads,
        mac_col_block=mac_col_block,
        batch_rows=batch_rows,
        itemsize=itemsize,
    )
    return BatchFeatures(
        ops=ops * sweeps,
        bytes_moved=bts * sweeps,
        n_blocks=blocks * sweeps,
        parallel=parallel,
        batch_overheads=sweeps,
    )


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Roofline predictor with fitted constants (see module docstring)."""

    overhead_s: float
    block_overhead_s: float
    inv_peak: float  # seconds per MAC
    inv_bw: float  # seconds per byte
    serial_frac: float

    def predict_s(self, f: BatchFeatures) -> float:
        """Predicted service seconds for one batch."""
        par = max(1, f.parallel)
        ops_eff = f.ops * (
            self.serial_frac + (1.0 - self.serial_frac) / par
        )
        roof = max(ops_eff * self.inv_peak, f.bytes_moved * self.inv_bw)
        return (
            self.overhead_s * f.batch_overheads
            + self.block_overhead_s * f.n_blocks
            + roof
        )

    def predict_ms(self, f: BatchFeatures) -> float:
        return 1e3 * self.predict_s(f)

    def bound(self, f: BatchFeatures) -> str:
        """Which roofline term binds: ``"compute"`` or ``"memory"``."""
        par = max(1, f.parallel)
        ops_eff = f.ops * (
            self.serial_frac + (1.0 - self.serial_frac) / par
        )
        return (
            "compute"
            if ops_eff * self.inv_peak >= f.bytes_moved * self.inv_bw
            else "memory"
        )

    def to_dict(self) -> dict:
        return {
            "overhead_s": float(self.overhead_s),
            "block_overhead_s": float(self.block_overhead_s),
            "inv_peak": float(self.inv_peak),
            "inv_bw": float(self.inv_bw),
            "serial_frac": float(self.serial_frac),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        return cls(
            overhead_s=float(data["overhead_s"]),
            block_overhead_s=float(data["block_overhead_s"]),
            inv_peak=float(data["inv_peak"]),
            inv_bw=float(data["inv_bw"]),
            serial_frac=float(data["serial_frac"]),
        )


@dataclass(frozen=True)
class CalibrationSample:
    """One observation: the features the stack served, and how long it took."""

    features: BatchFeatures
    measured_s: float
    #: optional provenance (knob label, batch size, ...) for reports
    label: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    model: CostModel
    rel_rmse: float
    n_samples: int
    iterations: int


def _fit_at_serial_frac(
    samples: Sequence[CalibrationSample],
    serial_frac: float,
    max_iter: int,
) -> Tuple[CostModel, float, int]:
    """Alternating least squares at one fixed Amdahl serial fraction.

    The roofline max() makes the model piecewise-linear; conditioned on
    each sample's *binding term* it is linear in the four remaining
    parameters, so: assign every sample a binding term, solve the linear
    system, re-assign under the fitted constants, repeat to fixpoint.
    """
    y = np.array([s.measured_s for s in samples], dtype=np.float64)
    n = len(samples)
    ops_eff = np.array(
        [
            s.features.ops
            * (serial_frac + (1.0 - serial_frac) / max(1, s.features.parallel))
            for s in samples
        ]
    )
    bts = np.array([s.features.bytes_moved for s in samples])
    over = np.array(
        [float(s.features.batch_overheads) for s in samples]
    )
    blocks = np.array([s.features.n_blocks for s in samples])

    def solve(compute_bound: np.ndarray) -> np.ndarray:
        A = np.zeros((n, 4))
        A[:, 0] = over
        A[:, 1] = blocks
        A[compute_bound, 2] = ops_eff[compute_bound]
        A[~compute_bound, 3] = bts[~compute_bound]
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        return np.clip(sol, 0.0, None)  # all constants are physical

    # joint (ungated-sum) solve seeds one starting assignment; all-compute
    # and all-memory seed the other two.  Multiple starts matter: from an
    # all-compute start a memory-dominant workload fits inv_bw = 0, and
    # the reassignment rule can then never move a sample off the compute
    # term — the alternation is only locally convergent.
    A_joint = np.stack([over, blocks, ops_eff, bts], axis=1)
    joint, *_ = np.linalg.lstsq(A_joint, y, rcond=None)
    joint = np.clip(joint, 0.0, None)
    starts = [
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
        ops_eff * joint[2] >= bts * joint[3],
    ]

    best_params = None
    best_rel = math.inf
    best_iters = 0
    for compute_bound in starts:
        compute_bound = compute_bound.copy()
        params = solve(compute_bound)
        iters = 1
        for iters in range(2, max_iter + 1):
            new_assign = ops_eff * params[2] >= bts * params[3]
            if np.array_equal(new_assign, compute_bound):
                break
            compute_bound = new_assign
            params = solve(compute_bound)
        roof = np.maximum(ops_eff * params[2], bts * params[3])
        pred = params[0] * over + params[1] * blocks + roof
        rel = float(
            np.sqrt(np.mean(((pred - y) / np.maximum(y, 1e-12)) ** 2))
        )
        if rel < best_rel:
            best_rel, best_params, best_iters = rel, params, iters
    model = CostModel(
        overhead_s=float(best_params[0]),
        block_overhead_s=float(best_params[1]),
        inv_peak=float(best_params[2]),
        inv_bw=float(best_params[3]),
        serial_frac=float(serial_frac),
    )
    return model, best_rel, best_iters


def calibrate(
    samples: Sequence[CalibrationSample],
    *,
    serial_fracs: Sequence[float] = _SERIAL_FRACS,
    max_iter: int = 25,
) -> CalibrationResult:
    """Fit the five roofline constants from measured batches.

    Needs at least 4 samples (four linear parameters); spanning several
    batch sizes and thread counts makes the system well-conditioned.
    """
    if len(samples) < 4:
        raise ValueError(
            f"calibration needs >= 4 samples, got {len(samples)}"
        )
    best: Optional[Tuple[CostModel, float, int]] = None
    for sf in serial_fracs:
        fit = _fit_at_serial_frac(samples, sf, max_iter)
        if best is None or fit[1] < best[1]:
            best = fit
    model, rel_rmse, iters = best
    return CalibrationResult(
        model=model,
        rel_rmse=rel_rmse,
        n_samples=len(samples),
        iterations=iters,
    )
